import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mmwcodebook import __version__, deserialize, experiments
from mmwcodebook.cli import build_parser, main
from mmwcodebook.experiments import (
    COMMAND_KEYS,
    ConfigError,
    load_config_file,
    resolve_config,
)


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert lines[1].startswith("# config:")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfigHandling:
    def test_file_plus_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("n = 8\ntrials = 3\nseed = 5  # comment\n")
        file_values = load_config_file(cfgfile)
        cfg = resolve_config("simulate", file_values, {"trials": 7})
        assert cfg["n"] == 8
        assert cfg["trials"] == 7  # flag wins
        assert cfg["seed"] == 5

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("antennas = 8\n")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            resolve_config("simulate", load_config_file(cfgfile), {})

    def test_malformed_line_rejected(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("n 8\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(cfgfile)

    @pytest.mark.parametrize("command, key", [
        ("gdp", "n"), ("gdp", "gamma_per_db"), ("simulate", "snr_db"),
        ("beampattern", "layers"), ("beampattern", "indices")])
    @pytest.mark.parametrize("text", ["", " , "])
    def test_empty_list_rejected_naming_the_key(self, command, key, text):
        values = {**REQUIRED.get(command, {}), key: text}
        with pytest.raises(ConfigError,
                           match=f"bad value for '{key}': expected at least"):
            resolve_config(command, values)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("# a sweep\n\n   \nn = 8\n  # trials = 3\n")
        assert load_config_file(cfgfile) == {"n": "8"}

    def test_bad_boolean_in_file_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("papc = maybe\n")
        assert main(["simulate", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == (
            "error: bad value for 'papc': expected a boolean, got 'maybe'\n")

    def test_workers_is_unknown(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("workers = 2\n")
        assert main(["simulate", "--config", str(cfgfile)]) == 2
        assert "unknown configuration key 'workers'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workers", "2"])
        assert exc.value.code == 2

    def test_ranges_validated_before_compute(self):
        with pytest.raises(ConfigError):
            resolve_config("simulate", {}, {"trials": 0})
        with pytest.raises(ConfigError):
            resolve_config("simulate", {}, {"l_s": 1, "m_rf": 2})
        with pytest.raises(ConfigError):
            resolve_config("design", {}, {"n": 12})

    def test_out_of_range_snr_rejected(self):
        with pytest.raises(ConfigError, match="4000"):
            resolve_config("simulate", overrides={"snr_db": "4000"})


class TestDesignCommand:
    def test_writes_codebook(self, tmp_path, capsys):
        out = tmp_path / "cb.txt"
        assert run(["design", "--scheme", "bmw-ms-cf", "--n", "32",
                    "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "layers=6" in text
        assert "m_s=" in text and "gdp=" in text
        cb = deserialize(out.read_text())
        assert cb.n_antennas == 32

    def test_ps_dft_reports_chains_per_layer(self, capsys):
        # ps-dft's report gives each layer's virtual RF chains, N / 2^k
        assert run(["design", "--scheme", "ps-dft", "--n", "16"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "scheme=ps-dft n=16 branching=2 layers=5",
            "  layer 0: width=2 chains=16 gdp=0.745209",
            "  layer 1: width=1 chains=8 gdp=0.839172",
            "  layer 2: width=0.5 chains=4 gdp=0.939765",
            "  layer 3: width=0.25 chains=2 gdp=0.981773",
            "  layer 4: width=0.125 chains=1 gdp=0.994639",
        ]

    def test_rejects_non_power(self, capsys):
        assert run(["design", "--n", "12"]) == 2

    def test_rejects_non_numeric_size(self, capsys):
        # the key's own parser (int) refuses the text
        assert run(["design", "--n", "abc"]) == 2
        assert capsys.readouterr().err == "error: bad value for 'n': 'abc'\n"

    def test_rejects_non_finite_gamma(self, tmp_path, capsys):
        out = tmp_path / "cb.txt"
        assert run(["design", "--n", "8", "--gamma-per-db=inf",
                    "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_overflowing_gamma(self, tmp_path, capsys):
        out = tmp_path / "cb.txt"
        assert run(["design", "--n", "8", "--gamma-per-db=4000",
                    "--out", str(out)]) == 2
        assert "4000" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["design", "--scheme", "bmw-ms-lcs", "--n", "8",
                "--grid-size", "64"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBeampatternCommand:
    @pytest.fixture()
    def codebook_file(self, tmp_path):
        path = tmp_path / "cb.txt"
        assert run(["design", "--scheme", "bmw-ms-cf", "--n", "16",
                    "--out", str(path)]) == 0
        return path

    def test_missing_codebook_key_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["beampattern", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: a codebook file is required (--codebook)\n")
        assert not out.exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["beampattern", "--codebook", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "x.csv")]) == 4

    def test_huge_number_in_file_exits_2(self, codebook_file, tmp_path,
                                         capsys):
        doc = json.loads(codebook_file.read_text())
        doc["layers"][0]["composites"][0]["analog_columns"][0][0][0] = 10 ** 400
        codebook_file.write_text(json.dumps(doc))
        out = tmp_path / "bp.csv"
        assert run(["beampattern", "--codebook", str(codebook_file),
                    "--out", str(out)]) == 2
        assert "outside the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--layers", "5"], "layer must be an integer in [0, 4], got 5"),
        (["--indices", "0"], "index must be an integer in [1, 1], got 0"),
    ])
    def test_codeword_outside_the_codebook_exits_2(self, codebook_file,
                                                    tmp_path, capsys, flags,
                                                    message):
        out = tmp_path / "bp.csv"
        assert run(["beampattern", "--codebook", str(codebook_file),
                    "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bottom_layer_peak(self, codebook_file, tmp_path):
        out = tmp_path / "bp.csv"
        assert run(["beampattern", "--codebook", str(codebook_file),
                    "--layers", "4", "--points", "4097",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["angle", "codeword_id", "gain_db"]
        unit = [(float(r[0]), float(r[2])) for r in rows
                if r[1].endswith("/unit")]
        peak_angle, peak_db = max(unit, key=lambda t: t[1])
        # bottom-layer codeword 1 peaks near its bin center at ~10log10(N)
        assert peak_db == pytest.approx(10 * math.log10(16), abs=0.5)
        assert abs(peak_angle - (-1.0 + 1.0 / 16)) <= 2.0 / 4096

    def test_papc_offset_is_constant(self, codebook_file, tmp_path):
        out = tmp_path / "bp.csv"
        assert run(["beampattern", "--codebook", str(codebook_file),
                    "--layers", "1", "--points", "257",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        unit = np.array([float(r[2]) for r in rows if r[1].endswith("/unit")])
        papc = np.array([float(r[2]) for r in rows if r[1].endswith("/papc")])
        # the scalar-rescaling identity holds wherever the pattern is above
        # the -300 dB storage floor (deep nulls clip in both columns)
        live = unit > -200.0
        assert live.sum() > 200
        diffs = (papc - unit)[live]
        assert np.allclose(diffs, diffs[0], atol=1e-9)
        cb = deserialize(codebook_file.read_text())
        w = cb.codeword(1, 1).unit_awv
        expect = 10 * math.log10(1.0 / np.max(np.abs(w)) ** 2)
        assert diffs[0] == pytest.approx(expect, abs=1e-9)


class TestGdpCommand:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "gdp.csv"
        assert run(["gdp", "--n", "16", "--schemes", "bmw-ms-cf,ps-dft",
                    "--gamma-per-db", "0", "--grid-size", "16",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "scheme", "gamma_per_db", "gdp"]
        values = {r[1]: float(r[3]) for r in rows}
        assert values["bmw-ms-cf"] > values["ps-dft"]

    @pytest.mark.parametrize("argv", [
        ["gdp", "--n", "16", "--gamma-per-db", "0,4000"],
        ["gdp", "--n", "16", "--gamma-per-db=0,-4000"],
        ["design", "--n", "16", "--gamma-per-db", "4000"],
        ["cdf", "--n", "16", "--gamma-per-db=-4000"],
    ])
    def test_rejects_gamma_before_any_design(self, tmp_path, monkeypatch,
                                             argv):
        designs = []
        monkeypatch.setattr(experiments, "build_codebook",
                            lambda *args, **kwargs: designs.append(args))
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert designs == []
        assert list(tmp_path.iterdir()) == []


class TestCdfCommand:
    def test_pooled_powers(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert run(["cdf", "--n", "16", "--schemes", "bmw-ms-cf",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["scheme", "power", "cdf"]
        assert len(rows) == 16 * 4
        cdf = [float(r[2]) for r in rows]
        assert cdf[-1] == 1.0


class TestSimulateCommand:
    def test_config_file_end_to_end(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(
            "n = 8\n"
            "schemes = bmw-ms-cf\n"
            "snr_db = -25,-15\n"
            "trials = 8\n"
            "seed = 12\n"
            "l_s = 8\n"
            "papc = true\n")
        out = tmp_path / "sweep.csv"
        assert run(["simulate", "--config", str(cfgfile), "--trials", "10",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 2
        assert all(r[4] == "10" for r in rows)  # flag overrode the file
        comment = out.read_text().splitlines()[1]
        assert "trials=10" in comment and "seed=12" in comment

    def test_single_row_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "8", "--trials", "1", "--seed", "42",
                "--snr-db", "-20", "--schemes", "bmw-ms-cf", "--l-s", "8"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, rows = read_csv(a)
        assert header == ["snr_db", "scheme", "success_rate", "rate_bps_hz",
                          "trials", "stderr"]
        assert len(rows) == 1

    def test_rows_echoed_without_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--n", "8", "--trials", "2", "--l-s", "8",
                    "--snr-db=-20,-10", "--schemes", "bmw-ms-cf"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "simulate: 2 rows (no --out given)"
        assert len(out) == 3  # then one line per row
        assert list(tmp_path.iterdir()) == []

    def test_rejects_non_finite_snr(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["simulate", "--n", "8", "--trials", "1", "--l-s", "8",
                    "--snr-db=-20,nan", "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    # 3060 dB is a finite power whose rate overflows in some of 20 trials
    @pytest.mark.parametrize("snr", ["4000", "-4000", "3060"])
    def test_rejects_out_of_range_snr(self, tmp_path, capsys, snr):
        out = tmp_path / "sweep.csv"
        assert run(["simulate", "--n", "8", "--trials", "20", "--l-s", "8",
                    f"--snr-db=-20,{snr}", "--out", str(out)]) == 2
        assert snr in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_snr_before_any_design(self, tmp_path, capsys,
                                           monkeypatch):
        def no_design(*args, **kwargs):
            pytest.fail("a codebook was designed for a sweep with a bad SNR")

        monkeypatch.setattr(experiments, "build_codebook", no_design)
        out = tmp_path / "sweep.csv"
        assert run(["simulate", "--n", "64", "--schemes", "bmw-ms-lcs",
                    "--snr-db=4000", "--out", str(out)]) == 2
        assert "4000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestLinkbudgetCommand:
    def test_chain_values(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        assert run(["linkbudget", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "note:" in text
        header, rows = read_csv(out)
        assert header == ["quantity", "value_db"]
        values = {r[0]: float(r[1]) for r in rows}
        assert values["spreading_gain_db"] == pytest.approx(21.0, abs=0.1)
        assert values["received_dbm"] == pytest.approx(-87.0, abs=0.5)
        assert values["noise_dbm"] == pytest.approx(-74.0, abs=0.5)


# one valid, non-default text value per configuration key
SAMPLES = {
    "scheme": "ps-dft", "n": "16", "m_rf": "4", "grid_size": "16",
    "gamma_per_db": "1.5", "codebook": "cb.txt", "layers": "1,2",
    "indices": "2", "points": "5", "schemes": "ps-dft,bmw-ms-cf",
    "snr_db": "-5,-3", "trials": "3", "seed": "7", "papc": "false",
    "l_s": "8", "l_paths": "2", "pa_dbm": "10",
    "wavelength_m": "0.02", "distance_m": "50", "bandwidth_hz": "1e9",
    "temp_k": "290", "excess_min_db": "1", "excess_max_db": "2",
    "out": "o.csv",
}
# keys a command cannot run without, and keys a sample value needs
REQUIRED = {"beampattern": {"codebook": "cb.txt"}}
COMPANIONS = {"m_rf": {"n": "16"}}


def subcommand_parsers():
    parser = build_parser()
    subs = next(a for a in parser._actions if a.dest == "command")
    return subs.choices


def flag_argv(values):
    argv = []
    for key, text in values.items():
        flag = "--" + key.replace("_", "-")
        if key == "papc":
            argv.append(flag if text == "true" else "--no-papc")
        else:
            argv.append(f"{flag}={text}")
    return argv


class TestGeneratedFlags:
    @pytest.fixture()
    def captured(self, monkeypatch):
        """Resolved cfg per run of `main`, with every command stubbed."""
        seen = []
        for command, func in list(experiments.COMMANDS.items()):
            def stub(cfg):
                seen.append(cfg)
            stub.__doc__ = func.__doc__
            monkeypatch.setitem(experiments.COMMANDS, command, stub)
        return seen

    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    def test_flags_are_the_table_plus_config(self, command):
        sub = subcommand_parsers()[command]
        flags = {opt for action in sub._actions for opt in action.option_strings
                 if opt not in ("-h", "--help")}
        expected = {"--config"} | {"--" + key.replace("_", "-")
                                   for key in COMMAND_KEYS[command]}
        if "papc" in COMMAND_KEYS[command]:
            expected.add("--no-papc")
        assert flags == expected
        assert set(SAMPLES) >= set(COMMAND_KEYS[command])

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in sorted(COMMAND_KEYS)
        for key in COMMAND_KEYS[command]])
    def test_flag_and_config_file_resolve_alike(self, command, key, tmp_path,
                                                captured):
        values = {**REQUIRED.get(command, {}), **COMPANIONS.get(key, {}),
                  key: SAMPLES[key]}
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main([command] + flag_argv(values)) == 0
        assert main([command, "--config", str(cfgfile)]) == 0
        by_flag, by_file = captured
        assert by_flag == by_file
        assert by_flag[key] != COMMAND_KEYS[command][key][1]

    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_papc_pair(self, captured):
        assert main(["simulate", "--no-papc"]) == 0
        assert main(["simulate", "--papc"]) == 0
        assert main(["simulate"]) == 0
        assert [cfg["papc"] for cfg in captured] == [False, True, True]

    @pytest.mark.parametrize("argv", [
        ["design", "--scheme", "foo"],
        ["design", "--m-rf", "1"],
        ["design", "--grid-size", "4"],
        ["simulate", "--trials", "0"],
        ["simulate", "--l-s", "1"],
        ["simulate", "--seed=-1"],
        ["simulate", "--seed", "18446744073709551616"],
        ["simulate", "--l-paths", "0"],
        ["gdp", "--n", ""],
        ["gdp", "--gamma-per-db", ""],
        # checked before the file is read, which would exit 4 here
        ["beampattern", "--codebook", "cb.txt", "--layers", ""],
        ["linkbudget", "--excess-min-db", "5", "--excess-max-db", "1"],
        # 4*pi*d/lambda overflows, and kTB underflows to 0
        ["linkbudget", "--distance-m", "1e308"],
        ["linkbudget", "--bandwidth-hz", "1e-300", "--temp-k", "1e-300"],
        # finite inputs whose gamma_per range overflows to -inf
        ["linkbudget", "--pa-dbm=-1.7e308", "--excess-max-db", "1.7e308"],
    ])
    def test_bad_value_exits_2_and_writes_nothing(self, argv, tmp_path,
                                                  capsys):
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gdp", "cdf", "simulate"])
    def test_unknown_scheme_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--schemes", "sparse", "--out", str(out)]) == 2
        assert "unknown scheme 'sparse'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestIntegerLists:
    @pytest.mark.parametrize("command, key, text", [
        ("gdp", "n", "16.9"),
        ("beampattern", "layers", "1.5"),
        ("beampattern", "indices", "2.9"),
    ])
    def test_non_integral_value_rejected(self, command, key, text, tmp_path,
                                         capsys):
        values = {**REQUIRED.get(command, {}), key: text}
        with pytest.raises(ConfigError, match="integers"):
            resolve_config(command, values)
        out = tmp_path / "out.csv"
        assert main([command, "--out", str(out)] + flag_argv(values)) == 2
        assert "integers" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_values_still_accepted(self):
        assert resolve_config("gdp", {"n": "16.0, 32"})["n"] == [16, 32]


def test_readme_key_table_matches_command_keys():
    # the README's CLI table lists each command's keys in a code span; the
    # flags are generated from COMMAND_KEYS, so the two must agree
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \|.*\| `([\w ]+)` \|$", text,
                      re.MULTILINE)
    assert {command: keys.split() for command, keys in rows} == {
        command: list(spec) for command, spec in COMMAND_KEYS.items()}


def test_pyproject_version_matches_package():
    # every CSV's config line records __version__; the packaged version
    # must say the same.  tomllib needs Python 3.11, so read the line.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    found = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', text, re.MULTILINE)
    assert found == [__version__]
