"""Experiment orchestration behind the CLI subcommands.

Configuration is a flat `key = value` text file merged with command-line
overrides (the flag wins).  Every CSV starts with its header row, followed
by a `# config: ...` comment recording the fully resolved configuration and
artifact version; identical configurations produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import __version__
from .arraymath import _check_integer, beam_pattern, normalize
from .codebooks import (
    SCHEME_BMW_CF,
    SCHEME_PS_DFT,
    SCHEMES,
    build_codebook,
    check_design,
    subarray_plan,
)
from .metrics import GdpConfig, LinkBudget, db_to_linear, gdp, link_budget_report
from .simulate import (
    SimConfig,
    check_search,
    element_power_cdf,
    run_monte_carlo,
    snr_powers,
)
from .storage import deserialize, write_codebook

__all__ = [
    "ConfigError",
    "cmd_beampattern",
    "cmd_cdf",
    "cmd_design",
    "cmd_gdp",
    "cmd_linkbudget",
    "cmd_simulate",
    "load_config_file",
    "resolve_config",
]


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_list(text) -> list:
    """A list value as given, or the comma-separated tokens of a text (a
    scheme tag is checked by `check_design`); refuses an empty list."""
    items = (list(text) if isinstance(text, (list, tuple))
             else [tok.strip() for tok in str(text).split(",") if tok.strip()])
    if not items:
        raise ConfigError(f"expected at least one value, got {text!r}")
    return items


def _parse_floats(text) -> list[float]:
    return [_parse_float(v) for v in _parse_list(text)]


def _parse_ints(text) -> list[int]:
    values = _parse_floats(text)
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"expected comma-separated integers, got {text!r}")
    return [int(v) for v in values]


# rows several commands share
_N = (int, 32, "antenna count per side, a power of m_rf")
_M_RF = (int, 2, "RF chains per side, also the codebook branching")
_GRID = (int, 64, "phase search grid size")
_GAMMA = (_parse_float, 0.0, "design-time per-antenna SNR in dB")
_TAGS = "comma-separated scheme tags"
_OUT = (str, None, "output file")

# key -> (parser, default, help), one table per subcommand.  It is the
# whole interface: every key is a config-file key and the CLI flag
# --key-with-dashes, and both are parsed here, so unknown keys are rejected
# before any computation starts.
COMMAND_KEYS = {
    "design": {
        "scheme": (str, SCHEME_BMW_CF, f"one of {', '.join(SCHEMES)}"),
        "n": _N,
        "m_rf": _M_RF,
        "grid_size": _GRID,
        "gamma_per_db": _GAMMA,
        "out": _OUT,
    },
    "beampattern": {
        "codebook": (str, None, "stored codebook file (required)"),
        "layers": (_parse_ints, None,
                   "comma-separated layer indices (default all)"),
        "indices": (_parse_ints, [1], "comma-separated in-layer indices"),
        "points": (int, 2048, "angle grid size over [-1, 1]"),
        "out": _OUT,
    },
    "gdp": {
        "n": (_parse_ints, [16, 32, 64], "comma-separated antenna counts"),
        "schemes": (_parse_list, list(SCHEMES), _TAGS),
        "m_rf": _M_RF,
        "grid_size": _GRID,
        "gamma_per_db": (_parse_floats, [0.0, 2.0],
                         "comma-separated evaluation SNRs in dB"),
        "out": _OUT,
    },
    "cdf": {
        "n": _N,
        "schemes": (_parse_list, list(SCHEMES), _TAGS),
        "m_rf": _M_RF,
        "grid_size": _GRID,
        "gamma_per_db": _GAMMA,
        "out": _OUT,
    },
    "simulate": {
        "n": _N,
        "m_rf": _M_RF,
        "schemes": (_parse_list, [SCHEME_BMW_CF, SCHEME_PS_DFT], _TAGS),
        "grid_size": _GRID,
        "snr_db": (_parse_floats, [-40.0, -35.0, -30.0, -25.0, -20.0, -15.0,
                                   -10.0], "comma-separated SNR grid in dB"),
        "trials": (int, 500, "Monte Carlo trials"),
        "seed": (int, 0, "random seed in [0, 2**64 - 1]"),
        "papc": (_parse_bool, True, "per-antenna power constraint (default);"
                 " --no-papc fixes the total power instead"),
        "l_s": (int, 32, "training length, at least m_rf"),
        "l_paths": (int, 1, "multipath count"),
        "out": _OUT,
    },
    "linkbudget": {
        "pa_dbm": (_parse_float, 15.0, "PA saturation power in dBm"),
        "wavelength_m": (_parse_float, 0.01, "carrier wavelength in m"),
        "distance_m": (_parse_float, 100.0, "link distance in m"),
        "bandwidth_hz": (_parse_float, 1.0e10, "noise bandwidth in Hz"),
        "temp_k": (_parse_float, 300.0, "ambient temperature in K"),
        "l_s": (int, 128, "training length"),
        "excess_min_db": (_parse_float, 0.0, "smallest excess loss in dB"),
        "excess_max_db": (_parse_float, 15.0, "largest excess loss in dB"),
        "out": _OUT,
    },
}


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file; '#' starts a comment."""
    raw: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def resolve_config(command: str, file_values: dict[str, str] | None = None,
                   overrides: dict | None = None) -> dict:
    """Merge defaults <- config file <- CLI overrides, validating keys."""
    spec = COMMAND_KEYS[command]
    cfg = {key: row[1] for key, row in spec.items()}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in spec:
                raise ConfigError(f"unknown configuration key {key!r} "
                                  f"for command {command!r}")
            parser = spec[key][0]
            try:
                cfg[key] = parser(value)
            except ConfigError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    _validate(command, cfg)
    return cfg


def _sim_config(cfg: dict) -> SimConfig:
    return SimConfig(l_paths=cfg["l_paths"], l_s=cfg["l_s"], n0=1.0,
                     papc=cfg["papc"], seed=cfg["seed"], trials=cfg["trials"])


def _link_budget(cfg: dict) -> LinkBudget:
    return LinkBudget(
        pa_saturation_dbm=cfg["pa_dbm"],
        carrier_wavelength_m=cfg["wavelength_m"],
        distance_m=cfg["distance_m"],
        bandwidth_hz=cfg["bandwidth_hz"],
        ambient_temp_k=cfg["temp_k"],
        training_length=cfg["l_s"],
    )


def _designs(cfg: dict) -> list[tuple[str, int, int, int]]:
    """(scheme, n, m_rf, grid_size) of every codebook a command designs,
    in the order it builds them; none for a command without `m_rf`."""
    if "m_rf" not in cfg:
        return []
    schemes = [cfg["scheme"]] if "scheme" in cfg else cfg["schemes"]
    ns = cfg["n"] if isinstance(cfg["n"], list) else [cfg["n"]]
    return [(scheme, n, cfg["m_rf"], cfg["grid_size"])
            for n in ns for scheme in schemes]


def _validate(command: str, cfg: dict) -> None:
    """Refuse a configuration before any codebook is designed.

    Ranges the library owns are checked by calling their owners
    (`check_design` for every design a command makes, `GdpConfig` for
    every gamma_per_db, `SimConfig`, `snr_powers`, `check_search`,
    `link_budget_report`), whose ValueError becomes a ConfigError.
    """
    try:
        for design in _designs(cfg):
            check_design(*design)
        if command == "beampattern":
            _check_integer("points", cfg["points"], 2)
        for gdb in np.atleast_1d(cfg.get("gamma_per_db", [])).tolist():
            _gdp_cfg(gdb)
        if command == "simulate":
            snr_powers(cfg["snr_db"], _sim_config(cfg).n0)
            check_search(cfg["l_s"], [cfg["m_rf"]])
        elif command == "linkbudget":
            link_budget_report(_link_budget(cfg), (cfg["excess_min_db"],
                                                   cfg["excess_max_db"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if command == "beampattern" and cfg["codebook"] is None:
        raise ConfigError("a codebook file is required (--codebook)")


def _fmt_cell(v) -> str:
    # a float subclass such as numpy's float64 prints as the equal float
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path: str | Path, header: list[str], rows,
              comment: str) -> None:
    lines = [",".join(header), comment]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_rows(command: str, cfg: dict, header: list[str], rows: list,
                echo) -> None:
    """A command's CSV to `out`, if given, and where its rows went.  The
    `# config:` line omits `out`, so a rerun elsewhere writes equal bytes."""
    if not cfg["out"]:
        echo(f"{command}: {len(rows)} rows (no --out given)")
        return
    config = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg)
                      if cfg[k] is not None and k != "out")
    write_csv(cfg["out"], header, rows,
              f"# config: command={command} {config} version={__version__}")
    echo(f"wrote {cfg['out']} ({len(rows)} rows)")


def _gdp_cfg(gamma_per_db: float) -> GdpConfig:
    return GdpConfig(gamma_per=db_to_linear(gamma_per_db))


def cmd_design(cfg: dict, echo=print) -> None:
    """Build a codebook, report per-layer geometry/GDP, write the file."""
    gdp_cfg = _gdp_cfg(cfg["gamma_per_db"])
    (design,) = _designs(cfg)
    cb = build_codebook(*design, gdp_cfg)
    echo(f"scheme={cb.scheme} n={cb.n_antennas} branching={cb.branching} "
         f"layers={cb.depth + 1}")
    for k in range(cb.depth + 1):
        cw = cb.codeword(k, 1)
        quality = gdp(cw.unit_awv, cw.coverage, gdp_cfg)
        if cb.scheme == SCHEME_PS_DFT:
            chains = cb.layers[k].f_rf.shape[2]
            echo(f"  layer {k}: width={cw.coverage.width:g} chains={chains} "
                 f"gdp={quality:.6f}")
        else:
            plan = subarray_plan(cb.n_antennas, cb.branching, cw.coverage)
            echo(f"  layer {k}: width={cw.coverage.width:g} m_s={plan.m_s} "
                 f"n_s={plan.n_s} delta_theta={plan.delta_theta:g} "
                 f"gdp={quality:.6f}")
    if cfg["out"]:
        write_codebook(cb, cfg["out"])
        echo(f"wrote {cfg['out']}")


def cmd_beampattern(cfg: dict, echo=print) -> None:
    """Sample |A|^2 in dB for selected codewords, both normalizations.

    codeword_id encodes scheme, layer, in-layer index and normalization,
    e.g. "bmw-ms-cf/L1/N2/papc"; 'unit' rows are for a unit 2-norm
    codeword, 'papc' rows for max-entry-amplitude 1.  The codebook's
    accessor refuses a layer or index outside it.
    """
    cb = deserialize(Path(cfg["codebook"]).read_text())
    layers = cfg["layers"] if cfg["layers"] is not None else list(
        range(cb.depth + 1))
    grid = np.linspace(-1.0, 1.0, cfg["points"])
    rows = []
    for k in layers:
        for idx in cfg["indices"]:
            cw = cb.codeword(k, idx)
            for mode in ("unit", "papc"):
                gains = beam_pattern(normalize(cw.awv, mode), grid)
                gains_db = 10.0 * np.log10(np.maximum(gains, 1e-30))
                tag = f"{cb.scheme}/L{k}/N{idx}/{mode}"
                rows.extend((float(a), tag, float(g))
                            for a, g in zip(grid, gains_db))
    _write_rows("beampattern", cfg, ["angle", "codeword_id", "gain_db"], rows,
                echo)


def cmd_gdp(cfg: dict, echo=print) -> None:
    """Layer-1 codeword GDP over an antenna-count / scheme / gamma sweep."""
    rows = []
    for design in _designs(cfg):
        cw = build_codebook(*design).codeword(1, 1)
        scheme, n = design[:2]
        for gdb in cfg["gamma_per_db"]:
            value = gdp(cw.unit_awv, cw.coverage, _gdp_cfg(gdb))
            rows.append((n, scheme, float(gdb), value))
    _write_rows("gdp", cfg, ["n", "scheme", "gamma_per_db", "gdp"], rows, echo)
    for n, scheme, gdb, value in rows:
        echo(f"n={n} scheme={scheme} gamma_per={gdb:g}dB gdp={value:.6f}")


def cmd_cdf(cfg: dict, echo=print) -> None:
    """Element-power CDF per scheme (layer-pooled, unit-norm codewords)."""
    rows = []
    for design in _designs(cfg):
        cb = build_codebook(*design, _gdp_cfg(cfg["gamma_per_db"]))
        powers, fracs = element_power_cdf([cb])
        rows.extend((cb.scheme, float(p), float(f))
                    for p, f in zip(powers, fracs))
        echo(f"scheme={cb.scheme} max element power={powers[-1]:.6f}")
    _write_rows("cdf", cfg, ["scheme", "power", "cdf"], rows, echo)


def cmd_simulate(cfg: dict, echo=print) -> None:
    """Monte Carlo success-rate / achievable-rate sweep over SNR."""
    schemes = []
    for design in _designs(cfg):
        cb = build_codebook(*design)
        schemes.append((design[0], cb, cb))
    rows_dicts = run_monte_carlo(schemes, cfg["snr_db"], _sim_config(cfg))
    header = ["snr_db", "scheme", "success_rate", "rate_bps_hz", "trials",
              "stderr"]
    rows = [tuple(r[h] for h in header) for r in rows_dicts]
    _write_rows("simulate", cfg, header, rows, echo)
    for r in rows_dicts:
        echo(f"snr={r['snr_db']:g}dB {r['scheme']}: "
             f"success={r['success_rate']:.4f} rate={r['rate_bps_hz']:.3f}")


def cmd_linkbudget(cfg: dict, echo=print) -> None:
    """Per-antenna SNR budget chain with the published-example notes."""
    report = link_budget_report(
        _link_budget(cfg), (cfg["excess_min_db"], cfg["excess_max_db"]))
    echo(f"PA saturation power:      {report['pa_saturation_dbm']:.2f} dBm")
    echo(f"free-space path loss:     {report['path_loss_db']:.2f} dB")
    echo(f"received power:           {report['received_dbm']:.2f} dBm")
    echo(f"noise power:              {report['noise_dbm']:.2f} dBm")
    echo(f"received SNR:             {report['snr_db']:.2f} dB")
    echo(f"spreading gain (L_S={cfg['l_s']}): {report['spreading_gain_db']:.2f} dB")
    lo, hi = report["gamma_per_range_db"]
    echo(f"gamma_PER (no excess):    {report['gamma_per_db_no_excess']:.2f} dB")
    echo(f"gamma_PER over {cfg['excess_min_db']:g}-{cfg['excess_max_db']:g} dB "
         f"excess loss: [{lo:.2f}, {hi:.2f}] dB")
    for note in report["notes"]:
        echo(f"note: {note}")
    rows = [(key, float(report[key])) for key in
            ("pa_saturation_dbm", "path_loss_db", "received_dbm",
             "noise_dbm", "snr_db", "spreading_gain_db",
             "gamma_per_db_no_excess")]
    rows.append(("gamma_per_min_db", float(lo)))
    rows.append(("gamma_per_max_db", float(hi)))
    _write_rows("linkbudget", cfg, ["quantity", "value_db"], rows, echo)


COMMANDS = {
    "design": cmd_design,
    "beampattern": cmd_beampattern,
    "gdp": cmd_gdp,
    "cdf": cmd_cdf,
    "simulate": cmd_simulate,
    "linkbudget": cmd_linkbudget,
}
