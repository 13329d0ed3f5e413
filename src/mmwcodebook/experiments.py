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
from .arraymath import beam_pattern, normalize
from .codebooks import (
    SCHEME_BMW_CF,
    SCHEME_PS_DFT,
    SCHEMES,
    HierarchicalCodebook,
    build_codebook,
    subarray_plan,
)
from .metrics import GdpConfig, LinkBudget, db_to_linear, gdp, link_budget_report
from .simulate import (
    SimConfig,
    element_power_cdf,
    run_monte_carlo,
    snr_powers,
)
from .storage import deserialize, serialize

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


def _parse_floats(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [_parse_float(v) for v in text]
    try:
        return [_parse_float(tok) for tok in str(text).split(",") if tok.strip()]
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_ints(text) -> list[int]:
    return [int(v) for v in _parse_floats(text)]


def _parse_schemes(text) -> list[str]:
    if isinstance(text, (list, tuple)):
        names = [str(v) for v in text]
    else:
        names = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    for name in names:
        if name not in SCHEMES:
            raise ConfigError(f"unknown scheme {name!r}; expected one of {SCHEMES}")
    if not names:
        raise ConfigError("at least one scheme is required")
    return names


# key -> (parser, default); one table per subcommand so unknown keys are
# rejected before any computation starts
COMMAND_KEYS = {
    "design": {
        "scheme": (str, SCHEME_BMW_CF),
        "n": (int, 32),
        "m_rf": (int, 2),
        "grid_size": (int, 64),
        "gamma_per_db": (_parse_float, 0.0),
        "out": (str, None),
    },
    "beampattern": {
        "codebook": (str, None),
        "layers": (_parse_ints, None),
        "indices": (_parse_ints, [1]),
        "points": (int, 2048),
        "out": (str, None),
    },
    "gdp": {
        "n": (_parse_ints, [16, 32, 64]),
        "schemes": (_parse_schemes, list(SCHEMES)),
        "m_rf": (int, 2),
        "grid_size": (int, 64),
        "gamma_per_db": (_parse_floats, [0.0, 2.0]),
        "out": (str, None),
    },
    "cdf": {
        "n": (int, 32),
        "schemes": (_parse_schemes, list(SCHEMES)),
        "m_rf": (int, 2),
        "grid_size": (int, 64),
        "gamma_per_db": (_parse_float, 0.0),
        "out": (str, None),
    },
    "simulate": {
        "n": (int, 32),
        "m_rf": (int, 2),
        "schemes": (_parse_schemes, [SCHEME_BMW_CF, SCHEME_PS_DFT]),
        "grid_size": (int, 64),
        "snr_db": (_parse_floats, [-40.0, -35.0, -30.0, -25.0, -20.0, -15.0,
                                   -10.0]),
        "trials": (int, 500),
        "seed": (int, 0),
        "papc": (_parse_bool, True),
        "l_s": (int, 32),
        "l_paths": (int, 1),
        "workers": (int, 1),
        "out": (str, None),
    },
    "linkbudget": {
        "pa_dbm": (_parse_float, 15.0),
        "wavelength_m": (_parse_float, 0.01),
        "distance_m": (_parse_float, 100.0),
        "bandwidth_hz": (_parse_float, 1.0e10),
        "temp_k": (_parse_float, 300.0),
        "l_s": (int, 128),
        "excess_min_db": (_parse_float, 0.0),
        "excess_max_db": (_parse_float, 15.0),
        "out": (str, None),
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
    cfg = {key: default for key, (_, default) in spec.items()}
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
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    _validate(command, cfg)
    return cfg


def _require_power(n: int, base: int, what: str) -> None:
    v = base
    while v < n:
        v *= base
    if v != n or n < base:
        raise ConfigError(f"{what}: {n} is not a power of {base}")


def _validate(command: str, cfg: dict) -> None:
    if command == "design":
        if cfg["scheme"] not in SCHEMES:
            raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
        if cfg["m_rf"] < 2:
            raise ConfigError("m_rf must be >= 2")
        _require_power(cfg["n"], cfg["m_rf"], "n")
        if cfg["grid_size"] < 8:
            raise ConfigError("grid_size must be >= 8")
    elif command == "beampattern":
        if cfg["codebook"] is None:
            raise ConfigError("a codebook file is required (--codebook)")
        if cfg["points"] < 2:
            raise ConfigError("points must be >= 2")
        if not cfg["indices"]:
            raise ConfigError("indices must be non-empty")
    elif command in ("gdp", "cdf"):
        ns = cfg["n"] if command == "gdp" else [cfg["n"]]
        if cfg["m_rf"] < 2:
            raise ConfigError("m_rf must be >= 2")
        for n in ns:
            _require_power(n, cfg["m_rf"], "n")
        if cfg["grid_size"] < 8:
            raise ConfigError("grid_size must be >= 8")
    elif command == "simulate":
        if cfg["m_rf"] < 2:
            raise ConfigError("m_rf must be >= 2")
        _require_power(cfg["n"], cfg["m_rf"], "n")
        if cfg["trials"] < 1:
            raise ConfigError("trials must be >= 1")
        if cfg["l_s"] < cfg["m_rf"]:
            raise ConfigError("l_s must be >= m_rf to keep training "
                              "sequences orthogonal")
        if cfg["l_paths"] < 1:
            raise ConfigError("l_paths must be >= 1")
        if cfg["workers"] < 1:
            raise ConfigError("workers must be >= 1")
        if cfg["seed"] < 0 or cfg["seed"] > 2 ** 64 - 1:
            raise ConfigError("seed must fit in 64 bits")
        if not cfg["snr_db"]:
            raise ConfigError("snr_db must be non-empty")
    elif command == "linkbudget":
        if cfg["wavelength_m"] <= 0 or cfg["distance_m"] <= 0:
            raise ConfigError("wavelength and distance must be positive")
        if cfg["bandwidth_hz"] <= 0 or cfg["temp_k"] <= 0:
            raise ConfigError("bandwidth and temperature must be positive")
        if cfg["l_s"] < 1:
            raise ConfigError("l_s must be >= 1")
        if cfg["excess_min_db"] < 0 or cfg["excess_max_db"] < cfg["excess_min_db"]:
            raise ConfigError("excess loss range must be 0 <= min <= max")


# keys that cannot change results and would break byte-identity across
# reruns (output location) or worker counts (scheduling only)
_PROVENANCE_SKIP = {"out", "workers"}


def _config_comment(command: str, cfg: dict) -> str:
    parts = [f"{k}={cfg[k]}" for k in sorted(cfg)
             if cfg[k] is not None and k not in _PROVENANCE_SKIP]
    return f"# config: command={command} " + " ".join(parts) + \
        f" version={__version__}"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str | Path, header: list[str], rows,
              comment: str) -> None:
    lines = [",".join(header), comment]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _gdp_cfg(gamma_per_db: float) -> GdpConfig:
    return GdpConfig(gamma_per=db_to_linear(gamma_per_db))


def cmd_design(cfg: dict, echo=print) -> None:
    """Build a codebook, report per-layer geometry/GDP, write the file."""
    gdp_cfg = _gdp_cfg(cfg["gamma_per_db"])
    cb = build_codebook(cfg["scheme"], cfg["n"], cfg["m_rf"],
                        cfg["grid_size"], gdp_cfg)
    echo(f"scheme={cb.scheme} n={cb.n_antennas} branching={cb.branching} "
         f"layers={cb.depth + 1}")
    for k in range(cb.depth + 1):
        cw = cb.codeword(k, 1)
        quality = gdp(cw.unit_awv, cw.coverage, gdp_cfg)
        if cb.scheme == SCHEME_PS_DFT:
            chains = cb.layers[k][0].f_rf.shape[1]
            echo(f"  layer {k}: width={cw.coverage.width:g} chains={chains} "
                 f"gdp={quality:.6f}")
        else:
            plan = subarray_plan(cb.n_antennas, cb.branching, cw.coverage)
            echo(f"  layer {k}: width={cw.coverage.width:g} m_s={plan.m_s} "
                 f"n_s={plan.n_s} delta_theta={plan.delta_theta:g} "
                 f"gdp={quality:.6f}")
    if cfg["out"]:
        Path(cfg["out"]).write_text(serialize(cb))
        echo(f"wrote {cfg['out']}")


def _load_codebook(path: str) -> HierarchicalCodebook:
    return deserialize(Path(path).read_text())


def cmd_beampattern(cfg: dict, echo=print) -> None:
    """Sample |A|^2 in dB for selected codewords, both normalizations.

    codeword_id encodes scheme, layer, in-layer index and normalization,
    e.g. "bmw-ms-cf/L1/N2/papc"; 'unit' rows are for a unit 2-norm
    codeword, 'papc' rows for max-entry-amplitude 1.
    """
    cb = _load_codebook(cfg["codebook"])
    layers = cfg["layers"] if cfg["layers"] is not None else list(
        range(cb.depth + 1))
    grid = np.linspace(-1.0, 1.0, cfg["points"])
    rows = []
    for k in layers:
        if not 0 <= k <= cb.depth:
            raise ConfigError(f"layer {k} out of range 0..{cb.depth}")
        for idx in cfg["indices"]:
            if not 1 <= idx <= cb.branching ** k:
                raise ConfigError(f"index {idx} out of range at layer {k}")
            cw = cb.codeword(k, idx)
            for mode in ("unit", "papc"):
                gains = beam_pattern(normalize(cw.awv, mode), grid)
                gains_db = 10.0 * np.log10(np.maximum(gains, 1e-30))
                tag = f"{cb.scheme}/L{k}/N{idx}/{mode}"
                rows.extend((float(a), tag, float(g))
                            for a, g in zip(grid, gains_db))
    comment = _config_comment("beampattern", cfg)
    if cfg["out"]:
        write_csv(cfg["out"], ["angle", "codeword_id", "gain_db"], rows, comment)
        echo(f"wrote {cfg['out']} ({len(rows)} rows)")
    else:
        echo(f"beampattern: {len(rows)} rows (no --out given)")


def cmd_gdp(cfg: dict, echo=print) -> None:
    """Layer-1 codeword GDP over an antenna-count / scheme / gamma sweep."""
    rows = []
    design_cfg = GdpConfig()
    for n in cfg["n"]:
        for scheme in cfg["schemes"]:
            cb = build_codebook(scheme, n, cfg["m_rf"], cfg["grid_size"],
                                design_cfg)
            cw = cb.codeword(1, 1)
            for gdb in cfg["gamma_per_db"]:
                value = gdp(cw.unit_awv, cw.coverage, _gdp_cfg(gdb))
                rows.append((n, scheme, float(gdb), value))
    comment = _config_comment("gdp", cfg)
    if cfg["out"]:
        write_csv(cfg["out"], ["n", "scheme", "gamma_per_db", "gdp"], rows,
                  comment)
        echo(f"wrote {cfg['out']} ({len(rows)} rows)")
    for n, scheme, gdb, value in rows:
        echo(f"n={n} scheme={scheme} gamma_per={gdb:g}dB gdp={value:.6f}")


def cmd_cdf(cfg: dict, echo=print) -> None:
    """Element-power CDF per scheme (layer-pooled, unit-norm codewords)."""
    rows = []
    for scheme in cfg["schemes"]:
        cb = build_codebook(scheme, cfg["n"], cfg["m_rf"], cfg["grid_size"],
                            _gdp_cfg(cfg["gamma_per_db"]))
        powers, fracs = element_power_cdf([cb])
        rows.extend((scheme, float(p), float(f))
                    for p, f in zip(powers, fracs))
        echo(f"scheme={scheme} max element power={powers[-1]:.6f}")
    if cfg["out"]:
        write_csv(cfg["out"], ["scheme", "power", "cdf"], rows,
                  _config_comment("cdf", cfg))
        echo(f"wrote {cfg['out']} ({len(rows)} rows)")


def cmd_simulate(cfg: dict, echo=print) -> None:
    """Monte Carlo success-rate / achievable-rate sweep over SNR."""
    sim = SimConfig(l_paths=cfg["l_paths"], l_s=cfg["l_s"], n0=1.0,
                    papc=cfg["papc"], seed=cfg["seed"], trials=cfg["trials"])
    snr_powers(cfg["snr_db"], sim.n0)
    design_cfg = GdpConfig()
    schemes = []
    for scheme in cfg["schemes"]:
        cb = build_codebook(scheme, cfg["n"], cfg["m_rf"], cfg["grid_size"],
                            design_cfg)
        schemes.append((scheme, cb, cb))
    rows_dicts = run_monte_carlo(schemes, cfg["snr_db"], sim,
                                 workers=cfg["workers"])
    header = ["snr_db", "scheme", "success_rate", "rate_bps_hz", "trials",
              "stderr"]
    rows = [tuple(r[h] for h in header) for r in rows_dicts]
    if cfg["out"]:
        write_csv(cfg["out"], header, rows, _config_comment("simulate", cfg))
        echo(f"wrote {cfg['out']} ({len(rows)} rows)")
    for r in rows_dicts:
        echo(f"snr={r['snr_db']:g}dB {r['scheme']}: "
             f"success={r['success_rate']:.4f} rate={r['rate_bps_hz']:.3f}")


def cmd_linkbudget(cfg: dict, echo=print) -> None:
    """Per-antenna SNR budget chain with the published-example notes."""
    lb = LinkBudget(
        pa_saturation_dbm=cfg["pa_dbm"],
        carrier_wavelength_m=cfg["wavelength_m"],
        distance_m=cfg["distance_m"],
        bandwidth_hz=cfg["bandwidth_hz"],
        ambient_temp_k=cfg["temp_k"],
        training_length=cfg["l_s"],
    )
    report = link_budget_report(
        lb, (cfg["excess_min_db"], cfg["excess_max_db"]))
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
    if cfg["out"]:
        rows = [(key, float(report[key])) for key in
                ("pa_saturation_dbm", "path_loss_db", "received_dbm",
                 "noise_dbm", "snr_db", "spreading_gain_db",
                 "gamma_per_db_no_excess")]
        rows.append(("gamma_per_min_db", float(lo)))
        rows.append(("gamma_per_max_db", float(hi)))
        write_csv(cfg["out"], ["quantity", "value_db"], rows,
                  _config_comment("linkbudget", cfg))
        echo(f"wrote {cfg['out']}")


COMMANDS = {
    "design": cmd_design,
    "beampattern": cmd_beampattern,
    "gdp": cmd_gdp,
    "cdf": cmd_cdf,
    "simulate": cmd_simulate,
    "linkbudget": cmd_linkbudget,
}
