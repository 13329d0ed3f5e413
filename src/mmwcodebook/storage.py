"""Codebook file format: a JSON document with pinned numeric formatting.

Field names are a public contract (see README).  Complex entries are stored
as [re, im] pairs printed with 17 significant digits, which round-trips
float64 exactly; serialization is deterministic, so identical codebooks
yield byte-identical documents.

Member weight vectors are not stored: they are re-derived from the shared
analog matrix, the digital columns and the member's in-composite rotation
(`codebooks.derive_members`), which reproduces them bit-for-bit.
"""

from __future__ import annotations

import json

import numpy as np

from .codebooks import (
    SCHEMES,
    CompositeCodeword,
    HierarchicalCodebook,
    _check_grid_size,
    derive_members,
)
from .metrics import _check_gamma_per

__all__ = ["CodebookFormatError", "deserialize", "serialize"]

FORMAT_NAME = "mmw-hier-codebook"
FORMAT_VERSION = 1


class CodebookFormatError(ValueError):
    """Raised for malformed codebook documents, with a field/line diagnostic."""


def _fmt_float(x: float) -> str:
    # %.16e always prints 17 significant digits and parses back exactly
    return "%.16e" % float(x)


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        raise TypeError("booleans have no place in this format")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(x)


def _emit(obj, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines.append("{")
        items = list(obj.items())
        for pos, (key, val) in enumerate(items):
            lines.append(f"\n{pad}  {json.dumps(key)}: ")
            _emit(val, lines, indent + 1)
            if pos < len(items) - 1:
                lines.append(",")
        lines.append(f"\n{pad}}}")
    elif isinstance(obj, np.ndarray):
        lines.append(_complex_text(obj, pad))
    elif isinstance(obj, (list, tuple)):
        flat = all(isinstance(v, (int, float, np.integer, np.floating))
                   for v in obj)
        if flat:
            lines.append("[" + ", ".join(_fmt_number(v) for v in obj) + "]")
        else:
            lines.append("[")
            for pos, val in enumerate(obj):
                lines.append(f"\n{pad}  ")
                _emit(val, lines, indent + 1)
                if pos < len(obj) - 1:
                    lines.append(",")
            lines.append(f"\n{pad}]")
    elif isinstance(obj, str):
        lines.append(json.dumps(obj))
    else:
        lines.append(_fmt_number(obj))


def _complex_text(v: np.ndarray, pad: str) -> str:
    """A complex vector as `_emit` prints a list of [re, im] pairs.

    One format string for the whole vector, so a column costs its text and
    no Python list or float per entry.
    """
    inner = f"\n{pad}  "
    template = "[" + inner + f",{inner}".join(["[%.16e, %.16e]"] * v.size)
    parts = np.column_stack([v.real, v.imag]).ravel().tolist()
    return template % tuple(parts) + f"\n{pad}]"


def serialize(cb: HierarchicalCodebook) -> str:
    """Render a codebook as the canonical text document."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "scheme": cb.scheme,
        "n_antennas": cb.n_antennas,
        "branching": cb.branching,
        "grid_size": int(cb.grid_size),
        "gamma_per": float(cb.gamma_per),
        "layers": [
            {
                "layer": k,
                "composites": [
                    {
                        "index": comp.index,
                        "analog_columns": [
                            comp.f_rf[:, j]
                            for j in range(comp.f_rf.shape[1])
                        ],
                        "digital_columns": [
                            comp.f_bb[:, j]
                            for j in range(comp.f_bb.shape[1])
                        ],
                        "members": [
                            {
                                "index": cw.index,
                                "coverage_start": cw.coverage.start,
                                "coverage_width": cw.coverage.width,
                            }
                            for cw in comp.members
                        ],
                    }
                    for comp in cb.layers[k]
                ],
            }
            for k in range(len(cb.layers))
        ],
    }
    lines: list[str] = []
    _emit(doc, lines, 0)
    lines.append("\n")
    return "".join(lines)


def _to_float(val, path: str) -> float:
    # JSON integers are unbounded; float() of a huge one overflows
    try:
        return float(val)
    except OverflowError:
        raise CodebookFormatError(
            f"{path} is outside the float range") from None


def _expect(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise CodebookFormatError(f"missing field {path}.{key}")
    val = doc[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise CodebookFormatError(f"field {path}.{key} must be a number")
        return _to_float(val, f"field {path}.{key}")
    if not isinstance(val, kind) or isinstance(val, bool):
        raise CodebookFormatError(
            f"field {path}.{key} must be {kind.__name__}")
    return val


def _parse_complex_vector(raw, n: int, path: str) -> np.ndarray:
    """A list of n finite [re, im] number pairs as a complex vector.

    A well-formed column converts in one `np.array` call.  Anything else
    (strings, null, integers past int64, ragged or non-finite entries)
    takes the per-pair loop, which names the first bad entry.
    """
    if not isinstance(raw, list) or len(raw) != n:
        raise CodebookFormatError(f"{path} must list {n} complex entries")
    try:
        pairs = np.array(raw)
    except (ValueError, OverflowError, TypeError):
        pairs = None
    out = np.empty(n, dtype=np.complex128)
    if (pairs is not None and pairs.dtype.kind in "fi"
            and pairs.shape == (n, 2) and np.all(np.isfinite(pairs))):
        # filled part by part: re + 1j*im would turn -0.0 into +0.0
        out.real = pairs[:, 0]
        out.imag = pairs[:, 1]
        return out
    for p, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)):
            raise CodebookFormatError(f"{path}[{p}] must be a [re, im] pair")
        out[p] = complex(_to_float(pair[0], f"{path}[{p}]"),
                         _to_float(pair[1], f"{path}[{p}]"))
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise CodebookFormatError(f"{path}[{bad[0]}] must be finite")
    return out


def deserialize(text: str) -> HierarchicalCodebook:
    """Parse a codebook document, validating structure and invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodebookFormatError(
            f"malformed document at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise CodebookFormatError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict):
        raise CodebookFormatError("document root must be an object")
    if doc.get("format") != FORMAT_NAME:
        raise CodebookFormatError(
            f"not a {FORMAT_NAME} document (format={doc.get('format')!r})")
    if doc.get("version") != FORMAT_VERSION:
        raise CodebookFormatError(
            f"unsupported format version {doc.get('version')!r}")
    scheme = _expect(doc, "scheme", str, "$")
    if scheme not in SCHEMES:
        raise CodebookFormatError(
            f"unknown scheme tag {scheme!r}; expected one of {SCHEMES}")
    n = _expect(doc, "n_antennas", int, "$")
    branching = _expect(doc, "branching", int, "$")
    grid_size = _expect(doc, "grid_size", int, "$")
    gamma_per = _expect(doc, "gamma_per", float, "$")
    raw_layers = _expect(doc, "layers", list, "$")
    if n < 1:
        raise CodebookFormatError(f"field $.n_antennas must be >= 1, got {n}")
    if branching < 2:
        raise CodebookFormatError(
            f"field $.branching must be >= 2, got {branching}")
    try:
        _check_grid_size(grid_size)
        _check_gamma_per(gamma_per)
    except ValueError as exc:
        raise CodebookFormatError(f"field $.{exc}") from None

    layers: list[list[CompositeCodeword]] = []
    for k, raw_layer in enumerate(raw_layers):
        path = f"$.layers[{k}]"
        if not isinstance(raw_layer, dict):
            raise CodebookFormatError(f"{path} must be an object")
        if _expect(raw_layer, "layer", int, path) != k:
            raise CodebookFormatError(f"{path}.layer must equal {k}")
        raw_comps = _expect(raw_layer, "composites", list, path)
        expected_comps = 1 if k == 0 else branching ** (k - 1)
        if len(raw_comps) != expected_comps:
            raise CodebookFormatError(
                f"{path} must hold {expected_comps} composites, "
                f"found {len(raw_comps)}")
        comps = []
        for c, raw_comp in enumerate(raw_comps, start=1):
            cpath = f"{path}.composites[{c - 1}]"
            if not isinstance(raw_comp, dict):
                raise CodebookFormatError(f"{cpath} must be an object")
            if _expect(raw_comp, "index", int, cpath) != c:
                raise CodebookFormatError(f"{cpath}.index must equal {c}")
            acols = _expect(raw_comp, "analog_columns", list, cpath)
            if not acols:
                raise CodebookFormatError(f"{cpath}.analog_columns is empty")
            f_rf = np.stack(
                [_parse_complex_vector(col, n, f"{cpath}.analog_columns[{j}]")
                 for j, col in enumerate(acols)], axis=1)
            # n is the parsed column length here, so it converts to float
            if np.max(np.abs(np.abs(f_rf) - 1.0 / np.sqrt(n))) > 1e-9:
                raise CodebookFormatError(
                    f"{cpath}.analog_columns violate the constant-amplitude "
                    f"constraint |entry| = 1/sqrt({n})")
            dcols = _expect(raw_comp, "digital_columns", list, cpath)
            expected_members = 1 if k == 0 else branching
            if len(dcols) != expected_members:
                raise CodebookFormatError(
                    f"{cpath}.digital_columns must hold {expected_members} "
                    f"columns, found {len(dcols)}")
            f_bb = np.stack(
                [_parse_complex_vector(col, f_rf.shape[1],
                                       f"{cpath}.digital_columns[{j}]")
                 for j, col in enumerate(dcols)], axis=1)
            for j in range(f_bb.shape[1]):
                if not np.any(f_bb[:, j]):
                    raise CodebookFormatError(
                        f"{cpath}.digital_columns[{j}] is all zero")
            # members derive from column 0; entries too large for float64
            # products must fail here, not as nan weights downstream
            with np.errstate(over="ignore", invalid="ignore"):
                norm = np.linalg.norm(f_rf @ f_bb[:, 0])
            if not 0.0 < norm < np.inf:
                raise CodebookFormatError(
                    f"{cpath}.digital_columns[0] gives member weights of "
                    f"2-norm {norm}")
            members = derive_members(k, c, f_rf, f_bb, branching)
            raw_members = _expect(raw_comp, "members", list, cpath)
            if len(raw_members) != len(members):
                raise CodebookFormatError(
                    f"{cpath}.members must hold {len(members)} entries")
            for cw, raw_cw in zip(members, raw_members):
                mpath = f"{cpath}.members[{cw.index}]"
                if not isinstance(raw_cw, dict):
                    raise CodebookFormatError(f"{mpath} must be an object")
                if _expect(raw_cw, "index", int, mpath) != cw.index:
                    raise CodebookFormatError(
                        f"{mpath}.index must equal {cw.index}")
                start = _expect(raw_cw, "coverage_start", float, mpath)
                width = _expect(raw_cw, "coverage_width", float, mpath)
                if (start != cw.coverage.start or width != cw.coverage.width):
                    raise CodebookFormatError(
                        f"{mpath} coverage [{start}, {start + width}] does "
                        f"not match the layer-{k} grid")
            comps.append(CompositeCodeword(k, c, f_rf, f_bb, members))
        layers.append(comps)

    # no layers would make the power below a float, which a huge branching
    # overflows
    if not layers or branching ** (len(layers) - 1) != n:
        raise CodebookFormatError(
            f"{len(layers)} layers inconsistent with n_antennas={n}, "
            f"branching={branching}")
    return HierarchicalCodebook(scheme, n, branching, layers, grid_size,
                                gamma_per)
