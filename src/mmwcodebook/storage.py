"""Codebook file format: a JSON document with pinned numeric formatting.

Field names and layout are a public contract (see README).  `serialize`
prints that one layout straight from the `CodebookLayer` arrays: two-space
indents, one field or [re, im] pair per line, integers as such and every
other number with 17 significant digits, which round-trips float64
exactly.  Identical codebooks yield byte-identical documents.
`write_codebook` writes the same pieces to a file one at a time.

Member weights are not stored: `codebooks.CodebookLayer` re-derives them
bit for bit.  The reader turns each composite's columns into arrays while
the JSON is parsed and checks JSON types and shapes; the codebook types
check the contents, and their ValueError becomes a CodebookFormatError.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

from .codebooks import (
    CodebookLayer,
    HierarchicalCodebook,
    _check_sizes,
    coverage_interval,
)
from .metrics import _check_gamma_per

__all__ = ["CodebookFormatError", "deserialize", "serialize",
           "write_codebook"]

FORMAT_NAME = "mmw-hier-codebook"
FORMAT_VERSION = 1


class CodebookFormatError(ValueError):
    """Raised for malformed codebook documents, with a field/line diagnostic."""


def _complex_text(v: np.ndarray, pad: str) -> str:
    """A complex vector as a JSON list of [re, im] pairs, one per line two
    spaces in from `pad`.  One format string for the whole vector, so a
    column costs its text and no Python list or float per entry.
    """
    inner = f"\n{pad}  "
    template = "[" + inner + f",{inner}".join(["[%.16e, %.16e]"] * v.size)
    parts = np.column_stack([v.real, v.imag]).ravel().tolist()
    return template % tuple(parts) + f"\n{pad}]"


def _columns_text(key: str, matrix: np.ndarray) -> Iterator[str]:
    """A composite's field `key` in pieces: the columns of `matrix`."""
    pad = " " * 12
    yield f'\n          "{key}": ['
    for j in range(matrix.shape[1]):
        yield f",\n{pad}" if j else f"\n{pad}"
        yield _complex_text(matrix[:, j], pad)
    yield "\n          ],"


# a composite's member: separator, 1-based index and coverage
_MEMBER = ('%s\n            {\n              "index": %d,\n'
           '              "coverage_start": %.16e,\n'
           '              "coverage_width": %.16e\n            }')


def _document(cb: HierarchicalCodebook) -> Iterator[str]:
    """The canonical text document of `cb` in pieces, one per column."""
    yield ("{\n"
           f'  "format": "{FORMAT_NAME}",\n'
           f'  "version": {FORMAT_VERSION},\n'
           f'  "scheme": {json.dumps(cb.scheme)},\n'
           f'  "n_antennas": {int(cb.n_antennas)},\n'
           f'  "branching": {int(cb.branching)},\n'
           f'  "grid_size": {int(cb.grid_size)},\n'
           f'  "gamma_per": {cb.gamma_per:.16e},\n'
           '  "layers": [')
    for k, layer in enumerate(cb.layers):
        yield (f'{"," if k else ""}\n    {{\n      "layer": {k},\n'
               '      "composites": [')
        m = layer.f_bb.shape[2]
        for c in range(len(layer)):
            yield f'{"," if c else ""}\n        {{\n          "index": {c + 1},'
            yield from _columns_text("analog_columns", layer.f_rf[c])
            yield from _columns_text("digital_columns", layer.f_bb[c])
            yield '\n          "members": ['
            for j, index in enumerate(range(c * m + 1, c * m + m + 1)):
                cov = coverage_interval(k, index, layer.branching)
                yield _MEMBER % ("," if j else "", index, cov.start, cov.width)
            yield "\n          ]\n        }"
        yield "\n      ]\n    }"
    yield "\n  ]\n}\n"


def serialize(cb: HierarchicalCodebook) -> str:
    """Render a codebook as the canonical text document, joined once."""
    return "".join(_document(cb))


def write_codebook(cb: HierarchicalCodebook, path) -> None:
    """Write `serialize(cb)` to the file `path` piece by piece, so that
    the document never exists whole as one string or one bytes object."""
    with open(path, "w") as f:
        f.writelines(_document(cb))


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


def _column_array(raw) -> np.ndarray | None:
    """A list of finite [re, im] number pairs as a complex vector in one
    `np.array` call, else None.  `np.array` reads a JSON true or false as
    a number, so they are looked for first: the writer never prints one.
    """
    try:
        pairs = np.array(raw)
    except (ValueError, OverflowError, TypeError):
        return None
    if (pairs.dtype.kind not in "fi" or pairs.shape[1:] != (2,)
            or not np.all(np.isfinite(pairs))
            or any(type(re) is bool or type(im) is bool for re, im in raw)):
        return None
    out = np.empty(len(raw), dtype=np.complex128)
    # filled part by part: re + 1j*im would turn -0.0 into +0.0
    out.real = pairs[:, 0]
    out.imag = pairs[:, 1]
    return out


def _pack_columns(obj: dict) -> dict:
    """JSON object hook: a composite's well-formed columns become complex
    vectors as soon as it is parsed, so that the pairs of a document never
    all exist at once as Python lists and floats."""
    for key in ("analog_columns", "digital_columns"):
        cols = obj.get(key)
        for j, raw in enumerate(cols if isinstance(cols, list) else ()):
            if (vec := _column_array(raw)) is not None:
                cols[j] = vec
    return obj


def _parse_complex_vector(raw, n: int, path: str) -> np.ndarray:
    """n finite [re, im] number pairs as a complex vector.  A well-formed
    column arrives converted by `_pack_columns`; any other list (strings,
    null, booleans, integers past int64, ragged or non-finite entries)
    takes the per-pair loop, which names the first bad entry."""
    if not isinstance(raw, (list, np.ndarray)) or len(raw) != n:
        raise CodebookFormatError(f"{path} must list {n} complex entries")
    if isinstance(raw, np.ndarray):
        return raw
    out = np.empty(n, dtype=np.complex128)
    for p, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(type(v) in (int, float) for v in pair)):
            raise CodebookFormatError(f"{path}[{p}] must be a [re, im] pair")
        out[p] = complex(_to_float(pair[0], f"{path}[{p}]"),
                         _to_float(pair[1], f"{path}[{p}]"))
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise CodebookFormatError(f"{path}[{bad[0]}] must be finite")
    return out


def deserialize(text: str) -> HierarchicalCodebook:
    """Parse a codebook document; the codebook constructors check it."""
    try:
        doc = json.loads(text, object_hook=_pack_columns)
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
    n = _expect(doc, "n_antennas", int, "$")
    branching = _expect(doc, "branching", int, "$")
    grid_size = _expect(doc, "grid_size", int, "$")
    gamma_per = _expect(doc, "gamma_per", float, "$")
    raw_layers = _expect(doc, "layers", list, "$")
    try:
        _check_sizes(n, branching, grid_size, len(raw_layers))
        _check_gamma_per(gamma_per)
    except ValueError as exc:
        raise CodebookFormatError(f"field $.{exc}") from None

    layers: list[CodebookLayer] = []
    for k, raw_layer in enumerate(raw_layers):
        path = f"$.layers[{k}]"
        if not isinstance(raw_layer, dict):
            raise CodebookFormatError(f"{path} must be an object")
        if _expect(raw_layer, "layer", int, path) != k:
            raise CodebookFormatError(f"{path}.layer must equal {k}")
        raw_comps = _expect(raw_layer, "composites", list, path)
        expected_members = 1 if k == 0 else branching
        f_rfs, f_bbs = [], []
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
            if f_rfs and f_rf.shape[1] != f_rfs[0].shape[1]:
                raise CodebookFormatError(
                    f"{cpath}.analog_columns must hold "
                    f"{f_rfs[0].shape[1]} columns, as composite 0 does")
            dcols = _expect(raw_comp, "digital_columns", list, cpath)
            raw_members = _expect(raw_comp, "members", list, cpath)
            if {len(dcols), len(raw_members)} != {expected_members}:
                raise CodebookFormatError(
                    f"{cpath} must hold {expected_members} digital_columns "
                    f"and members, found {len(dcols)} and {len(raw_members)}")
            f_bb = np.stack(
                [_parse_complex_vector(col, f_rf.shape[1],
                                       f"{cpath}.digital_columns[{j}]")
                 for j, col in enumerate(dcols)], axis=1)
            for index, raw_cw in enumerate(
                    raw_members, start=(c - 1) * expected_members + 1):
                mpath = f"{cpath}.members[{index}]"
                if not isinstance(raw_cw, dict):
                    raise CodebookFormatError(f"{mpath} must be an object")
                if _expect(raw_cw, "index", int, mpath) != index:
                    raise CodebookFormatError(
                        f"{mpath}.index must equal {index}")
                start = _expect(raw_cw, "coverage_start", float, mpath)
                width = _expect(raw_cw, "coverage_width", float, mpath)
                coverage = coverage_interval(k, index, branching)
                if start != coverage.start or width != coverage.width:
                    raise CodebookFormatError(
                        f"{mpath} coverage [{start}, {start + width}] does "
                        f"not match the layer-{k} grid")
            f_rfs.append(f_rf)
            f_bbs.append(f_bb)
        try:
            layers.append(CodebookLayer(k, branching, np.array(f_rfs),
                                        np.array(f_bbs)))
        except ValueError as exc:
            raise CodebookFormatError(f"{path}.{exc}") from None
    try:
        return HierarchicalCodebook(scheme, n, branching, layers, grid_size,
                                    gamma_per)
    except ValueError as exc:
        raise CodebookFormatError(f"$: {exc}") from None
