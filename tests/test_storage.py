import copy
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmwcodebook import (
    CodebookFormatError,
    GdpConfig,
    HierarchicalCodebook,
    build_codebook,
    deserialize,
    serialize,
)


@pytest.fixture(scope="module")
def books():
    out = {}
    for scheme in ("bmw-ms-cf", "bmw-ms-lcs", "ps-dft"):
        for n in (8, 32):
            out[(scheme, n)] = build_codebook(scheme, n, 2, grid_size=16)
    return out


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", ["bmw-ms-cf", "bmw-ms-lcs", "ps-dft"])
    @pytest.mark.parametrize("n", [8, 32])
    def test_identity(self, books, scheme, n):
        cb = books[(scheme, n)]
        back = deserialize(serialize(cb))
        assert back == cb

    @pytest.mark.parametrize("scheme", ["bmw-ms-cf", "bmw-ms-lcs", "ps-dft"])
    def test_design_settings_round_trip(self, scheme):
        cb = build_codebook(scheme, 8, 2, grid_size=12,
                            cfg=GdpConfig(gamma_per=2.5))
        back = deserialize(serialize(cb))
        assert (back.grid_size, back.gamma_per) == (12, 2.5)
        assert back == cb

    @pytest.mark.parametrize("field, value", [("grid_size", 4),
                                              ("gamma_per", float("nan")),
                                              ("scheme", "bogus"),
                                              ("n_antennas", 16),
                                              ("branching", 8),
                                              ("layers", slice(3))])
    def test_constructor_refuses_what_the_reader_refuses(self, books, field,
                                                         value):
        # a slice value keeps that part of the layers (here: drops one)
        cb = books[("bmw-ms-cf", 8)]
        settings = {"scheme": cb.scheme, "n_antennas": cb.n_antennas,
                    "branching": cb.branching, "layers": cb.layers,
                    "grid_size": cb.grid_size, "gamma_per": cb.gamma_per}
        settings[field] = cb.layers[value] if field == "layers" else value
        with pytest.raises(ValueError, match=field):
            HierarchicalCodebook(**settings)

    def test_member_weights_bit_identical(self, books):
        cb = books[("bmw-ms-cf", 32)]
        back = deserialize(serialize(cb))
        for k in range(cb.depth + 1):
            for a, b in zip(cb.layer_codewords(k), back.layer_codewords(k)):
                assert np.array_equal(a.awv, b.awv)

    def test_deterministic_bytes(self, books):
        cb = books[("bmw-ms-lcs", 8)]
        assert serialize(cb) == serialize(cb)
        rebuilt = build_codebook("bmw-ms-lcs", 8, 2, grid_size=16)
        assert serialize(rebuilt) == serialize(cb)

    def test_written_file_is_the_document(self, books, tmp_path):
        from mmwcodebook.storage import write_codebook
        for (scheme, n), cb in books.items():
            path = tmp_path / f"{scheme}-{n}.json"
            write_codebook(cb, path)
            assert path.read_bytes() == serialize(cb).encode()

    def test_seventeen_significant_digits(self, books):
        text = serialize(books[("bmw-ms-cf", 8)])
        pairs = re.findall(r"-?\d\.\d{16}e[+-]\d\d", text)
        assert pairs, "complex entries must be printed in 17-digit form"

    def test_vector_text_is_one_exact_pair_per_line(self):
        # a column is printed from the array in one go: one %.16e [re, im]
        # pair per line, indented past the pad, reading back bit for bit
        from mmwcodebook.storage import _complex_text
        v = np.empty(5, dtype=np.complex128)
        v.real = [1.0 / 3.0, -0.0, 1e308, -1.0, 0.0]
        v.imag = [-0.0, 5e-324, -2.5e-7, 0.0, 0.1]
        number = r"-?\d\.\d{16}e[+-]\d{2,3}"
        for pad in ("", " " * 6):
            lines = _complex_text(v, pad).split("\n")
            assert lines[0] == "[" and lines[-1] == pad + "]"
            assert len(lines) == v.size + 2
            for pos, line in enumerate(lines[1:-1]):
                comma = "," if pos < v.size - 1 else ""
                assert re.fullmatch(
                    rf"{pad}  \[{number}, {number}\]{comma}", line), line
            back = np.array(json.loads(_complex_text(v, pad)))
            assert back.tobytes() == v.view(np.float64).tobytes()

    @pytest.mark.parametrize("raw", [
        [[-0.0, 0.0], [0.0, -0.0]],
        [[5e-324, -1e308], [1, -2]],
        [[2 ** 63, 1], [3, -2 ** 62]],
        [[1, 1.5], [0.25, 0]],
    ])
    def test_bulk_column_parse_matches_pair_loop(self, raw):
        # a well-formed column converts in one call; its bits must be those
        # of converting each [re, im] pair with float(), as the per-pair
        # loop does
        from mmwcodebook.storage import _column_array, _parse_complex_vector
        ref = np.array([complex(float(re), float(im)) for re, im in raw])
        assert _column_array(raw).tobytes() == ref.tobytes()
        loop = _parse_complex_vector(raw, len(raw), "$.col")
        assert loop.tobytes() == ref.tobytes()

    def test_parser_converts_columns_composite_by_composite(self, books):
        # each composite's well-formed columns are complex vectors as soon
        # as the composite is parsed; a malformed one stays a list for the
        # per-pair loop to name
        from mmwcodebook.storage import _pack_columns
        cb = books[("ps-dft", 8)]
        doc = json.loads(serialize(cb))
        doc["layers"][1]["composites"][0]["analog_columns"][0][1] = ["x", 0]
        doc = json.loads(json.dumps(doc), object_hook=_pack_columns)
        comps = [c for layer in doc["layers"] for c in layer["composites"]]
        cols = [col for c in comps
                for col in c["analog_columns"] + c["digital_columns"]]
        assert sum(isinstance(col, list) for col in cols) == 1
        first = comps[0]["analog_columns"][0]
        assert first.dtype == np.complex128
        assert first.tobytes() == cb.layers[0].f_rf[0, :, 0].tobytes()

    @pytest.mark.parametrize("raw, message", [
        ([[1.0, 2.0], ["3", 4.0]], r"\$\.col\[1\] must be a \[re, im\] pair"),
        ([[1.0, 2.0], [None, 4.0]], r"\$\.col\[1\] must be a \[re, im\] pair"),
        ([[1.0, 2.0], [3.0]], r"\$\.col\[1\] must be a \[re, im\] pair"),
        ([[10 ** 30, 2], [3, 10 ** 400]], r"\$\.col\[1\] is outside"),
        ([[1.0, 2.0], [float("nan"), 4.0]], r"\$\.col\[1\] must be finite"),
        # numpy reads a boolean as a number; the writer never prints one
        ([[1.0, 2.0], [True, 4.0]], r"\$\.col\[1\] must be a \[re, im\]"),
        ([[1.0, 0.0], [0.5, False]], r"\$\.col\[1\] must be a \[re, im\]"),
        ([[True, False], [1.0, 0.0]], r"\$\.col\[0\] must be a \[re, im\]"),
    ])
    def test_bad_columns_name_the_first_bad_entry(self, raw, message):
        from mmwcodebook.storage import _parse_complex_vector
        with pytest.raises(CodebookFormatError, match=message):
            _parse_complex_vector(raw, len(raw), "$.col")


# tracemalloc peaks relative to the document's length (1.1 MB, ps-dft
# N=64).  Parsing peaked at 2.79x while every pair of the document was a
# Python list of floats at once; writing peaked at 2x with the document
# whole as a string and as bytes.  Now a parse holds one composite's lists
# (0.93x) and a write one column of text (0.03x).
def test_storage_peak_memory(tmp_path):
    import tracemalloc

    from mmwcodebook.storage import write_codebook
    cb = build_codebook("ps-dft", 64, 2, grid_size=16)
    text = serialize(cb)
    peaks = []
    for run in (lambda: deserialize(text),
                lambda: write_codebook(cb, tmp_path / "cb.json")):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / len(text))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.5 and peaks[1] <= 0.25


class TestParseErrors:
    def test_unknown_scheme(self, books):
        text = serialize(books[("bmw-ms-cf", 8)]).replace(
            '"bmw-ms-cf"', '"sparse"')
        with pytest.raises(CodebookFormatError, match="unknown scheme"):
            deserialize(text)

    def test_truncated_document(self, books):
        text = serialize(books[("bmw-ms-cf", 8)])
        with pytest.raises(CodebookFormatError, match="line"):
            deserialize(text[: len(text) // 2])

    def test_missing_field(self, books):
        text = serialize(books[("bmw-ms-cf", 8)]).replace(
            '"branching": 2,', "")
        with pytest.raises(CodebookFormatError, match="branching"):
            deserialize(text)

    @pytest.mark.parametrize("text", ["[]", "3", '"mmw-hier-codebook"'])
    def test_root_that_is_not_an_object(self, text):
        with pytest.raises(CodebookFormatError,
                           match="^document root must be an object$"):
            deserialize(text)

    def test_wrong_format_tag(self):
        with pytest.raises(CodebookFormatError, match="format"):
            deserialize('{"format": "something-else"}')

    def test_ca_violation_detected(self, books):
        cb = books[("bmw-ms-cf", 8)]
        text = serialize(cb)
        # scale one analog entry away from the constant-amplitude modulus
        corrupt = text.replace("3.5355339059327", "9.9999999999999", 1)
        with pytest.raises(CodebookFormatError, match="constant-amplitude"):
            deserialize(corrupt)

    def test_bad_layer_count(self, books):
        cb = books[("bmw-ms-cf", 8)]
        text = serialize(cb).replace('"n_antennas": 8', '"n_antennas": 16')
        with pytest.raises(CodebookFormatError):
            deserialize(text)

    def test_non_json(self):
        with pytest.raises(CodebookFormatError, match="line 1"):
            deserialize("scheme: bmw-ms-cf\n")


class TestBoundaryChecks:
    """Bad values are refused with a CodebookFormatError naming the field."""

    @staticmethod
    def mutated(cb, edit):
        doc = json.loads(serialize(cb))
        edit(doc)
        return json.dumps(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_gamma_per(self, books, value):
        text = self.mutated(books[("bmw-ms-cf", 8)],
                            lambda d: d.__setitem__("gamma_per", value))
        with pytest.raises(CodebookFormatError, match=r"\$\.gamma_per"):
            deserialize(text)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [0, -8])
    def test_n_antennas(self, books, value):
        text = self.mutated(books[("bmw-ms-cf", 8)],
                            lambda d: d.__setitem__("n_antennas", value))
        with pytest.raises(CodebookFormatError, match=r"\$\.n_antennas"):
            deserialize(text)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1, 0, -2])
    def test_branching(self, books, value):
        text = self.mutated(books[("bmw-ms-cf", 8)],
                            lambda d: d.__setitem__("branching", value))
        with pytest.raises(CodebookFormatError, match=r"\$\.branching"):
            deserialize(text)

    @pytest.mark.parametrize("value", [4, 7, 0, -7])
    def test_grid_size(self, books, value):
        text = self.mutated(books[("bmw-ms-cf", 8)],
                            lambda d: d.__setitem__("grid_size", value))
        with pytest.raises(CodebookFormatError, match=r"\$\.grid_size"):
            deserialize(text)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_analog_entry(self, books, value, part):
        def edit(d):
            d["layers"][1]["composites"][0]["analog_columns"][1][2][part] = value

        text = self.mutated(books[("ps-dft", 8)], edit)
        path = r"\$\.layers\[1\]\.composites\[0\]\.analog_columns\[1\]\[2\]"
        with pytest.raises(CodebookFormatError, match=path + " must be finite"):
            deserialize(text)

    def test_non_finite_digital_entry(self, books):
        def edit(d):
            d["layers"][2]["composites"][1]["digital_columns"][1][0][1] = (
                float("-inf"))

        text = self.mutated(books[("bmw-ms-cf", 8)], edit)
        with pytest.raises(CodebookFormatError,
                           match=r"composites\[1\]\.digital_columns\[1\]\[0\]"):
            deserialize(text)

    @pytest.mark.parametrize("entry", [[True, False], [True, 0.0]])
    def test_boolean_digital_entry(self, entry):
        # in place of [1.0, 0.0], which it would equal as a number
        def edit(d):
            d["layers"][0]["composites"][0]["digital_columns"][0][0] = entry

        text = self.mutated(build_codebook("bmw-ms-cf", 4, 2), edit)
        path = r"\$\.layers\[0\]\.composites\[0\]\.digital_columns\[0\]\[0\]"
        with pytest.raises(CodebookFormatError, match=path + " must be a"):
            deserialize(text)

    @pytest.mark.parametrize("column", [0, 1])
    def test_all_zero_digital_column(self, books, column):
        def edit(d):
            cols = d["layers"][1]["composites"][0]["digital_columns"]
            cols[column] = [[0.0, 0.0] for _ in cols[column]]

        text = self.mutated(books[("bmw-ms-cf", 8)], edit)
        with pytest.raises(CodebookFormatError,
                           match=rf"digital_columns\[{column}\] is all zero"):
            deserialize(text)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("steps, field", [
        (("gamma_per",), r"\$\.gamma_per"),
        (("n_antennas",), r"\$\.n_antennas|analog_columns\[0\] must list"),
        (("layers", 0, "composites", 0, "analog_columns", 0, 0, 0),
         r"\$\.layers\[0\]\.composites\[0\]\.analog_columns\[0\]\[0\]"),
        (("layers", 1, "composites", 0, "digital_columns", 1, 0, 1),
         r"\$\.layers\[1\]\.composites\[0\]\.digital_columns\[1\]\[0\]"),
        (("layers", 2, "composites", 1, "members", 0, "coverage_start"),
         r"members\[3\]\.coverage_start"),
        (("layers", 2, "composites", 1, "members", 1, "coverage_width"),
         r"members\[4\]\.coverage_width"),
    ])
    def test_huge_integer(self, books, steps, field, sign):
        # a JSON integer too large for a float must not escape as
        # OverflowError or TypeError
        def edit(d):
            for step in steps[:-1]:
                d = d[step]
            d[steps[-1]] = sign * 10 ** 400

        text = self.mutated(books[("bmw-ms-cf", 8)], edit)
        with pytest.raises(CodebookFormatError, match=field):
            deserialize(text)

    def test_integer_past_the_digit_limit(self, books):
        text = serialize(books[("bmw-ms-cf", 8)]).replace(
            '"grid_size": 16', '"grid_size": 1' + "0" * 5000)
        with pytest.raises(CodebookFormatError, match="malformed document"):
            deserialize(text)

    def test_composites_of_a_layer_share_the_chain_count(self, books):
        # a layer is one stacked array set, so a composite with fewer RF
        # chains than the first of its layer is refused
        def edit(d):
            comp = d["layers"][2]["composites"][1]
            del comp["analog_columns"][1]
            for col in comp["digital_columns"]:
                del col[1]

        text = self.mutated(books[("bmw-ms-cf", 8)], edit)
        with pytest.raises(CodebookFormatError,
                           match=r"composites\[1\]\.analog_columns must hold 2"):
            deserialize(text)

    def test_layer_without_composites(self, books):
        # a layer is stacked from its composites, so it needs one
        text = self.mutated(books[("bmw-ms-cf", 8)], lambda d: d["layers"][1]
                            .__setitem__("composites", []))
        with pytest.raises(CodebookFormatError,
                           match=r"\$\.layers\[1\]\.f_rf \(0,\).* non-empty"):
            deserialize(text)

    def test_layer_short_of_a_composite(self, books):
        # layer 2 of N=8 holds 2**1 composites; the message reads as the
        # path to the composites whose count is wrong
        text = self.mutated(books[("bmw-ms-cf", 8)], lambda d: d["layers"][2]
                            ["composites"].pop())
        with pytest.raises(CodebookFormatError, match=re.escape(
                "$.layers[2].composites: layer 2 of branching 2 needs "
                "(C, M) = (2**1, 2), got (1, 2)")):
            deserialize(text)

    @pytest.mark.parametrize("field, counts", [("digital_columns", "1 and 2"),
                                               ("members", "2 and 1")])
    def test_composite_holds_one_digital_column_per_member(self, books, field,
                                                           counts):
        text = self.mutated(books[("bmw-ms-cf", 8)], lambda d: d["layers"][2]
                            ["composites"][1][field].pop())
        with pytest.raises(CodebookFormatError, match=re.escape(
                "$.layers[2].composites[1] must hold 2 digital_columns and "
                f"members, found {counts}")):
            deserialize(text)

    def test_layer_count_refused_before_the_layers_are_read(self, books):
        # past layer 1024, 2**k no longer converts to a float; the count is
        # refused before any layer's coverages are computed
        def edit(d):
            d["layers"] = d["layers"][:2] + [
                {"layer": k, "composites": d["layers"][1]["composites"]}
                for k in range(2, 1100)]

        text = self.mutated(books[("bmw-ms-cf", 8)], edit)
        with pytest.raises(CodebookFormatError, match=r"^field \$\.layers "
                           "must hold 4 layers for n_antennas=8, branching=2, "
                           "got 1100$"):
            deserialize(text)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.__setitem__("version", 2),
         "unsupported format version 2"),
        (lambda d: d.__setitem__("scheme", 3), "field $.scheme must be str"),
        (lambda d: d.__setitem__("gamma_per", "1.0"),
         "field $.gamma_per must be a number"),
        (lambda d: d["layers"].__setitem__(1, []),
         "$.layers[1] must be an object"),
        (lambda d: d["layers"][1].__setitem__("layer", 2),
         "$.layers[1].layer must equal 1"),
        (lambda d: d["layers"][1]["composites"].__setitem__(0, []),
         "$.layers[1].composites[0] must be an object"),
        (lambda d: d["layers"][1]["composites"][0].__setitem__("index", 2),
         "$.layers[1].composites[0].index must equal 1"),
        (lambda d: d["layers"][1]["composites"][0]["analog_columns"]
         .__setitem__(0, "x"),
         "$.layers[1].composites[0].analog_columns[0] must list 8 complex "
         "entries"),
        (lambda d: d["layers"][1]["composites"][0]["members"]
         .__setitem__(0, []),
         "$.layers[1].composites[0].members[1] must be an object"),
        (lambda d: d["layers"][1]["composites"][0]["members"][0]
         .__setitem__("index", 2),
         "$.layers[1].composites[0].members[1].index must equal 1"),
        (lambda d: d["layers"][1]["composites"][0]["members"][0]
         .__setitem__("coverage_start", 0.5),
         "$.layers[1].composites[0].members[1] coverage [0.5, 1.5] does not "
         "match the layer-1 grid"),
    ], ids=["version", "text", "number", "layer", "layer index", "composite",
            "composite index", "column", "member", "member index",
            "coverage"])
    def test_misplaced_value_named(self, books, edit, message):
        text = self.mutated(books[("bmw-ms-cf", 8)], edit)
        with pytest.raises(CodebookFormatError,
                           match=f"^{re.escape(message)}$"):
            deserialize(text)

    def test_integers_past_int64_parse_through_the_pair_loop(self, books):
        # numpy holds 2**64 as a Python object, so the column takes the
        # per-pair loop, which reads each integer with float()
        cb = books[("bmw-ms-cf", 8)]

        def edit(d):
            cols = d["layers"][1]["composites"][0]["digital_columns"]
            cols[0] = [[2 ** 64, 0] for _ in cols[0]]

        from mmwcodebook.storage import _column_array
        assert _column_array([[2 ** 64, 0], [1, 0]]) is None
        got = deserialize(self.mutated(cb, edit)).layers[1].f_bb
        assert np.all(got[0, :, 0] == 2.0 ** 64)
        assert np.array_equal(got[0, :, 1], cb.layers[1].f_bb[0, :, 1])

    def test_composite_without_analog_columns(self, books):
        text = self.mutated(books[("bmw-ms-cf", 8)], lambda d: d["layers"][1]
                            ["composites"][0].__setitem__("analog_columns",
                                                          []))
        with pytest.raises(CodebookFormatError, match=re.escape(
                "$.layers[1].composites[0].analog_columns is empty")):
            deserialize(text)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_digital_column_overflowing_the_weights(self, books):
        def edit(d):
            cols = d["layers"][1]["composites"][0]["digital_columns"]
            cols[0] = [[1.7e308, 1.7e308] for _ in cols[0]]

        text = self.mutated(books[("bmw-ms-cf", 8)], edit)
        with pytest.raises(CodebookFormatError,
                           match=r"digital_columns\[0\] gives member weights"):
            deserialize(text)


def _node_paths(node, prefix=()):
    """Every (container path, key) under a JSON value, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix, key
        yield from _node_paths(child, prefix + (key,))


_REPLACEMENTS = [float("nan"), float("inf"), float("-inf"), 0, 0.0, -1, -1.0,
                 10 ** 400, "x", None, True, [], {}]


@pytest.fixture(scope="module")
def small_docs():
    return [json.loads(serialize(build_codebook(scheme, 4, 2, grid_size=8)))
            for scheme in ("bmw-ms-cf", "bmw-ms-lcs", "ps-dft")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_fail_only_with_format_error(small_docs, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(small_docs)))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_node_paths(doc))
        prefix, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in prefix:
            parent = parent[step]
        kind = data.draw(st.sampled_from(["drop", "negate", "replace"]))
        if kind == "drop":
            del parent[key]
        elif (kind == "negate" and isinstance(parent[key], (int, float))
              and not isinstance(parent[key], bool)):
            parent[key] = -parent[key]
        else:
            parent[key] = data.draw(st.sampled_from(_REPLACEMENTS))
    try:
        cb = deserialize(json.dumps(doc))
    except CodebookFormatError:
        return
    for k in range(cb.depth + 1):
        for cw in cb.layer_codewords(k):
            assert np.all(np.isfinite(cw.unit_awv))


def test_ps_dft_roundtrip_preserves_unit_norm(books):
    back = deserialize(serialize(books[("ps-dft", 32)]))
    for k in range(back.depth + 1):
        for cw in back.layer_codewords(k):
            assert np.linalg.norm(cw.awv) == pytest.approx(1.0, abs=1e-12)
