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
    build_bmw_ms,
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
                                              ("gamma_per", float("nan"))])
    def test_constructor_refuses_what_the_reader_refuses(self, books, field,
                                                         value):
        cb = books[("bmw-ms-cf", 8)]
        settings = {"grid_size": cb.grid_size, "gamma_per": cb.gamma_per,
                    field: value}
        with pytest.raises(ValueError, match=field):
            HierarchicalCodebook(cb.scheme, cb.n_antennas, cb.branching,
                                 cb.layers, **settings)

    def test_member_weights_bit_identical(self, books):
        cb = books[("bmw-ms-cf", 32)]
        back = deserialize(serialize(cb))
        for k in range(cb.depth + 1):
            for a, b in zip(cb.layer_codewords(k), back.layer_codewords(k)):
                assert np.array_equal(a.awv, b.awv)

    def test_deterministic_bytes(self, books):
        cb = books[("bmw-ms-lcs", 8)]
        assert serialize(cb) == serialize(cb)
        rebuilt = build_bmw_ms(8, 2, "lcs", grid_size=16)
        assert serialize(rebuilt) == serialize(cb)

    def test_seventeen_significant_digits(self, books):
        text = serialize(books[("bmw-ms-cf", 8)])
        pairs = re.findall(r"-?\d\.\d{16}e[+-]\d\d", text)
        assert pairs, "complex entries must be printed in 17-digit form"

    def test_vector_text_matches_pair_lists(self):
        # a column is printed from the array in one go; it must read exactly
        # as the generic emitter prints the same values as [re, im] lists
        from mmwcodebook.storage import _emit
        v = np.array([1.0 / 3.0 - 0.0j, -0.0 + 5e-324j, 1e308 - 2.5e-7j,
                      -1.0, 0.1j])
        for indent in (0, 3):
            ref, got = [], []
            _emit([[float(z.real), float(z.imag)] for z in v], ref, indent)
            _emit(v, got, indent)
            assert got == ["".join(ref)]


    @pytest.mark.parametrize("raw", [
        [[-0.0, 0.0], [0.0, -0.0]],
        [[5e-324, -1e308], [1, -2]],
        [[2 ** 63, 1], [3, -2 ** 62]],
        [[True, 1.5], [0.25, False]],
    ])
    def test_bulk_column_parse_matches_pair_loop(self, raw):
        # a well-formed column converts in one call; its bits must be those
        # of converting each [re, im] pair with float()
        from mmwcodebook.storage import _parse_complex_vector
        got = _parse_complex_vector(raw, len(raw), "$.col")
        ref = np.array([complex(float(re), float(im)) for re, im in raw])
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("raw, message", [
        ([[1.0, 2.0], ["3", 4.0]], r"\$\.col\[1\] must be a \[re, im\] pair"),
        ([[1.0, 2.0], [None, 4.0]], r"\$\.col\[1\] must be a \[re, im\] pair"),
        ([[1.0, 2.0], [3.0]], r"\$\.col\[1\] must be a \[re, im\] pair"),
        ([[10 ** 30, 2], [3, 10 ** 400]], r"\$\.col\[1\] is outside"),
        ([[1.0, 2.0], [float("nan"), 4.0]], r"\$\.col\[1\] must be finite"),
    ])
    def test_bad_columns_name_the_first_bad_entry(self, raw, message):
        from mmwcodebook.storage import _parse_complex_vector
        with pytest.raises(CodebookFormatError, match=message):
            _parse_complex_vector(raw, len(raw), "$.col")


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
@settings(max_examples=300, deadline=None,
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
