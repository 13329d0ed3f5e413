import copy
import dataclasses
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmwcodebook
from mmwcodebook import (
    AngleInterval,
    GdpConfig,
    assemble_codeword,
    beam_gain,
    beam_pattern,
    build_codebook,
    build_ps_dft,
    cf_phases,
    gdp,
    lcs_phases,
    normalize,
    phase_rotate,
    steering_vector,
    subarray_plan,
)
from mmwcodebook.codebooks import (
    CodebookLayer,
    HierarchicalCodebook,
    check_design,
)

TWO_PI = 2.0 * math.pi


def mod_2pi_distance(x):
    """Distance from x to the nearest multiple of 2*pi."""
    r = np.mod(x, TWO_PI)
    return np.minimum(r, TWO_PI - r)


class TestSubarrayPlan:
    def test_full_coverage_split(self):
        plan = subarray_plan(32, 2, AngleInterval(-1.0, 2.0))
        assert (plan.m_s, plan.n_s) == (4, 8)
        assert plan.delta_theta == pytest.approx(0.25)

    def test_sixteen_antenna_steering_angles(self):
        plan = subarray_plan(16, 2, AngleInterval(-1.0, 1.0))
        assert (plan.m_s, plan.n_s) == (2, 8)
        assert plan.delta_theta == pytest.approx(0.25)
        expect = -1.0 + np.array([[0.125, 0.625], [0.375, 0.875]])
        assert np.allclose(plan.omega, expect)

    def test_divisor_promotion(self):
        # ceil(sqrt(8)) = 3 does not divide 32; promoted to 4
        plan = subarray_plan(32, 2, AngleInterval(-1.0, 1.0))
        assert (plan.m_s, plan.n_s) == (4, 8)
        assert plan.delta_theta == pytest.approx(0.125)
        assert plan.delta_theta <= 2.0 / plan.n_s

    def test_gap_never_exceeds_subarray_beamwidth(self):
        # the only guard of this invariant: every builder width 2/m_rf^k
        # of every N = m_rf^d up to 4096
        for m_rf in (2, 3, 4, 5, 8):
            n, depth = m_rf, 1
            while n <= 4096:
                for k in range(depth + 1):
                    plan = subarray_plan(n, m_rf,
                                         AngleInterval(-1.0, 2.0 / m_rf ** k))
                    assert plan.m_s * plan.n_s == n
                    assert plan.delta_theta <= 2.0 / plan.n_s + 1e-12
                n, depth = n * m_rf, depth + 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError,
                           match=r"^n must be an integer >= 8, got 4$"):
            subarray_plan(4, 8, AngleInterval(-1.0, 1.0))


class TestCfPhases:
    def test_pinned_values(self):
        # m_rf=2, m_s=2, n_s=8, dt=0.25: -2.625*pi, -3.5*pi, -0.375*pi
        # reported in [0, 2*pi)
        plan = subarray_plan(16, 2, AngleInterval(-1.0, 1.0))
        theta = cf_phases(plan)
        assert theta[0, 0] == pytest.approx(1.375 * math.pi)
        assert theta[1, 0] == pytest.approx(0.5 * math.pi)
        assert theta[0, 1] == pytest.approx(1.625 * math.pi)

    def test_difference_relations_all_sizes(self):
        # successive chains: -pi*(n_s-1)*dt/2; chain wraparound to the next
        # sub-array: same step plus pi*n_s*m*m_rf*dt, both modulo 2*pi
        for n in (8, 16, 32, 64):
            for k in range(int(math.log2(n)) + 1):
                plan = subarray_plan(n, 2, AngleInterval(-1.0, 2.0 / 2 ** k))
                theta = cf_phases(plan)
                step = -math.pi * (plan.n_s - 1) * plan.delta_theta / 2.0
                for m in range(plan.m_s):
                    for i in range(plan.m_rf - 1):
                        d = theta[i + 1, m] - theta[i, m] - step
                        assert mod_2pi_distance(d) <= 1e-12
                for m in range(plan.m_s - 1):
                    jump = (step + math.pi * plan.n_s * (m + 1)
                            * plan.m_rf * plan.delta_theta)
                    d = theta[0, m + 1] - theta[plan.m_rf - 1, m] - jump
                    assert mod_2pi_distance(d) <= 1e-12

    def test_equal_difference_when_single_subarray(self):
        # one sub-array per chain (the many-RF-chain regime): the phase
        # sequence over chains is an arithmetic progression
        plan = subarray_plan(16, 8, AngleInterval(-1.0, 1.0))
        assert (plan.m_s, plan.n_s) == (1, 16)
        theta = cf_phases(plan)
        diffs = np.diff(theta[:, 0])
        assert np.allclose(mod_2pi_distance(diffs - diffs[0]), 0.0, atol=1e-12)


class TestAssemble:
    def test_entry_modulus(self):
        plan = subarray_plan(16, 2, AngleInterval(-1.0, 1.0))
        v, awv = assemble_codeword(plan, cf_phases(plan))
        assert np.allclose(np.abs(v), 1.0 / 4.0, atol=1e-12)
        assert np.allclose(awv, v.sum(axis=1))

    def test_single_subarray_is_steering(self):
        plan = subarray_plan(8, 1, AngleInterval(-1.0, 0.25))
        assert (plan.m_rf, plan.m_s) == (1, 1)
        _, awv = assemble_codeword(plan, np.zeros((1, 1)))
        assert np.allclose(awv, steering_vector(8, plan.omega[0, 0]), atol=1e-15)

    def test_subarray_peaks(self):
        # each zero-padded sub-array steers at omega[i, m] with peak n_s/sqrt(N)
        plan = subarray_plan(16, 2, AngleInterval(-1.0, 1.0))
        theta = cf_phases(plan)
        for i in range(plan.m_rf):
            for m in range(plan.m_s):
                padded = np.zeros(16, dtype=complex)
                blk = (math.sqrt(plan.n_s / 16) * np.exp(1j * theta[i, m])
                       * steering_vector(plan.n_s, plan.omega[i, m]))
                padded[m * plan.n_s:(m + 1) * plan.n_s] = blk
                peak = abs(beam_gain(padded, plan.omega[i, m]))
                assert peak == pytest.approx(plan.n_s / 4.0, abs=1e-12)

    def test_shape_mismatch(self):
        plan = subarray_plan(16, 2, AngleInterval(-1.0, 1.0))
        with pytest.raises(ValueError):
            assemble_codeword(plan, np.zeros((3, 3)))


class TestLcsPhases:
    def test_argmax_contract(self):
        plan = subarray_plan(8, 2, AngleInterval(-1.0, 1.0))
        iv = AngleInterval(-1.0, 1.0)
        cfg = GdpConfig()
        phi1, phi2, theta = lcs_phases(plan, iv, cfg, grid_size=16)
        _, awv = assemble_codeword(plan, theta)
        best = gdp(normalize(awv), iv, cfg)
        grid = TWO_PI * np.arange(16) / 16
        for a in grid:
            for b in grid:
                cand = (np.arange(1, plan.m_s + 1)[None, :] * a
                        + np.arange(1, plan.m_rf + 1)[:, None] * b)
                _, w = assemble_codeword(plan, cand)
                assert gdp(normalize(w), iv, cfg) <= best + 1e-9

    def test_degenerate_plan_tie_breaks_to_zero(self):
        plan = subarray_plan(8, 1, AngleInterval(-1.0, 0.25))
        phi1, phi2, theta = lcs_phases(plan, AngleInterval(-1.0, 0.25),
                                       grid_size=16)
        assert (phi1, phi2) == (0.0, 0.0)
        assert theta.shape == (1, 1)

    def test_matches_finer_bruteforce_within_cell(self):
        # coarse 16x16 optimum vs exhaustive 64x64 reference: the value gap
        # stays within the objective's variation over one coarse cell
        plan = subarray_plan(8, 2, AngleInterval(-1.0, 1.0))
        iv = AngleInterval(-1.0, 1.0)
        cfg = GdpConfig()
        _, _, theta = lcs_phases(plan, iv, cfg, grid_size=16)
        _, awv = assemble_codeword(plan, theta)
        coarse_best = gdp(normalize(awv), iv, cfg)

        fine = 64
        values = np.empty((fine, fine))
        grid = TWO_PI * np.arange(fine) / fine
        for a, p1 in enumerate(grid):
            for b, p2 in enumerate(grid):
                cand = (np.arange(1, plan.m_s + 1)[None, :] * p1
                        + np.arange(1, plan.m_rf + 1)[:, None] * p2)
                _, w = assemble_codeword(plan, cand)
                values[a, b] = gdp(normalize(w), iv, cfg)
        ratio = fine // 16
        cell_span = 0.0
        for a in range(16):
            for b in range(16):
                cell = values[a * ratio:(a + 1) * ratio + 1,
                              b * ratio:(b + 1) * ratio + 1]
                cell_span = max(cell_span, float(cell.max() - cell.min()))
        assert values.max() - coarse_best <= cell_span + 1e-9

    def test_grid_size_validated(self):
        plan = subarray_plan(8, 2, AngleInterval(-1.0, 1.0))
        with pytest.raises(ValueError):
            lcs_phases(plan, AngleInterval(-1.0, 1.0), grid_size=4)


class TestBmwMsCodebook:
    def test_layer_sizes(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        assert cb.depth == 3
        sizes = [len(cb.layer_codewords(k)) for k in range(4)]
        assert sizes == [1, 2, 4, 8]

    def test_coverage_grid(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        for k in range(cb.depth + 1):
            for n, cw in enumerate(cb.layer_codewords(k), start=1):
                assert cw.index == n
                assert cw.coverage.start == pytest.approx(
                    -1.0 + 2.0 * (n - 1) / 2 ** k)
                assert cw.coverage.width == pytest.approx(2.0 / 2 ** k)

    def test_coverage_tiles_without_gaps(self):
        cb = build_codebook("bmw-ms-lcs", 16, 2, grid_size=16)
        for k in range(cb.depth + 1):
            cws = cb.layer_codewords(k)
            assert cws[0].coverage.start == -1.0
            for a, b in zip(cws, cws[1:]):
                assert a.coverage.end == pytest.approx(b.coverage.start, abs=0)
            assert cws[-1].coverage.end == pytest.approx(1.0)

    def test_constant_amplitude_analog_entries(self):
        for scheme in ("bmw-ms-cf", "bmw-ms-lcs"):
            cb = build_codebook(scheme, 8, 2, grid_size=16)
            for layer in cb.layers:
                for comp in layer:
                    assert np.max(np.abs(np.abs(comp.f_rf)
                                         - 1 / math.sqrt(8))) <= 1e-9

    def test_rotated_copies_share_moduli(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        for k in range(cb.depth + 1):
            cws = cb.layer_codewords(k)
            ref = np.abs(cws[0].awv)
            for cw in cws[1:]:
                assert np.allclose(np.abs(cw.awv), ref, atol=1e-12)

    def test_members_derivable_from_composite(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        for k in range(1, cb.depth + 1):
            for comp in cb.layers[k]:
                base = comp.f_rf @ comp.f_bb[:, 0]
                assert np.array_equal(comp.members[0].awv, base)
                for j, cw in enumerate(comp.members, start=1):
                    derived = phase_rotate(base, 2.0 * (j - 1) / 2 ** k)
                    assert np.array_equal(cw.awv, derived)

    def test_rotation_matches_layer_head(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        for k in range(1, cb.depth + 1):
            head = cb.codeword(k, 1).awv
            for n in range(2, 2 ** k + 1):
                expect = phase_rotate(head, 2.0 * (n - 1) / 2 ** k)
                assert np.allclose(cb.codeword(k, n).awv, expect, atol=1e-12)

    def test_flat_top_floor(self):
        # paper-style flatness: within the span between the outermost
        # sub-array steering directions, |A|^2 stays above 0.3 * (2/B);
        # at the exact coverage endpoints (crossover with the neighboring
        # beam) it may roll off, but never below 0.09 * (2/B)
        for n in (16, 32):
            cb = build_codebook("bmw-ms-cf", n, 2)
            for k in range(1, cb.depth + 1):
                cw = cb.codeword(k, 1)
                plan = subarray_plan(n, 2, cw.coverage)
                flat = np.linspace(cw.coverage.start + plan.delta_theta / 2,
                                   cw.coverage.end - plan.delta_theta / 2,
                                   1025)
                level = 2.0 / cw.coverage.width
                pattern = beam_pattern(cw.unit_awv, flat)
                assert pattern.min() >= 0.3 * level
                full = np.linspace(cw.coverage.start, cw.coverage.end, 1025)
                assert beam_pattern(cw.unit_awv, full).min() >= 0.09 * level

    def test_cf_and_lcs_patterns_agree(self):
        # the closed-form phases track the searched optimum: in-coverage
        # gains of the two variants stay within a few dB of each other
        cf = build_codebook("bmw-ms-cf", 8, 2)
        lcs = build_codebook("bmw-ms-lcs", 8, 2)
        for k in range(1, cf.depth + 1):
            a = cf.codeword(k, 1)
            b = lcs.codeword(k, 1)
            grid = np.linspace(a.coverage.start + 0.02 * a.coverage.width,
                               a.coverage.end - 0.02 * a.coverage.width, 257)
            ga = 10 * np.log10(beam_pattern(a.unit_awv, grid))
            gb = 10 * np.log10(beam_pattern(b.unit_awv, grid))
            assert np.max(np.abs(ga - gb)) < 6.0

    def test_gdp_grows_with_operating_snr(self):
        for builder in (lambda: build_codebook("bmw-ms-cf", 16, 2),
                        lambda: build_codebook("bmw-ms-lcs", 16, 2,
                                               grid_size=16),
                        lambda: build_ps_dft(16, 2, grid_size=16)):
            cw = builder().codeword(1, 1)
            low = gdp(cw.unit_awv, cw.coverage, GdpConfig(gamma_per=1.0))
            high = gdp(cw.unit_awv, cw.coverage,
                       GdpConfig(gamma_per=10 ** 0.2))
            assert high > low

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_codebook("bmw-ms-cf", 12, 2)
        with pytest.raises(ValueError):
            build_codebook("bmw-ms-cf", 8, 1)


class TestPsDftCodebook:
    def test_bottom_layer_is_steering(self):
        cb = build_ps_dft(16, 2)
        for n in range(1, 17):
            cw = cb.codeword(cb.depth, n)
            target = steering_vector(16, -1.0 + (2.0 * n - 1.0) / 16.0)
            assert np.allclose(cw.unit_awv, target, atol=1e-9)

    def test_codewords_stored_unit_norm(self):
        cb = build_ps_dft(16, 2)
        for k in range(cb.depth + 1):
            for cw in cb.layer_codewords(k):
                assert np.linalg.norm(cw.awv) == pytest.approx(1.0, abs=1e-12)

    def test_chain_count_halves_per_layer(self):
        cb = build_ps_dft(32, 2)
        for k in range(cb.depth + 1):
            assert cb.layers[k][0].f_rf.shape[1] == 32 // 2 ** k
        # beam width tracks the chain count: 2 * M_k / N
        m_1 = cb.layers[1][0].f_rf.shape[1]
        assert cb.codeword(1, 1).coverage.width == pytest.approx(
            2.0 * m_1 / 32)

    def test_papc_midpoint_gain_below_bmw(self):
        # under max-entry normalization the sub-array scheme radiates much
        # more power toward the coverage midpoint than the DFT-sum baseline
        cf = build_codebook("bmw-ms-cf", 32, 2).codeword(1, 1)
        ps = build_ps_dft(32, 2).codeword(1, 1)
        mid = cf.coverage.center
        gain_cf = beam_pattern(normalize(cf.awv, "papc"), [mid])[0]
        gain_ps = beam_pattern(normalize(ps.awv, "papc"), [mid])[0]
        assert gain_cf > gain_ps

    def test_element_power_disperses_more_than_bmw(self):
        ps = build_ps_dft(32, 2)
        cf = build_codebook("bmw-ms-cf", 32, 2)
        spread_ps = max(np.abs(ps.codeword(k, 1).unit_awv).max() ** 2
                        for k in range(1, 6))
        spread_cf = max(np.abs(cf.codeword(k, 1).unit_awv).max() ** 2
                        for k in range(1, 6))
        assert spread_ps > spread_cf

    def test_build_codebook_dispatch(self):
        for scheme in ("bmw-ms-cf", "bmw-ms-lcs", "ps-dft"):
            cb = build_codebook(scheme, 8, 2, grid_size=16)
            assert cb.scheme == scheme
        with pytest.raises(ValueError):
            build_codebook("sparse", 8, 2)


class TestDesignChecks:
    """`check_design` refuses a request before any layer is designed."""

    @pytest.mark.parametrize("m_rf", [1, 0, -2])
    def test_branching_below_two_raises_without_hanging(self, m_rf):
        # run in a child: a power-of-m_rf loop with m_rf < 2 never ends
        code = ("from mmwcodebook import build_codebook\n"
                "try:\n"
                f"    build_codebook('ps-dft', 32, m_rf={m_rf})\n"
                "except ValueError as exc:\n"
                "    print('refused:', exc)\n")
        src = str(Path(mmwcodebook.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("refused: m_rf must be an integer >= 2")

    @pytest.mark.parametrize("scheme", ["bmw-ms-cf", "bmw-ms-lcs", "ps-dft"])
    @pytest.mark.parametrize("n, m_rf", [(1, 2), (2, 4), (12, 2)])
    def test_n_must_be_a_power_at_least_m_rf(self, scheme, n, m_rf):
        with pytest.raises(ValueError, match="power of m_rf"):
            build_codebook(scheme, n, m_rf, grid_size=16)

    @pytest.mark.parametrize("scheme", ["bmw-ms-cf", "bmw-ms-lcs", "ps-dft"])
    def test_grid_size_below_eight_rejected_for_every_scheme(self, scheme):
        with pytest.raises(ValueError, match="grid_size"):
            build_codebook(scheme, 32, grid_size=4)
        assert build_codebook(scheme, 8, grid_size=8).grid_size == 8

    @pytest.mark.parametrize("grid_size", [12.5, 8.0, True, "16"])
    def test_non_integer_grid_size_rejected(self, grid_size):
        with pytest.raises(ValueError, match="^grid_size must be an integer"):
            build_codebook("bmw-ms-lcs", 8, grid_size=grid_size)
        plan = subarray_plan(8, 2, AngleInterval(-1.0, 1.0))
        with pytest.raises(ValueError, match="^grid_size must be an integer"):
            lcs_phases(plan, AngleInterval(-1.0, 1.0), grid_size=grid_size)

    @pytest.mark.parametrize("scheme", ["bmw-ms-cf", "bmw-ms-lcs", "ps-dft"])
    @pytest.mark.parametrize("n, m_rf, field", [
        (16.0, 2, "n"), (True, 2, "n"), ("16", 2, "n"), (16, 2.0, "m_rf"),
        (16, True, "m_rf")])
    def test_non_integer_sizes_rejected(self, scheme, n, m_rf, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build_codebook(scheme, n, m_rf, grid_size=16)

    def test_numpy_integer_grid_size_accepted(self):
        assert (build_codebook("bmw-ms-lcs", 8, grid_size=np.int64(16))
                == build_codebook("bmw-ms-lcs", 8, grid_size=16))

    def test_depth(self):
        assert check_design("ps-dft", 2, 2, 8) == 1
        assert check_design("bmw-ms-cf", 64, 4, 64) == 3
        with pytest.raises(ValueError, match="unknown scheme"):
            check_design("cf", 8, 2, 64)


class TestCodebookAccessors:
    def test_codeword_lookup_consistent(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        for k in range(cb.depth + 1):
            for n, cw in enumerate(cb.layer_codewords(k), start=1):
                assert cb.codeword(k, n) == cw

    @pytest.mark.parametrize("scheme", ["bmw-ms-cf", "bmw-ms-lcs", "ps-dft"])
    def test_views_read_the_layer_arrays(self, scheme):
        # composites and codewords are views made on access; every value
        # they show is the layer's own array, bit for bit
        cb = build_codebook(scheme, 32, 2)
        for k, layer in enumerate(cb.layers):
            for a in (layer.f_rf, layer.f_bb, layer.awv, layer.units,
                      layer.inf_norms):
                assert not a.flags.writeable
            members = layer.awv.shape[1]
            for c, comp in enumerate(layer):
                assert comp.f_rf.tobytes() == layer.f_rf[c].tobytes()
                assert comp.f_bb.tobytes() == layer.f_bb[c].tobytes()
                assert comp.member_matrix.tobytes() == layer.units[c].tobytes()
                assert (comp.member_inf_norms.tobytes()
                        == layer.inf_norms[c].tobytes())
                for j, cw in enumerate(comp.members):
                    assert cw.awv.tobytes() == layer.awv[c, j].tobytes()
                    assert (cw.unit_awv.tobytes()
                            == layer.units[c, :, j].tobytes())
                    assert cb.codeword(k, c * members + j + 1) == cw

    def test_composite_grouping(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        for k in range(1, cb.depth + 1):
            assert len(cb.layers[k]) == 2 ** (k - 1)
            for c, comp in enumerate(cb.layers[k], start=1):
                assert comp.index == c
                assert [cw.index for cw in comp.members] == \
                    [2 * (c - 1) + 1, 2 * c]


def _with_layer(cb, k, layer):
    return cb.layers[:k] + (layer,) + cb.layers[k + 1:]


def _edited(cb, k, name, index, value):
    """Layer k of cb rebuilt from copies of its arrays, one part set."""
    arrays = {"f_rf": cb.layers[k].f_rf.copy(),
              "f_bb": cb.layers[k].f_bb.copy()}
    arrays[name][index] = value
    return CodebookLayer(k, cb.branching, **arrays)


def _fault(k, got, want):
    """The message of a layer that does not fit the hierarchy."""
    return "^" + re.escape(f"layers[{k}] has (layer, branching, N) = "
                           f"{got}, expected {want}")


class TestConstructorChecks:
    """The codebook types refuse a malformed hierarchy when it is built,
    so no search runs on one; each message names the field or composite."""

    @pytest.fixture(scope="class")
    def cb(self):
        return build_codebook("bmw-ms-cf", 8, 2, grid_size=16)

    @pytest.mark.parametrize("make, message", [
        (lambda cb: HierarchicalCodebook(cb.scheme, True, 2, cb.layers, 16,
                                         1.0),
         "^n_antennas must be an integer"),
        (lambda cb: HierarchicalCodebook(cb.scheme, 12, 2, cb.layers, 16,
                                         1.0),
         "^n_antennas must be a power of branching=2"),
        (lambda cb: HierarchicalCodebook(cb.scheme, 9, 3, cb.layers[:3], 16,
                                         1.0),
         _fault(0, (0, 2, 8), (0, 3, 9))),
        (lambda cb: HierarchicalCodebook(cb.scheme, 4, 2, cb.layers[:3], 16,
                                         1.0),
         _fault(0, (0, 2, 8), (0, 2, 4))),
        (lambda cb: HierarchicalCodebook(cb.scheme, 8, 2, cb.layers[:2], 16,
                                         1.0),
         "^layers must hold 4 layers for n_antennas=8, branching=2, got 2"),
        (lambda cb: HierarchicalCodebook(
            cb.scheme, 8, 2, [cb.layers[0], cb.layers[2], cb.layers[1],
                              cb.layers[3]], 16, 1.0),
         _fault(1, (2, 2, 8), (1, 2, 8))),
        (lambda cb: CodebookLayer(2, 2, cb.layers[2].f_rf[:1],
                                  cb.layers[2].f_bb[:1]),
         r"^composites: layer 2 of branching 2 needs "
         r"\(C, M\) = \(2\*\*1, 2\), got \(1, 2\)"),
        (lambda cb: CodebookLayer(1, 2, cb.layers[1].f_rf,
                                  cb.layers[1].f_bb[:, :, :1]),
         r"^composites: layer 1 of branching 2 needs "
         r"\(C, M\) = \(2\*\*0, 2\), got \(1, 1\)"),
        (lambda cb: HierarchicalCodebook(cb.scheme, 8, 2, _with_layer(
            cb, 1,
            build_codebook("bmw-ms-cf", 4, 2, grid_size=16).layers[1]),
                                         16, 1.0),
         _fault(1, (1, 2, 4), (1, 2, 8))),
        (lambda cb: CodebookLayer(1, 2, cb.layers[1].f_rf[0],
                                  cb.layers[1].f_bb),
         r"^f_rf \(8, 2\), f_bb \(1, 2, 2\) must be non-empty"),
        (lambda cb: CodebookLayer(1, 2, cb.layers[1].f_rf,
                                  cb.layers[2].f_bb[:, :1]),
         r"^f_rf \(1, 8, 2\), f_bb \(2, 1, 2\) must be non-empty"),
        (lambda cb: _edited(cb, 2, "f_bb", (1, 0, 1), np.inf),
         r"^f_rf \(2, 8, 2\), f_bb \(2, 2, 2\) must be .* finite"),
        (lambda cb: _edited(cb, 2, "f_rf", (1, 3, 0), 0.5),
         r"^composites\[1\]\.analog_columns violate the constant-amplitude"),
        (lambda cb: _edited(cb, 2, "f_rf", (1, 3, 0), np.nan),
         r"^composites\[1\]\.analog_columns violate the constant-amplitude"),
        (lambda cb: _edited(cb, 2, "f_bb", (1, slice(None), 1), 0.0),
         r"^composites\[1\]\.digital_columns\[1\] is all zero"),
        (lambda cb: _edited(cb, 2, "f_bb", (1, slice(None), 0),
                            1.7e308 + 1.7e308j),
         r"^composites\[1\]\.digital_columns\[0\] gives member weights of "
         r"2-norm (inf|nan)"),
    ])
    def test_malformed_hierarchy_refused_at_construction(self, cb, make,
                                                         message):
        # pytest turns any RuntimeWarning into an error, so none escapes
        with pytest.raises(ValueError, match=message):
            make(cb)

    def test_rebuilt_layers_accepted(self, cb):
        # the refusals above come from the edits, not from the rebuild
        for k, layer in enumerate(cb.layers):
            assert CodebookLayer(k, 2, layer.f_rf.copy(),
                                 layer.f_bb.copy()) == layer


def _changed(value):
    """A value of the same kind as `value` that does not equal it."""
    if isinstance(value, np.ndarray):
        out = value.copy()
        out.flat[-1] += 1e-3
        return out
    if isinstance(value, (list, tuple)):
        return value[::-1]
    if isinstance(value, AngleInterval):
        return value.shifted(0.25)
    if isinstance(value, str):
        return value + "-x"
    return value * 2 if isinstance(value, float) else value + 1


class TestCodebookValues:
    """The four codebook types share one equality; a codebook is frozen and
    each layer refuses a (layer, branching) that does not fit its arrays."""

    @pytest.fixture(scope="class")
    def cb(self):
        return build_codebook("bmw-ms-cf", 8, 2, grid_size=16)

    @staticmethod
    def _values(cb):
        return [cb.codeword(2, 3), cb.composite(2, 2), cb.layers[2], cb]

    @pytest.mark.parametrize("kind", range(4))
    def test_one_equality_over_every_field(self, cb, kind):
        values = self._values(cb)
        value = values[kind]
        same = copy.deepcopy(value)
        assert value == same and not value != same
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        for field in dataclasses.fields(value):
            other = copy.deepcopy(value)
            # set past the constructor and the frozen guard: only the
            # comparison is under test
            object.__setattr__(other, field.name,
                               _changed(getattr(value, field.name)))
            assert value != other, field.name
        for other in values[:kind] + values[kind + 1:] + [None, (1, 2)]:
            assert value != other

    def test_layer_derived_arrays_are_not_compared(self, cb):
        layer = copy.deepcopy(cb.layers[2])
        object.__setattr__(layer, "units", _changed(layer.units))
        assert layer == cb.layers[2]

    def test_codebook_is_frozen_with_tuple_layers(self, cb):
        rebuilt = HierarchicalCodebook(cb.scheme, 8, 2, list(cb.layers), 16,
                                       cb.gamma_per)
        assert type(cb.layers) is tuple and rebuilt == cb
        assert type(rebuilt.layers) is tuple
        for field in dataclasses.fields(cb):
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=field.name):
                setattr(cb, field.name, getattr(cb, field.name))
        with pytest.raises(AttributeError, match="pop"):
            cb.layers.pop()

    @pytest.mark.parametrize("layer, branching, message", [
        (1.5, 2, "^layer must be an integer >= 0, got 1.5"),
        (-1, 2, "^layer must be an integer >= 0, got -1"),
        (2, 2.5, "^branching must be an integer >= 2, got 2.5"),
        (2, True, "^branching must be an integer >= 2, got True"),
        (3, 2, r"^composites: layer 3 of branching 2 needs "
               r"\(C, M\) = \(2\*\*2, 2\), got \(2, 2\)$"),
        (2, 3, r"^composites: layer 2 of branching 3 needs "
               r"\(C, M\) = \(3\*\*1, 3\), got \(2, 2\)$"),
        (0, 2, r"^composites: layer 0 of branching 2 needs "
               r"\(C, M\) = \(1, 1\), got \(2, 2\)$"),
        (1100, 2, r"^composites: layer 1100 of branching 2 needs "
                  r"\(C, M\) = \(2\*\*1099, 2\)"),
    ])
    def test_layer_checks_its_own_place(self, cb, layer, branching, message):
        # layer 2 of the N=8 codebook: two composites of two members; an
        # OverflowError is not a ValueError, so none may escape
        with pytest.raises(ValueError, match=message):
            CodebookLayer(layer, branching, cb.layers[2].f_rf,
                          cb.layers[2].f_bb)

    def test_numpy_integer_place_accepted(self, cb):
        layer = CodebookLayer(np.int64(2), np.int64(2), cb.layers[2].f_rf,
                              cb.layers[2].f_bb)
        assert layer == cb.layers[2]
