import functools
import inspect
import math
import random
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwcodebook import simulate
from mmwcodebook import (
    AngleInterval,
    Codeword,
    CompositeCodeword,
    GdpConfig,
    SimConfig,
    build_codebook,
    build_ps_dft,
    element_power_cdf,
    gdp,
    hierarchical_search,
    measure,
    run_monte_carlo,
    sample_channel,
    select_best,
    steering_vector,
)


def substream_keys(monkeypatch):
    """A list that receives the key count of every `_substreams` call."""
    original = simulate._substreams
    counts = []

    def counting(seed, *parts):
        counts.append(np.broadcast(*parts).size)
        return original(seed, *parts)

    monkeypatch.setattr(simulate, "_substreams", counting)
    return counts


def rank_one_channel(m_an, n_an, aod, aoa, gain=1.0):
    return (math.sqrt(m_an * n_an) * gain
            * np.outer(steering_vector(n_an, aoa),
                       steering_vector(m_an, aod).conj()))


class TestSampleChannel:
    def test_power_normalization(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate(
            [sample_channel(1, 8, 8, rng).gains for _ in range(100_000)])
        mean_power = float(np.mean(np.abs(draws) ** 2))
        # E|gain|^2 = 1; second moment of |CN(0,1)|^2 gives sigma ~ 1/sqrt(n)
        assert abs(mean_power - 1.0) <= 3.0 / math.sqrt(draws.size)

    def test_multipath_variance_split(self):
        rng = np.random.default_rng(1)
        draws = np.concatenate(
            [sample_channel(4, 8, 8, rng).gains for _ in range(50_000)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(0.25, abs=0.01)

    def test_deterministic_given_seed(self):
        a = sample_channel(3, 16, 8, np.random.default_rng(42))
        b = sample_channel(3, 16, 8, np.random.default_rng(42))
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.aoa, b.aoa)
        assert np.array_equal(a.aod, b.aod)

    def test_matrix_matches_outer_product_sum(self):
        rng = np.random.default_rng(7)
        chan = sample_channel(3, 6, 4, rng)
        h = chan.matrix()
        brute = np.zeros((4, 6), dtype=complex)
        for lam, om, psi in zip(chan.gains, chan.aoa, chan.aod):
            a_r = steering_vector(4, om)
            a_t = steering_vector(6, psi)
            for p in range(4):
                for q in range(6):
                    brute[p, q] += (math.sqrt(24) * lam * a_r[p]
                                    * np.conj(a_t[q]))
        assert np.allclose(h, brute, atol=1e-12)

    def test_angles_in_range(self):
        chan = sample_channel(64, 8, 8, np.random.default_rng(3))
        assert np.all(np.abs(chan.aoa) <= 1.0)
        assert np.all(np.abs(chan.aod) <= 1.0)


class TestMeasure:
    def test_takes_the_search_settings(self):
        # one measurement is configured as a whole search is: the same
        # (cfg, rng, p) tail with the same defaults, so PAPC follows cfg
        def tail(fn):
            params = list(inspect.signature(fn).parameters.values())[3:]
            return [(q.name, q.annotation, q.default) for q in params]

        assert tail(measure) == tail(hierarchical_search)

    def test_matched_pair_noise_free(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        bottom = cb.depth
        tx = cb.composite(bottom, 1)
        rx = cb.composite(bottom, 1)
        aod = tx.members[0].coverage.center
        aoa = rx.members[0].coverage.center
        h = rank_one_channel(16, 16, aod, aoa)
        rho = measure(tx, rx, h, SimConfig(l_s=32, n0=0.0, papc=False))
        # the steering match dominates the composite and carries ~l_s*sqrt(MN)
        assert abs(rho[0, 0]) > abs(rho[1, 1])
        assert abs(rho[0, 0]) == pytest.approx(
            32 * 16 * abs(rx.members[0].unit_awv.conj()
                          @ steering_vector(16, aoa))
            * abs(steering_vector(16, aod).conj() @ tx.members[0].unit_awv),
            rel=1e-9)

    def test_exact_steering_pair_hits_ls_sqrt_mn(self):
        # bottom-layer DFT-sum codewords are pure steering vectors, so a
        # perfectly aligned rank-one channel measures exactly l_s*sqrt(M*N)
        cb = build_ps_dft(8, 2, grid_size=16)
        comp = cb.composite(cb.depth, 1)
        aod = comp.members[0].coverage.center
        aoa = comp.members[0].coverage.center
        h = rank_one_channel(8, 8, aod, aoa)
        rho = measure(comp, comp, h, SimConfig(l_s=32, n0=0.0, papc=False))
        assert abs(rho[0, 0]) == pytest.approx(32 * math.sqrt(64), rel=1e-9)

    def test_orthogonal_tx_is_null(self):
        # bottom-layer DFT-sum codewords at distinct bins are exactly
        # orthogonal, so a channel launched from another bin measures zero
        cb = build_ps_dft(8, 2, grid_size=16)
        comp = cb.composite(cb.depth, 1)  # members cover bins 1 and 2
        other_bin = cb.codeword(cb.depth, 5).coverage.center
        h = rank_one_channel(8, 8, other_bin, 0.25)
        rho = measure(comp, comp, h, SimConfig(l_s=16, n0=0.0, papc=False))
        assert np.max(np.abs(rho)) == pytest.approx(0.0, abs=1e-9)

    def test_noise_variance(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        tx = rx = cb.composite(1, 1)
        h = np.zeros((8, 8), dtype=complex)
        rng = np.random.default_rng(11)
        l_s, n0 = 16, 0.5
        cfg = SimConfig(l_s=l_s, n0=n0, papc=False)
        draws = [measure(tx, rx, h, cfg, rng) for _ in range(2500)]
        var = float(np.mean(np.abs(np.stack(draws)) ** 2))
        assert var == pytest.approx(l_s * n0, rel=0.05)

    def test_linearity_in_channel(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        tx = rx = cb.composite(2, 1)
        h = rank_one_channel(8, 8, -0.6, 0.3, gain=1.0 + 0.5j)
        alpha = 0.7 - 1.3j
        cfg = SimConfig(l_s=16, n0=0.0, papc=False)
        a = measure(tx, rx, alpha * h, cfg)
        b = measure(tx, rx, h, cfg)
        assert np.allclose(a, alpha * b, atol=1e-12)

    def test_papc_scales_per_stream(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        tx = rx = cb.composite(1, 1)
        h = rank_one_channel(8, 8, -0.9, -0.9)
        plain = measure(tx, rx, h, SimConfig(l_s=16, n0=0.0, papc=False))
        papc = measure(tx, rx, h, SimConfig(l_s=16, n0=0.0, papc=True))
        scales = 1.0 / tx.member_inf_norms
        assert np.allclose(papc, plain * scales[None, :], atol=1e-9)

    def test_dimension_mismatch(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        with pytest.raises(ValueError):
            measure(cb.composite(1, 1), cb.composite(1, 1),
                    np.zeros((4, 4), dtype=complex),
                    SimConfig(l_s=16, n0=0.0))

    def test_rng_required_with_noise(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        with pytest.raises(ValueError):
            measure(cb.composite(1, 1), cb.composite(1, 1),
                    np.zeros((8, 8), dtype=complex),
                    SimConfig(l_s=16, n0=1.0), rng=None)

    def test_l_s_too_short_rejected(self):
        # one measurement refuses the l_s that a search refuses
        comp = build_codebook("bmw-ms-cf", 8, 2).composite(1, 1)
        with pytest.raises(ValueError, match="^l_s=1 cannot keep 2 training "
                                             "sequences orthogonal"):
            measure(comp, comp, np.zeros((8, 8), dtype=complex),
                    SimConfig(l_s=1, n0=0.0))

    @pytest.mark.parametrize("field, value", [
        ("p", math.nan), ("p", math.inf), ("p", 0.0), ("p", -1.0),
        ("n0", math.nan), ("n0", math.inf), ("n0", -1.0),
        ("l_s", 0), ("l_s", 8.5), ("l_s", True)])
    def test_bad_link_inputs_rejected(self, field, value):
        comp = build_codebook("bmw-ms-cf", 8, 2).composite(1, 1)
        link = {"p": 1.0, "n0": 0.5, "l_s": 16, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            measure(comp, comp, np.zeros((8, 8), dtype=complex),
                    SimConfig(l_s=link["l_s"], n0=link["n0"]),
                    np.random.default_rng(0), link["p"])


class TestDetectionProbability:
    """GDP is the hit rate P(|rho|^2 > l_s*n0) of a one-path Rayleigh
    channel whose direction is uniform over the codeword's coverage, at
    gamma_per = l_s*p/n0."""

    TRIALS, BLOCK = 4096, 256

    def test_hit_rate_matches_gdp(self):
        # the trials are the antennas of a virtual Rx array whose members
        # are one-hot, so each measure call draws BLOCK one-antenna trials;
        # its BLOCK members need l_s >= BLOCK orthogonal training sequences,
        # and only gamma_per = l_s*p/n0 sets the hit rate
        l_s, n0 = self.BLOCK, 1.0
        cfg = SimConfig(l_s=l_s, n0=n0)
        rng = np.random.default_rng(2024)
        whole = AngleInterval(-1.0, 2.0)
        rx = CompositeCodeword(
            0, 1, np.zeros((self.BLOCK, 1)), np.zeros((1, self.BLOCK)),
            [Codeword(0, t + 1, row, whole)
             for t, row in enumerate(np.eye(self.BLOCK))])
        for scheme in ("bmw-ms-cf", "bmw-ms-lcs", "ps-dft"):
            cb = build_codebook(scheme, 32, 2)
            for k in (1, 3):
                tx = cb.composite(k, 1)
                cw = tx.members[0]
                psi = cw.coverage.start + cw.coverage.width * rng.random(
                    self.TRIALS)
                gain = (rng.standard_normal(self.TRIALS)
                        + 1j * rng.standard_normal(self.TRIALS)) / math.sqrt(2)
                h = (math.sqrt(32) * gain[:, None]
                     * steering_vector(32, psi).conj())
                for gamma in (1.0, 0.05):
                    p = gamma * n0 / l_s
                    rho = np.concatenate([
                        measure(tx, rx, h[b:b + self.BLOCK], cfg, rng,
                                p)[:, 0]
                        for b in range(0, self.TRIALS, self.BLOCK)])
                    hits = np.mean(np.abs(rho) ** 2 > l_s * n0)
                    ref = gdp(cw.unit_awv, cw.coverage,
                              GdpConfig(gamma_per=l_s * p / n0))
                    sigma = math.sqrt(ref * (1.0 - ref) / self.TRIALS)
                    assert abs(hits - ref) <= 4.0 * sigma, (scheme, k, gamma)


class TestSelectBest:
    def test_example(self):
        rho = np.array([[1.0, 3.0], [2.0, 0.0]])
        assert select_best(rho) == (2, 1)

    def test_tie_breaks_lexicographically(self):
        assert select_best(np.ones((3, 3))) == (1, 1)
        rho = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert select_best(rho) == (1, 2)  # (j=1,i=2) before (j=2,i=1)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            rho = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            j, i = select_best(rho)
            best = max(((jj, ii) for jj in range(1, 5) for ii in range(1, 4)),
                       key=lambda t: (abs(rho[t[1] - 1, t[0] - 1]) ** 2,
                                      -t[0], -t[1]))
            assert (j, i) == best

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best(np.zeros((0, 0)))


class TestHierarchicalSearch:
    def test_noise_free_bin_centers(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        cfg = SimConfig(l_s=8, n0=0.0, papc=True)
        for j_true in (1, 5, 16):
            for i_true in (2, 9):
                aod = -1.0 + (2 * j_true - 1) / 16
                aoa = -1.0 + (2 * i_true - 1) / 16
                h = rank_one_channel(16, 16, aod, aoa)
                res = hierarchical_search(cb, cb, h, cfg)
                assert (res.j_t, res.i_r) == (j_true, i_true)

    def test_overhead_accounting(self):
        cb = build_codebook("bmw-ms-cf", 32, 2)
        cfg = SimConfig(l_s=17, n0=0.0)
        res = hierarchical_search(cb, cb, rank_one_channel(32, 32, 0.1, 0.1),
                                  cfg)
        assert res.overhead == 17 * 5  # l_s * log2(32)

    def test_replay_oracle_reproduces_descent(self):
        # replaying the same noise stream layer by layer must reproduce
        # the exact descent of the search
        tx_cb = rx_cb = build_codebook("bmw-ms-cf", 16, 2)
        cfg = SimConfig(l_s=8, n0=1.0, papc=True)
        h = sample_channel(2, 16, 16, np.random.default_rng(5)).matrix()
        res = hierarchical_search(tx_cb, rx_cb, h, cfg,
                                  np.random.default_rng(99), p=100.0)
        rng = np.random.default_rng(99)
        j_t = i_r = 1
        for k in range(1, 5):
            rho = measure(tx_cb.composite(k, j_t), rx_cb.composite(k, i_r),
                          h, cfg, rng, 100.0)
            j_s, i_s = select_best(rho)
            j_t = 2 * (j_t - 1) + j_s
            i_r = 2 * (i_r - 1) + i_s
        assert (res.j_t, res.i_r) == (j_t, i_r)

    def test_nested_coverage_descent(self):
        tx_cb = rx_cb = build_codebook("bmw-ms-cf", 32, 2)
        cfg = SimConfig(l_s=8, n0=0.5)
        h = sample_channel(1, 32, 32, np.random.default_rng(8)).matrix()
        rng = np.random.default_rng(21)
        j_t = i_r = 1
        prev = tx_cb.codeword(0, 1).coverage
        for k in range(1, 6):
            rho = measure(tx_cb.composite(k, j_t), rx_cb.composite(k, i_r),
                          h, cfg, rng, 10.0)
            j_s, _ = select_best(rho)
            j_t = 2 * (j_t - 1) + j_s
            assert 1 <= j_t <= 2 ** k
            cov = tx_cb.codeword(k, j_t).coverage
            assert cov.start >= prev.start - 1e-12
            assert cov.end <= prev.end + 1e-12
            prev = cov

    def test_unequal_depths_hold_shallow_side(self):
        tx_cb = build_codebook("bmw-ms-cf", 32, 2)
        rx_cb = build_codebook("bmw-ms-cf", 8, 2)
        cfg = SimConfig(l_s=8, n0=0.0)
        aod = -1.0 + 9 / 32
        aoa = -1.0 + 3 / 8
        h = rank_one_channel(32, 8, aod, aoa)
        res = hierarchical_search(tx_cb, rx_cb, h, cfg)
        assert res.overhead == 8 * 5
        assert tx_cb.codeword(5, res.j_t).coverage.contains(aod)
        assert rx_cb.codeword(3, res.i_r).coverage.contains(aoa)

    def test_h1_matrix_shape_and_rank(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        cfg = SimConfig(l_s=8, n0=0.0)
        h = rank_one_channel(16, 16, 0.2, -0.4)
        res = hierarchical_search(cb, cb, h, cfg)
        h1 = res.h1_matrix(16, 16)
        assert h1.shape == (16, 16)
        assert np.linalg.matrix_rank(h1) == 1

    def test_zero_channel_ties_to_first_pair(self):
        # every measurement is exactly 0, so each layer keeps member (1, 1)
        tx_cb = build_codebook("bmw-ms-cf", 16, 2)
        rx_cb = build_codebook("bmw-ms-cf", 8, 2)
        res = hierarchical_search(tx_cb, rx_cb,
                                  np.zeros((8, 16), dtype=complex),
                                  SimConfig(l_s=8, n0=0.0))
        assert (res.j_t, res.i_r) == (1, 1)

    def test_l_s_too_short_rejected(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        with pytest.raises(ValueError):
            hierarchical_search(cb, cb, np.zeros((8, 8), dtype=complex),
                                SimConfig(l_s=1, n0=0.0))

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_bad_power_rejected(self, p):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        with pytest.raises(ValueError, match="^p must be finite and positive"):
            hierarchical_search(cb, cb, np.zeros((8, 8), dtype=complex),
                                SimConfig(l_s=8, n0=0.0), p=p)

    @pytest.mark.parametrize("shape", [(16, 16), (32, 8), (256,)])
    def test_bad_channel_shape_rejected(self, shape):
        tx_cb = build_codebook("bmw-ms-cf", 32, 2)
        rx_cb = build_codebook("bmw-ms-cf", 8, 2)
        with pytest.raises(ValueError, match="channel shape"):
            hierarchical_search(tx_cb, rx_cb, np.zeros(shape, dtype=complex),
                                SimConfig(l_s=8, n0=0.0))

    def test_single_search_stacks_no_layer(self):
        # a search gathers its operands from the codebooks' layer arrays,
        # so it allocates far less than one layer's stacked member columns
        cb = build_codebook("bmw-ms-cf", 256, 2)
        other = build_codebook("bmw-ms-cf", 256, 2)
        h = rank_one_channel(256, 256, 0.3, -0.2)
        cfg = SimConfig(l_s=8, n0=0.0)
        same = hierarchical_search(cb, cb, h, cfg)
        tracemalloc.start()
        try:
            mixed = hierarchical_search(cb, other, h, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cb.layers[-1].units.nbytes / 8
        assert same == mixed


class TestMonteCarlo:
    def test_noise_free_success_is_one(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        cfg = SimConfig(l_paths=1, l_s=8, n0=0.0, papc=True, seed=3,
                        trials=50)
        rows = run_monte_carlo([("bmw-ms-cf", cb, cb)], [0.0], cfg)
        assert rows[0]["success_rate"] == 1.0
        assert math.isinf(rows[0]["rate_bps_hz"])

    def test_no_scheme_rejected(self):
        with pytest.raises(ValueError, match="at least one scheme"):
            run_monte_carlo([], [0.0], SimConfig(l_s=8))

    def test_schemes_of_other_array_sizes_rejected(self):
        small = build_codebook("bmw-ms-cf", 8, 2)
        large = build_codebook("bmw-ms-cf", 16, 2)
        with pytest.raises(ValueError, match="share the array sizes"):
            run_monte_carlo([("a", small, small), ("b", small, large)], [0.0],
                            SimConfig(l_s=8))

    def test_worker_count_does_not_change_results(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        cfg = SimConfig(l_paths=2, l_s=8, n0=1.0, papc=True, seed=11,
                        trials=24)
        rows1 = run_monte_carlo([("bmw-ms-cf", cb, cb)], [-20.0, -10.0], cfg,
                                workers=1)
        rows4 = run_monte_carlo([("bmw-ms-cf", cb, cb)], [-20.0, -10.0], cfg,
                                workers=4)
        assert rows1 == rows4

    def test_sweep_starts_no_child_process(self):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        cfg = SimConfig(l_paths=2, l_s=8, n0=1.0, seed=11, trials=24)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        run_monte_carlo([("bmw-ms-cf", cb, cb)], [-20.0, -10.0], cfg,
                        workers=3)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        # finished children add their CPU time here once they are reaped
        assert (after.ru_utime, after.ru_stime) == (before.ru_utime,
                                                    before.ru_stime)

    def test_deterministic_given_seed(self):
        cb = build_ps_dft(8, 2, grid_size=16)
        cfg = SimConfig(l_s=8, n0=1.0, seed=5, trials=10)
        a = run_monte_carlo([("ps-dft", cb, cb)], [-15.0], cfg)
        b = run_monte_carlo([("ps-dft", cb, cb)], [-15.0], cfg)
        assert a == b

    def test_rate_bounded_by_full_array_gain(self):
        # log2(1 + p_eff*M*N*|gain|^2/n0) caps the single-stream rate; at a
        # bin-centered channel the selected pair comes close to it
        n = 16
        cb = build_codebook("bmw-ms-cf", n, 2)
        cfg = SimConfig(l_paths=1, l_s=16, n0=1.0, papc=True, seed=9,
                        trials=20)
        rows = run_monte_carlo([("bmw-ms-cf", cb, cb)], [0.0], cfg)
        w = cb.codeword(cb.depth, 1).unit_awv
        p_eff = 1.0 / np.max(np.abs(w)) ** 2
        # Monte Carlo rates cannot exceed the expected-gain bound by much:
        # |gain| is CN(0,1), so compare trial-wise instead via a rigged run
        center = cb.codeword(cb.depth, 3).coverage.center
        h = rank_one_channel(n, n, center, center, gain=1.0)
        res = hierarchical_search(cb, cb, h, SimConfig(l_s=16, n0=0.0))
        w_t = cb.codeword(cb.depth, res.j_t).unit_awv
        w_r = cb.codeword(cb.depth, res.i_r).unit_awv
        link = abs(w_r.conj() @ h @ w_t) ** 2
        rate = math.log2(1.0 + p_eff * link)
        bound = math.log2(1.0 + p_eff * n * n)
        assert rate <= bound + 1e-9
        assert rate >= math.log2(1.0 + 0.95 * p_eff * n * n)
        assert rows  # sweep itself ran

    def test_row_grid_order(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        cfg = SimConfig(l_s=8, n0=1.0, seed=1, trials=4)
        rows = run_monte_carlo(
            [("a", cb, cb), ("b", cb, cb)], [-20.0, -10.0], cfg)
        assert [(r["snr_db"], r["scheme"]) for r in rows] == [
            (-20.0, "a"), (-20.0, "b"), (-10.0, "a"), (-10.0, "b")]
        for r in rows:
            assert 0.0 <= r["success_rate"] <= 1.0
            assert r["trials"] == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(n0=-1.0)
        with pytest.raises(ValueError):
            SimConfig(l_paths=0)
        with pytest.raises(ValueError, match="trials"):
            SimConfig(trials=2 ** 32 + 1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)

    def test_seed_range_ends_accepted(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        for seed in (0, 2 ** 64 - 1):
            rows = run_monte_carlo([("a", cb, cb)], [-10.0],
                                   SimConfig(l_s=8, seed=seed, trials=2))
            assert rows[0]["trials"] == 2

    @pytest.mark.parametrize("tx_m, rx_m", [(2, 2), (4, 2), (2, 4)])
    def test_l_s_below_a_branching_rejected_before_trials(self, tx_m, rx_m,
                                                          monkeypatch):
        tx = build_codebook("bmw-ms-cf", 16, tx_m)
        rx = build_codebook("bmw-ms-cf", 16, rx_m)
        keys = substream_keys(monkeypatch)
        l_s = max(tx_m, rx_m) - 1
        with pytest.raises(ValueError, match="orthogonal"):
            run_monte_carlo([("a", tx, rx)], [-10.0],
                            SimConfig(l_s=l_s, trials=3))
        assert keys == []

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True])
    def test_workers_below_one_rejected(self, workers):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        with pytest.raises(ValueError, match="workers"):
            run_monte_carlo([("a", cb, cb)], [-10.0],
                            SimConfig(l_s=8, trials=3), workers=workers)

    @pytest.mark.parametrize("field", ["n0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("trials", 2.0), ("trials", True), ("seed", 1.5),
        ("seed", False), ("l_s", 8.5), ("l_paths", 1.0), ("l_paths", True)])
    def test_non_integer_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("l_paths", [0, 2.5, 2.0, True])
    def test_sample_channel_refuses_what_sim_config_refuses(self, l_paths):
        with pytest.raises(ValueError, match="^l_paths must be an integer"):
            SimConfig(l_paths=l_paths)
        with pytest.raises(ValueError, match="^l_paths must be an integer"):
            sample_channel(l_paths, 8, 8, np.random.default_rng(0))

    def test_numpy_integer_settings_accepted(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        plain = SimConfig(l_s=8, seed=2 ** 64 - 1, trials=3)
        wide = SimConfig(l_paths=np.int64(1), l_s=np.int32(8),
                         seed=np.uint64(2 ** 64 - 1), trials=np.int64(3))
        assert (run_monte_carlo([("a", cb, cb)], [-10.0], plain)
                == run_monte_carlo([("a", cb, cb)], [-10.0], wide))

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_out_of_range_snr_rejected_before_trials(self, snr_db,
                                                     monkeypatch):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        keys = substream_keys(monkeypatch)
        with pytest.raises(ValueError, match="4000"):
            run_monte_carlo([("a", cb, cb)], [-10.0, snr_db],
                            SimConfig(l_s=8, trials=3))
        assert keys == []


def held_bottom(cb, index):
    """A one-member composite holding bottom codeword `index` fixed."""
    cw = cb.codeword(cb.depth, index)
    n = cb.n_antennas
    return CompositeCodeword(cb.depth, index, np.zeros((n, 1)),
                             np.zeros((1, 1)), [cw])


def sweep_book(spec):
    """The codebook of a (scheme, n, m_rf) spec; ps-dft on a coarse grid."""
    scheme, n, m_rf = spec
    if scheme == "ps-dft":
        return build_ps_dft(n, m_rf, grid_size=16)
    return build_codebook(scheme, n, m_rf)


def oracle_search(tx_cb, rx_cb, h, power, cfg, rng, rhos=None):
    """(j_t, i_r, rho*) of a search from measure + select_best, layer by
    layer; each layer's rho is appended to `rhos` when one is given."""
    j_t = i_r = 1
    for k in range(1, max(tx_cb.depth, rx_cb.depth) + 1):
        tx_on, rx_on = k <= tx_cb.depth, k <= rx_cb.depth
        tx = tx_cb.composite(k, j_t) if tx_on else held_bottom(tx_cb, j_t)
        rx = rx_cb.composite(k, i_r) if rx_on else held_bottom(rx_cb, i_r)
        rho = measure(tx, rx, h, cfg, rng, power)
        if rhos is not None:
            rhos.append(rho)
        j_s, i_s = select_best(rho)
        if tx_on:
            j_t = tx_cb.branching * (j_t - 1) + j_s
        if rx_on:
            i_r = rx_cb.branching * (i_r - 1) + i_s
    return j_t, i_r, complex(rho[i_s - 1, j_s - 1])


def oracle_sweep(schemes, snr_db, cfg, searches=None):
    """run_monte_carlo rows from measure + select_best, one cell at a time.

    Given a dict, `searches[(trial, snr index, scheme index)]` receives the
    cell's 0-based final (j_t, i_r) and the rho of every layer.
    """
    m_an, n_an = schemes[0][1].n_antennas, schemes[0][2].n_antennas
    succ = np.zeros((cfg.trials, len(snr_db), len(schemes)))
    rate = np.zeros_like(succ)
    for t in range(cfg.trials):
        chan = sample_channel(cfg.l_paths, m_an, n_an,
                              np.random.default_rng([cfg.seed, t]))
        h = chan.matrix()
        _, aoa, aod = chan.strongest_path()
        for si, snr in enumerate(snr_db):
            power = 10.0 ** (snr / 10.0) * (cfg.n0 if cfg.n0 > 0 else 1.0)
            for ci, (_, tx_cb, rx_cb) in enumerate(schemes):
                rng = np.random.default_rng([cfg.seed, t, si, ci])
                rhos = []
                j_t, i_r, _ = oracle_search(tx_cb, rx_cb, h, power, cfg, rng,
                                            rhos)
                if searches is not None:
                    searches[t, si, ci] = (j_t - 1, i_r - 1, rhos)
                w_t = tx_cb.codeword(tx_cb.depth, j_t).unit_awv
                w_r = rx_cb.codeword(rx_cb.depth, i_r).unit_awv
                succ[t, si, ci] = float(
                    tx_cb.codeword(tx_cb.depth, j_t).coverage.contains(aod)
                    and rx_cb.codeword(rx_cb.depth, i_r).coverage.contains(aoa))
                p_eff = power / np.max(np.abs(w_t)) ** 2 if cfg.papc else power
                link = abs(w_r.conj() @ h @ w_t) ** 2
                rate[t, si, ci] = (math.log2(1.0 + p_eff * link / cfg.n0)
                                   if cfg.n0 > 0 else math.inf)
    return [(snr, name, float(np.sum(succ[:, si, ci]) / cfg.trials),
             float(np.sum(rate[:, si, ci]) / cfg.trials))
            for si, snr in enumerate(snr_db)
            for ci, (name, _, _) in enumerate(schemes)]


class TestBatchedSweep:
    """The trial-batched sweep against a search per cell, bit for bit."""

    SNR_DB = [-35.0, -20.0, -5.0]

    @pytest.mark.parametrize("case", [
        # Tx deeper than Rx, then Rx deeper than Tx, with three paths
        dict(sizes=(32, 8), m_rf=2, l_paths=3, trials=9),
        dict(sizes=(8, 32), m_rf=2, l_paths=1, trials=9),
        dict(sizes=(16, 16), m_rf=2, papc=False, trials=12),
        dict(sizes=(16, 16), m_rf=2, n0=0.0, trials=6),
        # 16 trials per sub-block at N = 64, so 37 trials end mid-block
        dict(sizes=(64, 64), m_rf=4, l_paths=3, trials=37),
        # a two-word seed: three-word channel keys, five-word noise keys
        dict(sizes=(16, 16), m_rf=2, l_paths=2, trials=10, seed=2 ** 32 + 7),
        # branchings 2 and 4 in one sweep: the m_rf = 4 pair runs out after
        # layer 2 while the others run on, and the mixed pair measures one
        # Rx member past its depth beside a stacked side
        dict(schemes=[("cf2", ("bmw-ms-cf", 16, 2), ("bmw-ms-cf", 16, 2)),
                      ("cf4", ("bmw-ms-cf", 16, 4), ("bmw-ms-cf", 16, 4)),
                      ("mix", ("bmw-ms-cf", 16, 2), ("bmw-ms-cf", 16, 4))],
             l_paths=2, trials=12),
        # three members per side: odd row counts in the stacked product
        dict(sizes=(27, 27), m_rf=3, l_paths=2, trials=10),
        # at least 8 trials per sub-block at N = 256, as in a large-array
        # sweep, so 11 trials run as 8 + 3, each built one trial per chunk
        dict(sizes=(256, 256), m_rf=2, l_paths=3, trials=11),
    ])
    def test_matches_per_cell_oracle(self, case):
        if "schemes" in case:
            schemes = [(name, sweep_book(tx), sweep_book(rx))
                       for name, tx, rx in case["schemes"]]
        else:
            n_tx, n_rx = case["sizes"]
            m_rf = case["m_rf"]
            tx_cf = build_codebook("bmw-ms-cf", n_tx, m_rf)
            rx_cf = build_codebook("bmw-ms-cf", n_rx, m_rf)
            tx_ps = build_ps_dft(n_tx, m_rf, grid_size=16)
            rx_ps = rx_cf if n_rx != n_tx else tx_ps
            schemes = [("cf", tx_cf, rx_cf), ("mixed", tx_ps, rx_ps)]
        cfg = SimConfig(l_paths=case.get("l_paths", 1), l_s=16,
                        n0=case.get("n0", 1.0), papc=case.get("papc", True),
                        seed=case.get("seed", 29), trials=case["trials"])
        rows = run_monte_carlo(schemes, self.SNR_DB, cfg)
        got = [(r["snr_db"], r["scheme"], r["success_rate"], r["rate_bps_hz"])
               for r in rows]
        assert got == oracle_sweep(schemes, self.SNR_DB, cfg)
        assert run_monte_carlo(schemes, self.SNR_DB, cfg, workers=3) == rows

    def test_stacked_rows_match_measure(self):
        # one product of every side's member rows gives each composite the
        # bits of the w^H H that `measure` forms for it alone, for sides of
        # two and four members and for a side past its depth (one member)
        books = [build_codebook("bmw-ms-cf", 16, 2),
                 build_codebook("bmw-ms-cf", 16, 4),
                 build_ps_dft(16, 2, grid_size=16)]
        rng = np.random.default_rng(3)
        h = rng.standard_normal((3, 16, 8)) + 1j * rng.standard_normal(
            (3, 16, 8))
        # stale entries in the buffers must never be read
        buffers = simulate._stack_buffers([(None, cb) for cb in books],
                                          3 * 5, 16, 8)
        for buf in buffers:
            buf.fill(np.nan)
        for k in range(1, 5):
            # composites of layer k, or bottom codewords past the depth
            sides = [(cb, rng.integers(
                0, cb.branching ** min(k - 1, cb.depth), (3, 5)))
                     for cb in books]
            for (cb, i), wh in zip(sides, simulate._rx_stack(sides, k, h,
                                                              buffers)):
                for t, s in np.ndindex(i.shape):
                    comp = (cb.composite(k, i[t, s] + 1) if k <= cb.depth
                            else held_bottom(cb, i[t, s] + 1))
                    ref = simulate._rx_product(comp.member_matrix, h[t])
                    assert wh[t, s].tobytes() == ref.tobytes()

    def test_sweep_memory_is_its_buffers(self):
        # two schemes at N = 32, seven SNRs and two full sub-blocks of 64
        # trials
        cf = build_codebook("bmw-ms-cf", 32, 2)
        ps = build_codebook("ps-dft", 32, 2)
        cfg = SimConfig(l_s=32, seed=3, trials=128)
        snr_db = [-40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0]
        tracemalloc.start()
        try:
            run_monte_carlo([("cf", cf, cf), ("ps", ps, ps)], snr_db, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the search's row and product buffers: one row of 32 complex
        # entries per cell (64 trials x 7 SNRs) and Rx member (2 + 2) each
        stack = 2 * 64 * 7 * (2 + 2) * 32 * 16
        # the sweep peaked at 4.4-4.7 MB at this shape before it stacked
        # its products; the stack may add its buffers and nothing more
        assert peak < 4.8e6 + stack

    @pytest.mark.parametrize("n, trials, blocks", [
        (32, 70, [64, 6]), (64, 20, [16, 4]), (128, 11, [8, 3]),
        (256, 11, [8, 3])])
    def test_sub_blocks_hold_the_floor(self, monkeypatch, n, trials, blocks):
        # 1 MiB of channels per sub-block, but never fewer than 8 trials
        cb = build_codebook("bmw-ms-cf", n, 2)
        sizes, search_cells = [], simulate._search_cells

        def recording(pairs, h, *args):
            sizes.append(h.shape[0])
            return search_cells(pairs, h, *args)

        monkeypatch.setattr(simulate, "_search_cells", recording)
        run_monte_carlo([("cf", cb, cb)], [-10.0],
                        SimConfig(l_s=8, n0=0.0, trials=trials))
        assert sizes == blocks

    def test_large_array_sweep_memory_is_its_buffers(self):
        # two schemes at N = 256 with 3 paths, seven SNRs and two full
        # sub-blocks of the 8-trial floor
        cf = build_codebook("bmw-ms-cf", 256, 2)
        ps = build_codebook("ps-dft", 256, 2)
        cfg = SimConfig(l_paths=3, l_s=32, seed=3, trials=16)
        snr_db = [-40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0]
        tracemalloc.start()
        try:
            run_monte_carlo([("cf", cf, cf), ("ps", ps, ps)], snr_db, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entry = 16  # bytes of one complex128
        channels = 8 * 256 * 256 * entry
        chunk = 256 * 256 * entry
        # row and product buffers: one row of 256 entries per cell (8
        # trials x 7 SNRs) and Rx member (2 + 2) each; and 2 x 2 x 2
        # normals per layer of 8, per cell and scheme
        stack = 2 * 8 * 7 * (2 + 2) * 256 * entry
        noise = 2 * 8 * 7 * 8 * (2 * 2 * 2) * 8
        # the peak read 0.43-1.41 MB above these buffers over seeds 3-5 and
        # n0 = 0 and 1 (the first sweep of an interpreter the highest); a
        # 16-trial block, or channels built in one pass, adds 8 MiB more
        assert peak < channels + chunk + stack + noise + 2e6

    @pytest.mark.parametrize("sizes", [(32, 8), (8, 32)])
    @pytest.mark.parametrize("papc", [True, False])
    def test_single_search_matches_oracle(self, sizes, papc):
        tx_cb = build_codebook("bmw-ms-cf", sizes[0], 2)
        rx_cb = build_ps_dft(sizes[1], 2, grid_size=16)
        cfg = SimConfig(l_paths=2, l_s=8, n0=1.0, papc=papc)
        for seed in range(8):
            h = sample_channel(2, *sizes, np.random.default_rng(seed)).matrix()
            res = hierarchical_search(tx_cb, rx_cb, h, cfg,
                                      np.random.default_rng([seed, 1]), p=30.0)
            assert (res.j_t, res.i_r, res.rho_star) == oracle_search(
                tx_cb, rx_cb, h, 30.0, cfg, np.random.default_rng([seed, 1]))

    def test_one_generator_per_trial_and_cell(self, monkeypatch):
        cb = build_codebook("bmw-ms-cf", 16, 2)
        ps = build_ps_dft(16, 2, grid_size=16)
        keys = substream_keys(monkeypatch)
        cfg = SimConfig(l_s=16, n0=1.0, seed=4, trials=11)
        run_monte_carlo([("a", cb, cb), ("b", ps, cb)], self.SNR_DB, cfg)
        assert sum(keys) == cfg.trials * (1 + len(self.SNR_DB) * 2)

    @pytest.mark.parametrize("l_paths", [1, 3])
    @pytest.mark.parametrize("sizes", [(16, 8), (8, 32)])
    @pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 - 1])
    def test_channel_block_matches_sample_channel(self, monkeypatch, l_paths,
                                                  sizes, seed):
        # the 7 matrices are built in chunks of 3, 3 and 1 trials, so the
        # last chunk is short
        monkeypatch.setattr(simulate, "_SUB_BLOCK_BYTES",
                            3 * 16 * sizes[0] * sizes[1])
        cfg = SimConfig(l_paths=l_paths, seed=seed, trials=9)
        streams = simulate._substreams(seed, np.arange(2, 9))
        # a reused buffer holds the last sub-block's matrices
        h = np.full((7, sizes[1], sizes[0]), np.nan + 0j)
        aoa, aod = simulate._channel_block(cfg, streams, h)
        for row, t in enumerate(range(2, 9)):
            chan = sample_channel(l_paths, *sizes,
                                  np.random.default_rng([seed, t]))
            assert np.array_equal(h[row], chan.matrix())
            assert (aoa[row], aod[row]) == chan.strongest_path()[1:]


SWEEP_SCHEMES = ("bmw-ms-cf", "bmw-ms-lcs", "ps-dft")
# each size with the branchings it is a power of
SWEEP_SIZES = {8: (2, 8), 16: (2, 4), 27: (3,), 32: (2,), 64: (2, 4, 8)}


@functools.lru_cache(maxsize=None)
def drawn_book(scheme, n, m_rf):
    return build_codebook(scheme, n, m_rf, grid_size=16)


def _sweep_sample(seed=26, count=12):
    """A fixed draw of sweeps.  Each draws N_t and N_r, one to three
    schemes with a (scheme, m_rf) per side, so that depths are equal or
    mixed, l_paths, papc, n0 (0 in a third of the draws), the seed, one
    to three SNRs, a trial count and the trials per sub-block, which the
    sweep's results must not depend on."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        sizes = [rng.choice(sorted(SWEEP_SIZES)) for _ in "tr"]
        cases.append(dict(
            pairs=[tuple((rng.choice(SWEEP_SCHEMES), n,
                          rng.choice(SWEEP_SIZES[n])) for n in sizes)
                   for _ in range(rng.randint(1, 3))],
            l_paths=rng.randint(1, 3), papc=rng.random() < 0.5,
            n0=rng.choice([0.0, 0.5, 1.0]), seed=rng.choice([0, 29, 2 ** 40]),
            snr_db=sorted(rng.sample([-35.0, -25.0, -15.0, -5.0],
                                     rng.randint(1, 3))),
            trials=rng.randint(1, 24), block=rng.choice([1, 2, 3, 5, 8, 16])))
    return cases


SWEEP_SAMPLE = _sweep_sample()


def test_sweep_sample_spans_the_cases():
    pairs = [(drawn_book(*tx), drawn_book(*rx))
             for case in SWEEP_SAMPLE for tx, rx in case["pairs"]]
    assert {tx.scheme for tx, _ in pairs} == set(SWEEP_SCHEMES)
    assert {rx.scheme for _, rx in pairs} == set(SWEEP_SCHEMES)
    assert {np.sign(tx.depth - rx.depth) for tx, rx in pairs} == {-1, 0, 1}
    assert {case["n0"] > 0 for case in SWEEP_SAMPLE} == {True, False}
    assert {case["papc"] for case in SWEEP_SAMPLE} == {True, False}
    assert {case["l_paths"] > 1 for case in SWEEP_SAMPLE} == {True, False}
    assert any(case["trials"] > case["block"]
               and case["trials"] % case["block"] for case in SWEEP_SAMPLE)


@pytest.mark.parametrize("case", SWEEP_SAMPLE,
                         ids=[f"case{c}" for c in range(len(SWEEP_SAMPLE))])
def test_drawn_sweeps_match_per_cell_searches(monkeypatch, case):
    # rows against the per-cell oracle, and each cell's final codewords
    # and last-layer rho against `measure`'s, bit for bit: a change of the
    # product's last bit rarely moves a row
    schemes = [(f"s{ci}", drawn_book(*tx), drawn_book(*rx))
               for ci, (tx, rx) in enumerate(case["pairs"])]
    n_t, n_r = schemes[0][1].n_antennas, schemes[0][2].n_antennas
    monkeypatch.setattr(simulate, "_SUB_BLOCK_BYTES",
                        case["block"] * 16 * n_t * n_r)
    monkeypatch.setattr(simulate, "_SUB_BLOCK_TRIALS", case["block"])
    blocks, search_cells = [], simulate._search_cells

    def recording(*args):
        found = search_cells(*args)
        blocks.append([(j.copy(), i.copy(), rho.copy())
                       for j, i, rho, _ in found])
        return found

    monkeypatch.setattr(simulate, "_search_cells", recording)
    cfg = SimConfig(l_paths=case["l_paths"], l_s=16, n0=case["n0"],
                    papc=case["papc"], seed=case["seed"],
                    trials=case["trials"])
    rows = run_monte_carlo(schemes, case["snr_db"], cfg)
    searches = {}
    assert [(r["snr_db"], r["scheme"], r["success_rate"], r["rate_bps_hz"])
            for r in rows] == oracle_sweep(schemes, case["snr_db"], cfg,
                                           searches)
    assert len(blocks) == -(-cfg.trials // case["block"])
    t = 0
    for block in blocks:
        for row in range(block[0][0].shape[0]):
            for si, ci in np.ndindex(len(case["snr_db"]), len(schemes)):
                j, i, rho = block[ci]
                j_t, i_r, rhos = searches[t, si, ci]
                assert (j[row, si], i[row, si]) == (j_t, i_r)
                assert rho[row, si].tobytes() == rhos[-1].tobytes()
            t += 1
    assert t == cfg.trials


# a key is (seed, trial) for a channel and (seed, trial, snr, scheme) for
# noise; seeds of one and two 32-bit words
SEEDS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]),
                  st.integers(0, 2 ** 64 - 1))
WORDS = st.integers(0, 2 ** 32 - 1)
TAILS = st.one_of(st.lists(st.tuples(WORDS), min_size=1, max_size=4),
                  st.lists(st.tuples(WORDS, WORDS, WORDS), min_size=1,
                           max_size=4))


class TestSubstreams:
    """Bulk-seeded generators against np.random.default_rng, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, tails=TAILS, sizes=st.lists(
        st.integers(1, 96), min_size=1, max_size=3))
    def test_noise_draws_match_default_rng(self, seed, tails, sizes):
        streams = simulate._substreams(seed, *np.array(tails).T)
        for tail, gen in zip(tails, streams):
            ref = np.random.default_rng([seed, *tail])
            for size in sizes:
                out = np.empty(size)
                gen.standard_normal(out=out)
                assert np.array_equal(out, ref.standard_normal(size))
        assert next(streams, None) is None

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, tails=TAILS, l_paths=st.integers(1, 5))
    def test_channel_draws_match_default_rng(self, seed, tails, l_paths):
        streams = simulate._substreams(seed, *np.array(tails).T)
        for tail, gen in zip(tails, streams):
            ref = np.random.default_rng([seed, *tail])
            for draw in ("standard_normal", "standard_normal"):
                assert np.array_equal(getattr(gen, draw)(l_paths),
                                      getattr(ref, draw)(l_paths))
            for _ in range(2):
                assert np.array_equal(gen.uniform(-1.0, 1.0, l_paths),
                                      ref.uniform(-1.0, 1.0, l_paths))

    @pytest.mark.parametrize("seed_keys", [4096, 5, 1])
    def test_keys_broadcast_in_c_order(self, seed_keys, monkeypatch):
        # a small pass size splits the keys over several passes
        monkeypatch.setattr(simulate, "_SEED_KEYS", seed_keys)
        trials = np.arange(3, 6)[:, None]
        draws = [gen.standard_normal(4) for gen in
                 simulate._substreams(2 ** 64 - 1, trials, np.arange(2), 1)]
        assert len(draws) == 6
        for (t, si), got in zip([(t, si) for t in range(3, 6)
                                 for si in range(2)], draws):
            ref = np.random.default_rng([2 ** 64 - 1, t, si, 1])
            assert np.array_equal(got, ref.standard_normal(4))


class TestElementPowerCdf:
    def test_unit_power_per_codeword(self):
        cb = build_codebook("bmw-ms-cf", 32, 2)
        powers, cdf = element_power_cdf([cb])
        assert powers.size == 32 * 5  # N entries per layer, layers 1..5
        assert cdf[-1] == 1.0
        assert np.all(np.diff(powers) >= 0)
        # pooled powers of each codeword sum to one
        for k in range(1, 6):
            assert np.abs(cb.codeword(k, 1).unit_awv ** 2).sum() <= 1.0 + 1e-9
            assert np.sum(np.abs(cb.codeword(k, 1).unit_awv) ** 2) == \
                pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            element_power_cdf([])
