"""Wider-branching and mixed-geometry coverage beyond the m_rf = 2 default."""

import math

import numpy as np
import pytest

from mmwcodebook import (
    SimConfig,
    build_codebook,
    build_ps_dft,
    deserialize,
    gdp,
    hierarchical_search,
    run_monte_carlo,
    serialize,
    steering_vector,
)


class TestFourChainCodebook:
    def test_structure(self):
        cb = build_codebook("bmw-ms-cf", 16, 4)
        assert cb.depth == 2
        assert [len(cb.layer_codewords(k)) for k in range(3)] == [1, 4, 16]
        for k in range(1, 3):
            assert len(cb.layers[k]) == 4 ** (k - 1)
            for comp in cb.layers[k]:
                assert comp.f_rf.shape == (16, 4)
                assert len(comp.members) == 4
                assert np.max(np.abs(np.abs(comp.f_rf) - 0.25)) <= 1e-9

    def test_coverage_and_gdp(self):
        cb = build_codebook("bmw-ms-cf", 16, 4)
        for k in range(cb.depth + 1):
            cws = cb.layer_codewords(k)
            assert cws[0].coverage.start == -1.0
            assert cws[-1].coverage.end == pytest.approx(1.0)
            cw = cws[0]
            assert gdp(cw.unit_awv, cw.coverage) > 0.8

    def test_roundtrip(self):
        cb = build_codebook("bmw-ms-lcs", 16, 4, grid_size=16)
        assert deserialize(serialize(cb)) == cb
        ps = build_ps_dft(16, 4, grid_size=16)
        assert deserialize(serialize(ps)) == ps

    def test_noise_free_search(self):
        cb = build_codebook("bmw-ms-cf", 16, 4)
        cfg = SimConfig(l_s=8, n0=0.0, papc=True)
        for j_true, i_true in ((1, 7), (11, 16), (6, 2)):
            aod = -1.0 + (2 * j_true - 1) / 16
            aoa = -1.0 + (2 * i_true - 1) / 16
            h = (16 * np.outer(steering_vector(16, aoa),
                               steering_vector(16, aod).conj()))
            res = hierarchical_search(cb, cb, h, cfg)
            assert (res.j_t, res.i_r) == (j_true, i_true)
            assert res.overhead == cfg.l_s * 2  # log_4(16) layers


class TestMixedGeometry:
    def test_different_tx_rx_branching(self):
        tx_cb = build_codebook("bmw-ms-cf", 16, 2)   # 4 layers deep
        rx_cb = build_codebook("bmw-ms-cf", 16, 4)   # 2 layers deep
        cfg = SimConfig(l_s=8, n0=0.0)
        aod = -1.0 + 5 / 16
        aoa = -1.0 + 9 / 16
        h = (16 * np.outer(steering_vector(16, aoa),
                           steering_vector(16, aod).conj()))
        res = hierarchical_search(tx_cb, rx_cb, h, cfg)
        assert res.overhead == cfg.l_s * 4  # deeper side sets the layers
        assert tx_cb.codeword(4, res.j_t).coverage.contains(aod)
        assert rx_cb.codeword(2, res.i_r).coverage.contains(aoa)

    def test_mixed_sizes_rejected_in_sweep(self):
        a = build_codebook("bmw-ms-cf", 8, 2)
        b = build_codebook("bmw-ms-cf", 16, 2)
        with pytest.raises(ValueError, match="array sizes"):
            run_monte_carlo([("a", a, a), ("b", b, b)], [0.0],
                            SimConfig(l_s=8, trials=1))


class TestNoPapcMode:
    def test_total_power_sweep(self):
        cb = build_codebook("bmw-ms-cf", 8, 2)
        cfg = SimConfig(l_s=8, n0=1.0, papc=False, seed=4, trials=40)
        rows = run_monte_carlo([("bmw-ms-cf", cb, cb)], [-30.0, -10.0], cfg)
        assert rows[0]["success_rate"] <= rows[1]["success_rate"]
        assert all(math.isfinite(r["rate_bps_hz"]) for r in rows)

    def test_papc_penalizes_peaky_schemes_more(self):
        # at equal nominal power the DFT-sum scheme loses more under the
        # per-antenna constraint than the sub-array scheme does
        ps = build_ps_dft(32, 2)
        cf = build_codebook("bmw-ms-cf", 32, 2)
        w_ps = ps.codeword(1, 1).unit_awv
        w_cf = cf.codeword(1, 1).unit_awv
        loss_ps = np.max(np.abs(w_ps)) ** 2
        loss_cf = np.max(np.abs(w_cf)) ** 2
        assert loss_ps > 3.0 * loss_cf
