"""The streamed GDP quadrature kernel against a plain trapezoid reference.

`metrics._gdp_values` walks the quadrature grid in row blocks and picks its
contraction order from the operand shapes; `metrics.gdp` is its
one-candidate call and the candidate screen its `nested` call, which also
sums the trapezoid rule over the even samples.  These tests score random
candidates and layer codewords with it and with the `gdp_reference`
fixture, which samples `beam_pattern` over the whole grid and integrates
with `np.trapezoid`, so an error in the blocks, the shifted response table,
the trapezoid weights or either contraction order shows as a value gap.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mmwcodebook import (
    AngleInterval,
    GdpConfig,
    build_codebook,
    gdp,
    steering_vector,
)
from mmwcodebook import metrics
from mmwcodebook.metrics import _gdp_values


def random_problem(n, n_cols, n_cand, seed):
    rng = np.random.default_rng(seed)
    u_cols = (rng.standard_normal((n, n_cols))
              + 1j * rng.standard_normal((n, n_cols)))
    coeffs = np.exp(2j * np.pi * rng.random((n_cols, n_cand)))
    return u_cols, coeffs


def reference_values(gdp_reference, u_cols, coeffs, interval, cfg):
    out = []
    for c in range(coeffs.shape[1]):
        w = u_cols @ coeffs[:, c]
        out.append(gdp_reference(w / np.linalg.norm(w), interval, cfg))
    return np.array(out)


@pytest.mark.parametrize("n, n_cols, n_cand, direct", [
    (16, 16, 8, True),      # many columns, few candidates: w per block
    (32, 32, 200, True),    # and more candidates than one chunk
    (16, 4, 300, False),    # few columns, many candidates: gain basis
    (8, 2, 64, False),
])
@pytest.mark.parametrize("gamma_per, start, width", [
    (1.0, -0.6, 0.85),
    (2.5, -1.0, 2.0),       # the full period
])
def test_kernel_matches_gdp_on_both_association_paths(gdp_reference, n,
                                                      n_cols, n_cand, direct,
                                                      gamma_per, start,
                                                      width):
    assert (n * n_cand <= n_cols * (n + n_cand)) == direct
    u_cols, coeffs = random_problem(n, n_cols, n_cand, seed=n * n_cand)
    interval = AngleInterval(start, width)
    cfg = GdpConfig(gamma_per=gamma_per)
    values = _gdp_values(u_cols, coeffs, interval, cfg, cfg.points_for(n))
    ref = reference_values(gdp_reference, u_cols, coeffs, interval, cfg)
    assert np.max(np.abs(values - ref)) <= 1e-12


# 4096 points per unit over a width of 1/4 gives a grid of 1025 points; a
# (rows x 128) complex block of `rows` rows takes rows * 2048 bytes
@pytest.mark.parametrize("block_bytes, rows", [
    (64 * 2048, 64),        # 16 full blocks and a last block of 1 row
    (100 * 2048, 100),      # 10 full blocks and a last block of 25 rows
    (1 << 30, 1025),        # the whole grid in less than one block
    (1, 1),                 # one row per block
])
@pytest.mark.parametrize("n, n_cols, n_cand", [(16, 16, 8), (16, 4, 300)])
def test_block_boundaries(monkeypatch, gdp_reference, block_bytes, rows, n,
                          n_cols, n_cand):
    interval = AngleInterval(0.25, 0.25)
    cfg = GdpConfig(integration_points=4096)
    assert math.ceil(4096 * interval.width) + 1 == 1025
    assert min(1025, max(1, block_bytes // (16 * 128))) == rows
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_bytes)
    u_cols, coeffs = random_problem(n, n_cols, n_cand, seed=block_bytes % 97)
    values = _gdp_values(u_cols, coeffs, interval, cfg, 4096)
    ref = reference_values(gdp_reference, u_cols, coeffs, interval, cfg)
    assert np.max(np.abs(values - ref)) <= 1e-12


# with `nested`, the same grid's even samples give the trapezoid rule of
# twice the spacing, 512 intervals or 2048 points per unit; 4092 points per
# unit give 1023 intervals, which the nested call rounds up to the same 1024
@pytest.mark.parametrize("points", [4096, 4092])
@pytest.mark.parametrize("block_bytes, rows", [
    (64 * 2048, 64),
    (33 * 2048, 33),        # blocks that start at odd sample indices
    (1 << 30, 1025),
    (1, 1),
])
@pytest.mark.parametrize("n, n_cols, n_cand", [(16, 16, 8), (16, 4, 300)])
def test_nested_half_grid(monkeypatch, gdp_reference, points, block_bytes,
                          rows, n, n_cols, n_cand):
    interval = AngleInterval(0.25, 0.25)
    assert min(1025, max(1, block_bytes // (16 * 128))) == rows
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_bytes)
    u_cols, coeffs = random_problem(n, n_cols, n_cand, seed=block_bytes % 89)
    values, half = _gdp_values(u_cols, coeffs, interval, GdpConfig(), points,
                               nested=True)
    for got, ref_points in [(values, 4096), (half, 2048)]:
        cfg = GdpConfig(integration_points=ref_points)
        ref = reference_values(gdp_reference, u_cols, coeffs, interval, cfg)
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_full_resolution_call_holds_no_grid_sized_array():
    # ps-dft N=128 layer 0: 128 steering columns, 64 phase candidates,
    # 65537 quadrature points; a (points x N) complex array is 134 MB
    n = 128
    chains = np.stack([steering_vector(n, -1.0 + (2.0 * i - 1.0) / n)
                       for i in range(1, n + 1)], axis=1)
    steps = np.arange(1, n + 1)
    coeffs = np.exp(1j * np.outer(steps, 2.0 * np.pi * np.arange(64) / 64))
    interval = AngleInterval(-1.0, 2.0)
    cfg = GdpConfig()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        values = _gdp_values(chains, coeffs, interval, cfg, cfg.points_for(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (64,) and np.all(np.isfinite(values))
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("scheme", ["bmw-ms-cf", "bmw-ms-lcs", "ps-dft"])
def test_gdp_matches_reference_on_layer_codewords(gdp_reference, scheme, n):
    cb = build_codebook(scheme, n, 2)
    for k in range(cb.depth + 1):
        codewords = cb.layer_codewords(k)
        first, last = codewords[0], codewords[-1]
        for cw in [first] if first is last else [first, last]:
            got = gdp(cw.unit_awv, cw.coverage)
            assert abs(got - gdp_reference(cw.unit_awv, cw.coverage)) <= 1e-12
