"""The coarse-to-fine GDP candidate search picks the exhaustive winner.

`codebooks._best_candidate` screens every phase candidate in one coarse
pass, which scores it on a 1/16 grid and on that grid's even samples, and
rescores at full resolution only the survivors of each candidate's own
error margin.  These tests replay each layer's search against
`_argmax_with_ties` over the full-resolution values of every candidate,
which is what the codebook builders computed before the screen existed.
"""

import math

import pytest

from mmwcodebook import AngleInterval, GdpConfig, build_codebook, db_to_linear
from mmwcodebook import codebooks
from mmwcodebook.codebooks import _argmax_with_ties
from mmwcodebook.metrics import _gdp_values


@pytest.fixture
def checked_searches(monkeypatch):
    """Run every candidate search both ways; return the checked count."""
    screened_search = codebooks._best_candidate
    checked = []

    def search(u_cols, coeffs, interval, cfg):
        chosen = screened_search(u_cols, coeffs, interval, cfg)
        full = _gdp_values(u_cols, coeffs, interval, cfg,
                           cfg.points_for(u_cols.shape[0]))
        assert chosen == _argmax_with_ties(full), (
            f"width {interval.width}: screened {chosen}, "
            f"exhaustive {_argmax_with_ties(full)}")
        checked.append(interval.width)
        return chosen

    monkeypatch.setattr(codebooks, "_best_candidate", search)
    return checked


@pytest.mark.parametrize("gamma_db", [0.0, 2.0])
@pytest.mark.parametrize("scheme, n, m_rf", [
    ("bmw-ms-lcs", 8, 2), ("bmw-ms-lcs", 16, 2), ("bmw-ms-lcs", 32, 2),
    ("bmw-ms-lcs", 16, 4), ("bmw-ms-lcs", 64, 4),
    ("ps-dft", 16, 2), ("ps-dft", 64, 2),
])
def test_every_layer_matches_exhaustive(checked_searches, scheme, n, m_rf,
                                        gamma_db):
    cfg = GdpConfig(gamma_per=db_to_linear(gamma_db))
    cb = build_codebook(scheme, n, m_rf, cfg=cfg)
    assert len(checked_searches) == cb.depth + 1


def test_odd_screen_interval_count_matches_exhaustive(checked_searches):
    # 5000 points per unit: the 1/16 screen grid of the bottom layer (width
    # 1/8) has 39 intervals and takes a 40th to nest the half grid
    cfg = GdpConfig(integration_points=5000)
    assert math.ceil(5000 // 16 * 0.125) == 39
    cb = build_codebook("bmw-ms-lcs", 16, 2, cfg=cfg)
    assert checked_searches[-1] == 0.125
    assert len(checked_searches) == cb.depth + 1


@pytest.fixture
def kernel_passes(monkeypatch):
    """Record (width, points per unit, candidates, nested) of every pass."""
    kernel = codebooks._gdp_values
    passes = []

    def recording(u_cols, coeffs, interval, cfg, points_per_unit, **kw):
        passes.append((interval.width, points_per_unit, coeffs.shape[1],
                       kw.get("nested", False)))
        return kernel(u_cols, coeffs, interval, cfg, points_per_unit, **kw)

    monkeypatch.setattr(codebooks, "_gdp_values", recording)
    return passes


def test_screen_rescores_few_candidates(kernel_passes):
    iv = AngleInterval(-1.0, 2.0)
    codebooks.lcs_phases(codebooks.subarray_plan(32, 2, iv), iv)
    fine = GdpConfig().points_for(32)
    screen, rescore = kernel_passes
    assert screen[1:] == (fine // 16, 64 * 64, True)
    assert rescore[1] == fine and not rescore[3]
    assert 1 <= rescore[2] < 64


def test_per_candidate_margins_keep_few_survivors(kernel_passes):
    # bmw-ms-lcs N=64, m_rf=4: one global margin kept 3584 of the 4096
    # candidates of the layer of width 1/8
    build_codebook("bmw-ms-lcs", 64, 4)
    widths = [width for width, *_ in kernel_passes]
    assert widths == [2.0, 2.0, 0.5, 0.5, 0.125, 0.125, 2 / 64, 2 / 64]
    screen, rescore = kernel_passes[4:6]
    assert screen[2:] == (64 * 64, True) and not rescore[3]
    assert 1 <= rescore[2] < 512


def test_low_resolution_falls_back_to_exhaustive(checked_searches,
                                                 kernel_passes):
    # 256 points per unit is below 32 * 8 * N for N = 8: no coarse screen
    build_codebook("bmw-ms-lcs", 8, 2, grid_size=16,
                   cfg=GdpConfig(integration_points=256))
    assert len(checked_searches) == 4
    assert [p[1:] for p in kernel_passes] == [(256, 16 * 16, False)] * 4
