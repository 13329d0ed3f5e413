"""The coarse-to-fine GDP candidate search picks the exhaustive winner.

`codebooks._best_candidate` screens every phase candidate on two coarse
quadrature grids and rescores only the survivors at full resolution.  These
tests replay each layer's search against `_argmax_with_ties` over the
full-resolution values of every candidate, which is what the codebook
builders computed before the screen existed.
"""

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


@pytest.fixture
def kernel_passes(monkeypatch):
    """Record (points per unit, candidates) of every screened-search pass."""
    kernel = codebooks._gdp_values
    passes = []

    def recording(u_cols, coeffs, interval, cfg, points_per_unit, **kw):
        passes.append((points_per_unit, coeffs.shape[1]))
        return kernel(u_cols, coeffs, interval, cfg, points_per_unit, **kw)

    monkeypatch.setattr(codebooks, "_gdp_values", recording)
    return passes


def test_screen_rescores_few_candidates(kernel_passes):
    iv = AngleInterval(-1.0, 2.0)
    codebooks.lcs_phases(codebooks.subarray_plan(32, 2, iv), iv)
    fine = GdpConfig().points_for(32)
    assert [p for p, _ in kernel_passes] == [fine // 16, fine // 32, fine]
    assert kernel_passes[0][1] == kernel_passes[1][1] == 64 * 64
    assert 1 <= kernel_passes[2][1] < 64


def test_low_resolution_falls_back_to_exhaustive(checked_searches,
                                                 kernel_passes):
    # 256 points per unit is below 32 * 8 * N for N = 8: no coarse screen
    build_codebook("bmw-ms-lcs", 8, 2, grid_size=16,
                   cfg=GdpConfig(integration_points=256))
    assert len(checked_searches) == 4
    assert kernel_passes == [(256, 16 * 16)] * 4
