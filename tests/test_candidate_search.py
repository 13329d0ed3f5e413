"""The coarse-to-fine GDP candidate search picks the exhaustive winner.

`codebooks._best_candidate` screens one phase candidate per certified
GDP class in one coarse pass, which scores it on a 1/16 grid and on that
grid's even samples, and rescores at full resolution every member of the
classes that survive their own error margin.  These tests replay each
layer's search against `_argmax_with_ties` over the full-resolution values
of every candidate, which is what the codebook builders computed before
the screen existed, and check that every class shares one value.
"""

import math

import numpy as np
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

    def search(u_cols, coeffs, interval, cfg, **classes):
        chosen = screened_search(u_cols, coeffs, interval, cfg, **classes)
        full = _gdp_values(u_cols, coeffs, interval, cfg,
                           cfg.points_for(u_cols.shape[0]))
        assert chosen == _argmax_with_ties(full), (
            f"width {interval.width}: screened {chosen}, "
            f"exhaustive {_argmax_with_ties(full)}")
        labels = classes.get("labels")
        if labels is not None:
            # every certified class shares one full-resolution value
            assert np.max(np.abs(full - full[labels])) <= 1e-13
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
    # the 64 * 64 candidates of N=32 layer 0 form 2050 mirror classes
    iv = AngleInterval(-1.0, 2.0)
    codebooks.lcs_phases(codebooks.subarray_plan(32, 2, iv), iv)
    fine = GdpConfig().points_for(32)
    screen, rescore = kernel_passes
    assert screen[1:] == (fine // 16, 2050, True)
    assert rescore[1] == fine and not rescore[3]
    assert 1 <= rescore[2] < 64


def test_per_candidate_margins_keep_few_survivors(kernel_passes):
    # bmw-ms-lcs N=64, m_rf=4: one global margin kept 3584 of the 4096
    # candidates of the layer of width 1/8, where m_s = 1 and the mirror
    # leave 32 classes of 128 candidates
    build_codebook("bmw-ms-lcs", 64, 4)
    widths = [width for width, *_ in kernel_passes]
    assert widths == [2.0, 2.0, 0.5, 0.5, 0.125, 0.125, 2 / 64, 2 / 64]
    screen, rescore = kernel_passes[4:6]
    assert screen[2:] == (32, True) and not rescore[3]
    assert 1 <= rescore[2] < 512


def test_low_resolution_falls_back_to_exhaustive(checked_searches,
                                                 kernel_passes):
    # 256 points per unit is below 32 * 8 * N for N = 8: no coarse screen
    build_codebook("bmw-ms-lcs", 8, 2, grid_size=16,
                   cfg=GdpConfig(integration_points=256))
    assert len(checked_searches) == 4
    assert [p[1:] for p in kernel_passes] == [(256, 16 * 16, False)] * 4


@pytest.fixture
def search_classes(monkeypatch):
    """Record (labels, exact) of every candidate search, scoring nothing."""
    seen = []

    def search(u_cols, coeffs, interval, cfg, labels=None, exact=False):
        seen.append((labels, exact))
        return 0

    monkeypatch.setattr(codebooks, "_best_candidate", search)
    return seen


# mirror offsets (c1, c2) per layer at grid 64; None where the map is not
# on the grid (a half-integer c2)
MIRROR_OFFSETS = {
    (64, 2): [(8, 36), (8, 4), (4, 34), (4, 2), (2, 33)],
    (64, 4): [(16, 4), (8, 2)],
    (256, 2): [(4, 34), (4, 2), (2, 33), (2, 1), None, None, None],
}


def _plan(n, m_rf, layer):
    return codebooks.subarray_plan(
        n, m_rf, codebooks.coverage_interval(layer, 1, m_rf))


@pytest.mark.parametrize("n, m_rf", sorted(MIRROR_OFFSETS))
def test_mirror_offsets_follow_from_the_plan(n, m_rf):
    for k, offsets in enumerate(MIRROR_OFFSETS[(n, m_rf)]):
        assert codebooks._mirror_offsets(_plan(n, m_rf, k), 64) == offsets


@pytest.mark.parametrize("n, m_rf, counts", [
    # m_s > 1 with a map: 2048 pairs, plus 4 fixed points when c1 and c2
    # are even; m_s = 1: phi1 is a global phase, so 64 classes, halved by
    # a map with an odd c2; no map: every candidate alone
    (64, 2, [2050, 2050, 2050, 2050, 2048, 32, 64]),
    (64, 4, [2050, 2050, 32, 64]),
])
def test_class_counts_per_layer(search_classes, n, m_rf, counts):
    build_codebook("bmw-ms-lcs", n, m_rf)
    assert [np.unique(labels).size for labels, _ in search_classes] == counts
    # only classes no mirror joined share |A|^2 itself
    assert [exact for _, exact in search_classes] == [False] * (
        len(counts) - 1) + [True]
    for labels, _ in search_classes:
        assert np.all(labels <= np.arange(labels.size))
        assert np.all(labels[labels] == labels)


@pytest.mark.parametrize("shift", [(1, 0), (0, 1), (0, 32)])
def test_certificate_refuses_wrong_offsets(search_classes, monkeypatch,
                                           shift):
    derived = codebooks._mirror_offsets

    def wrong(plan, grid_size):
        c1, c2 = derived(plan, grid_size)
        return (c1 + shift[0]) % grid_size, (c2 + shift[1]) % grid_size

    monkeypatch.setattr(codebooks, "_mirror_offsets", wrong)
    for k in range(len(MIRROR_OFFSETS[(64, 2)])):
        plan = _plan(64, 2, k)
        iv = codebooks.coverage_interval(k, 1, 2)
        codebooks.lcs_phases(plan, iv)
        labels, exact = search_classes[-1]
        assert exact and np.array_equal(labels, np.arange(64 * 64))


@pytest.mark.parametrize("n, grid", [(16, 16), (64, 64), (256, 64),
                                     (32, 64)])
def test_ps_dft_one_class_layers(checked_searches, kernel_passes, n, grid):
    # layer 0 (width 2) is one class of one-hot candidates when grid
    # divides n, and the bottom layer is one class of global phases: both
    # skip every pass and still pick the exhaustive index
    cb = build_codebook("ps-dft", n, 2, grid_size=grid)
    assert len(checked_searches) == cb.depth + 1
    scored = [width for width, *_ in kernel_passes]
    assert (2.0 in scored) == (n % grid != 0)
    assert 2.0 / n not in scored
    assert len(scored) == 2 * (cb.depth - (n % grid == 0))
