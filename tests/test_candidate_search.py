"""The coarse-to-fine GDP candidate search picks the exhaustive winner.

`codebooks._best_candidate` screens one phase candidate per certified
GDP class in one coarse pass, which scores it on a 1/16 grid and on that
grid's even samples, and rescores at full resolution every member of the
classes that survive their own error margin (a lone surviving class gives
its lowest index unscored).  These tests replay each
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


def test_odd_screen_interval_count_matches_exhaustive(checked_searches,
                                                      kernel_passes):
    # bmw-ms-lcs N=9, m_rf=3 screens at 4096 // 16 = 256 points per unit:
    # the grids of layers 1 and 2 (widths 2/3 and 2/9) have 171 and 57
    # intervals, and each takes one more to nest the half grid
    cb = build_codebook("bmw-ms-lcs", 9, 3)
    assert len(checked_searches) == cb.depth + 1
    screens = [(width, points) for width, points, _, nested in kernel_passes
               if nested]
    assert [math.ceil(points * width) for width, points in screens] == [
        512, 171, 57]


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


@pytest.fixture
def searches(monkeypatch):
    """Per candidate search, its labels and the passes it ran.

    Each pass is (width, points per unit, scored candidate indices, nested);
    a scored column is traced back to its index by its exact bytes.
    """
    search, kernel = codebooks._best_candidate, codebooks._gdp_values
    record, index = [], {}

    def recording_search(u_cols, coeffs, interval, cfg, labels=None):
        index.clear()
        index.update((col.tobytes(), j) for j, col in enumerate(coeffs.T))
        assert len(index) == coeffs.shape[1]
        record.append((labels, []))
        return search(u_cols, coeffs, interval, cfg, labels=labels)

    def recording_kernel(u_cols, coeffs, interval, cfg, points_per_unit,
                         **kw):
        scored = np.array([index[col.tobytes()] for col in coeffs.T])
        record[-1][1].append((interval.width, points_per_unit, scored,
                              kw.get("nested", False)))
        return kernel(u_cols, coeffs, interval, cfg, points_per_unit, **kw)

    monkeypatch.setattr(codebooks, "_best_candidate", recording_search)
    monkeypatch.setattr(codebooks, "_gdp_values", recording_kernel)
    return record


def _surviving_classes(labels, passes, fine):
    """Classes the screen kept, read from the passes; check their shape.

    The screen scores every class representative once on the coarse
    grids.  A screen with no pass after it kept one class, returned
    unscored; otherwise one full-resolution pass rescores, in index
    order, every member of the classes it kept, and of no other class.
    """
    (_, points, screened, nested), *rescores = passes
    assert nested and points == fine // 16
    assert np.array_equal(screened,
                          np.flatnonzero(labels == np.arange(labels.size)))
    if not rescores:
        return 1
    (_, points, rescored, nested), = rescores
    assert points == fine and not nested
    kept = np.unique(labels[rescored])
    assert np.array_equal(rescored, np.flatnonzero(np.isin(labels, kept)))
    assert kept.size > 1
    return kept.size


def test_screen_rescores_few_candidates(searches):
    # the 64 * 64 candidates of N=32 layer 0 form 2050 mirror classes
    iv = AngleInterval(-1.0, 2.0)
    codebooks.lcs_phases(codebooks.subarray_plan(32, 2, iv), iv)
    (labels, passes), = searches
    assert np.unique(labels).size == 2050
    assert 1 <= _surviving_classes(labels, passes,
                                   GdpConfig().points_for(32)) < 32
    assert all(scored.size < 64 for _, _, scored, _ in passes[1:])


def test_per_candidate_margins_keep_few_survivors(searches):
    # bmw-ms-lcs N=64, m_rf=4: one global margin kept 3584 of the 4096
    # candidates of the layer of width 1/8, where m_s = 1 and the mirror
    # leave 32 classes of 128 candidates
    build_codebook("bmw-ms-lcs", 64, 4)
    fine = GdpConfig().points_for(64)
    assert [passes[0][0] for _, passes in searches] == [2.0, 0.5, 0.125,
                                                        2 / 64]
    assert np.unique(searches[2][0]).size == 32
    kept = [_surviving_classes(labels, passes, fine)
            for labels, passes in searches]
    assert kept[2] < 4
    assert all(scored.size < 512
               for _, passes in searches for _, _, scored, _ in passes[1:])


@pytest.fixture
def search_classes(monkeypatch):
    """Record the labels of every candidate search, scoring nothing."""
    seen = []

    def search(u_cols, coeffs, interval, cfg, labels=None):
        seen.append(labels)
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
    assert [np.unique(labels).size for labels in search_classes] == counts
    for labels in search_classes:
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
        assert np.array_equal(search_classes[-1], np.arange(64 * 64))


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
