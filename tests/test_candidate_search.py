"""The coarse-to-fine GDP candidate search picks the exhaustive winner.

`codebooks._best_candidates` narrows each search through the ladder of
screens its builder passes (`codebooks._LCS_RUNGS` for bmw-ms-lcs,
`codebooks._PS_DFT_RUNGS` for ps-dft): one phase candidate per certified
GDP class is scored on the first rung's coarse grid and on that grid's
even samples, the classes that survive their own error margin again on
the next rung's grid, and every member of the classes that survive the
last rung is rescored at full resolution (a rung that leaves one class
gives its lowest index unscored).  These tests
replay each layer's search against `_argmax_with_ties` over the
full-resolution values of every candidate, which is what the codebook
builders computed before the screens existed, check that every class
shares one value, and pin the ladder's passes.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from mmwcodebook import (AngleInterval, GdpConfig, build_codebook,
                         build_ps_dft, db_to_linear)
from mmwcodebook import codebooks, metrics
from mmwcodebook.arraymath import response_matrix
from mmwcodebook.codebooks import _TIE_RTOL, _argmax_with_ties
from mmwcodebook.metrics import _gdp_values


@pytest.fixture
def checked_searches(monkeypatch):
    """Run every candidate search both ways; return the checked widths.

    The searches that one call runs together (every layer of a ps-dft
    build) are each checked on their own.
    """
    screened_searches = codebooks._best_candidates
    checked = []

    def searches(batch, cfg, rungs):
        chosen = screened_searches(batch, cfg, rungs)
        assert len(chosen) == len(batch)
        for best, (u_cols, coeffs, interval, labels) in zip(chosen, batch):
            full = _gdp_values(u_cols, coeffs, interval, cfg,
                               cfg.points_for(u_cols.shape[0]))
            assert best == _argmax_with_ties(full), (
                f"width {interval.width}: screened {best}, "
                f"exhaustive {_argmax_with_ties(full)}")
            if labels is not None:
                # every certified class shares one full-resolution value
                assert np.max(np.abs(full - full[labels])) <= 1e-13
            checked.append(interval.width)
        return chosen

    monkeypatch.setattr(codebooks, "_best_candidates", searches)
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
    # bmw-ms-lcs N=9, m_rf=3 screens at 4096 // 32 = 128 points per unit
    # and then at 4096 // 4 = 1024, layer by layer.  Layer 1 (width 2/3)
    # has 86 intervals at 128 and 683 at 1024; layer 2 (width 2/9) has 29
    # at 128 and 228 at 1024.  The odd counts, 683 and 29, each take one
    # more interval to nest the half grid
    cb = build_codebook("bmw-ms-lcs", 9, 3)
    assert len(checked_searches) == cb.depth + 1
    screens = [(width, points) for width, points, _, nested in kernel_passes
               if nested]
    assert [(points, math.ceil(points * width))
            for width, points in screens] == [
        (128, 256), (128, 86), (1024, 683), (128, 29), (1024, 228)]


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
    """Per candidate search, its labels, the passes it ran and its ladder.

    Each search is recorded as (labels, passes, rungs), where each pass is
    (width, points per unit, scored candidate indices, nested, the values
    the kernel returned) and rungs is the ladder its builder passed;
    a pass is traced to its search by its basis columns, which each search
    passes to every pass as they are, and a scored column back to its
    index by its exact bytes.  Labels of None read as one class per
    candidate.
    """
    run, kernel = codebooks._best_candidates, codebooks._gdp_values
    record, active = [], []

    def recording_searches(batch, cfg, rungs):
        active.clear()
        for u_cols, coeffs, _, labels in batch:
            index = {col.tobytes(): j for j, col in enumerate(coeffs.T)}
            assert len(index) == coeffs.shape[1]
            if labels is None:
                labels = np.arange(coeffs.shape[1])
            record.append((labels, [], rungs))
            active.append((u_cols, index, record[-1][1]))
        return run(batch, cfg, rungs)

    def recording_kernel(u_cols, coeffs, interval, cfg, points_per_unit,
                         **kw):
        (index, passes), = [(index, passes) for cols, index, passes in active
                            if cols is u_cols]
        scored = np.array([index[col.tobytes()] for col in coeffs.T])
        values = kernel(u_cols, coeffs, interval, cfg, points_per_unit, **kw)
        passes.append((interval.width, points_per_unit, scored,
                       kw.get("nested", False), values))
        return values

    monkeypatch.setattr(codebooks, "_best_candidates", recording_searches)
    monkeypatch.setattr(codebooks, "_gdp_values", recording_kernel)
    return record


def _ladder(labels, passes, rungs, fine):
    """Classes each rung of one search kept, read from its passes.

    Checks the ladder's shape against the search's own ladder `rungs`.
    The first rung, at 1/rungs[0] of the full resolution, scores, nested,
    every class representative; each later rung scores, nested, the
    representatives the rung before kept; one full-resolution pass then
    rescores, in index order, every member of the classes the last rung
    kept, and of no other class.  A rung that keeps one class
    ends the search with no further pass, and a search of one class runs
    none.  Each rung keeps at least every class c whose v_c + 2|v_c - v2_c|
    reaches the best v_j - 2|v_j - v2_j| less twice the tie slack, the
    rule `_best_candidates` states.
    """
    alive = np.flatnonzero(labels == np.arange(labels.size))
    kept = []
    for rung, (_, points, scored, nested, _) in enumerate(passes):
        if rung < len(rungs):
            assert nested and points == fine // rungs[rung]
            assert scored.size > 1 and np.all(np.diff(scored) > 0)
            assert np.all(np.isin(scored, alive))
            assert rung or np.array_equal(scored, alive)
            if rung:
                kept.append(scored.size)
            alive = scored
        else:
            assert rung == len(rungs) and points == fine and not nested
            classes = np.unique(labels[scored])
            assert classes.size > 1 and np.all(np.isin(classes, alive))
            assert np.array_equal(scored,
                                  np.flatnonzero(np.isin(labels, classes)))
            kept.append(classes.size)
    # each rung keeps every class whose margin reaches the best lower end
    for rung, (_, _, scored, _, (v, v2)) in enumerate(passes[:len(rungs)]):
        margin = 2.0 * np.abs(v - v2)
        tol = _TIE_RTOL * max(1.0, abs(float(np.max(v))))
        must = scored[v + margin >= np.max(v - margin) - 2.0 * tol]
        if rung + 1 < len(passes):
            assert np.all(np.isin(must, labels[passes[rung + 1][2]]))
        else:
            assert must.size == 1
    return kept + [1] if 0 < len(passes) <= len(rungs) else kept


def test_screen_rescores_few_candidates(searches):
    # the 64 * 64 candidates of N=32 layer 0 form 2050 mirror classes;
    # the first rung leaves two and the second one
    iv = AngleInterval(-1.0, 2.0)
    codebooks.lcs_phases(codebooks.subarray_plan(32, 2, iv), iv)
    (labels, passes, rungs), = searches
    assert np.unique(labels).size == 2050
    assert _ladder(labels, passes, rungs,
                   GdpConfig().points_for(32)) == [2, 1]
    assert all(scored.size < 64 for _, _, scored, *_ in passes[1:])


def test_per_candidate_margins_keep_few_survivors(searches):
    # bmw-ms-lcs N=64, m_rf=4: one global margin kept 3584 of the 4096
    # candidates of the layer of width 1/8, where m_s = 1 and the mirror
    # leave 32 classes of 128 candidates; the 1/32 rung keeps 11 of them
    # and the 1/4 rung one
    build_codebook("bmw-ms-lcs", 64, 4)
    fine = GdpConfig().points_for(64)
    assert [passes[0][0] for _, passes, _ in searches] == [
        2.0, 0.5, 0.125, 2 / 64]
    assert np.unique(searches[2][0]).size == 32
    kept = [_ladder(*search, fine) for search in searches]
    assert kept == [[1], [19, 1], [11, 1], [6, 1]]
    assert all(scored.size < 512
               for _, passes, _ in searches
               for _, _, scored, *_ in passes[1:])


def _design_space():
    """(scheme, m_rf, n, gamma_db, grid_size) of every screened design
    `check_design` accepts with N = m_rf^d <= 64, by (scheme, m_rf)."""
    space = {}
    for scheme in ("ps-dft", "bmw-ms-lcs"):
        for m_rf in (2, 3, 4, 5, 8):
            sizes = [m_rf ** d for d in range(1, 7) if m_rf ** d <= 64]
            space[scheme, m_rf] = [
                (scheme, m_rf, n, gamma_db, grid)
                for n in sizes for gamma_db in (-10.0, -3.0, 0.0, 5.0, 15.0)
                for grid in (8, 16, 64)]
    return space


def _ladder_sample(seed=26):
    """A fixed draw of the design space, stratified by (scheme, m_rf): six
    designs per ps-dft stratum and two per bmw-ms-lcs one, whose builds
    cost about 20 times more."""
    rng = random.Random(seed)
    return [design for (scheme, _), designs in _design_space().items()
            for design in rng.sample(designs, 6 if scheme == "ps-dft" else 2)]


@pytest.mark.parametrize("scheme, m_rf, n, gamma_db, grid", _ladder_sample())
def test_drawn_designs_match_exhaustive(checked_searches, searches, scheme,
                                        m_rf, n, gamma_db, grid):
    # the margin 2|v - v2| is an estimate, so the ladder is checked on a
    # sample of the whole accepted space, not only on hand-picked builds:
    # each search picks the exhaustive winner, and each rung keeps every
    # class its margin cannot rule out (`_ladder`)
    cfg = GdpConfig(gamma_per=db_to_linear(gamma_db))
    cb = build_codebook(scheme, n, m_rf, grid, cfg)
    assert len(checked_searches) == cb.depth + 1
    for search in searches:
        _ladder(*search, cfg.points_for(n))


def test_lcs_ladder_keeps_the_near_tie(monkeypatch):
    # bmw-ms-lcs N=81, m_rf=3, layer 0: candidate 311 (phi1 = phis[4],
    # phi2 = phis[55]) beats 310 by 4e-6 in GDP.  A ladder opening at 1/64
    # underestimates the coarse errors there and keeps 310, so this fails
    # if `_LCS_RUNGS` opens coarser than 1/32
    run, batches = codebooks._best_candidates, []

    def recording(batch, cfg, rungs):
        batches.append(batch)
        return run(batch, cfg, rungs)

    monkeypatch.setattr(codebooks, "_best_candidates", recording)
    iv = codebooks.coverage_interval(0, 1, 3)
    phi1, phi2, _ = codebooks.lcs_phases(codebooks.subarray_plan(81, 3, iv),
                                         iv)
    phis = 2.0 * np.pi * np.arange(64) / 64
    assert (phi1, phi2) == (phis[4], phis[55])
    (batch,) = batches
    cfg = GdpConfig()
    assert run(batch, cfg, (64, 16, 4)) == [310]
    # at full resolution 311 beats 310 and 247, its closest contenders
    (u_cols, coeffs, interval, _), = batch
    full = _gdp_values(u_cols, coeffs[:, [247, 310, 311]], interval, cfg,
                       cfg.points_for(81))
    assert _argmax_with_ties(full) == 2


@pytest.fixture
def search_classes(monkeypatch):
    """Record the labels of every candidate search, scoring nothing."""
    seen = []

    def searches(batch, cfg, rungs):
        seen.extend(labels for *_, labels in batch)
        return [0] * len(batch)

    monkeypatch.setattr(codebooks, "_best_candidates", searches)
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


# per ps-dft layer, the classes each rung kept (`_ladder`); [] is a layer
# of one class, which runs no pass
PS_DFT_LADDERS = {
    (16, 16): [[], [4, 4], [2, 2], [2, 2], []],
    (32, 64): [[2, 2], [2, 2], [4, 2], [6, 2], [6, 4], []],
    (64, 64): [[], [12, 4], [6, 2], [6, 2], [4, 2], [8, 4], []],
    (256, 64): [[], [12, 2], [12, 4], [6, 2], [3, 1], [3, 1], [4, 2],
                [7, 2], []],
}


@pytest.mark.parametrize("n, grid", sorted(PS_DFT_LADDERS))
def test_ps_dft_one_class_layers(checked_searches, searches, n, grid):
    # layer 0 (width 2) is one class of one-hot candidates when grid
    # divides n, and the bottom layer is one class of global phases: both
    # skip every pass and still pick the exhaustive index.  The other
    # layers climb the ladder: at N=256, layer 1 keeps 12 of its 64
    # candidates at 1/16 and 2 at 1/4
    cb = build_codebook("ps-dft", n, 2, grid_size=grid)
    assert checked_searches == [2.0 / 2 ** k for k in range(cb.depth + 1)]
    fine = GdpConfig().points_for(n)
    assert [_ladder(*search, fine)
            for search in searches] == PS_DFT_LADDERS[(n, grid)]


@pytest.mark.parametrize("m_rf", [2, 3, 4, 5, 8])
def test_ps_dft_one_class_layers_hold_by_construction(monkeypatch, m_rf):
    # build_ps_dft labels its one-class layers from the design alone: the
    # bottom layer always, and layer 0 when grid_size divides N.  Check
    # from each labelled search's weight vectors u_cols @ coeffs that its
    # candidates share one |A|^2, scoring nothing
    batches = []

    def searches(batch, cfg, rungs):
        batches.append(batch)
        return [0] * len(batch)

    monkeypatch.setattr(codebooks, "_best_candidates", searches)
    n = m_rf
    while n <= 256:
        for grid in (8, 16, 64, 128):
            batches.clear()
            build_ps_dft(n, m_rf, grid)
            (batch,) = batches
            depth = len(batch) - 1
            assert [labels is not None for *_, labels in batch] == [
                k == depth or (k == 0 and n % grid == 0)
                for k in range(depth + 1)]
            for k, (u_cols, coeffs, _, labels) in enumerate(batch):
                if labels is None:
                    continue
                assert np.array_equal(labels, np.zeros(grid, dtype=int))
                w = u_cols @ coeffs
                if k == depth:
                    # each candidate a unit multiple of the first
                    ratio = w / w[:, :1]
                    assert np.allclose(ratio, ratio[0], rtol=0, atol=1e-12)
                    assert np.allclose(np.abs(ratio), 1, rtol=0, atol=1e-12)
                if k == 0:
                    # each candidate one-hot with modulus sqrt(N)
                    mag = np.sort(np.abs(w), axis=0)
                    assert np.allclose(mag[-1], math.sqrt(n), rtol=1e-12,
                                       atol=0)
                    assert np.all(mag[:-1] < 1e-12 * math.sqrt(n))
        n *= m_rf


@pytest.mark.parametrize("n, m_rf, tables", [
    # every layer's grid starts at -1 and halves in width, so each of the
    # three levels (1/16, 1/4, rescore) builds one table for all layers
    (256, 2, 3),
    (64, 2, 3),
    # widths 2/5^k: at the 1/16 level the grid of width 2/25 does not
    # share the offsets of widths 2 and 2/5 bit for bit, so that level
    # builds a second table after the first is dropped
    (125, 5, 4),
])
def test_each_ps_dft_level_builds_its_table_once(monkeypatch, n, m_rf,
                                                 tables):
    built = []

    def counting(offsets, n_antennas):
        built.append(offsets.size)
        return response_matrix(offsets, n_antennas)

    monkeypatch.setattr(metrics, "response_matrix", counting)
    build_codebook("ps-dft", n, m_rf)
    assert len(built) == tables


# tracemalloc peaks of builds, in MiB: the first two before the ladder,
# when every pass built its own table and took one product per row block,
# the third with the LCS ladder opening at 1/32 (17.2 MiB when it opened
# at 1/16).  The slack is one batched product of the N=256 kernel, 1024
# rows x 128 candidate columns of complex128: a second live table (4 MiB
# at N=256), a table kept for the whole build or an LCS first rung back
# at 1/16 does not fit in it
@pytest.mark.parametrize("design, before_mib", [
    (("ps-dft", 256, 2), 10.55),
    (("bmw-ms-lcs", 64, 2), 17.27),
    (("bmw-ms-lcs", 64, 2), 10.94),
])
def test_build_peak_memory_holds(design, before_mib):
    rows = metrics._BLOCK_BYTES // (16 * 256)
    slack = rows * metrics._CHUNK * 16
    assert slack == 2 * 2 ** 20
    tracemalloc.start()
    try:
        build_codebook(*design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= before_mib * 2 ** 20 + slack
