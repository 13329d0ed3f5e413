"""Hierarchical codebook construction for hybrid analog/digital arrays.

A hierarchical codebook covers the cosine-angle range [-1, 1] with
log_M(N) + 1 layers: layer k holds M^k codewords, the n-th covering
[-1 + (2n-2)/M^k, -1 + 2n/M^k].  Consecutive groups of M codewords form a
composite codeword that is transmitted in one multi-stream measurement and
therefore shares a single constant-amplitude analog matrix.

`build_codebook` builds each scheme from its tag alone.  Two construction
families are provided:

* beam widening with multi-RF-chain sub-arrays: each RF chain is split
  into contiguous sub-arrays steered across the coverage with an
  interleaved angle gap, with per-sub-array phases chosen either in closed
  form (flat-pattern relations, "bmw-ms-cf") or by a two-parameter grid
  search maximizing the GDP metric ("bmw-ms-lcs");
* the phase-shifted DFT baseline ("ps-dft"): one full-array steering vector
  per virtual RF chain at adjacent bin centers, combined with an
  equal-difference phase sequence selected by a 1-D GDP grid search.

Wide-beam construction happens once per layer; the remaining codewords are
phase-rotated copies, which keeps every entry modulus (and thus the CA
constraint) intact.  Each layer is one `CodebookLayer` of stacked arrays
seen through views; the two types refuse malformed contents when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .arraymath import (AngleInterval, _check_finite, _check_integer,
                        steering_vector, wrap_angle)
from .metrics import (GdpConfig, _ResponseTable, _check_gamma_per,
                      _gdp_values)

__all__ = [
    "SCHEME_BMW_CF",
    "SCHEME_BMW_LCS",
    "SCHEME_PS_DFT",
    "SCHEMES",
    "CodebookLayer",
    "Codeword",
    "CompositeCodeword",
    "HierarchicalCodebook",
    "SubArrayPlan",
    "assemble_codeword",
    "build_codebook",
    "build_ps_dft",
    "cf_phases",
    "check_design",
    "lcs_phases",
    "subarray_plan",
]

SCHEME_BMW_CF = "bmw-ms-cf"
SCHEME_BMW_LCS = "bmw-ms-lcs"
SCHEME_PS_DFT = "ps-dft"
SCHEMES = (SCHEME_BMW_CF, SCHEME_BMW_LCS, SCHEME_PS_DFT)

# Relative slack when picking grid-search winners: analytically tied
# candidates can differ by a few ulps, and the lexicographic tie-break must
# survive that.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SubArrayPlan:
    """Sub-array geometry of one wide-beam codeword.

    Each of the m_rf RF chains is split into m_s sub-arrays of n_s antennas
    (n_s * m_s = N).  Sub-array (i, m) steers along

        omega[i, m] = start + (i - 1/2) * delta_theta + (m - 1) * m_rf * delta_theta

    (1-based i, m) so chains interleave across the coverage with gap
    delta_theta = B / (m_rf * m_s), kept at or below the sub-array beam
    width 2 / n_s to avoid sinks between adjacent sub-beams.
    """

    n_antennas: int
    m_rf: int
    m_s: int
    n_s: int
    delta_theta: float
    omega: np.ndarray  # (m_rf, m_s) steering angles

    @property
    def n_subarrays(self) -> int:
        return self.m_rf * self.m_s


def subarray_plan(n: int, m_rf: int, interval: AngleInterval) -> SubArrayPlan:
    """Choose the sub-array split for coverage width B = interval.width.

    The minimal split is ceil(sqrt(B*N / (2*m_rf))); because N = m_s * n_s
    must hold exactly, m_s is promoted to the smallest divisor of N at or
    above that ceiling (e.g. N=32, B=1 gives ceiling 3, promoted to 4).
    B <= 2 puts the ceiling at or below sqrt(N / m_rf) <= N, and N divides
    itself, so such a divisor always exists.  Any m_s at or above the
    ceiling gives delta_theta * n_s = B*N / (m_rf * m_s^2) <= 2, so the gap
    stays within the sub-array beamwidth.  Requires n >= m_rf >= 1.
    """
    _check_integer("m_rf", m_rf, 1)
    _check_integer("n", n, m_rf)
    b = interval.width
    m_s_min = math.ceil(math.sqrt(b * n / (2.0 * m_rf)) - 1e-9)
    m_s = next(d for d in range(max(1, m_s_min), n + 1) if n % d == 0)
    n_s = n // m_s
    dt = b / (m_rf * m_s)
    i_idx = np.arange(1, m_rf + 1)[:, None]
    m_idx = np.arange(1, m_s + 1)[None, :]
    omega = interval.start + (i_idx - 0.5) * dt + (m_idx - 1) * m_rf * dt
    omega.setflags(write=False)
    return SubArrayPlan(n, m_rf, m_s, n_s, dt, omega)


def cf_phases(plan: SubArrayPlan) -> np.ndarray:
    """Closed-form sub-array phases pursuing a flat pattern, modulo 2*pi.

    theta[i, m] = pi*m*(m-1)*n_s*m_rf*dt/2 - pi*(m*m_rf + i)*(n_s - 1)*dt/2
    (1-based i, m).  Successive phases satisfy the two difference relations
    that maximize the combined gain at the mid-angles between adjacent
    sub-array steering directions.
    """
    dt = plan.delta_theta
    i_idx = np.arange(1, plan.m_rf + 1)[:, None]
    m_idx = np.arange(1, plan.m_s + 1)[None, :]
    theta = (np.pi * m_idx * (m_idx - 1) * plan.n_s * plan.m_rf * dt / 2.0
             - np.pi * (m_idx * plan.m_rf + i_idx) * (plan.n_s - 1) * dt / 2.0)
    theta = np.mod(theta, 2.0 * np.pi)
    theta.setflags(write=False)
    return theta


def _subarray_blocks(plan: SubArrayPlan, theta) -> np.ndarray:
    """Zero-padded sub-array weight blocks, shape (N, m_rf, m_s).

    Block (i, m) is sqrt(n_s/N) * exp(j*theta[i, m]) * a(n_s, omega[i, m])
    on antennas m*n_s .. (m+1)*n_s - 1 (0-based) and zero elsewhere, so
    every block entry has modulus 1/sqrt(N).
    """
    theta = _check_finite("theta", theta, float)
    if theta.shape != (plan.m_rf, plan.m_s):
        raise ValueError(
            f"phase matrix shape {theta.shape} does not match plan "
            f"({plan.m_rf}, {plan.m_s})"
        )
    n, n_s = plan.n_antennas, plan.n_s
    blocks = np.zeros((n, plan.m_rf, plan.m_s), dtype=np.complex128)
    amp = math.sqrt(n_s / n)
    for i in range(plan.m_rf):
        for m in range(plan.m_s):
            blocks[m * n_s:(m + 1) * n_s, i, m] = (
                amp * np.exp(1j * theta[i, m])
                * steering_vector(n_s, plan.omega[i, m]))
    return blocks


def assemble_codeword(plan: SubArrayPlan, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build analog columns and the combined weight vector from phases.

    Returns (v, w): v has one column per RF chain, the sum of that chain's
    sub-array blocks (see `_subarray_blocks`), so every entry has modulus
    1/sqrt(N); w = sum of the columns.
    """
    v = _subarray_blocks(plan, theta).sum(axis=2)
    v.setflags(write=False)
    awv = v.sum(axis=1)
    awv.setflags(write=False)
    return v, awv


def _argmax_with_ties(values: np.ndarray) -> int:
    """Index of the first candidate within relative tie slack of the max."""
    vmax = float(np.max(values))
    tol = _TIE_RTOL * max(1.0, abs(vmax))
    return int(np.argmax(values >= vmax - tol))


# The ladders of `_best_candidates`, coarsest rung first: rung d scores at
# 1/d of the full resolution and, nested in the same pass, at 1/(2d).
# LCS opens at 1/32, 8N points per unit (4N nested): at bmw-ms-lcs N=81,
# m_rf=3, layer 0 the five best candidates' errors there are at most 0.07
# times their |v - v2|, while at 1/64 they reach 3.6 times it and a
# (64, 16, 4) ladder picks candidate 310 over the exhaustive 311.
_LCS_RUNGS = (32, 4)
# ps-dft's 64 candidates per layer have close GDPs, so a coarse rung
# prunes little: at N=256 a 1/32 rung keeps 159 of 448 scored candidates
# where 1/16 keeps 47, and the build takes about 1.1 times the CPU.
_PS_DFT_RUNGS = (16, 4)


def _best_candidates(searches, cfg: GdpConfig, rungs) -> list[int]:
    """Per search, the index `_argmax_with_ties` picks over its
    full-resolution GDP values.

    Each search is (u_cols, coeffs, interval, labels); `labels` partitions
    its candidates into classes that share one GDP: labels[c] is the
    lowest index of c's class (None: every candidate is its own class).
    Classes never come from GDP values: whole-codeword phases and ps-dft's
    one-hot layer 0 are classes by construction, and LCS's mirror pairs are
    certified from the weight vectors (`_lcs_classes`, `build_ps_dft`).

    A ladder of screens narrows each search's classes.  Rung d scores the
    lowest member of every class still in the running on the grid of 1/d
    the full resolution, v_c, and on its even samples, v2_c, in one pass;
    `rungs` lists the d, coarsest first (`_LCS_RUNGS`, `_PS_DFT_RUNGS`),
    each rung scoring the survivors of the one before.  A class stays
    when v_c + 2*e_c reaches max_j(v_j - 2*e_j) less twice the tie slack,
    with e_c = |v_c - v2_c|.  A class member's coarse values differ from
    its representative's by rounding alone (a mirror pair's by about
    1e-15, through the mirrored grid samples), inside the spare slack.
    Every member of every class that survives the last rung is rescored,
    in index order, so the lexicographic tie-break, across classes within
    `_TIE_RTOL` too, is the exhaustive one among the survivors.

    What is proved: the classes (each shares one GDP, by construction or
    by certificate, so one member scores for all), and the one-class
    shortcut.  When only one class survives a rung (or exists), no
    candidate of another class is left to tie, and its members'
    full-resolution values differ by rounding alone (at most 3.3e-15 over
    every class of the builders' layers, far inside `_TIE_RTOL`), so its
    lowest index is the choice among the survivors and it is returned
    unscored.

    What is only estimated: the margin.  e_c is a Richardson-style
    estimate, about three times the error of v_c while the trapezoid error
    falls with the square of the spacing, not a bound, so nothing proves
    that the exhaustive winner's class survives every rung.
    `tools/ladder_probe.py` runs ps-dft and bmw-ms-lcs for m_rf in
    {2, 3, 4, 5, 8}, N = m_rf^d <= 64, gamma in {-10, -3, 0, 5, 15} dB
    and grid_size in {8, 16, 64} (64 only at N=64 for bmw-ms-lcs), plus
    bmw-ms-lcs at N = 81, 125, 128, 243 and 256: all 1,556 searches
    matched the exhaustive full-resolution argmax, yet the error of a
    first-rung score exceeded its margin for 11,235 of 356,151 LCS scores
    at 1/32 (3.2%) and 779 of 15,400 ps-dft scores at 1/16 (5.1%), some
    with v_c == v2_c and so no margin at all.  Tier-1 checks
    a drawn sample of that space and the near tie at bmw-ms-lcs N=81,
    m_rf=3, layer 0, which a ladder opening at 1/64 gets wrong.

    The searches run together, one level at a time: every search's first
    rung, then every second rung, then every rescore.  Each level shares
    one `_ResponseTable`, dropped before the next level, so a level builds
    its response table once when its searches' grids share their offsets
    (as layers that all start at -1 and differ in width by powers of two
    do), and no more than one table is live.
    """
    classes, alive, fine = [], [], []
    for u_cols, coeffs, _, labels in searches:
        labels = np.arange(coeffs.shape[1]) if labels is None else labels
        classes.append(labels)
        alive.append(np.flatnonzero(labels == np.arange(labels.size)))
        fine.append(cfg.points_for(u_cols.shape[0]))
    for d in rungs:
        tables = _ResponseTable()
        for s, (u_cols, coeffs, interval, _) in enumerate(searches):
            if alive[s].size > 1:
                v, v2 = _gdp_values(u_cols, coeffs[:, alive[s]], interval,
                                    cfg, fine[s] // d, nested=True,
                                    tables=tables)
                margin = 2.0 * np.abs(v - v2)
                tol = _TIE_RTOL * max(1.0, abs(float(np.max(v))))
                alive[s] = alive[s][v + margin
                                    >= np.max(v - margin) - 2.0 * tol]
    tables = _ResponseTable()
    best = []
    for s, (u_cols, coeffs, interval, _) in enumerate(searches):
        if alive[s].size == 1:
            best.append(int(alive[s][0]))
            continue
        keep = np.flatnonzero(np.isin(classes[s], alive[s]))
        values = _gdp_values(u_cols, coeffs[:, keep], interval, cfg, fine[s],
                             tables=tables)
        best.append(int(keep[_argmax_with_ties(values)]))
    return best


# Relative residual up to which a certified weight identity counts as
# exact.  The identities hold exactly in real arithmetic and rounding
# leaves at most about 1e-12; a wrong map misses by a grid phase step.
_CERT_TOL = 1e-9


def _unit_factors(y: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Per-column lam with y = lam * z and |lam| = 1, or None if none fits."""
    lam = (np.sum(z.conj() * y, axis=0)
           / np.sum(z.real ** 2 + z.imag ** 2, axis=0))
    scale = np.max(np.abs(z), axis=0)
    if (np.all(np.abs(np.abs(lam) - 1.0) <= _CERT_TOL)
            and np.all(np.abs(y - lam * z) <= _CERT_TOL * scale)):
        return lam
    return None


def _mirror_basis(u_cols: np.ndarray,
                  interval: AngleInterval) -> np.ndarray | None:
    """kappa with R(u_cols[:, J-1-j]) = kappa_j * u_cols[:, j], or None.

    The map (R w)[n] = exp(j*pi*n*2*c0) * w[N-1-n] (0-based n, c0 the
    coverage centre) keeps every entry modulus and gives
    |A(R w, psi)|^2 = |A(w, 2*c0 - psi)|^2; the trapezoid grid is
    symmetric about c0, so R keeps the GDP of every weight vector.  When R
    sends each of the J basis columns to a unit multiple of the reversed
    column, R w = u_cols @ (kappa * coeffs[::-1]) for w = u_cols @ coeffs.
    The check reads the basis once, at O(N * J).
    """
    n = u_cols.shape[0]
    ramp = np.exp(1j * np.pi * np.mod(2.0 * interval.center * np.arange(n),
                                      2.0))
    return _unit_factors(ramp[:, None] * u_cols[::-1, ::-1], u_cols)


def _mirror_offsets(plan: SubArrayPlan,
                    grid_size: int) -> tuple[int, int] | None:
    """Grid offsets (c1, c2) of the LCS mirror map (a, b) -> (c1-a, c2-b).

    The directions omega[i, m] sit symmetrically about their centre c0, so
    `_mirror_basis`'s map sends sub-array (i, m) to (i', m') =
    (m_rf-1-i, m_s-1-m) times exp(j*pi*(2*n_s*c0*m' + (n_s-1)*omega[i, m]))
    (0-based), whose phase steps per m' and i' are
    pi*(2*n_s*c0 - (n_s-1)*m_rf*dt) and -pi*(n_s-1)*dt.  On the phase grid
    of step 2*pi/G they are c1 and c2 grid steps.  An axis with one
    sub-array row carries a global phase, so its offset may be any
    integer (0 here).  None when an offset is not an integer mod G.
    """
    c0 = (plan.omega[0, 0] + plan.omega[-1, -1]) / 2.0
    dt = plan.delta_theta
    steps = (grid_size * (plan.n_s * c0 - (plan.n_s - 1) * plan.m_rf * dt / 2),
             -grid_size * (plan.n_s - 1) * dt / 2)
    offsets = []
    for rows, x in zip((plan.m_s, plan.m_rf), steps):
        if rows == 1:
            offsets.append(0)
        elif abs(x - round(x)) <= _CERT_TOL:
            offsets.append(round(x) % grid_size)
        else:
            return None
    return offsets[0], offsets[1]


def _lcs_classes(plan: SubArrayPlan, interval: AngleInterval,
                 u_cols: np.ndarray, exp_m: np.ndarray,
                 exp_i: np.ndarray) -> np.ndarray:
    """Certified GDP classes of the LCS candidates, as search labels.

    Candidate (a, b) has the coefficients exp_i[i, b] * exp_m[m, a] on
    sub-array (i, m).  It joins (a', b) for every a' when m_s = 1 (phi1 is
    then a global phase) and its mirror partner (c1 - a, c2 - b) when `_mirror_offsets` gives a map
    that the factors prove: `_mirror_basis` must give kappa, kappa must
    split as kappa[i, m] = kappa[i, 0] * kappa[0, m] / kappa[0, 0], and the
    reversed factor rows times their kappa part must be unit multiples of
    the partners' rows, column by column.  Then each mirrored candidate is
    a unit multiple of its partner, at O(N*m_rf*m_s + (m_rf + m_s)*G).
    Each class is labelled by its lowest flat index a*G + b.
    """
    g = exp_m.shape[1]
    labels = np.arange(g * g).reshape(g, g)
    if plan.m_s == 1:
        labels = np.broadcast_to(labels[:1], (g, g))
    offsets = _mirror_offsets(plan, g)
    kappa = None if offsets is None else _mirror_basis(u_cols, interval)
    if kappa is None:
        return labels.ravel()
    k = kappa.reshape(plan.m_rf, plan.m_s)
    ia = (offsets[0] - np.arange(g)) % g
    ib = (offsets[1] - np.arange(g)) % g
    if not (np.all(np.abs(k * k[0, 0] - np.outer(k[:, 0], k[0])) <= _CERT_TOL)
            and _unit_factors(k[0][:, None] * exp_m[::-1],
                              exp_m[:, ia]) is not None
            and _unit_factors(k[:, 0][:, None] * exp_i[::-1],
                              exp_i[:, ib]) is not None):
        return labels.ravel()
    return np.minimum(labels, labels[np.ix_(ia, ib)]).ravel()


def lcs_phases(plan: SubArrayPlan, interval: AngleInterval,
               cfg: GdpConfig = GdpConfig(),
               grid_size: int = 64) -> tuple[float, float, np.ndarray]:
    """Grid-search the equal-difference phase parameters maximizing GDP.

    Phases are constrained to theta[i, m] = m*phi1 + i*phi2 (1-based i, m),
    turning the per-sub-array search into a 2-D one.  Both parameters run
    over the uniform grid {0, 2*pi/grid_size, ...}; near-ties resolve to the
    lexicographically smallest (phi1, phi2).
    """
    _check_integer("grid_size", grid_size, 8)
    # sub-array (i, m) -> column i * m_s + m (0-based, i-major)
    u_cols = _subarray_blocks(plan, np.zeros((plan.m_rf, plan.m_s))).reshape(
        plan.n_antennas, plan.n_subarrays)
    phis = 2.0 * np.pi * np.arange(grid_size) / grid_size
    m_idx = np.arange(1, plan.m_s + 1)
    i_idx = np.arange(1, plan.m_rf + 1)
    # candidate (a, b) -> flat index a * grid_size + b; coefficient rows
    # follow the i-major column order of u_cols
    exp_m = np.exp(1j * np.outer(m_idx, phis))  # (m_s, g) phi1 factors
    exp_i = np.exp(1j * np.outer(i_idx, phis))  # (m_rf, g) phi2 factors
    coeff = (exp_i[:, None, None, :] * exp_m[None, :, :, None]).reshape(
        plan.n_subarrays, grid_size * grid_size)
    labels = _lcs_classes(plan, interval, u_cols, exp_m, exp_i)
    best, = _best_candidates([(u_cols, coeff, interval, labels)], cfg,
                             _LCS_RUNGS)
    phi1 = float(phis[best // grid_size])
    phi2 = float(phis[best % grid_size])
    theta = m_idx[None, :] * phi1 + i_idx[:, None] * phi2
    theta.setflags(write=False)
    return phi1, phi2, theta


def _unit_rows(awv: np.ndarray) -> np.ndarray:
    """Rows scaled to unit 2-norm, each norm summed as `np.linalg.norm` does."""
    re, im = awv.real, awv.imag
    return awv / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]


def _same(self, other) -> bool:
    """The codebook types' one equality: same type, fields equal by value."""
    return type(self) is type(other) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name))
                     for f in fields(self)))


@dataclass(frozen=True, eq=False)
class Codeword:
    """One beam of the hierarchy: layer, 1-based in-layer index, weights."""

    layer: int
    index: int
    awv: np.ndarray
    coverage: AngleInterval

    __eq__ = _same

    @property
    def unit_awv(self) -> np.ndarray:
        return _unit_rows(self.awv)


def coverage_interval(layer: int, index: int, branching: int) -> AngleInterval:
    """Coverage [-1 + (2n-2)/M^k, -1 + 2n/M^k] of codeword n at layer k."""
    cells = branching ** layer
    return AngleInterval(-1.0 + 2.0 * (index - 1) / cells, 2.0 / cells)


@dataclass(frozen=True, eq=False)
class CompositeCodeword:
    """A shared analog matrix plus the digital columns of its members.

    Every entry of f_rf has modulus 1/sqrt(N) (phase-shifter hardware); all
    member codewords use this one matrix.  A codebook's composites are
    views of its `CodebookLayer` arrays, made on access.
    """

    layer: int
    index: int
    f_rf: np.ndarray  # (n_antennas, n_chains)
    f_bb: np.ndarray  # (n_chains, n_members)
    members: list[Codeword]

    __eq__ = _same

    @property
    def member_matrix(self) -> np.ndarray:
        """Unit-norm member weight vectors, stacked as columns."""
        return np.stack([cw.unit_awv for cw in self.members], axis=1)

    @property
    def member_inf_norms(self) -> np.ndarray:
        """Per-member max entry modulus of the unit-norm weights."""
        return np.max(np.abs(self.member_matrix), axis=0)


def _rotations(deltas: np.ndarray, n: int) -> np.ndarray:
    """One row exp(j*pi*(n-1)*delta) per shift, as `phase_rotate` forms it."""
    return np.exp(1j * np.pi * np.arange(n)[None, :]
                  * wrap_angle(deltas)[:, None])


@dataclass(frozen=True, eq=False)
class CodebookLayer:
    """Layer k as arrays stacked over its C composites of M members each.

    f_rf (C, N, R) and f_bb (C, R, M) hold the analog and digital matrices.
    awv[c, j], member j of composite c, is f_rf[c] @ f_bb[c][:, 0] rotated
    by 2*(j-1)/M^k (CA moduli kept), the one source of member weights;
    units (C, N, M) and inf_norms (C, M) are the unit-norm member columns
    and their peak moduli.  Indexing or iterating gives composite views.
    Refuses a non-integer layer < 0 or branching < 2, bad shapes, a (C, M)
    other than (M^(k-1), M) ((1, 1) at k = 0), non-finite f_bb, non-CA
    f_rf and zero f_bb columns.
    """

    layer: int
    branching: int
    f_rf: np.ndarray
    f_bb: np.ndarray

    __eq__ = _same

    def __post_init__(self):
        _check_integer("layer", self.layer, 0)
        _check_integer("branching", self.branching, 2)
        for name in ("f_rf", "f_bb"):
            try:
                value = np.asarray(getattr(self, name), dtype=np.complex128)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a numeric array") from None
            object.__setattr__(self, name, value)
        f_rf, f_bb = self.f_rf, self.f_bb
        if not (f_rf.ndim == f_bb.ndim == 3 and f_rf.size and f_bb.size
                and f_bb.shape[:2] == f_rf.shape[::2]
                and np.all(np.isfinite(f_bb))):
            raise ValueError(f"f_rf {f_rf.shape}, f_bb {f_bb.shape} must be "
                             "non-empty (C, N, R) and finite (C, R, M) arrays")
        k, m = int(self.layer), int(self.branching)
        got = f_bb.shape[::2]
        # m**C > C, so capping the power keeps a huge layer from being raised
        if got != ((m ** min(k - 1, got[0]), m) if k else (1, 1)):
            need = f"({m}**{k - 1}, {m})" if k else "(1, 1)"
            raise ValueError(f"composites: layer {k} of branching {m} needs "
                             f"(C, M) = {need}, got {got}")
        n = f_rf.shape[1]
        ca = np.max(np.abs(np.abs(f_rf) - n ** -0.5), axis=(1, 2)) <= 1e-9
        if not np.all(ca):
            raise ValueError(f"composites[{np.argmin(ca)}].analog_columns "
                             "violate the constant-amplitude constraint "
                             f"|entry| = 1/sqrt({n})")
        zero = np.argwhere(~np.any(f_bb, axis=1))
        if zero.size:
            raise ValueError("composites[{}].digital_columns[{}] is all "
                             "zero".format(*zero[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            base = (f_rf @ f_bb[:, :, :1])[..., 0]
            norm = np.linalg.norm(base, axis=1)
        bad = np.flatnonzero(~((norm > 0.0) & (norm < np.inf)))
        if bad.size:
            raise ValueError(f"composites[{bad[0]}].digital_columns[0] gives "
                             f"member weights of 2-norm {norm[bad[0]]}")
        offsets = 2.0 * np.arange(f_bb.shape[2]) / self.branching ** self.layer
        awv = base[:, None, :] * _rotations(offsets, base.shape[1])[None]
        # the search operands keep the (C, N, M) order of stacked columns
        units = np.ascontiguousarray(_unit_rows(awv).swapaxes(1, 2))
        object.__setattr__(self, "awv", awv)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "inf_norms", np.max(np.abs(units), axis=1))
        for value in (self.f_rf, self.f_bb, awv, units, self.inf_norms):
            value.setflags(write=False)

    def __len__(self) -> int:
        return self.f_rf.shape[0]

    def __getitem__(self, c) -> CompositeCodeword:
        c = range(len(self))[c]
        members = [self._codeword(c, j) for j in range(self.awv.shape[1])]
        return CompositeCodeword(self.layer, c + 1, self.f_rf[c],
                                 self.f_bb[c], members)

    def _codeword(self, c: int, j: int) -> Codeword:
        """Member j of composite c (both 0-based) as a view."""
        index = c * self.awv.shape[1] + j + 1
        return Codeword(self.layer, index, self.awv[c, j],
                        coverage_interval(self.layer, index, self.branching))


@dataclass(frozen=True, eq=False)
class HierarchicalCodebook:
    """All layers of composite codewords for one scheme and array size.

    grid_size and gamma_per record the phase-search grid and the linear
    per-antenna SNR the codebook was designed with.  N = M^d, and layer k
    (k = 0..d) is `CodebookLayer` k of branching M over N antennas.  The
    accessors refuse a layer outside [0, d] and an index outside [1, count].
    """

    scheme: str
    n_antennas: int
    branching: int
    layers: tuple[CodebookLayer, ...]  # built from any sequence
    grid_size: int
    gamma_per: float

    __eq__ = _same

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        n, m = self.n_antennas, self.branching
        _check_sizes(n, m, self.grid_size, len(self.layers))
        _check_scheme(self.scheme)
        _check_gamma_per(self.gamma_per)
        for k, layer in enumerate(self.layers):
            got = (layer.layer, layer.branching, layer.f_rf.shape[1])
            if got != (k, m, n):
                raise ValueError(f"layers[{k}] has (layer, branching, N) = "
                                 f"{got}, expected {(k, m, n)}")

    @property
    def depth(self) -> int:
        """Index of the bottom layer, log_M(N)."""
        return len(self.layers) - 1

    def _layer(self, layer: int) -> CodebookLayer:
        _check_integer("layer", layer, 0, self.depth)
        return self.layers[layer]

    def composite(self, layer: int, index: int) -> CompositeCodeword:
        arrays = self._layer(layer)
        _check_integer("index", index, 1, len(arrays))
        return arrays[index - 1]

    def layer_codewords(self, layer: int) -> list[Codeword]:
        return [cw for comp in self._layer(layer) for cw in comp.members]

    def codeword(self, layer: int, index: int) -> Codeword:
        arrays = self._layer(layer)
        composites, members = arrays.awv.shape[:2]
        _check_integer("index", index, 1, composites * members)
        return arrays._codeword(*divmod(index - 1, members))


def check_design(scheme: str, n: int, m_rf: int, grid_size: int) -> int:
    """Depth log_m_rf(n) of a design request every builder accepts.

    Raises ValueError for an unknown scheme tag, an m_rf or n that is not
    an integer, m_rf < 2, an n that is not a power of m_rf at least m_rf,
    or grid_size < 8.  The builders call it first; callers can call it to
    refuse a request up front.
    """
    _check_scheme(scheme)
    return _check_sizes(n, m_rf, grid_size, names=("n", "m_rf"))


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _check_sizes(n: int, m: int, grid_size: int, n_layers: int | None = None,
                 names: tuple[str, str] = ("n_antennas", "branching")) -> int:
    """Depth d of integers m >= 2 and n = m^d >= m, found in integer
    arithmetic, with grid_size >= 8; given n_layers, it must be d + 1."""
    n_name, m_name = names
    _check_integer(m_name, m, 2)
    _check_integer(n_name, n, 1)
    depth, size = 1, m
    while size < n:
        size *= m
        depth += 1
    if size != n:
        raise ValueError(f"{n_name} must be a power of {m_name}={m} with "
                         f"{n_name} >= {m_name}, got {n}")
    _check_integer("grid_size", grid_size, 8)
    if n_layers not in (None, depth + 1):
        raise ValueError(f"layers must hold {depth + 1} layers for "
                         f"n_antennas={n}, branching={m}, got {n_layers}")
    return depth


def _rotated_layer(layer: int, branching: int, cols: np.ndarray,
                   f_bb_scale: float = 1.0) -> CodebookLayer:
    """A layer whose composite c holds the analog columns `cols` of its
    first codeword rotated by 2*(c-1)/M^(k-1), every digital entry
    `f_bb_scale`."""
    n_composites = branching ** max(layer - 1, 0)
    rot = 2.0 * np.arange(n_composites) / n_composites
    f_rf = cols[None] * _rotations(rot, cols.shape[0])[..., None]
    f_bb = np.full((n_composites, cols.shape[1], branching if layer else 1),
                   f_bb_scale, dtype=np.complex128)
    return CodebookLayer(layer, branching, f_rf, f_bb)


def build_ps_dft(n: int, branching: int = 2, grid_size: int = 64,
                 cfg: GdpConfig = GdpConfig()) -> HierarchicalCodebook:
    """Build the phase-shifted DFT baseline codebook.

    Layer k's first codeword sums n/branching^k full-array steering
    vectors at adjacent bin centers -1 + (2i-1)/n, the i-th scaled by
    exp(j*i*phi); the single phase step phi maximizes the GDP of the
    unit-normalized sum over the layer coverage.  The bottom layer reduces
    to pure steering vectors.
    """
    depth = _check_sizes(n, branching, grid_size, names=("n", "branching"))
    phis = 2.0 * np.pi * np.arange(grid_size) / grid_size
    # every layer's chains are the first of the N bin-centre vectors
    bins = np.stack([steering_vector(n, -1.0 + (2.0 * i - 1.0) / n)
                     for i in range(1, n + 1)], axis=1)
    searches = []
    for k in range(depth + 1):
        m_k = n // branching ** k
        chains = bins[:, :m_k]
        coeff = np.exp(1j * np.outer(np.arange(1, m_k + 1), phis))
        # one class by construction, its members sharing |A|^2.  Bottom
        # layer: each candidate is a global phase of one steering vector.
        # Layer 0 when grid_size divides N: entry n's geometric series over
        # the N bins vanishes but at one n, so each candidate is one-hot.
        one = m_k == 1 or (k == 0 and n % grid_size == 0)
        searches.append((chains, coeff, coverage_interval(k, 1, branching),
                         np.zeros(grid_size, dtype=int) if one else None))
    best = _best_candidates(searches, cfg, _PS_DFT_RUNGS)
    layers = []
    for k, (chains, *_) in enumerate(searches):
        phi = float(phis[best[k]])
        steps = np.arange(1, chains.shape[1] + 1)
        cols = chains * np.exp(1j * phi * steps)[None, :]
        scale = 1.0 / np.linalg.norm(cols.sum(axis=1))
        layers.append(_rotated_layer(k, branching, cols, f_bb_scale=scale))
    return HierarchicalCodebook(SCHEME_PS_DFT, n, branching, layers,
                                grid_size, cfg.gamma_per)


def build_codebook(scheme: str, n: int, m_rf: int = 2,
                   grid_size: int = 64,
                   cfg: GdpConfig = GdpConfig()) -> HierarchicalCodebook:
    """Build any of the supported schemes from its public tag.

    For the two bmw-ms tags, layer k's first codeword covers
    [-1, -1 + 2/m_rf^k] via a sub-array plan plus the tag's phase solver
    (closed form for bmw-ms-cf, GDP grid search for bmw-ms-lcs); the rest
    of the layer consists of phase-rotated copies grouped into composites.
    ps-dft is `build_ps_dft`.  Requires n to be a power of m_rf with
    m_rf >= 2.
    """
    depth = check_design(scheme, n, m_rf, grid_size)
    if scheme == SCHEME_PS_DFT:
        return build_ps_dft(n, m_rf, grid_size, cfg)
    layers = []
    for k in range(depth + 1):
        interval = coverage_interval(k, 1, m_rf)
        plan = subarray_plan(n, m_rf, interval)
        if scheme == SCHEME_BMW_CF:
            theta = cf_phases(plan)
        else:
            _, _, theta = lcs_phases(plan, interval, cfg, grid_size)
        cols, _ = assemble_codeword(plan, theta)
        layers.append(_rotated_layer(k, m_rf, cols))
    return HierarchicalCodebook(scheme, n, m_rf, layers, grid_size,
                                cfg.gamma_per)
