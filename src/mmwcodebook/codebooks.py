"""Hierarchical codebook construction for hybrid analog/digital arrays.

A hierarchical codebook covers the cosine-angle range [-1, 1] with
log_M(N) + 1 layers: layer k holds M^k codewords, the n-th covering
[-1 + (2n-2)/M^k, -1 + 2n/M^k].  Consecutive groups of M codewords form a
composite codeword that is transmitted in one multi-stream measurement and
therefore shares a single constant-amplitude analog matrix.

Two construction families are provided:

* beam widening with multi-RF-chain sub-arrays ("bmw-ms"): each RF chain is
  split into contiguous sub-arrays steered across the coverage with an
  interleaved angle gap, with per-sub-array phases chosen either in closed
  form (flat-pattern relations, "cf") or by a two-parameter grid search
  maximizing the GDP metric ("lcs");
* the phase-shifted DFT baseline ("ps-dft"): one full-array steering vector
  per virtual RF chain at adjacent bin centers, combined with an
  equal-difference phase sequence selected by a 1-D GDP grid search.

Wide-beam construction happens once per layer; the remaining codewords are
phase-rotated copies, which keeps every entry modulus (and thus the CA
constraint) intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arraymath import AngleInterval, phase_rotate, steering_vector
from .metrics import GdpConfig, _check_gamma_per, _gdp_values

__all__ = [
    "GeometryError",
    "SCHEME_BMW_CF",
    "SCHEME_BMW_LCS",
    "SCHEME_PS_DFT",
    "SCHEMES",
    "Codeword",
    "CompositeCodeword",
    "HierarchicalCodebook",
    "SubArrayPlan",
    "assemble_codeword",
    "build_bmw_ms",
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


class GeometryError(ValueError):
    """No feasible sub-array split exists for the requested geometry."""


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


def _smallest_divisor_at_least(n: int, lo: int) -> int | None:
    for d in range(max(1, lo), n + 1):
        if n % d == 0:
            return d
    return None


def subarray_plan(n: int, m_rf: int, interval: AngleInterval) -> SubArrayPlan:
    """Choose the sub-array split for coverage width B = interval.width.

    The minimal split is ceil(sqrt(B*N / (2*m_rf))); because N = m_s * n_s
    must hold exactly, m_s is promoted to the smallest divisor of N at or
    above that ceiling (e.g. N=32, B=1 gives ceiling 3, promoted to 4).
    """
    if m_rf < 1 or n < m_rf:
        raise GeometryError(f"need n >= m_rf >= 1, got n={n}, m_rf={m_rf}")
    b = interval.width
    m_s_min = math.ceil(math.sqrt(b * n / (2.0 * m_rf)) - 1e-9)
    m_s = _smallest_divisor_at_least(n, m_s_min)
    if m_s is None:
        raise GeometryError(
            f"no divisor of n={n} reaches the required {m_s_min} sub-arrays"
        )
    n_s = n // m_s
    dt = b / (m_rf * m_s)
    if dt > 2.0 / n_s + 1e-12:
        raise GeometryError(
            f"sub-array gap {dt} exceeds the sub-array beamwidth {2.0 / n_s}"
        )
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
    theta = np.asarray(theta, dtype=float)
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


def _best_candidate(u_cols: np.ndarray, coeffs: np.ndarray,
                    interval: AngleInterval, cfg: GdpConfig,
                    labels: np.ndarray | None = None,
                    exact: bool = False) -> int:
    """Index `_argmax_with_ties` picks over the full-resolution GDP values.

    `labels` partitions the candidates into classes that share one GDP:
    labels[c] is the lowest index of c's class (None: every candidate is
    its own class).  The callers certify each class from the weight
    vectors (`_lcs_classes`, `_one_pattern`), never from GDP values; with
    `exact`, the members of every class share |A|^2 itself (global phases,
    one-hot vectors), not only a mirror image of it.

    One coarse pass scores each class's lowest member on the grid of 1/16
    the full resolution, v16, and on its even samples, v32.  The
    Richardson-style estimate e_c = |v16_c - v32_c| (about three times the
    error of v16_c while the trapezoid error falls with the square of the
    spacing) bounds each candidate with its own margin.  Candidate c can
    win or tie at full resolution only if v16_c + 2*e_c reaches
    max_j(v16_j - 2*e_j) less the tie slack; the screen asks only for
    twice the slack.  A class member's coarse values differ from its
    representative's by rounding alone (a mirror pair's by about 1e-15,
    through the mirrored grid samples), and that shift, at most five times
    it in the test, sits inside the spare slack, so a class survives
    whenever one of its members could win.  Every member of every
    surviving class is rescored, in index order, so the lexicographic
    tie-break, across classes within `_TIE_RTOL` too, is the exhaustive
    one by construction.

    One exception skips rescoring: when only one class survives (or
    exists) and `exact` holds, no other candidate can tie, and its
    members' exhaustive values differ by rounding alone (a spread of
    5e-15 over the 64 one-hot layer-0 candidates of ps-dft N=256, far
    inside `_TIE_RTOL`), so its lowest index is the exhaustive choice.
    Below 8*N points per unit the coarse grids no longer resolve an
    N-antenna beam, and every candidate is scored at full resolution
    instead.
    """
    n = u_cols.shape[0]
    fine = cfg.points_for(n)
    if labels is None:
        labels = np.arange(coeffs.shape[1])
    reps = np.flatnonzero(labels == np.arange(labels.size))
    if exact and reps.size == 1:
        return int(reps[0])
    if fine // 32 < 8 * n:
        return _argmax_with_ties(
            _gdp_values(u_cols, coeffs, interval, cfg, fine))
    v16, v32 = _gdp_values(u_cols, coeffs[:, reps], interval, cfg,
                           fine // 16, nested=True)
    margin = 2.0 * np.abs(v16 - v32)
    tol = _TIE_RTOL * max(1.0, abs(float(np.max(v16))))
    alive = reps[v16 + margin >= np.max(v16 - margin) - 2.0 * tol]
    if exact and alive.size == 1:
        return int(alive[0])
    keep = np.flatnonzero(np.isin(labels, alive))
    values = _gdp_values(u_cols, coeffs[:, keep], interval, cfg, fine)
    return int(keep[_argmax_with_ties(values)])


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
                 exp_i: np.ndarray) -> tuple[np.ndarray, bool]:
    """Certified GDP classes of the LCS candidates, as `_best_candidate` takes.

    Candidate (a, b) has the coefficients exp_i[i, b] * exp_m[m, a] on
    sub-array (i, m).  It joins (a', b) for every a' when m_s = 1 (phi1 is
    then a global phase) and its mirror partner (c1 - a, c2 - b) when `_mirror_offsets` gives a map
    that the factors prove: `_mirror_basis` must give kappa, kappa must
    split as kappa[i, m] = kappa[i, 0] * kappa[0, m] / kappa[0, 0], and the
    reversed factor rows times their kappa part must be unit multiples of
    the partners' rows, column by column.  Then each mirrored candidate is
    a unit multiple of its partner, at O(N*m_rf*m_s + (m_rf + m_s)*G).
    Each class is labelled by its lowest flat index a*G + b; the classes
    are exact when no mirror joined them.
    """
    g = exp_m.shape[1]
    labels = np.arange(g * g).reshape(g, g)
    if plan.m_s == 1:
        labels = np.broadcast_to(labels[:1], (g, g))
    offsets = _mirror_offsets(plan, g)
    kappa = None if offsets is None else _mirror_basis(u_cols, interval)
    if kappa is None:
        return labels.ravel(), True
    k = kappa.reshape(plan.m_rf, plan.m_s)
    ia = (offsets[0] - np.arange(g)) % g
    ib = (offsets[1] - np.arange(g)) % g
    if not (np.all(np.abs(k * k[0, 0] - np.outer(k[:, 0], k[0])) <= _CERT_TOL)
            and _unit_factors(k[0][:, None] * exp_m[::-1],
                              exp_m[:, ia]) is not None
            and _unit_factors(k[:, 0][:, None] * exp_i[::-1],
                              exp_i[:, ib]) is not None):
        return labels.ravel(), True
    return np.minimum(labels, labels[np.ix_(ia, ib)]).ravel(), False


def _one_pattern(u_cols: np.ndarray, coeffs: np.ndarray) -> bool:
    """Whether all candidates provably share one |A|^2 and entry peak.

    True when every coefficient column is a unit multiple of the first
    (global phases of one codeword) or when every weight vector is one-hot
    with one peak modulus, so that |A|^2 is that modulus squared at every
    angle.
    """
    if _unit_factors(coeffs, coeffs[:, :1]) is not None:
        return True
    mag = np.abs(u_cols @ coeffs)
    peak = np.max(mag, axis=0)
    return bool(np.all(np.sum(mag, axis=0) - peak <= _CERT_TOL * peak)
                and np.ptp(peak) <= _CERT_TOL * np.max(peak))


def lcs_phases(plan: SubArrayPlan, interval: AngleInterval,
               cfg: GdpConfig | None = None,
               grid_size: int = 64) -> tuple[float, float, np.ndarray]:
    """Grid-search the equal-difference phase parameters maximizing GDP.

    Phases are constrained to theta[i, m] = m*phi1 + i*phi2 (1-based i, m),
    turning the per-sub-array search into a 2-D one.  Both parameters run
    over the uniform grid {0, 2*pi/grid_size, ...}; near-ties resolve to the
    lexicographically smallest (phi1, phi2).
    """
    _check_grid_size(grid_size)
    cfg = cfg or GdpConfig()
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
    labels, exact = _lcs_classes(plan, interval, u_cols, exp_m, exp_i)
    best = _best_candidate(u_cols, coeff, interval, cfg, labels=labels,
                           exact=exact)
    phi1 = float(phis[best // grid_size])
    phi2 = float(phis[best % grid_size])
    theta = m_idx[None, :] * phi1 + i_idx[:, None] * phi2
    theta.setflags(write=False)
    return phi1, phi2, theta


@dataclass(eq=False)
class Codeword:
    """One beam of the hierarchy: layer, 1-based in-layer index, weights."""

    layer: int
    index: int
    awv: np.ndarray
    coverage: AngleInterval

    def __post_init__(self):
        self.awv.setflags(write=False)
        self._unit = None

    @property
    def unit_awv(self) -> np.ndarray:
        if self._unit is None:
            u = self.awv / np.linalg.norm(self.awv)
            u.setflags(write=False)
            self._unit = u
        return self._unit

    def __eq__(self, other):
        return (isinstance(other, Codeword)
                and self.layer == other.layer
                and self.index == other.index
                and self.coverage == other.coverage
                and np.array_equal(self.awv, other.awv))


def coverage_interval(layer: int, index: int, branching: int) -> AngleInterval:
    """Coverage [-1 + (2n-2)/M^k, -1 + 2n/M^k] of codeword n at layer k."""
    cells = branching ** layer
    return AngleInterval(-1.0 + 2.0 * (index - 1) / cells, 2.0 / cells)


def derive_members(layer: int, composite_index: int, f_rf: np.ndarray,
                   f_bb: np.ndarray, branching: int) -> list[Codeword]:
    """Member codewords of a composite from its shared matrices.

    Member j combines the analog columns through its all-ones digital
    column and is then phase-rotated by its in-composite offset
    2*(j-1)/M^k; the rotation preserves the CA entry moduli, so one analog
    matrix serves the whole composite.  Serialization relies on this
    derivation being the single source of member weights.
    """
    n_members = f_bb.shape[1]
    base = f_rf @ f_bb[:, 0]
    members = []
    for j in range(1, n_members + 1):
        awv = phase_rotate(base, 2.0 * (j - 1) / branching ** layer)
        index = (composite_index - 1) * n_members + j
        members.append(Codeword(layer, index, awv,
                                coverage_interval(layer, index, branching)))
    return members


@dataclass(eq=False)
class CompositeCodeword:
    """A shared analog matrix plus the digital columns of its members.

    Every entry of f_rf has modulus 1/sqrt(N) (phase-shifter hardware); all
    member codewords reference this one matrix.
    """

    layer: int
    index: int
    f_rf: np.ndarray  # (n_antennas, n_chains)
    f_bb: np.ndarray  # (n_chains, n_members)
    members: list[Codeword]

    def __post_init__(self):
        self.f_rf.setflags(write=False)
        self.f_bb.setflags(write=False)
        self._member_matrix = None
        self._member_inf = None

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def member_matrix(self) -> np.ndarray:
        """Unit-norm member weight vectors, stacked as columns."""
        if self._member_matrix is None:
            m = np.stack([cw.unit_awv for cw in self.members], axis=1)
            m.setflags(write=False)
            self._member_matrix = m
        return self._member_matrix

    @property
    def member_inf_norms(self) -> np.ndarray:
        """Per-member max entry modulus of the unit-norm weights."""
        if self._member_inf is None:
            v = np.max(np.abs(self.member_matrix), axis=0)
            v.setflags(write=False)
            self._member_inf = v
        return self._member_inf

    def __eq__(self, other):
        return (isinstance(other, CompositeCodeword)
                and self.layer == other.layer
                and self.index == other.index
                and np.array_equal(self.f_rf, other.f_rf)
                and np.array_equal(self.f_bb, other.f_bb)
                and self.members == other.members)


@dataclass(eq=False)
class HierarchicalCodebook:
    """All layers of composite codewords for one scheme and array size.

    grid_size and gamma_per record the phase-search grid and the linear
    per-antenna SNR the codebook was designed with; both are refused where
    the codebook reader would refuse them.
    """

    scheme: str
    n_antennas: int
    branching: int
    layers: list[list[CompositeCodeword]]
    grid_size: int
    gamma_per: float

    def __post_init__(self):
        _check_grid_size(self.grid_size)
        _check_gamma_per(self.gamma_per)

    @property
    def depth(self) -> int:
        """Index of the bottom layer, log_M(N)."""
        return len(self.layers) - 1

    def composite(self, layer: int, index: int) -> CompositeCodeword:
        return self.layers[layer][index - 1]

    def layer_codewords(self, layer: int) -> list[Codeword]:
        return [cw for comp in self.layers[layer] for cw in comp.members]

    def codeword(self, layer: int, index: int) -> Codeword:
        if layer == 0:
            return self.layers[0][0].members[index - 1]
        comp, pos = divmod(index - 1, self.branching)
        return self.layers[layer][comp].members[pos]

    def __eq__(self, other):
        return (isinstance(other, HierarchicalCodebook)
                and self.scheme == other.scheme
                and self.n_antennas == other.n_antennas
                and self.branching == other.branching
                and self.grid_size == other.grid_size
                and self.gamma_per == other.gamma_per
                and self.layers == other.layers)


def _check_grid_size(grid_size: int) -> None:
    # lcs_phases takes any sub-array plan, so it checks only its grid
    if grid_size < 8:
        raise ValueError(f"grid_size must be >= 8, got {grid_size}")


def check_design(scheme: str, n: int, m_rf: int, grid_size: int) -> int:
    """Depth log_m_rf(n) of a design request every builder accepts.

    Raises ValueError for an unknown scheme tag, m_rf < 2, an n that is not
    a power of m_rf at least m_rf, or grid_size < 8.  The builders call it
    before they design anything; callers can call it to refuse a request
    up front.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if m_rf < 2:
        raise ValueError(f"m_rf must be >= 2, got {m_rf}")
    depth, size = 1, m_rf
    while size < n:
        size *= m_rf
        depth += 1
    if size != n:
        raise ValueError(f"n must be a power of m_rf={m_rf} with n >= m_rf, "
                         f"got {n}")
    _check_grid_size(grid_size)
    return depth


def _layer_composites(layer: int, branching: int, cols: np.ndarray,
                      f_bb_scale: float = 1.0) -> list[CompositeCodeword]:
    """Group a layer's codewords into composites around one analog matrix.

    `cols` are the analog columns of the layer's first codeword; composite
    c gets those columns phase-rotated by its own coverage offset and
    derives its members from there.
    """
    n_chains = cols.shape[1]
    if layer == 0:
        n_composites, members_per = 1, 1
    else:
        n_composites, members_per = branching ** (layer - 1), branching
    composites = []
    for c in range(1, n_composites + 1):
        rot = 0.0 if layer == 0 else 2.0 * (c - 1) / branching ** (layer - 1)
        f_rf = np.stack(
            [phase_rotate(cols[:, j], rot) for j in range(n_chains)], axis=1)
        f_bb = np.full((n_chains, members_per), f_bb_scale, dtype=np.complex128)
        members = derive_members(layer, c, f_rf, f_bb, branching)
        composites.append(CompositeCodeword(layer, c, f_rf, f_bb, members))
    return composites


def build_bmw_ms(n: int, m_rf: int, scheme: str = "cf",
                 cfg: GdpConfig | None = None,
                 grid_size: int = 64) -> HierarchicalCodebook:
    """Build the multi-RF-chain sub-array codebook ("cf" or "lcs" phases).

    Layer k's first codeword covers [-1, -1 + 2/m_rf^k] via a sub-array
    plan plus the chosen phase solver; the rest of the layer consists of
    phase-rotated copies grouped into composites.  Requires n to be a power
    of m_rf with m_rf >= 2.
    """
    if scheme not in ("cf", "lcs"):
        raise ValueError(f"phase solver must be 'cf' or 'lcs', got {scheme!r}")
    tag = SCHEME_BMW_CF if scheme == "cf" else SCHEME_BMW_LCS
    depth = check_design(tag, n, m_rf, grid_size)
    cfg = cfg or GdpConfig()
    layers = []
    for k in range(depth + 1):
        interval = coverage_interval(k, 1, m_rf)
        plan = subarray_plan(n, m_rf, interval)
        if scheme == "cf":
            theta = cf_phases(plan)
        else:
            _, _, theta = lcs_phases(plan, interval, cfg, grid_size)
        cols, _ = assemble_codeword(plan, theta)
        layers.append(_layer_composites(k, m_rf, cols))
    return HierarchicalCodebook(tag, n, m_rf, layers, grid_size,
                                cfg.gamma_per)


def build_ps_dft(n: int, branching: int = 2, grid_size: int = 64,
                 cfg: GdpConfig | None = None) -> HierarchicalCodebook:
    """Build the phase-shifted DFT baseline codebook.

    Layer k's first codeword sums n/branching^k full-array steering
    vectors at adjacent bin centers -1 + (2i-1)/n, the i-th scaled by
    exp(j*i*phi); the single phase step phi maximizes the GDP of the
    unit-normalized sum over the layer coverage.  The bottom layer reduces
    to pure steering vectors.
    """
    depth = check_design(SCHEME_PS_DFT, n, branching, grid_size)
    cfg = cfg or GdpConfig()
    layers = []
    for k in range(depth + 1):
        m_k = n // branching ** k
        interval = coverage_interval(k, 1, branching)
        chains = np.stack(
            [steering_vector(n, -1.0 + (2.0 * i - 1.0) / n)
             for i in range(1, m_k + 1)], axis=1)
        steps = np.arange(1, m_k + 1)
        phis = 2.0 * np.pi * np.arange(grid_size) / grid_size
        coeff = np.exp(1j * np.outer(steps, phis))
        # the bottom layer's candidates are global phases of one steering
        # vector, and when grid_size divides N every layer-0 candidate is
        # one-hot: either way one class, whose members share |A|^2
        one = ((m_k == 1 or (k == 0 and n % grid_size == 0))
               and _one_pattern(chains, coeff))
        best = _best_candidate(
            chains, coeff, interval, cfg,
            labels=np.zeros(grid_size, dtype=int) if one else None,
            exact=one)
        phi = float(phis[best])
        cols = chains * np.exp(1j * phi * steps)[None, :]
        scale = 1.0 / np.linalg.norm(cols.sum(axis=1))
        layers.append(_layer_composites(k, branching, cols, f_bb_scale=scale))
    return HierarchicalCodebook(SCHEME_PS_DFT, n, branching, layers,
                                grid_size, cfg.gamma_per)


def build_codebook(scheme: str, n: int, m_rf: int = 2,
                   grid_size: int = 64,
                   cfg: GdpConfig | None = None) -> HierarchicalCodebook:
    """Build any of the supported schemes from its public tag."""
    check_design(scheme, n, m_rf, grid_size)
    if scheme == SCHEME_PS_DFT:
        return build_ps_dft(n, m_rf, grid_size, cfg)
    solver = "cf" if scheme == SCHEME_BMW_CF else "lcs"
    return build_bmw_ms(n, m_rf, solver, cfg, grid_size)
