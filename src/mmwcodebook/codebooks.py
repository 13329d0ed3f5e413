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
from dataclasses import dataclass, field

import numpy as np

from .arraymath import (
    AngleInterval,
    phase_rotate,
    response_matrix,
    steering_vector,
)
from .metrics import GdpConfig, gdp_integrand, quadrature_grid

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
    interval: AngleInterval

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
    return SubArrayPlan(n, m_rf, m_s, n_s, dt, omega, interval)


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


def _subarray_columns(plan: SubArrayPlan) -> np.ndarray:
    """Zero-padded per-sub-array weight columns, one per (i, m) pair.

    Column order is i-major: (i, m) -> i * m_s + m (0-based).  Summing
    columns scaled by exp(j*theta[i, m]) yields the combined codeword.
    """
    n, n_s = plan.n_antennas, plan.n_s
    cols = np.zeros((n, plan.n_subarrays), dtype=np.complex128)
    amp = math.sqrt(n_s / n)
    for i in range(plan.m_rf):
        for m in range(plan.m_s):
            blk = amp * steering_vector(n_s, plan.omega[i, m])
            cols[m * n_s:(m + 1) * n_s, i * plan.m_s + m] = blk
    return cols


def assemble_codeword(plan: SubArrayPlan, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build analog columns and the combined weight vector from phases.

    Returns (v, w): v has one column per RF chain with block m equal to
    sqrt(n_s/N) * exp(j*theta[i, m]) * a(n_s, omega[i, m]), so every entry
    has modulus 1/sqrt(N); w = sum of the columns.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (plan.m_rf, plan.m_s):
        raise ValueError(
            f"phase matrix shape {theta.shape} does not match plan "
            f"({plan.m_rf}, {plan.m_s})"
        )
    n, n_s = plan.n_antennas, plan.n_s
    v = np.zeros((n, plan.m_rf), dtype=np.complex128)
    amp = math.sqrt(n_s / n)
    for i in range(plan.m_rf):
        for m in range(plan.m_s):
            blk = amp * np.exp(1j * theta[i, m]) * steering_vector(n_s, plan.omega[i, m])
            v[m * n_s:(m + 1) * n_s, i] = blk
    v.setflags(write=False)
    awv = v.sum(axis=1)
    awv.setflags(write=False)
    return v, awv


# each (rows x max(N, columns, chunk)) complex array of one quadrature block
# of `_combo_gdp_values` stays under this many bytes
_BLOCK_BYTES = 1 << 22


def _combo_gdp_values(u_cols: np.ndarray, coeffs: np.ndarray,
                      interval: AngleInterval, cfg: GdpConfig,
                      points_per_unit: int, chunk: int = 128) -> np.ndarray:
    """GDP of unit-normalized sum(coeffs[c] * u_cols[:, c]) per candidate.

    Evaluates the same trapezoid quadrature as `metrics.gdp`, at
    `points_per_unit` samples per unit cosine angle; the only array as long
    as the grid is the grid itself.  The grid is walked in row blocks sized
    by `_BLOCK_BYTES`, and candidates in chunks within each block; each
    chunk's weighted integrand sums are accumulated per candidate.

    The grid is uniform, so the response rows of a block starting at psi_s
    are one table of the first block's offsets times r(psi_s) =
    exp(-j*pi*k*psi_s).  The table is built once per call, and each block
    scales the rows of its narrow operand by r(psi_s) instead.  Which
    operand that is follows from the shapes alone: when N * candidates is
    at most columns * (N + candidates), the block is contracted against
    the combined weights w = u_cols @ coeffs directly (few candidates over
    many columns); otherwise the block's per-column gain basis is formed
    once and every candidate chunk is applied to it.
    """
    n, n_cols = u_cols.shape
    n_cand = coeffs.shape[1]
    psi = quadrature_grid(interval, points_per_unit)
    h = interval.width / (psi.size - 1)
    w = u_cols @ coeffs
    w_sq = w.real ** 2 + w.imag ** 2
    norm_sq = np.sum(w_sq, axis=0)
    c_inf = np.max(w_sq, axis=0) / norm_sq
    direct = n * n_cand <= n_cols * (n + n_cand)
    rows = min(psi.size, max(1, _BLOCK_BYTES // (16 * max(n, n_cols, chunk))))
    table = response_matrix(psi[:rows] - psi[0], n)
    ramp = -1j * np.pi * np.arange(n)
    acc = np.zeros(n_cand)
    for b in range(0, psi.size, rows):
        r = min(rows, psi.size - b)
        tw = np.full(r, h)
        if b == 0:
            tw[0] = h / 2.0
        if b + r == psi.size:
            tw[-1] = h / 2.0
        shift = np.exp(ramp * psi[b])[:, None]
        if direct:
            left, right = table[:r], shift * w
        else:
            left, right = table[:r] @ (shift * u_cols), coeffs
        for s in range(0, n_cand, chunk):
            cut = slice(s, s + chunk)
            g = left @ right[:, cut]
            g2 = (g.real ** 2 + g.imag ** 2) / norm_sq[cut]
            acc[cut] += tw @ gdp_integrand(c_inf[cut], g2, cfg.gamma_per)
    return acc / interval.width


def _argmax_with_ties(values: np.ndarray) -> int:
    """Index of the first candidate within relative tie slack of the max."""
    vmax = float(np.max(values))
    tol = _TIE_RTOL * max(1.0, abs(vmax))
    return int(np.argmax(values >= vmax - tol))


def _best_candidate(u_cols: np.ndarray, coeffs: np.ndarray,
                    interval: AngleInterval, cfg: GdpConfig) -> int:
    """Index `_argmax_with_ties` picks over the full-resolution GDP values.

    Every candidate is first scored on two coarse grids, 1/16 and 1/32 of
    the full resolution; their largest disagreement `est` stands in for the
    error of the finer screen (about three times it while the trapezoid
    error falls with the square of the spacing).  With that error, only
    candidates within 2*est plus twice the tie slack of the best screened
    value can win or tie at full resolution, so only those are rescored.
    Survivors keep their original order, so the lexicographic tie-break is
    the exhaustive one.  Below 8*N points per unit the coarse grids no
    longer resolve an N-antenna beam, and every candidate is scored at
    full resolution instead.
    """
    n = u_cols.shape[0]
    fine = cfg.points_for(n)
    if fine // 32 < 8 * n:
        return _argmax_with_ties(
            _combo_gdp_values(u_cols, coeffs, interval, cfg, fine))
    v16 = _combo_gdp_values(u_cols, coeffs, interval, cfg, fine // 16)
    v32 = _combo_gdp_values(u_cols, coeffs, interval, cfg, fine // 32)
    est = float(np.max(np.abs(v16 - v32)))
    vmax = float(np.max(v16))
    tol = _TIE_RTOL * max(1.0, abs(vmax))
    keep = np.flatnonzero(v16 >= vmax - 2.0 * est - 2.0 * tol)
    values = _combo_gdp_values(u_cols, coeffs[:, keep], interval, cfg, fine)
    return int(keep[_argmax_with_ties(values)])


def lcs_phases(plan: SubArrayPlan, interval: AngleInterval,
               cfg: GdpConfig | None = None,
               grid_size: int = 64) -> tuple[float, float, np.ndarray]:
    """Grid-search the equal-difference phase parameters maximizing GDP.

    Phases are constrained to theta[i, m] = m*phi1 + i*phi2 (1-based i, m),
    turning the per-sub-array search into a 2-D one.  Both parameters run
    over the uniform grid {0, 2*pi/grid_size, ...}; near-ties resolve to the
    lexicographically smallest (phi1, phi2).
    """
    if grid_size < 8:
        raise ValueError(f"grid_size must be >= 8, got {grid_size}")
    cfg = cfg or GdpConfig()
    u_cols = _subarray_columns(plan)
    phis = 2.0 * np.pi * np.arange(grid_size) / grid_size
    m_idx = np.arange(1, plan.m_s + 1)
    i_idx = np.arange(1, plan.m_rf + 1)
    # candidate (a, b) -> flat index a * grid_size + b; coefficient rows
    # follow the i-major column order of _subarray_columns
    exp_m = np.exp(1j * np.outer(m_idx, phis))  # (m_s, g) phi1 factors
    exp_i = np.exp(1j * np.outer(i_idx, phis))  # (m_rf, g) phi2 factors
    coeff = (exp_i[:, None, None, :] * exp_m[None, :, :, None]).reshape(
        plan.n_subarrays, grid_size * grid_size)
    best = _best_candidate(u_cols, coeff, interval, cfg)
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
    """All layers of composite codewords for one scheme and array size."""

    scheme: str
    n_antennas: int
    branching: int
    layers: list[list[CompositeCodeword]]
    params: dict = field(default_factory=dict)

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
                and self.params == other.params
                and self.layers == other.layers)


def _integer_log(n: int, base: int) -> int:
    k, v = 0, 1
    while v < n:
        v *= base
        k += 1
    if v != n:
        raise ValueError(f"{n} is not a power of {base}")
    return k


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
    if m_rf < 2:
        raise ValueError(f"m_rf must be >= 2, got {m_rf}")
    depth = _integer_log(n, m_rf)
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
    tag = SCHEME_BMW_CF if scheme == "cf" else SCHEME_BMW_LCS
    return HierarchicalCodebook(tag, n, m_rf, layers,
                                params={"grid_size": grid_size,
                                        "gamma_per": cfg.gamma_per})


def build_ps_dft(n: int, branching: int = 2, grid_size: int = 64,
                 cfg: GdpConfig | None = None) -> HierarchicalCodebook:
    """Build the phase-shifted DFT baseline codebook.

    Layer k's first codeword sums n/branching^k full-array steering
    vectors at adjacent bin centers -1 + (2i-1)/n, the i-th scaled by
    exp(j*i*phi); the single phase step phi maximizes the GDP of the
    unit-normalized sum over the layer coverage.  The bottom layer reduces
    to pure steering vectors.
    """
    if grid_size < 8:
        raise ValueError(f"grid_size must be >= 8, got {grid_size}")
    depth = _integer_log(n, branching)
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
        phi = float(phis[_best_candidate(chains, coeff, interval, cfg)])
        cols = chains * np.exp(1j * phi * steps)[None, :]
        scale = 1.0 / np.linalg.norm(cols.sum(axis=1))
        layers.append(_layer_composites(k, branching, cols, f_bb_scale=scale))
    return HierarchicalCodebook(SCHEME_PS_DFT, n, branching, layers,
                                params={"grid_size": grid_size,
                                        "gamma_per": cfg.gamma_per})


def build_codebook(scheme: str, n: int, m_rf: int = 2,
                   grid_size: int = 64,
                   cfg: GdpConfig | None = None) -> HierarchicalCodebook:
    """Build any of the supported schemes from its public tag."""
    if scheme == SCHEME_BMW_CF:
        return build_bmw_ms(n, m_rf, "cf", cfg, grid_size)
    if scheme == SCHEME_BMW_LCS:
        return build_bmw_ms(n, m_rf, "lcs", cfg, grid_size)
    if scheme == SCHEME_PS_DFT:
        return build_ps_dft(n, m_rf, grid_size, cfg)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
