"""Codeword quality metrics under a per-antenna power constraint.

The central quantity is the generalized detection probability (GDP) of a
unit-norm codeword w with target coverage [psi0, psi0 + B]:

    xi(w) = (1/B) * integral over the coverage of
            exp( -C / (C + gamma_per * |A(w, psi)|^2) ) dpsi,   C = ||w||_inf^2

evaluated by composite trapezoid quadrature.  `gdp` scores one codeword and
the codebook phase searches score many candidates; both run the one
streamed kernel `_gdp_values`.  At gamma_per = 1 (0 dB) this
is the plain detection-probability form; the explicit gamma_per factor lets
the same integral be scored at other per-antenna SNR operating points.

The detection threshold is fixed at 1: it trades detection against false
alarm but does not change codeword comparisons, so it is not a tunable.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .arraymath import (AngleInterval, _check_integer, _check_real,
                        as_weights, inf_norm_sq, response_matrix)

__all__ = [
    "GdpConfig",
    "LinkBudget",
    "db_to_linear",
    "gamma_per_from_link_budget",
    "gdp",
    "gdp_integrand",
    "ideal_gdp_bound",
    "link_budget_report",
    "linear_to_db",
    "mtp",
]

BOLTZMANN_J_PER_K = 1.380649e-23


def db_to_linear(x_db: float) -> float:
    x = _check_real("x_db", x_db)
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        raise ValueError(f"x_db={x} dB is outside the float range") from None


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(_check_real("x", x, 0, above=True))


def _check_gamma_per(gamma_per: float) -> None:
    # GdpConfig, HierarchicalCodebook and the codebook reader share this
    _check_real("gamma_per", gamma_per, 0, above=True)


@dataclass(frozen=True)
class GdpConfig:
    """Evaluation settings for the GDP integral.

    gamma_per is the linear per-antenna SNR (1.0 = 0 dB).  The quadrature
    takes `points_for(N)` samples per unit cosine angle for an N-antenna
    codeword; the phase searches screen at the fractions of that in
    `codebooks._LCS_RUNGS` and `codebooks._PS_DFT_RUNGS` before they
    rescore at full resolution.
    """

    gamma_per: float = 1.0

    def __post_init__(self):
        _check_gamma_per(self.gamma_per)

    def points_for(self, n_antennas: int) -> int:
        """256*N samples per unit, so the narrowest bottom-layer lobes get
        at least 256 each, with a floor of 4096 so that small arrays still
        converge below 1e-7 per resolution doubling."""
        return max(256 * n_antennas, 4096)


def quadrature_grid(interval: AngleInterval, points_per_unit: int) -> np.ndarray:
    """Uniform trapezoid sample points over a coverage interval."""
    n_samples = math.ceil(points_per_unit * interval.width) + 1
    return np.linspace(interval.start, interval.end, n_samples)


def gdp_integrand(c: float, gain_sq, gamma_per: float = 1.0) -> np.ndarray:
    """exp(-C / (C + gamma_per * |A|^2)) for a sampled gain-power profile."""
    g2 = np.asarray(gain_sq, dtype=float)
    return np.exp(-c / (c + gamma_per * g2))


# each (rows x max(N, columns, _CHUNK)) complex array of one quadrature
# block of `_gdp_values` stays under this many bytes
_BLOCK_BYTES = 1 << 22
# candidates scored together within a block
_CHUNK = 128


class _ResponseTable:
    """The response table of `_gdp_values`, shared by the calls it is given to.

    `rows(offsets, n)` returns `response_matrix(offsets, n)`.  It keeps the
    last table it built and hands out its first rows again only when the
    asked offsets are a bit-equal prefix of the ones that table was built
    from; otherwise it drops that table and builds the asked one.  A row
    depends on its own offset alone, so a shared table gives every call
    the bits its own table would, and one table is live at a time.
    """

    def __init__(self):
        self._offsets = np.empty(0)
        self._table = None

    def rows(self, offsets: np.ndarray, n: int) -> np.ndarray:
        if (self._table is None or self._table.shape[1] != n
                or self._offsets[:offsets.size].tobytes() != offsets.tobytes()):
            self._table = None  # dropped before the next is built
            self._offsets, self._table = offsets, response_matrix(offsets, n)
        return self._table[:offsets.size]


# gamma_per * |A|^2 may overflow to inf, where the integrand is exactly 1
@np.errstate(over="ignore")
def _gdp_values(u_cols: np.ndarray, coeffs: np.ndarray,
                interval: AngleInterval, cfg: GdpConfig,
                points_per_unit: int, *, nested: bool = False,
                tables: _ResponseTable | None = None
                ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """GDP of unit-normalized sum(coeffs[c] * u_cols[:, c]) per candidate.

    The trapezoid quadrature of the module docstring at `points_per_unit`
    samples per unit cosine angle; the only array as long as the grid is
    the grid itself.  The grid is walked in row blocks sized by
    `_BLOCK_BYTES`, and candidates in chunks of `_CHUNK` within each block;
    each chunk's weighted integrand sums are accumulated per candidate,
    block by block in grid order.

    The grid is uniform, so the response rows of a block starting at psi_s
    are one table of the first block's offsets times r(psi_s) =
    exp(-j*pi*k*psi_s).  The table comes from `tables` (a fresh
    `_ResponseTable` when None), and each block scales the rows of its
    narrow operand by r(psi_s) instead.  Which operand that is follows
    from the shapes alone: when N * candidates is at most
    columns * (N + candidates), the block is contracted against the
    combined weights w = u_cols @ coeffs directly (few candidates over
    many columns); otherwise the block's per-column gain basis is formed
    once and every candidate chunk is applied to it.  On the direct path,
    two or more candidates take `_CHUNK // candidates` blocks per product:
    the table meets the shifted weights of every block of the batch at
    once, instead of being read again per block.  One candidate keeps one
    product per block, which numpy runs as a matrix-vector product.

    With `nested`, the call returns two value arrays: the one above and
    the trapezoid rule on the grid of twice the spacing, summed in the same
    pass from the samples of even global index (weight 2h inside, h at the
    two ends).  A grid with an odd interval count takes one more interval,
    so that its even samples always span the whole coverage.
    """
    n, n_cols = u_cols.shape
    n_cand = coeffs.shape[1]
    psi = quadrature_grid(interval, points_per_unit)
    if nested and psi.size % 2 == 0:
        psi = np.linspace(interval.start, interval.end, psi.size + 1)
    h = interval.width / (psi.size - 1)
    w = u_cols @ coeffs
    w_sq = w.real ** 2 + w.imag ** 2
    norm_sq = np.sum(w_sq, axis=0)
    c_inf = np.max(w_sq, axis=0) / norm_sq
    direct = n * n_cand <= n_cols * (n + n_cand)
    batch = max(1, _CHUNK // n_cand) if direct and n_cand > 1 else 1
    # column c of a batched product is candidate c % n_cand of its block
    norm_sq, c_inf = np.tile(norm_sq, batch), np.tile(c_inf, batch)
    rows = min(psi.size,
               max(1, _BLOCK_BYTES // (16 * max(n, n_cols, _CHUNK))))
    if tables is None:
        tables = _ResponseTable()
    table = tables.rows(psi[:rows] - psi[0], n)
    ramp = -1j * np.pi * np.arange(n)
    acc = np.zeros((2, n_cand) if nested else n_cand)
    for b in range(0, psi.size, rows * batch):
        starts = np.arange(b, min(b + rows * batch, psi.size), rows)
        tws = []
        for start in starts:
            j = np.arange(start, min(start + rows, psi.size))
            tw = np.where((j == 0) | (j == psi.size - 1), h / 2.0, h)
            if nested:
                tw = np.stack([tw, np.where(j % 2, 0.0, 2.0 * tw)])
            tws.append(tw)
        shift = np.exp(ramp[:, None] * psi[starts])
        left = table[:min(rows, psi.size - b)]
        if direct:
            right = (shift[:, :, None] * w[:, None, :]).reshape(n, -1)
        else:
            left, right = left @ (shift * u_cols), coeffs
        # a batch of blocks is one chunk, and then `cut` spans every
        # candidate of `acc`
        for s in range(0, right.shape[1], _CHUNK):
            cut = slice(s, min(s + _CHUNK, right.shape[1]))
            # |g|^2 as re^2 + im^2, squared in g's own memory, which goes
            # before the integrand's temporaries are made
            sq = (left @ right[:, cut]).view(np.float64)
            np.square(sq, out=sq)
            g2 = sq[:, ::2] + sq[:, 1::2]
            del sq
            g2 /= norm_sq[cut]
            f = gdp_integrand(c_inf[cut], g2, cfg.gamma_per)
            for i, tw in enumerate(tws):
                acc[..., cut] += (
                    tw @ f[:tw.shape[-1], i * n_cand:(i + 1) * n_cand])
    values = acc / interval.width
    return tuple(values) if nested else values


def gdp(w, interval: AngleInterval, cfg: GdpConfig = GdpConfig()) -> float:
    """Generalized detection probability of a unit-norm codeword.

    Raises ValueError when w is not unit 2-norm (within 1e-9): the metric's
    ||w||_inf^2 term presumes unit total power.
    """
    w = as_weights(w)
    with np.errstate(over="ignore"):  # the norm squares finite entries
        norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"w must have unit 2-norm for gdp, got "
                         f"{float(norm)!r}")
    return float(_gdp_values(w[:, None], np.ones((1, 1)), interval, cfg,
                             cfg.points_for(w.size))[0])


def mtp(w, p_per: float) -> float:
    """Maximal transmission power p_per / max_n |[w]_n|^2 under the PAPC."""
    p_per = _check_real("p_per", p_per, 0, above=True)
    c = inf_norm_sq(w)
    if c == 0.0:
        raise ValueError("maximal transmission power of the zero vector is undefined")
    return _check_real("p_per / max_n |[w]_n|^2", p_per / c)


def ideal_gdp_bound(c: float, b: float) -> float:
    """GDP upper bound exp(-c/(c + 2/b)) attained only by an ideal flat beam.

    `c` is the max entry power of the codeword, `b` the coverage width; the
    bound follows from concavity of the integrand plus the fact that a
    unit-norm codeword's gain power averages to 1 over a full period, so a
    perfectly flat in-coverage pattern sits at level 2/b.
    """
    c = _check_real("c", c, 0, above=True)
    b = _check_real("b", b, 0, 2.0, above=True)
    return math.exp(-c / (c + 2.0 / b))


@dataclass(frozen=True)
class LinkBudget:
    """Inputs of the per-antenna SNR budget behind the GDP operating point.

    Defaults reproduce the published worked example: 15 dBm PA saturation,
    1 cm carrier, 100 m range, 300 K, length-128 training.  Note the default
    bandwidth: the example's stated -74 dBm noise floor corresponds to
    10log10(kTB*1e3) at B = 10 GHz, although the example labels the
    bandwidth 100 MHz (which would give about -94 dBm); see
    `link_budget_report` for the discrepancy notes.
    """

    pa_saturation_dbm: float = 15.0
    carrier_wavelength_m: float = 0.01
    distance_m: float = 100.0
    bandwidth_hz: float = 1.0e10
    ambient_temp_k: float = 300.0
    training_length: int = 128

    def __post_init__(self):
        pa = _check_real("pa_saturation_dbm", self.pa_saturation_dbm)
        for name in ("carrier_wavelength_m", "distance_m", "bandwidth_hz",
                     "ambient_temp_k"):
            _check_real(name, getattr(self, name), 0, above=True)
        _check_integer("training_length", self.training_length, 1)
        # the dB figures take the logarithms of these two
        _check_real("path-loss ratio 4*pi*distance_m/carrier_wavelength_m",
                    self._path_loss_ratio, 0, above=True)
        _check_real("noise power k*ambient_temp_k*bandwidth_hz",
                    self._noise_mw, 0, above=True)
        _check_real("received power pa_saturation_dbm - path loss",
                    pa - self.path_loss_db)

    @property
    def _path_loss_ratio(self) -> float:
        return (4.0 * math.pi * float(self.distance_m)
                / float(self.carrier_wavelength_m))

    @property
    def _noise_mw(self) -> float:
        return (BOLTZMANN_J_PER_K * float(self.ambient_temp_k)
                * float(self.bandwidth_hz) * 1e3)

    @property
    def path_loss_db(self) -> float:
        return 20.0 * math.log10(self._path_loss_ratio)

    @property
    def received_dbm(self) -> float:
        return self.pa_saturation_dbm - self.path_loss_db

    @property
    def noise_dbm(self) -> float:
        return 10.0 * math.log10(self._noise_mw)

    @property
    def spreading_gain_db(self) -> float:
        return 10.0 * math.log10(self.training_length)


def gamma_per_from_link_budget(lb: LinkBudget) -> float:
    """Linear per-antenna SNR: received - noise + spreading gain (in dB)."""
    return db_to_linear(lb.received_dbm - lb.noise_dbm + lb.spreading_gain_db)


def link_budget_report(lb: LinkBudget,
                       excess_loss_range_db: tuple[float, float] = (0.0, 15.0)) -> dict:
    """Full budget arithmetic chain plus consistency notes.

    The returned gamma_per_range_db sweeps the excess propagation loss over
    `excess_loss_range_db` with the other inputs fixed; a range outside
    0 <= min <= max, or one whose gamma_per ends leave the float range,
    raises ValueError.
    """
    pair = excess_loss_range_db
    lo, hi = pair if np.shape(pair) == (2,) else (None, None)
    if not (all(isinstance(x, numbers.Real) for x in (lo, hi))
            and 0.0 <= lo <= hi <= sys.float_info.max):
        raise ValueError(f"excess_loss_range_db must be finite with "
                         f"0 <= min <= max, got {excess_loss_range_db!r}")
    gamma_db = lb.received_dbm - lb.noise_dbm + lb.spreading_gain_db
    ends = tuple(_check_real("gamma_per_db_no_excess - excess_loss_range_db",
                             gamma_db - x) for x in (hi, lo))
    notes = [
        "the published example states a -74 dBm noise floor for a labeled "
        "100 MHz bandwidth, but 10log10(kTB*1e3) gives -74 dBm only at "
        "B = 10 GHz (100 MHz gives about -94 dBm); the default budget uses "
        "B = 10 GHz so the stated floor is reproduced",
        "the published example quotes a per-antenna SNR of -11 dB via "
        "'(-76)-(-87)'; its own figures (-87 dBm received, -74 dBm noise) "
        "give -13 dB, so the derived gamma_PER range below differs from "
        "the published [-5, 10] dB by the same 2 dB",
    ]
    return {
        "pa_saturation_dbm": lb.pa_saturation_dbm,
        "path_loss_db": lb.path_loss_db,
        "received_dbm": lb.received_dbm,
        "noise_dbm": lb.noise_dbm,
        "snr_db": lb.received_dbm - lb.noise_dbm,
        "spreading_gain_db": lb.spreading_gain_db,
        "gamma_per_db_no_excess": gamma_db,
        "gamma_per_range_db": ends,
        "notes": notes,
    }
