"""Sparse channel model, correlator-level measurements and beam search.

The channel is the standard sparse multipath model: L paths with circular
complex Gaussian gains (variance 1/L each, so the total power normalizes
to 1) and uniform cosine-angle AoD/AoA.

Measurements are simulated at the correlator output: transmitting
orthogonal length-l_s training sequences through codeword pair (f_j, w_i)
and correlating yields

    rho[i, j] = l_s * sqrt(p_j) * w_i^H H f_j + eta[i, j]

with eta i.i.d. circular complex Gaussian of variance l_s * n0 — the exact
statistics of correlating l_s unit-power noise symbols, without generating
the sequences themselves.  Under the per-antenna power constraint, the
per-stream amplitude sqrt(p_j) is sqrt(p_per) / ||f_j||_inf so that no
antenna exceeds the PA limit.

`hierarchical_search` walks the codebook layers top-down, measuring one
Tx/Rx composite pair per layer and descending into the winning pair's
children; `run_monte_carlo` wraps it into a seeded, bit-reproducible
sweep.  Sweeps run the same search over blocks of (trial, snr) cells at
once, one layer at a time as stacked matrix products, and write the same
bytes as a search per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arraymath import steering_vector
from .codebooks import CompositeCodeword, HierarchicalCodebook
from .metrics import db_to_linear

__all__ = [
    "ChannelRealization",
    "SearchResult",
    "SimConfig",
    "check_search",
    "element_power_cdf",
    "hierarchical_search",
    "measure",
    "run_monte_carlo",
    "sample_channel",
    "select_best",
    "snr_powers",
]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings; `seed` pins every random draw."""

    l_paths: int = 1
    l_s: int = 32
    n0: float = 1.0
    papc: bool = True
    p_per: float = 1.0
    p_total: float = 1.0
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        for name in ("l_paths", "l_s", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("n0", "p_per", "p_total"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n0 < 0.0:
            raise ValueError("n0 must be >= 0")
        if self.p_per <= 0.0 or self.p_total <= 0.0:
            raise ValueError("powers must be positive")
        if not 0 <= self.seed <= 2 ** 64 - 1:
            raise ValueError(f"seed must be in [0, 2**64 - 1], got {self.seed}")


@dataclass(frozen=True)
class ChannelRealization:
    """L multipath components between an m_an-antenna Tx and n_an-antenna Rx."""

    gains: np.ndarray  # complex path gains, variance 1/L each
    aoa: np.ndarray    # cos(AoA) per path, Rx side
    aod: np.ndarray    # cos(AoD) per path, Tx side
    m_an: int
    n_an: int

    def matrix(self) -> np.ndarray:
        """Channel matrix sqrt(m*n) * sum_l gain_l a(n,aoa_l) a(m,aod_l)^H."""
        h = np.zeros((self.n_an, self.m_an), dtype=np.complex128)
        for lam, om, psi in zip(self.gains, self.aoa, self.aod):
            h += lam * np.outer(steering_vector(self.n_an, om),
                                steering_vector(self.m_an, psi).conj())
        return math.sqrt(self.m_an * self.n_an) * h

    def strongest_path(self) -> tuple[complex, float, float]:
        """(gain, aoa, aod) of the largest-|gain| path."""
        idx = int(np.argmax(np.abs(self.gains)))
        return (complex(self.gains[idx]), float(self.aoa[idx]),
                float(self.aod[idx]))


def sample_channel(l_paths: int, m_an: int, n_an: int,
                   rng: np.random.Generator) -> ChannelRealization:
    """Draw a channel: CN(0, 1/L) gains, uniform[-1, 1] angles."""
    if l_paths < 1:
        raise ValueError("l_paths must be >= 1")
    scale = math.sqrt(1.0 / (2.0 * l_paths))
    gains = scale * (rng.standard_normal(l_paths)
                     + 1j * rng.standard_normal(l_paths))
    aoa = rng.uniform(-1.0, 1.0, l_paths)
    aod = rng.uniform(-1.0, 1.0, l_paths)
    return ChannelRealization(gains, aoa, aod, m_an, n_an)


def _rx_product(w_units: np.ndarray, h: np.ndarray) -> np.ndarray:
    """w_i^H H for the Rx member columns; stacks broadcast as matmul does."""
    return w_units.conj().swapaxes(-1, -2) @ h


def _correlate(wh: np.ndarray, f_units: np.ndarray, f_inf: np.ndarray,
               sqrt_p, l_s: int, papc: bool) -> np.ndarray:
    """Noise-free correlator outputs l_s * sqrt(p_j) * (w_i^H H) f_j.

    Takes one composite pair (2-D matrices, scalar sqrt_p) or a stack of
    cells: (..., M_r, N_t) Rx products, (..., N_t, M_t) Tx members and
    sqrt_p of the cells' shape.  Each cell's products run in the same
    order as the one-pair case, so the bits agree.
    """
    sqrt_p = np.asarray(sqrt_p)[..., None]
    amps = sqrt_p / f_inf if papc else sqrt_p
    return l_s * (wh @ f_units) * amps[..., None, :]


def _add_noise(rho: np.ndarray, re: np.ndarray, im: np.ndarray, l_s: int,
               n0: float) -> np.ndarray:
    """rho plus CN(0, l_s * n0) noise built from standard normal draws."""
    return rho + math.sqrt(l_s * n0 / 2.0) * (re + 1j * im)


def _best_flat(rho: np.ndarray) -> np.ndarray:
    """Flat index j * rows + i of the largest |rho[..., i, j]|^2 per cell.

    argmax keeps the first maximum, so ties go to the smallest (j, i) pair
    in lexicographic order.
    """
    power = np.abs(rho) ** 2
    flat = power.swapaxes(-1, -2).reshape(power.shape[:-2] + (-1,))
    return flat.argmax(axis=-1)


def measure(tx: CompositeCodeword, rx: CompositeCodeword, h: np.ndarray,
            p: float, n0: float, l_s: int,
            rng: np.random.Generator | None = None,
            papc: bool = False) -> np.ndarray:
    """One composite-pair measurement: rho[i, j] for Rx member i, Tx member j.

    `p` is the per-stream power (the per-antenna saturation power under
    `papc`); noise variance is l_s * n0 per entry.  Dimensions of the
    channel must match the codeword lengths.
    """
    if h.shape != (rx.f_rf.shape[0], tx.f_rf.shape[0]):
        raise ValueError(
            f"channel shape {h.shape} does not match Rx {rx.f_rf.shape[0]} x "
            f"Tx {tx.f_rf.shape[0]} antennas")
    rho = _correlate(_rx_product(rx.member_matrix, h), tx.member_matrix,
                     tx.member_inf_norms, math.sqrt(p), l_s, papc)
    if n0 > 0.0:
        if rng is None:
            raise ValueError("a random generator is required when n0 > 0")
        re = rng.standard_normal(rho.shape)
        im = rng.standard_normal(rho.shape)
        rho = _add_noise(rho, re, im, l_s, n0)
    return rho


def select_best(rho: np.ndarray) -> tuple[int, int]:
    """argmax over |rho[i, j]|^2, returned 1-based as (j_star, i_star).

    Ties resolve to the smallest (j, i) pair in lexicographic order.
    """
    rho = np.asarray(rho)
    if rho.size == 0:
        raise ValueError("empty measurement matrix")
    j, i = divmod(int(_best_flat(rho)), rho.shape[0])
    return j + 1, i + 1


@dataclass
class SearchResult:
    """Outcome of one top-down beam search."""

    j_t: int              # final Tx bottom-layer codeword index (1-based)
    i_r: int              # final Rx bottom-layer codeword index (1-based)
    rho_star: complex     # winning correlator value of the last layer
    tx_angle: float       # estimated cos(AoD): bin center of j_t
    rx_angle: float       # estimated cos(AoA): bin center of i_r
    overhead: int         # training symbols spent, l_s per layer

    def h1_matrix(self, m_an: int, n_an: int) -> np.ndarray:
        """Rank-one estimate rho* a(n,rx_angle) a(m,tx_angle)^H.

        rho* is used exactly as measured (it carries the l_s*sqrt(p)
        correlator factor; no rescaling is applied here).
        """
        return self.rho_star * np.outer(
            steering_vector(n_an, self.rx_angle),
            steering_vector(m_an, self.tx_angle).conj())


def _members(side, k: int) -> int:
    """Members a side measures at search layer k (1 once it holds its bottom)."""
    return side.branching if k <= side.depth else 1


class _LayerStacks:
    """One codebook's search matrices, stacked per layer for gathering.

    `units[k - 1]` (composites, N, M) and `infs[k - 1]` (composites, M) hold
    the member columns and inf-norms of layer k = 1..depth.  A last entry
    holds the bottom codewords as (N, 1) columns, one per codeword, for a
    side that has run out of layers and keeps its bottom codeword.
    """

    def __init__(self, cb: HierarchicalCodebook):
        self.depth, self.branching = cb.depth, cb.branching
        self.bottom = cb.layer_codewords(cb.depth)
        layers = cb.layers[1:]
        self.units = [np.stack([c.member_matrix for c in layer])
                      for layer in layers]
        self.infs = [np.stack([c.member_inf_norms for c in layer])
                     for layer in layers]
        self.units.append(self.units[-1].swapaxes(1, 2).reshape(
            -1, cb.n_antennas, 1))
        self.infs.append(self.infs[-1].reshape(-1, 1))

    def gather(self, k: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Member columns (..., N, M) and inf-norms (..., M) at search layer
        k of the composites (or held bottom codewords) at 0-based idx."""
        s = min(k, self.depth + 1) - 1
        return self.units[s][idx], self.infs[s][idx]

    def rx_product(self, k: int, idx: np.ndarray, h: np.ndarray) -> np.ndarray:
        """w^H H (..., M, N_t) at search layer k for Rx entries idx (trials,
        snrs) and channels h (trials, N_r, N_t), formed once per distinct
        entry of a trial."""
        values, pos = _distinct_per_row(idx)
        wh = _rx_product(self.gather(k, values)[0], h[:, None])
        return wh[np.arange(idx.shape[0])[:, None], pos]


class _PathLayers:
    """The matrices one search reads, taken from the codebook as it descends.

    A single search visits one composite per layer, so it reads those
    directly instead of stacking every layer as `_LayerStacks` does.
    """

    def __init__(self, cb: HierarchicalCodebook):
        self.cb, self.depth, self.branching = cb, cb.depth, cb.branching

    def gather(self, k: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_LayerStacks.gather` for a one-cell idx."""
        index = int(idx.item())
        if k <= self.depth:
            comp = self.cb.layers[k][index]
            units, infs = comp.member_matrix, comp.member_inf_norms
        else:
            c, m = divmod(index, self.branching)
            comp = self.cb.layers[self.depth][c]
            units = comp.members[m].unit_awv[:, None]
            infs = comp.member_inf_norms[m:m + 1]
        return (units.reshape(idx.shape + units.shape),
                infs.reshape(idx.shape + infs.shape))

    def rx_product(self, k: int, idx: np.ndarray, h: np.ndarray) -> np.ndarray:
        """`_LayerStacks.rx_product` for a one-cell idx."""
        return _rx_product(self.gather(k, idx)[0], h[:, None])


def _noise_size(tx, rx) -> int:
    """Standard normals one search draws: re and im of every layer."""
    return sum(2 * _members(tx, k) * _members(rx, k)
               for k in range(1, max(tx.depth, rx.depth) + 1))


def _distinct_per_row(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of each row of `idx` and where each entry sits.

    Returns (values, pos): values (rows, width) lists each row's distinct
    values, padded with repeats to the widest row, and
    values[r, pos[r, c]] == idx[r, c].
    """
    rows = np.arange(idx.shape[0])[:, None]
    order = np.argsort(idx, axis=1)
    ranked = idx[rows, order]
    starts = np.ones(ranked.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    rank = np.cumsum(starts, axis=1) - 1
    pos = np.empty_like(rank)
    pos[rows, order] = rank
    values = np.repeat(ranked[:, :1], rank[:, -1].max() + 1, axis=1)
    values[np.nonzero(starts)[0], rank[starts]] = ranked[starts]
    return values, pos


def _search_cells(tx, rx, h: np.ndarray,
                  sqrt_p: np.ndarray, cfg: SimConfig,
                  noise: np.ndarray | None):
    """Layer-by-layer beam search of a block of (trial, snr) cells at once.

    `h` (trials, N_r, N_t) holds each trial's channel and `sqrt_p` (trials,
    snrs) each cell's stream amplitude; `noise` (trials, snrs, total) holds
    each cell's standard normals laid out re, im of layer 1, re, im of
    layer 2, ... (None when n0 = 0).  Each layer gathers the cells'
    composites, forms w^H H once per distinct Rx composite of a trial,
    measures all cells as stacked matrix products and descends into the
    winners.  Returns each cell's final 0-based Tx and Rx bottom codeword
    positions, and the last layer's rho and `_best_flat` winner.
    """
    shape = sqrt_p.shape
    j = np.zeros(shape, dtype=np.intp)
    i = np.zeros(shape, dtype=np.intp)
    offset = 0
    for k in range(1, max(tx.depth, rx.depth) + 1):
        f_units, f_inf = tx.gather(k, j)
        rho = _correlate(rx.rx_product(k, i, h), f_units, f_inf, sqrt_p,
                         cfg.l_s, cfg.papc)
        rows, cols = rho.shape[-2:]
        if noise is not None:
            size = rows * cols
            draws = noise[..., offset:offset + 2 * size]
            rho = _add_noise(rho, draws[..., :size].reshape(rho.shape),
                             draws[..., size:].reshape(rho.shape),
                             cfg.l_s, cfg.n0)
            offset += 2 * size
        best = _best_flat(rho)
        j_star, i_star = np.divmod(best, rows)
        if k <= tx.depth:
            j = tx.branching * j + j_star
        if k <= rx.depth:
            i = rx.branching * i + i_star
    return j, i, rho, best


def check_search(l_s: int, branchings, workers: int = 1) -> None:
    """Raise ValueError unless l_s training symbols keep the sequences of
    every branching orthogonal and at least one worker is asked for."""
    if l_s < max(branchings):
        raise ValueError(f"l_s={l_s} cannot keep {max(branchings)} training "
                         f"sequences orthogonal")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def hierarchical_search(tx_cb: HierarchicalCodebook,
                        rx_cb: HierarchicalCodebook, h: np.ndarray,
                        cfg: SimConfig,
                        rng: np.random.Generator | None = None) -> SearchResult:
    """Layered beam search over a Tx/Rx codebook pair.

    Runs max(depth_tx, depth_rx) layers; at each one the current composites
    are measured jointly and both sides descend into the winning member's
    children.  A side that exhausts its layers first keeps its bottom
    codeword fixed while the other side continues.  Total training overhead
    is l_s per layer.  This is the one-cell case of the batched search
    that `run_monte_carlo` runs.
    """
    check_search(cfg.l_s, (tx_cb.branching, rx_cb.branching))
    tx, rx = _PathLayers(tx_cb), _PathLayers(rx_cb)
    p = cfg.p_per if cfg.papc else cfg.p_total
    noise = None
    if cfg.n0 > 0.0:
        if rng is None:
            raise ValueError("a random generator is required when n0 > 0")
        noise = rng.standard_normal((1, 1, _noise_size(tx, rx)))
    j, i, rho, best = _search_cells(tx, rx, h[None],
                                    np.full((1, 1), math.sqrt(p)), cfg, noise)
    j_t, i_r = int(j[0, 0]) + 1, int(i[0, 0]) + 1
    j_star, i_star = divmod(int(best[0, 0]), rho.shape[-2])
    return SearchResult(
        j_t=j_t, i_r=i_r, rho_star=complex(rho[0, 0, i_star, j_star]),
        tx_angle=-1.0 + (2.0 * j_t - 1.0) / tx_cb.n_antennas,
        rx_angle=-1.0 + (2.0 * i_r - 1.0) / rx_cb.n_antennas,
        overhead=cfg.l_s * max(tx_cb.depth, rx_cb.depth))


def element_power_cdf(codebooks) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of per-entry powers pooled over codebook layers.

    Pools |entry|^2 of the unit-norm first codeword of each layer
    k = 1..depth (layer 0 excluded) for every codebook given; rotations
    share the same moduli, so the choice of in-layer index is immaterial.
    Returns (sorted powers, cumulative fractions).
    """
    cbs = list(codebooks)
    if not cbs:
        raise ValueError("at least one codebook is required")
    pools = []
    for cb in cbs:
        for k in range(1, cb.depth + 1):
            pools.append(np.abs(cb.codeword(k, 1).unit_awv) ** 2)
    powers = np.sort(np.concatenate(pools))
    cdf = np.arange(1, powers.size + 1) / powers.size
    return powers, cdf


# trials per sub-block are capped so that their stacked channel matrices
# stay under this many bytes
_SUB_BLOCK_BYTES = 1 << 20


def _trial_block(schemes, powers: list[float],
                 cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Success flags and rates (trials, snrs, schemes) of a whole sweep.

    All randomness derives from (seed, trial) for the channel and
    (seed, trial, snr index, scheme index) for measurement noise, making
    each cell independent of how trials are grouped.  Trials run in
    sub-blocks, and each scheme's cells of a sub-block are searched
    together.
    """
    m_an = schemes[0][1].n_antennas
    n_an = schemes[0][2].n_antennas
    stacks = {}
    for _, tx_cb, rx_cb in schemes:
        for cb in (tx_cb, rx_cb):
            if id(cb) not in stacks:
                stacks[id(cb)] = _LayerStacks(cb)
    sqrt_p = np.array([math.sqrt(p) for p in powers])
    succ = np.zeros((cfg.trials, len(powers), len(schemes)))
    rate = np.zeros_like(succ)
    step = max(1, _SUB_BLOCK_BYTES // (16 * m_an * n_an))
    for first in range(0, cfg.trials, step):
        trials = range(first, min(first + step, cfg.trials))
        chans = [sample_channel(cfg.l_paths, m_an, n_an,
                                np.random.default_rng([cfg.seed, t]))
                 for t in trials]
        h = np.stack([chan.matrix() for chan in chans])
        cells = (len(trials), len(powers))
        rows = slice(trials.start, trials.stop)
        for ci, (_, tx_cb, rx_cb) in enumerate(schemes):
            tx, rx = stacks[id(tx_cb)], stacks[id(rx_cb)]
            noise = None
            if cfg.n0 > 0.0:
                size = _noise_size(tx, rx)
                noise = np.stack([
                    np.random.default_rng([cfg.seed, t, si, ci])
                    .standard_normal(size)
                    for t in trials for si in range(len(powers))
                ]).reshape(cells + (size,))
            j_t, i_r, _, _ = _search_cells(tx, rx, h,
                                           np.broadcast_to(sqrt_p, cells),
                                           cfg, noise)
            succ[rows, :, ci], rate[rows, :, ci] = _score_cells(
                tx, rx, chans, h, j_t, i_r, powers, cfg)
    return succ, rate


def _score_cells(tx: _LayerStacks, rx: _LayerStacks, chans, h: np.ndarray,
                 j_t: np.ndarray, i_r: np.ndarray, powers: list[float],
                 cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Success flags and rates (trials, snrs) of searches that ended at the
    0-based bottom codewords (j_t, i_r).

    Each distinct (trial, j_t, i_r) gets its coverage check and link gain
    once; every rate is the scalar log2 a search per cell computes.
    """
    succ = np.zeros(j_t.shape)
    rate = np.zeros(j_t.shape)
    outcomes = {}
    for a, (js, is_) in enumerate(zip(j_t.tolist(), i_r.tolist())):
        _, best_aoa, best_aod = chans[a].strongest_path()
        for si, (power, j, i) in enumerate(zip(powers, js, is_)):
            w_t, w_r = tx.bottom[j], rx.bottom[i]
            if (a, j, i) not in outcomes:
                outcomes[a, j, i] = (
                    w_t.coverage.contains(best_aod)
                    and w_r.coverage.contains(best_aoa),
                    abs(w_r.unit_awv.conj() @ h[a] @ w_t.unit_awv) ** 2)
            ok, link = outcomes[a, j, i]
            succ[a, si] = 1.0 if ok else 0.0
            p_eff = power / tx.infs[-1][j, 0] ** 2 if cfg.papc else power
            rate[a, si] = (math.log2(1.0 + p_eff * link / cfg.n0)
                           if cfg.n0 > 0 else math.inf)
    return succ, rate


def snr_powers(snr_db, n0: float) -> list[float]:
    """Per-stream power n0 * 10^(snr/10) of each SNR (10^(snr/10) at n0 = 0).

    Raises ValueError naming the SNR whose power is not a positive finite
    float, so a sweep can be refused before any work is done for it.
    """
    powers = []
    for snr in snr_db:
        power = n0 * db_to_linear(snr) if n0 > 0 else db_to_linear(snr)
        if not 0.0 < power < math.inf:
            raise ValueError(f"snr_db={snr!r} gives the per-stream power "
                             f"{power!r}, outside the positive float range")
        powers.append(power)
    return powers


def run_monte_carlo(schemes, snr_db, cfg: SimConfig,
                    workers: int = 1) -> list[dict]:
    """Seeded success-rate / achievable-rate sweep.

    `schemes` is a sequence of (name, tx_codebook, rx_codebook); `snr_db`
    maps to the per-antenna power p_per = n0 * 10^(snr/10) under the PAPC
    (total power otherwise).  Every sweep runs in this process; `workers`
    is validated and has no effect.  Returns one row dict per (snr,
    scheme) in sweep order.  Raises ValueError before any trial runs for
    an l_s below a codebook's branching or workers < 1 (`check_search`).
    """
    schemes = [tuple(s) for s in schemes]
    if not schemes:
        raise ValueError("at least one scheme is required")
    sizes = {(tx.n_antennas, rx.n_antennas) for _, tx, rx in schemes}
    if len(sizes) != 1:
        raise ValueError(
            f"all schemes in one sweep must share the array sizes, got {sizes}")
    check_search(cfg.l_s, [cb.branching for _, tx, rx in schemes
                           for cb in (tx, rx)], workers)
    snr_db = [float(x) for x in snr_db]
    succ, rate = _trial_block(schemes, snr_powers(snr_db, cfg.n0), cfg)
    rows = []
    for si, snr in enumerate(snr_db):
        for ci, (name, _, _) in enumerate(schemes):
            p_hat = float(np.sum(succ[:, si, ci]) / cfg.trials)
            rows.append({
                "snr_db": snr,
                "scheme": name,
                "success_rate": p_hat,
                "rate_bps_hz": float(np.sum(rate[:, si, ci]) / cfg.trials),
                "trials": cfg.trials,
                "stderr": math.sqrt(max(p_hat * (1.0 - p_hat), 0.0)
                                    / cfg.trials),
            })
    return rows
