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
once and over all schemes in lockstep, one layer at a time as stacked
matrix products, and write the same bytes as a search per cell.  A block
holds about 1 MiB of channel matrices but never fewer than 8 trials, so
that each layer's bookkeeping is shared by several trials at N = 256 too;
its channels are built in chunks of about 1 MiB, which stay in cache
between the per-path passes.  At each layer, the Rx member rows of every
scheme that measures two or more members meet each trial's channel in one
matrix product: a row of a gemm product has the bits of that row computed
alone.  A side that measures one member keeps its own product, which
numpy runs as gemv with other bits.  Both gather their operands straight
from the codebooks' `CodebookLayer` arrays, so a search stacks no
codebook layer itself.
Sweep substreams are seeded in bulk: each block's SeedSequence mixing
runs as one numpy pass over its keys, and one reused PCG64 takes each
key's state in turn, so every cell draws the same bytes as
`np.random.default_rng([seed, trial, snr, scheme])` (the channel as
`default_rng([seed, trial])`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .arraymath import (_check_finite, _check_integer, _check_real,
                        steering_vector)
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
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        _check_integer("l_paths", self.l_paths, 1)
        _check_integer("l_s", self.l_s, 1)
        # the noise variance l_s * n0 must be a float
        _check_real("n0", self.n0, 0, sys.float_info.max / self.l_s)
        _check_integer("seed", self.seed, 0, 2 ** 64 - 1)
        # each trial index is one 32-bit word of its substream keys
        _check_integer("trials", self.trials, 1, 2 ** 32)


@dataclass(frozen=True)
class ChannelRealization:
    """L multipath components between an m_an-antenna Tx and n_an-antenna Rx."""

    gains: np.ndarray  # complex path gains, variance 1/L each
    aoa: np.ndarray    # cos(AoA) per path, Rx side
    aod: np.ndarray    # cos(AoD) per path, Tx side
    m_an: int
    n_an: int

    def __post_init__(self):
        for name, kind in ("gains", complex), ("aoa", float), ("aod", float):
            _check_finite(name, getattr(self, name), kind)
        _check_integer("m_an", self.m_an, 1)
        _check_integer("n_an", self.n_an, 1)

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
    _check_integer("l_paths", l_paths, 1)
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
    """Flat index j * rows + i of the largest |rho[..., i, j]| per cell.

    The modulus ranks as its square does but cannot overflow.  argmax
    keeps the first maximum, so ties go to the smallest (j, i) pair in
    lexicographic order.
    """
    mag = np.abs(rho)
    flat = mag.swapaxes(-1, -2).reshape(mag.shape[:-2] + (-1,))
    return flat.argmax(axis=-1)


def _check_channel(h: np.ndarray, n_rx: int, n_tx: int) -> None:
    if np.shape(h) != (n_rx, n_tx):
        raise ValueError(
            f"channel shape {np.shape(h)} does not match Rx {n_rx} x "
            f"Tx {n_tx} antennas")
    _check_finite("h", h)


def _normals(rng: np.random.Generator | None, n0: float, shape):
    """Standard normals of `shape` for noise of power n0 (None at n0 = 0)."""
    if n0 > 0.0 and rng is None:
        raise ValueError("a random generator is required when n0 > 0")
    return None if n0 == 0.0 else rng.standard_normal(shape)


def measure(tx: CompositeCodeword, rx: CompositeCodeword, h: np.ndarray,
            cfg: SimConfig, rng: np.random.Generator | None = None,
            p: float = 1.0) -> np.ndarray:
    """One composite-pair measurement: rho[i, j] for Rx member i, Tx member j.

    `cfg` gives the training length l_s, the noise power n0 (variance
    l_s * n0 per entry) and `papc`; `p` is the per-stream power (the
    per-antenna saturation power under `cfg.papc`).  The channel must be
    finite and match the codeword lengths.  A bad `p` or `h` raises
    ValueError naming it, and an l_s below a composite's member count
    raises `check_search`'s ValueError.
    """
    check_search(cfg.l_s, (len(tx.members), len(rx.members)))
    _check_real("p", p, 0, above=True)
    _check_channel(h, rx.f_rf.shape[0], tx.f_rf.shape[0])
    rho = _correlate(_rx_product(rx.member_matrix, h), tx.member_matrix,
                     tx.member_inf_norms, math.sqrt(p), cfg.l_s, cfg.papc)
    noise = _normals(rng, cfg.n0, (2,) + rho.shape)
    return rho if noise is None else _add_noise(rho, *noise, cfg.l_s, cfg.n0)


def select_best(rho: np.ndarray) -> tuple[int, int]:
    """argmax over |rho[i, j]|, returned 1-based as (j_star, i_star).

    Ties resolve to the smallest (j, i) pair in lexicographic order.
    """
    rho = _check_finite("rho", rho)
    if rho.size == 0:
        raise ValueError("empty measurement matrix")
    j, i = divmod(int(_best_flat(rho)), rho.shape[0])
    return j + 1, i + 1


@dataclass(frozen=True)
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


def _gather(cb, k: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Member columns (..., N, M) and inf-norms (..., M) at search layer k
    of the composites at 0-based idx, read from the codebook's arrays.  A
    side past its depth holds bottom codeword idx, member m of composite c
    for (c, m) = divmod(idx, M), as one (N, 1) column."""
    if k <= cb.depth:
        layer = cb.layers[k]
        return layer.units[idx], layer.inf_norms[idx]
    layer = cb.layers[cb.depth]
    c, m = np.divmod(idx, layer.units.shape[-1])
    return layer.units[c, :, m][..., None], layer.inf_norms[c, m][..., None]


def _rx_products(cb, k: int, idx: np.ndarray, h: np.ndarray) -> np.ndarray:
    """w^H H (..., M, N_t) at search layer k for Rx entries idx (trials,
    snrs) and channels h (trials, N_r, N_t), formed once per distinct
    entry of a trial."""
    values, pos = _distinct_per_row(idx)
    wh = _rx_product(_gather(cb, k, values)[0], h[:, None])
    return wh[np.arange(idx.shape[0])[:, None], pos]


def _stack_buffers(pairs, cells: int, n_r: int,
                   n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row and product buffers for `_rx_stack`: room for one
    conjugated member row w_i^H, and its w_i^H H, per cell and Rx member of
    every (tx, rx) pair."""
    rows = cells * sum(rx.branching for _, rx in pairs)
    return (np.empty(rows * n_r, dtype=np.complex128),
            np.empty(rows * n_t, dtype=np.complex128))


def _rx_stack(sides, k: int, h: np.ndarray, buffers):
    """Yield w^H H (trials, snrs, M, N_t) at search layer k of each side
    (rx, i) in turn, where i (trials, snrs) holds the side's Rx entries and
    h (trials, N_r, N_t) each trial's channel; take each before the next.

    Every side that measures M >= 2 members writes the conjugated member
    rows of each trial's distinct entries into one (trials, rows, N_r)
    stack in `buffers`, which meets the channel in one matrix product per
    trial.  A row of a gemm product has the bits of the same row computed
    alone, so each side reads what `_rx_products` gives.  A side that
    measures one member keeps `_rx_products`: numpy runs a one-row product
    as gemv, whose bits differ from a gemm row's.
    """
    trials, n_r, n_t = h.shape
    stacked = {s: _distinct_per_row(i) for s, (rx, i) in enumerate(sides)
               if _members(rx, k) > 1}
    total = sum(values.shape[1] * sides[s][0].branching
                for s, (values, _) in stacked.items())
    rows = buffers[0][:trials * total * n_r].reshape(trials, total, n_r)
    prod = buffers[1][:trials * total * n_t].reshape(trials, total, n_t)
    blocks, start = {}, 0
    for s, (values, _) in stacked.items():
        rx = sides[s][0]
        stop = start + values.shape[1] * rx.branching
        # (trials, width, M, N) views of this side's rows of the stack
        shape = values.shape + (rx.branching, -1)
        np.conjugate(_gather(rx, k, values)[0].swapaxes(-1, -2),
                     out=rows[:, start:stop].reshape(shape))
        blocks[s] = prod[:, start:stop].reshape(shape)
        start = stop
    np.matmul(rows, h, out=prod)
    trial = np.arange(trials)[:, None]
    for s, (rx, i) in enumerate(sides):
        yield (blocks[s][trial, stacked[s][1]] if s in stacked
               else _rx_products(rx, k, i, h))


def _covers(cb, idx: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Whether the 0-based bottom codewords idx (trials, snrs) cover each
    trial's angle, with `codebooks.coverage_interval`'s arithmetic."""
    cells = cb.branching ** cb.depth
    start = -1.0 + 2.0 * idx / cells
    return (start <= angle[:, None]) & (angle[:, None] <= start + 2.0 / cells)


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


def _search_cells(pairs, h: np.ndarray, sqrt_p: np.ndarray, cfg: SimConfig,
                  noises: list, buffers) -> list[tuple]:
    """Layer-by-layer beam search of a block of (trial, snr) cells at once,
    for every (tx, rx) codebook pair of `pairs` in lockstep.

    `h` (trials, N_r, N_t) holds each trial's channel and `sqrt_p` (trials,
    snrs) each cell's stream amplitude; `noises[n]` (trials, snrs, total)
    holds pair n's standard normals per cell, laid out re, im of layer 1,
    re, im of layer 2, ... (None when n0 = 0), and `buffers` comes from
    `_stack_buffers`.  Each layer gathers the cells' composites, forms
    w^H H of every pair's distinct Rx composites of a trial in one product
    (`_rx_stack`), measures all cells as stacked matrix products and
    descends into the winners; a pair whose layers have run out drops out.
    Returns, per pair, each cell's final 0-based Tx and Rx bottom codeword
    positions, and the last layer's rho and `_best_flat` winner.
    """
    shape = sqrt_p.shape
    j = [np.zeros(shape, dtype=np.intp) for _ in pairs]
    i = [np.zeros(shape, dtype=np.intp) for _ in pairs]
    last = [None] * len(pairs)
    offset = [0] * len(pairs)
    for k in range(1, max(max(tx.depth, rx.depth) for tx, rx in pairs) + 1):
        live = [n for n, (tx, rx) in enumerate(pairs)
                if k <= max(tx.depth, rx.depth)]
        whs = _rx_stack([(pairs[n][1], i[n]) for n in live], k, h, buffers)
        for n, wh in zip(live, whs):
            tx, rx = pairs[n]
            f_units, f_inf = _gather(tx, k, j[n])
            rho = _correlate(wh, f_units, f_inf, sqrt_p, cfg.l_s, cfg.papc)
            rows, cols = rho.shape[-2:]
            if noises[n] is not None:
                size = rows * cols
                draws = noises[n][..., offset[n]:offset[n] + 2 * size]
                rho = _add_noise(rho, draws[..., :size].reshape(rho.shape),
                                 draws[..., size:].reshape(rho.shape),
                                 cfg.l_s, cfg.n0)
                offset[n] += 2 * size
            best = _best_flat(rho)
            j_star, i_star = np.divmod(best, rows)
            if k <= tx.depth:
                j[n] = tx.branching * j[n] + j_star
            if k <= rx.depth:
                i[n] = rx.branching * i[n] + i_star
            last[n] = rho, best
    return [(j[n], i[n], *last[n]) for n in range(len(pairs))]


def check_search(l_s: int, branchings) -> None:
    """Raise ValueError unless l_s training symbols keep the sequences of
    every branching orthogonal."""
    if l_s < max(branchings):
        raise ValueError(f"l_s={l_s} cannot keep {max(branchings)} training "
                         f"sequences orthogonal")


def hierarchical_search(tx_cb: HierarchicalCodebook,
                        rx_cb: HierarchicalCodebook, h: np.ndarray,
                        cfg: SimConfig,
                        rng: np.random.Generator | None = None,
                        p: float = 1.0) -> SearchResult:
    """Layered beam search over a Tx/Rx codebook pair.

    Runs max(depth_tx, depth_rx) layers; at each one the current composites
    are measured jointly and both sides descend into the winning member's
    children.  A side that exhausts its layers first keeps its bottom
    codeword fixed while the other side continues.  Total training overhead
    is l_s per layer.  `p` is the per-stream power, as in `measure`.  This
    is the one-cell case of the batched search that `run_monte_carlo` runs.
    """
    check_search(cfg.l_s, (tx_cb.branching, rx_cb.branching))
    _check_channel(h, rx_cb.n_antennas, tx_cb.n_antennas)
    _check_real("p", p, 0, above=True)
    noise = _normals(rng, cfg.n0, (1, 1, _noise_size(tx_cb, rx_cb)))
    pairs = [(tx_cb, rx_cb)]
    [(j, i, rho, best)] = _search_cells(
        pairs, h[None], np.full((1, 1), math.sqrt(p)), cfg, [noise],
        _stack_buffers(pairs, 1, *h.shape))
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
        for layer in cb.layers[1:]:
            pools.append(np.abs(layer.units[0, :, 0]) ** 2)
    powers = np.sort(np.concatenate(pools))
    cdf = np.arange(1, powers.size + 1) / powers.size
    return powers, cdf


# SeedSequence's hash constants (numpy.random.bit_generator) and the
# PCG64 multiplier, for `_substreams`
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pool_states(seed: int, keys: list[np.ndarray]) -> list[np.ndarray]:
    """The four uint64 words SeedSequence([seed, *key]).generate_state(4,
    np.uint64) gives, as four arrays over the keys.

    `keys` holds one uint32 array per trailing key element.  This is
    SeedSequence's entropy mixing run on every key at once: the seed's
    32-bit words, least significant first, then one word per key element.
    """
    words = [np.full(keys[0].shape, seed >> s & _MASK32, dtype=np.uint32)
             for s in range(0, max(int(seed).bit_length(), 1), 32)] + keys
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> 16)

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]


# about this many keys get their seeding states from one numpy pass, which
# costs some hundred numpy calls whatever its size
_SEED_KEYS = 4096


def _substreams(seed: int, *parts):
    """Yield, for each key of the broadcast `parts` in C order, a Generator
    in the state `np.random.default_rng([seed, *key])` starts from.

    Every key element must lie in [0, 2**32).  Seeding states come from
    one numpy pass (`_pool_states`) per run of whole rows of the first
    axis, about `_SEED_KEYS` keys at a time; one PCG64 is then set to each
    key's state in turn, as PCG64 seeds itself from those words: inc =
    (w2:w3 << 1) | 1 and state = ((inc + w0:w1) * MULT + inc) mod 2**128.
    The same Generator object is yielded every time, so finish drawing
    from it before asking for the next key.
    """
    parts = np.broadcast_arrays(*(np.atleast_1d(p) for p in parts))
    rows = max(1, _SEED_KEYS * parts[0].shape[0] // parts[0].size)
    gen = np.random.Generator(np.random.PCG64(0))
    words = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0,
             "uinteger": 0}
    for first in range(0, parts[0].shape[0], rows):
        keys = [p[first:first + rows].ravel().astype(np.uint32)
                for p in parts]
        for w0, w1, w2, w3 in zip(*(w.tolist()
                                    for w in _pool_states(seed, keys))):
            inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
            words["inc"] = inc
            words["state"] = ((inc + (w0 << 64 | w1)) * _PCG_MULT
                              + inc) & _MASK128
            gen.bit_generator.state = state
            yield gen


def _channel_block(cfg: SimConfig, streams,
                   h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill h (trials, n_an, m_an) with the channel matrices of the next
    trials of `streams`; return the cos(AoA), cos(AoD) of each one's
    strongest path.

    Each trial draws from its (seed, trial) stream in `sample_channel`'s
    order and builds its matrix with `ChannelRealization.matrix`'s
    per-path sum, so each matrix has the same bits as the per-trial
    objects.  The sum runs over chunks of trials whose one-path term
    stays within `_SUB_BLOCK_BYTES` (one trial at N = 256, the whole block
    at N <= 64): each path's pass over a chunk then reads what the last
    pass left in cache, where one pass over a block of 8 N = 256 matrices
    waits on memory.
    """
    trials, n_an, m_an = h.shape
    draws = np.empty((trials, 4, cfg.l_paths))
    # zip stops at the last row before it takes another stream
    for row, gen in zip(draws, streams):
        gen.standard_normal(out=row[:2])
        gen.random(out=row[2:])
    gains = math.sqrt(1.0 / (2.0 * cfg.l_paths)) * (draws[:, 0]
                                                     + 1j * draws[:, 1])
    # uniform(-1, 1) is -1 + 2 u of the same u
    aoa, aod = -1.0 + 2.0 * draws[:, 2], -1.0 + 2.0 * draws[:, 3]
    a_r = steering_vector(n_an, aoa)
    a_t = steering_vector(m_an, aod).conj()
    chunk = min(trials, max(1, _SUB_BLOCK_BYTES // (16 * n_an * m_an)))
    term = np.empty((chunk, n_an, m_an), dtype=np.complex128)
    for first in range(0, trials, chunk):
        rows = slice(first, first + chunk)
        part = h[rows]
        tmp = term[:part.shape[0]]
        # numpy's complex products need not commute bit for bit, so every
        # product keeps `matrix`'s operand order
        part.fill(0.0)
        for path in range(cfg.l_paths):
            np.multiply(a_r[rows, path, :, None], a_t[rows, path, None, :],
                        out=tmp)
            np.multiply(gains[rows, path, None, None], tmp, out=tmp)
            part += tmp
        np.multiply(math.sqrt(m_an * n_an), part, out=part)
    strongest = np.argmax(np.abs(gains), axis=1)[:, None]
    return (np.take_along_axis(aoa, strongest, axis=1)[:, 0],
            np.take_along_axis(aod, strongest, axis=1)[:, 0])


# trials per sub-block are capped so that their stacked channel matrices
# stay under this many bytes; each layer reads a trial's channel once, in
# one product with every scheme's Rx rows (`_rx_stack`).  `_channel_block`
# builds the matrices in chunks of at most this many bytes too
_SUB_BLOCK_BYTES = 1 << 20
# but a sub-block holds at least this many trials, since each layer's
# bookkeeping (`_rx_stack`, `_distinct_per_row`, the gathers) costs about
# the same per call whatever its trial count: at N = 256 the byte cap
# alone leaves one trial per sub-block, and the sweep then spends most of
# its time on that bookkeeping rather than on the products.  A floor of 16
# ran about 2% faster than 8 at N = 256 for twice the sweep's memory
# (BENCH_sweep_blocks.json)
_SUB_BLOCK_TRIALS = 8


def _trial_block(schemes, powers: list[float],
                 cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Success flags and rates (trials, snrs, schemes) of a whole sweep.

    All randomness derives from (seed, trial) for the channel and
    (seed, trial, snr index, scheme index) for measurement noise, making
    each cell independent of how trials are grouped.  Trials run in
    sub-blocks, and every scheme's cells of a sub-block are searched
    together, layer by layer in lockstep.  A sub-block holds as many
    trials as `_SUB_BLOCK_BYTES` of channel matrices, and at least
    `_SUB_BLOCK_TRIALS`, so that each layer's per-call bookkeeping is
    shared by several trials even at N = 256 (for N_t = N_r = N: 64
    trials at N = 32, 16 at N = 64 and 8 at N >= 128).
    """
    pairs = [(tx, rx) for _, tx, rx in schemes]
    m_an, n_an = pairs[0][0].n_antennas, pairs[0][1].n_antennas
    snrs = len(powers)
    sqrt_p = np.array([math.sqrt(p) for p in powers])
    succ = np.zeros((cfg.trials, snrs, len(schemes)))
    rate = np.zeros_like(succ)
    step = min(cfg.trials, max(_SUB_BLOCK_TRIALS,
                               _SUB_BLOCK_BYTES // (16 * m_an * n_an)))
    # every sub-block takes its trials' keys from these streams in turn
    # and fills the channel buffer and each scheme's noise buffer anew
    trial_keys = np.arange(cfg.trials)
    channels = _substreams(cfg.seed, trial_keys)
    h_buf = np.empty((step, n_an, m_an), dtype=np.complex128)
    buffers = _stack_buffers(pairs, step * snrs, n_an, m_an)
    noise_draws = [
        (np.empty((step, snrs, _noise_size(tx, rx))),
         _substreams(cfg.seed, trial_keys[:, None], np.arange(snrs), ci))
        for ci, (tx, rx) in enumerate(pairs)] if cfg.n0 > 0.0 else []
    for first in range(0, cfg.trials, step):
        trials = range(first, min(first + step, cfg.trials))
        h = h_buf[:len(trials)]
        aoa, aod = _channel_block(cfg, channels, h)
        noises = [None] * len(pairs)
        for ci, (buf, streams) in enumerate(noise_draws):
            noises[ci] = buf[:len(trials)]
            for draws, gen in zip(noises[ci].reshape(-1, buf.shape[-1]),
                                  streams):
                gen.standard_normal(out=draws)
        found = _search_cells(pairs, h, np.broadcast_to(
            sqrt_p, (len(trials), snrs)), cfg, noises, buffers)
        rows = slice(trials.start, trials.stop)
        for ci, ((tx, rx), (j_t, i_r, _, _)) in enumerate(zip(pairs, found)):
            succ[rows, :, ci], rate[rows, :, ci] = _score_cells(
                tx, rx, h, aoa, aod, j_t, i_r, powers, cfg)
    return succ, rate


def _score_cells(tx, rx, h: np.ndarray, aoa: np.ndarray, aod: np.ndarray,
                 j_t: np.ndarray, i_r: np.ndarray, powers: list[float],
                 cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Success flags and rates (trials, snrs) of searches that ended at the
    0-based bottom codewords (j_t, i_r), for trials whose strongest paths
    lie at cos(AoA) `aoa` and cos(AoD) `aod`.

    A search succeeds when both bottom codewords cover that path.  The
    link gain |w_r^H H w_t|^2 is formed with the same products and scalar
    squaring as a search per cell, and every rate is that search's scalar
    log2.
    """
    succ = (_covers(tx, j_t, aod) & _covers(rx, i_r, aoa)).astype(float)
    if cfg.n0 == 0.0:
        return succ, np.full(succ.shape, math.inf)
    f_units, f_inf = _gather(tx, tx.depth + 1, j_t)
    amp = _rx_products(rx, rx.depth + 1, i_r, h) @ f_units
    link = np.array([abs(x) ** 2 for x in amp.ravel()]).reshape(succ.shape)
    p_eff = np.asarray(powers)
    # a gain past the float range is refused by `run_monte_carlo`
    with np.errstate(over="ignore"):
        if cfg.papc:
            # squared one numpy scalar at a time, as a search per cell does
            p_eff = p_eff / np.array([x ** 2 for x in f_inf.ravel()]).reshape(
                succ.shape)
        gain = 1.0 + p_eff * link / cfg.n0
    rate = np.array([math.log2(x) for x in gain.ravel().tolist()])
    return succ, rate.reshape(succ.shape)


def snr_powers(snr_db, n0: float) -> list[float]:
    """Per-stream power n0 * 10^(snr/10) of each SNR (10^(snr/10) at n0 = 0).

    Raises ValueError naming the SNR whose power is not a positive finite
    float, so a sweep can be refused before any work is done for it.
    """
    powers = []
    for snr in snr_db:
        try:
            power = n0 * db_to_linear(snr) if n0 > 0 else db_to_linear(snr)
            powers.append(_check_real("its per-stream power", power, 0,
                                      above=True))
        except ValueError as exc:
            raise ValueError(f"snr_db={snr!r}: {exc}") from None
    return powers


def run_monte_carlo(schemes, snr_db, cfg: SimConfig,
                    workers: int = 1) -> list[dict]:
    """Seeded success-rate / achievable-rate sweep.

    `schemes` is a sequence of (name, tx_codebook, rx_codebook); `snr_db`
    maps to the per-antenna power p_per = n0 * 10^(snr/10) under the PAPC
    (total power otherwise).  Every sweep runs in this process; `workers`
    is validated and has no effect.  Returns one row dict per (snr,
    scheme) in sweep order.  Raises ValueError before any trial runs for
    an l_s below a codebook's branching (`check_search`) or workers < 1,
    and, when n0 > 0, after the trials for an SNR whose rate overflows the
    float range (at n0 = 0 every rate is inf).
    """
    schemes = [tuple(s) for s in schemes]
    if not schemes:
        raise ValueError("at least one scheme is required")
    sizes = {(tx.n_antennas, rx.n_antennas) for _, tx, rx in schemes}
    if len(sizes) != 1:
        raise ValueError(
            f"all schemes in one sweep must share the array sizes, got {sizes}")
    check_search(cfg.l_s, [cb.branching for _, tx, rx in schemes
                           for cb in (tx, rx)])
    _check_integer("workers", workers, 1)
    snr_db = [_check_real("snr_db", x) for x in snr_db]
    succ, rate = _trial_block(schemes, snr_powers(snr_db, cfg.n0), cfg)
    overflow = ~np.isfinite(rate).all(axis=(0, 2))
    if cfg.n0 > 0.0 and overflow.any():
        raise ValueError(f"snr_db={snr_db[int(np.argmax(overflow))]!r}: its "
                         f"rate log2(1 + p |w_r^H H w_t|^2 / n0) overflows")
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
