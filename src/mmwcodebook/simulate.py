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
children; `run_monte_carlo` wraps it into a seeded, trial-parallel sweep
whose results are bit-reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arraymath import steering_vector
from .codebooks import CompositeCodeword, HierarchicalCodebook

__all__ = [
    "ChannelRealization",
    "SearchResult",
    "SimConfig",
    "element_power_cdf",
    "hierarchical_search",
    "measure",
    "run_monte_carlo",
    "sample_channel",
    "select_best",
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
        if self.l_paths < 1:
            raise ValueError("l_paths must be >= 1")
        if self.l_s < 1:
            raise ValueError("l_s must be >= 1")
        if self.n0 < 0.0:
            raise ValueError("n0 must be >= 0")
        if self.p_per <= 0.0 or self.p_total <= 0.0:
            raise ValueError("powers must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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


def _measure_arrays(f_units: np.ndarray, f_inf: np.ndarray,
                    w_units: np.ndarray, h: np.ndarray, p: float, n0: float,
                    l_s: int, rng: np.random.Generator | None,
                    papc: bool) -> np.ndarray:
    """Correlator outputs for stacked unit-norm codeword columns."""
    amps = math.sqrt(p) / f_inf if papc else math.sqrt(p) * np.ones(f_units.shape[1])
    signal = l_s * (w_units.conj().T @ h @ f_units) * amps[None, :]
    if n0 > 0.0:
        if rng is None:
            raise ValueError("a random generator is required when n0 > 0")
        sigma = math.sqrt(l_s * n0 / 2.0)
        signal = signal + sigma * (rng.standard_normal(signal.shape)
                                   + 1j * rng.standard_normal(signal.shape))
    return signal


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
    return _measure_arrays(tx.member_matrix, tx.member_inf_norms,
                           rx.member_matrix, h, p, n0, l_s, rng, papc)


def select_best(rho: np.ndarray) -> tuple[int, int]:
    """argmax over |rho[i, j]|^2, returned 1-based as (j_star, i_star).

    Ties resolve to the smallest (j, i) pair in lexicographic order.
    """
    rho = np.asarray(rho)
    if rho.size == 0:
        raise ValueError("empty measurement matrix")
    power = np.abs(rho) ** 2
    j, i = np.unravel_index(int(np.argmax(power.T)), power.T.shape)
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
    success: bool | None = None  # set by the caller against the truth

    def h1_matrix(self, m_an: int, n_an: int) -> np.ndarray:
        """Rank-one estimate rho* a(n,rx_angle) a(m,tx_angle)^H.

        rho* is used exactly as measured (it carries the l_s*sqrt(p)
        correlator factor; no rescaling is applied here).
        """
        return self.rho_star * np.outer(
            steering_vector(n_an, self.rx_angle),
            steering_vector(m_an, self.tx_angle).conj())


def _held_bottom(cb: HierarchicalCodebook, index: int) -> tuple[np.ndarray, np.ndarray]:
    cw = cb.codeword(cb.depth, index)
    u = cw.unit_awv[:, None]
    return u, np.array([np.max(np.abs(cw.unit_awv))])


def hierarchical_search(tx_cb: HierarchicalCodebook,
                        rx_cb: HierarchicalCodebook, h: np.ndarray,
                        cfg: SimConfig,
                        rng: np.random.Generator | None = None) -> SearchResult:
    """Layered beam search over a Tx/Rx codebook pair.

    Runs max(depth_tx, depth_rx) layers; at each one the current composites
    are measured jointly and both sides descend into the winning member's
    children.  A side that exhausts its layers first keeps its bottom
    codeword fixed while the other side continues.  Total training overhead
    is l_s per layer.
    """
    branchings = {tx_cb.branching, rx_cb.branching}
    if cfg.l_s < max(branchings):
        raise ValueError(
            f"l_s={cfg.l_s} cannot keep {max(branchings)} training "
            f"sequences orthogonal")
    k_max = max(tx_cb.depth, rx_cb.depth)
    p = cfg.p_per if cfg.papc else cfg.p_total
    j_t = i_r = 1
    rho_star = 0.0 + 0.0j
    for k in range(1, k_max + 1):
        tx_active = k <= tx_cb.depth
        rx_active = k <= rx_cb.depth
        if tx_active:
            tx = tx_cb.composite(k, j_t)
            f_units, f_inf = tx.member_matrix, tx.member_inf_norms
        else:
            f_units, f_inf = _held_bottom(tx_cb, j_t)
        if rx_active:
            rx = rx_cb.composite(k, i_r)
            w_units = rx.member_matrix
        else:
            w_units, _ = _held_bottom(rx_cb, i_r)
        rho = _measure_arrays(f_units, f_inf, w_units, h, p, cfg.n0,
                              cfg.l_s, rng, cfg.papc)
        j_star, i_star = select_best(rho)
        rho_star = complex(rho[i_star - 1, j_star - 1])
        if tx_active:
            j_t = tx_cb.branching * (j_t - 1) + j_star
        if rx_active:
            i_r = rx_cb.branching * (i_r - 1) + i_star
    return SearchResult(
        j_t=j_t, i_r=i_r, rho_star=rho_star,
        tx_angle=-1.0 + (2.0 * j_t - 1.0) / tx_cb.n_antennas,
        rx_angle=-1.0 + (2.0 * i_r - 1.0) / rx_cb.n_antennas,
        overhead=cfg.l_s * k_max)


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


def _trial_rates(schemes: list[tuple[str, HierarchicalCodebook, HierarchicalCodebook]],
                 snr_db: list[float], cfg: SimConfig,
                 trial: int) -> tuple[np.ndarray, np.ndarray]:
    """(success, rate) for one trial over the (snr, scheme) grid.

    All randomness derives from (seed, trial) for the channel and
    (seed, trial, snr index, scheme index) for measurement noise, making
    each cell independent of scheduling and worker partitioning.
    """
    m_an = schemes[0][1].n_antennas
    n_an = schemes[0][2].n_antennas
    chan_rng = np.random.default_rng([cfg.seed, trial])
    chan = sample_channel(cfg.l_paths, m_an, n_an, chan_rng)
    h = chan.matrix()
    _, best_aoa, best_aod = chan.strongest_path()
    success = np.zeros((len(snr_db), len(schemes)))
    rate = np.zeros((len(snr_db), len(schemes)))
    for si, snr in enumerate(snr_db):
        power = cfg.n0 * 10.0 ** (snr / 10.0) if cfg.n0 > 0 else 10.0 ** (snr / 10.0)
        run_cfg = replace(cfg, p_per=power, p_total=power)
        for ci, (_, tx_cb, rx_cb) in enumerate(schemes):
            rng = np.random.default_rng([cfg.seed, trial, si, ci])
            res = hierarchical_search(tx_cb, rx_cb, h, run_cfg, rng)
            w_t = tx_cb.codeword(tx_cb.depth, res.j_t)
            w_r = rx_cb.codeword(rx_cb.depth, res.i_r)
            ok = (w_t.coverage.contains(best_aod)
                  and w_r.coverage.contains(best_aoa))
            success[si, ci] = 1.0 if ok else 0.0
            p_eff = (power / np.max(np.abs(w_t.unit_awv)) ** 2
                     if cfg.papc else power)
            link = abs(w_r.unit_awv.conj() @ h @ w_t.unit_awv) ** 2
            rate[si, ci] = (math.log2(1.0 + p_eff * link / cfg.n0)
                            if cfg.n0 > 0 else math.inf)
    return success, rate


def _trial_block(args) -> tuple[int, np.ndarray, np.ndarray]:
    schemes, snr_db, cfg, start, stop = args
    succ = np.zeros((stop - start, len(snr_db), len(schemes)))
    rate = np.zeros_like(succ)
    for t in range(start, stop):
        succ[t - start], rate[t - start] = _trial_rates(schemes, snr_db, cfg, t)
    return start, succ, rate


def run_monte_carlo(schemes, snr_db, cfg: SimConfig,
                    workers: int = 1) -> list[dict]:
    """Seeded success-rate / achievable-rate sweep.

    `schemes` is a sequence of (name, tx_codebook, rx_codebook); `snr_db`
    maps to the per-antenna power p_per = n0 * 10^(snr/10) under the PAPC
    (total power otherwise).  Trials are partitioned across processes with
    per-trial substreams, so the output is identical for any worker count.
    Returns one row dict per (snr, scheme) in sweep order.
    """
    schemes = [tuple(s) for s in schemes]
    if not schemes:
        raise ValueError("at least one scheme is required")
    sizes = {(tx.n_antennas, rx.n_antennas) for _, tx, rx in schemes}
    if len(sizes) != 1:
        raise ValueError(
            f"all schemes in one sweep must share the array sizes, got {sizes}")
    snr_db = [float(x) for x in snr_db]
    succ = np.zeros((cfg.trials, len(snr_db), len(schemes)))
    rate = np.zeros_like(succ)
    if workers <= 1 or cfg.trials == 1:
        blocks = [(schemes, snr_db, cfg, 0, cfg.trials)]
        results = map(_trial_block, blocks)
    else:
        step = max(1, math.ceil(cfg.trials / (workers * 4)))
        blocks = [(schemes, snr_db, cfg, s, min(s + step, cfg.trials))
                  for s in range(0, cfg.trials, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_block, blocks))
    for start, s_blk, r_blk in results:
        succ[start:start + s_blk.shape[0]] = s_blk
        rate[start:start + r_blk.shape[0]] = r_blk
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
