"""Check the phase searches' screening ladders against exhaustive search.

    python tools/ladder_probe.py

Builds every bmw-ms-lcs and ps-dft design with m_rf in {2, 3, 4, 5, 8},
N = m_rf^d <= 64, gamma in {-10, -3, 0, 5, 15} dB and grid_size in
{8, 16, 64} (bmw-ms-lcs at grid 64 only for N = 64), and bmw-ms-lcs at
N = 81/3, 125/5, 128/2, 243/3, 256/2 and 256/4 (N/m_rf) with grid 64 and
gamma in {-10, 0, 15} dB.  `codebooks._best_candidates` is wrapped as the
tier-1 `checked_searches` fixture wraps it: each search also scores every
candidate at full resolution, and its pick must be `_argmax_with_ties` of
those values, with every certified class sharing one value.  Each pick
that differs, or class that does not, is a miss.

It also audits the margin of each rung of each scheme's ladder: among the
scores of that rung, the count whose error against full resolution
exceeds the margin, |v - full| > 2|v - v2|, the worst ratio
|v - full| / |v - v2| where v != v2, and the count of scores with
v == v2 and a nonzero error, whose margin is zero.

Stdlib and numpy only; the package is imported from `src/`.  It takes
several minutes of CPU, most of it in the exhaustive scoring of the
N >= 128 designs.  The exit status is 1 on any miss, else 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

M_RFS = (2, 3, 4, 5, 8)
GAMMAS_DB = (-10.0, -3.0, 0.0, 5.0, 15.0)
GRIDS = (8, 16, 64)
LARGE_LCS = ((81, 3), (125, 5), (128, 2), (243, 3), (256, 2), (256, 4))
LARGE_GAMMAS_DB = (-10.0, 0.0, 15.0)
# the largest full-resolution spread within a certified class
CLASS_TOL = 1e-13


def designs():
    """(scheme, n, m_rf, grid_size, gamma_db) of every design built."""
    for scheme in ("ps-dft", "bmw-ms-lcs"):
        for m_rf in M_RFS:
            n = m_rf
            while n <= 64:
                for gamma_db in GAMMAS_DB:
                    for grid in GRIDS:
                        if scheme == "ps-dft" or grid < 64 or n == 64:
                            yield scheme, n, m_rf, grid, gamma_db
                n *= m_rf
    for n, m_rf in LARGE_LCS:
        for gamma_db in LARGE_GAMMAS_DB:
            yield "bmw-ms-lcs", n, m_rf, 64, gamma_db


class Checker:
    """Stands in for `_best_candidates`: runs it, then checks each search."""

    def __init__(self, codebooks):
        self.codebooks = codebooks
        self.run = codebooks._best_candidates
        self.kernel = codebooks._gdp_values
        self.design = None
        self.searches = Counter()
        self.misses: list[str] = []
        # (scheme, d) -> [scores, scores beyond the margin, worst ratio,
        # zero estimates with an error]
        self.audit = defaultdict(lambda: [0, 0, 0.0, 0])

    def __call__(self, batch, cfg, rungs):
        kernel, bases = self.kernel, [u_cols for u_cols, *_ in batch]
        passes = [[] for _ in batch]

        def recording(u_cols, coeffs, interval, cfg, points, **kw):
            values = kernel(u_cols, coeffs, interval, cfg, points, **kw)
            if kw.get("nested"):
                s = next(s for s, u in enumerate(bases) if u is u_cols)
                passes[s].append((coeffs, values))
            return values

        self.codebooks._gdp_values = recording
        try:
            chosen = self.run(batch, cfg, rungs)
        finally:
            self.codebooks._gdp_values = kernel
        for best, (u_cols, coeffs, interval, labels), rung_passes in zip(
                chosen, batch, passes):
            self.check(best, u_cols, coeffs, interval, labels, cfg, rungs,
                       rung_passes)
        return chosen

    def check(self, best, u_cols, coeffs, interval, labels, cfg, rungs,
              rung_passes):
        scheme, n = self.design[0], self.design[1]
        where = f"{self.design} width {interval.width:.6g}"
        self.searches[scheme, n > 64] += 1
        full = self.kernel(u_cols, coeffs, interval, cfg,
                           cfg.points_for(u_cols.shape[0]))
        exhaustive = self.codebooks._argmax_with_ties(full)
        if best != exhaustive:
            self.misses.append(f"{where}: screened {best}, "
                               f"exhaustive {exhaustive}")
        spread = 0.0 if labels is None else np.max(np.abs(full - full[labels]))
        if spread > CLASS_TOL:
            self.misses.append(f"{where}: a class spreads over {spread:.3g}")
        index = {col.tobytes(): j for j, col in enumerate(coeffs.T)}
        for d, (scored, (v, v2)) in zip(rungs, rung_passes):
            err = np.abs(v - full[[index[col.tobytes()] for col in scored.T]])
            est = np.abs(v - v2)
            row = self.audit[scheme, d]
            row[0] += v.size
            row[1] += int(np.count_nonzero(err > 2.0 * est))
            row[2] = max(row[2], float(np.max(err[est > 0] / est[est > 0],
                                              initial=0.0)))
            row[3] += int(np.count_nonzero((est == 0) & (err > 0)))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from mmwcodebook import GdpConfig, build_codebook, codebooks, db_to_linear

    checker = Checker(codebooks)
    start = time.process_time()
    codebooks._best_candidates = checker
    try:
        for design in designs():
            checker.design = design
            scheme, n, m_rf, grid, gamma_db = design
            build_codebook(scheme, n, m_rf, grid,
                           GdpConfig(gamma_per=db_to_linear(gamma_db)))
    finally:
        codebooks._best_candidates = checker.run
    for miss in checker.misses:
        print(f"MISS {miss}")
    for scheme in ("ps-dft", "bmw-ms-lcs"):
        for large in (False, True):
            if (scheme, large) in checker.searches:
                print(f"{scheme} N {'>' if large else '<='} 64: "
                      f"{checker.searches[scheme, large]} searches")
    print("rung audit: scores with |v - full| > 2|v - v2|; worst "
          "|v - full| / |v - v2|; scores with v == v2 and an error")
    for (scheme, d), (scores, beyond, worst, zero) in checker.audit.items():
        print(f"  {scheme} 1/{d}: {beyond} of {scores} "
              f"({100.0 * beyond / scores:.1f}%); worst {worst:.3g}; "
              f"{zero} with v == v2")
    print(f"{sum(checker.searches.values())} searches, "
          f"{len(checker.misses)} miss(es), "
          f"{time.process_time() - start:.0f} s CPU")
    return int(bool(checker.misses))


if __name__ == "__main__":
    sys.exit(main())
