"""Time one `hierarchical_search` in two checkouts, in paired rounds.

    python tools/search_probe.py PARENT CHANGE [--rounds K]

PARENT and CHANGE are the roots of two source checkouts; each is imported
from its `src/`.  Every round starts one fresh interpreter per checkout,
the parent's first in odd rounds and the change's first in even ones,
with one BLAS thread (`OPENBLAS_NUM_THREADS=1` and its kin).  Each
interpreter builds a bmw-ms-cf codebook with m_rf = 2 at N = 32 and at
N = 256, draws one fixed one-path channel for each, and times `CALLS`
searches of that codebook pair (l_s = 32, n0 = 1, p = 1), drawing noise
from a generator seeded afresh before each batch; it reports the best
of `REPEATS` batches as CPU seconds per search.

The searches of both checkouts must return equal `SearchResult`s, call
for call; if they do not, the probe writes nothing and exits 1.  Else it
writes `BENCH_single_search.json` at the root of this repository, with
the median and interquartile range of each checkout's rounds and the
median of the per-round ratios change / parent.  Stdlib and numpy only;
ten rounds take about three minutes of CPU.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (32, 256)
CALLS = 200
REPEATS = 15
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(root: Path) -> dict:
    """Per size: best CPU seconds per search, and a digest of the results
    of one batch."""
    sys.path.insert(0, str(root / "src"))
    from mmwcodebook import (SimConfig, build_codebook, hierarchical_search,
                             sample_channel)

    cfg = SimConfig(l_paths=1, l_s=32, n0=1.0)
    out = {}
    for n in SIZES:
        cb = build_codebook("bmw-ms-cf", n, 2)
        h = sample_channel(1, n, n, np.random.default_rng(n)).matrix()
        best, digest = float("inf"), None
        for _ in range(REPEATS):
            rng = np.random.default_rng(7)
            start = time.process_time()
            results = [hierarchical_search(cb, cb, h, cfg, rng)
                       for _ in range(CALLS)]
            best = min(best, (time.process_time() - start) / CALLS)
            digest = digest or hashlib.sha256(
                repr(results).encode()).hexdigest()
        out[str(n)] = {"cpu_s": best, "results_sha256": digest}
    return out


def run(root: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update((key, "1") for key in BLAS_ENV)
    res = subprocess.run([sys.executable, __file__, "--measure", str(root)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--measure"]:
        # one timed interpreter, started by `run`
        print(json.dumps(measure(Path(argv[1]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {name: [] for name in trees}
    for r in range(args.rounds):
        order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
        for name in order:
            runs[name].append(run(trees[name]))
    sizes = {}
    for n in map(str, SIZES):
        digests = {run[n]["results_sha256"] for name in trees
                   for run in runs[name]}
        if len(digests) != 1:
            print(f"search_probe: N={n}: the checkouts' searches return "
                  f"different results", file=sys.stderr)
            return 1
        ms = {name: [1e3 * run[n]["cpu_s"] for run in runs[name]]
              for name in trees}
        sizes[f"N={n}"] = {
            **{name: quartiles(ms[name]) for name in trees},
            "paired_ratio_change_over_parent": statistics.median(
                c / p for p, c in zip(ms["parent"], ms["change"])),
            "rounds_change_faster": sum(
                c < p for p, c in zip(ms["parent"], ms["change"])),
            "runs_ms": ms,
        }
    report = {
        "command": f"python tools/search_probe.py PARENT CHANGE "
                   f"--rounds {args.rounds}",
        "checkouts": {name: path.name for name, path in trees.items()},
        "search": "hierarchical_search of bmw-ms-cf (m_rf = 2) on both "
                  "sides, one path, l_s = 32, n0 = 1, p = 1, a fixed "
                  "channel per N and noise from default_rng(7) per batch",
        "timing": f"CPU ms per search, best of {REPEATS} batches of "
                  f"{CALLS} calls per interpreter; one interpreter per "
                  f"checkout and round, alternating which runs first",
        "identical_results": True,
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__, "blas_threads": 1},
        "sizes": sizes,
    }
    out = ROOT / "BENCH_single_search.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, row in sizes.items():
        print(f"{name}: parent {row['parent']['median']:.4f} ms, change "
              f"{row['change']['median']:.4f} ms, paired ratio "
              f"{row['paired_ratio_change_over_parent']:.4f}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
