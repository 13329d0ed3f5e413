"""Benchmark launcher for mmwcodebook: one workload per run.

    python3 perfbench/run.py --workload lcs-design --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Stdlib only: it fixes the BLAS thread count in the environment,
starts the measuring worker and the set-up probes as fresh interpreters,
checks every output's sha256 against `goldens.json`, prints the metrics
with their units and the environment, writes everything to
`.perfbench-out/`, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (`--trace 0`) or its
per-layer metrics (`--trace 1`).  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    WORKLOADS, searches_per_sweep, sweep_workers,
)

OUT_DIR = ".perfbench-out"
# all children of one run share this budget, so a run ends within 180 s
RUN_BUDGET_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root: Path) -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def child_env(root: Path, blas_threads: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for key in BLAS_ENV:
        env[key] = str(blas_threads)
    return env


def run_worker(args: list[str], env: dict, root: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    res = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                         text=True, timeout=max(1.0, deadline - time.monotonic()))
    if res.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {res.returncode}:"
                           f"\n{res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def end_to_end(report: dict, probes: list[dict], workload: dict,
               clock: str = "cpu") -> dict:
    """End-to-end metrics from the `cpu` (default) or `wall` timings."""
    setups = [report["setup"], *probes]
    key = f"{clock}_s"
    design = report["design"] or [s["build"] for s in setups]
    searches = searches_per_sweep(workload)
    return {
        "setup_s": statistics.median(s["import"][key] + s["build"][key]
                                     for s in setups),
        "design_s": statistics.median(d[key] for d in design),
        "searches_per_s": statistics.median(searches / s[key]
                                            for s in report["sweep"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(trace: dict, names: list[str]) -> dict:
    """Per-layer metrics by name; a function the workload never calls is 0."""
    values = {}
    for name in names:
        if name in trace["counts"]:
            values[name] = trace["counts"][name]
        elif name.endswith(".calls"):
            values[name] = trace["calls"].get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = trace["self_s"].get(name[:-len(".self_s")], 0.0)
        elif name == "simulate.rng_floor_s":
            values[name] = trace["rng_floor_s"]
        elif name == "trace.overhead":
            values[name] = trace["traced_wall_s"] / trace["untraced_wall_s"] - 1.0
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mmwcodebook" / "__init__.py").is_file():
        return fail(f"no package source at {root / 'src' / 'mmwcodebook'}; "
                    "run from the root of a mmwcodebook checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    goldens = json.loads((HERE / "goldens.json").read_text())
    workload = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    workers = sweep_workers(workload, nproc)
    # One BLAS thread per process: the pool runs at most nproc workers, so
    # workers x threads <= nproc, and timings do not depend on how the BLAS
    # library schedules its own threads.
    blas_threads = 1
    env = child_env(root, blas_threads)
    out = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        report = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace), "--out", str(out)],
                            env, root, deadline)
        probes = [] if args.trace else [
            run_worker(["--workload", args.workload, "--setup-only"], env,
                       root, deadline)["setup"]
            for _ in range(workload["setup_samples"] - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    failed = [name for name, digest in report["outputs"]
              if goldens.get(name) != digest]
    attempted = len(report["outputs"])
    env_info = {
        "nproc": nproc, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": report["numpy"],
        "blas": report["blas"], "blas_threads": blas_threads,
        "workers": workers, "commit": commit(root),
        "command": [sys.executable, *sys.argv],
    }
    if args.trace:
        section = spec["per_layer"]
        values = per_layer(report["trace"], [m["name"] for m in section])
    else:
        section = spec["end_to_end"]
        values = end_to_end(report, probes, workload)
        wall = end_to_end(report, probes, workload, clock="wall")
    units = {m["name"]: m["unit"] for m in section}
    missing = sorted(set(units) - set(values))
    if missing:
        return fail(f"metrics not measured: {missing}")
    shown = {name: (values[name], units[name]) for name in units}
    shown["failed_ratio"] = (len(failed) / attempted, "ratio")

    print(f"# env: {json.dumps(env_info)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(f"# workload {args.workload}: {why}")
    for name, (value, unit) in shown.items():
        print(f"{name:44s} {value!r:>24} {unit}")
    if not args.trace:
        print("# the timings above are CPU seconds; in wall seconds: "
              + ", ".join(f"{k} {wall[k]:.6g}" for k in wall if k != "peak_rss_mb"))
    for name in failed:
        print(f"# golden mismatch: {name}")
    if args.trace:
        trace = report["trace"]
        print(f"# traced passes: {trace['traced_passes']}; spans: {report['spans']}")
        if trace["uneven_counts"]:
            print(f"# counts differ between traced passes: {trace['uneven_counts']}")
        for label in sorted(trace["self_s"]):
            print(f"#   {label:48s} calls={trace['calls'].get(label, 0):<9} "
                  f"self_s={trace['self_s'][label]:.6f}")

    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "wall_clock_metrics": None if args.trace else wall,
        "failed_outputs": failed, "report": report, "setup_probes": probes,
    }, indent=1))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
