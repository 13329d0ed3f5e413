"""Measurement child: runs one workload in a fresh interpreter.

Started by `run.py`, which sets PYTHONPATH and the BLAS thread count.  Every
phase is timed twice: in CPU seconds of the process and its reaped pool
children (`cpu_s`), which the end-to-end metrics use, and in wall seconds,
which are reported alongside.  Set-up CPU time counts from the start of the
interpreter, so it includes the import of numpy and the package.  The last
line of standard output is one JSON object with the raw samples; the
launcher turns them into metrics and checks the hashes against goldens.

    python3 perfbench/worker.py --workload W --setup-only
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --out DIR
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import mmwcodebook  # noqa: E402
from mmwcodebook import codebooks, experiments, simulate, storage  # noqa: E402
from mmwcodebook.metrics import GdpConfig  # noqa: E402

_T_IMPORTED = time.perf_counter()
_CPU_IMPORTED = time.process_time()

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    GAMMA_PER_DB, GRID_SIZE, L_S, SEED_PERIOD, SNR_DB, WORKLOADS,
    codebook_name, sweep_workers,
)

CSV_HEADER = ["snr_db", "scheme", "success_rate", "rate_bps_hz", "trials",
              "stderr"]

# The worker's RSS (KiB) at every fork.  A forked pool child starts with the
# worker's pages mapped, so its peak RSS counts them again; peak_rss_mb
# subtracts them.
_FORK_RSS_KB = []


def _rss_kb() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


os.register_at_fork(before=lambda: _FORK_RSS_KB.append(_rss_kb()))


def cpu_s() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    Unlike wall time, this leaves out the time the host takes a virtual CPU
    away (steal) and the time spent waiting to run, so it measures the
    program's own work.  run_monte_carlo shuts its process pool down before
    it returns, which reaps the pool children, so a sweep's pool work is
    included.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def clock() -> dict:
    return {"cpu_s": cpu_s(), "wall_s": time.perf_counter()}


def since(start: dict) -> dict:
    """CPU and wall seconds elapsed since `start`, a `clock()` reading."""
    now = clock()
    return {key: now[key] - start[key] for key in start}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_setup(workload: dict) -> dict:
    """Codebooks the sweep needs that no pass designs, built as cmd_simulate does."""
    designed = set(workload["design"])
    return {spec: codebooks.build_codebook(spec[0], spec[1], spec[2],
                                           GRID_SIZE, GdpConfig())
            for spec in workload["sweep"]["codebooks"] if spec not in designed}


def design_phase(workload: dict) -> tuple[dict, list]:
    """`design --out` (and `beampattern`) per designed codebook.

    Files go to the working directory under fixed relative names: the
    beampattern CSV records the codebook path in its config line.  Returns
    the stored files by spec plus (output name, sha256) pairs.
    """
    files, outputs = {}, []
    for spec in workload["design"]:
        scheme, n, m_rf = spec
        tag = codebook_name(spec).replace("/", "-")
        path = Path(f"{tag}.json")
        cfg = experiments.resolve_config("design", overrides={
            "scheme": scheme, "n": n, "m_rf": m_rf, "grid_size": GRID_SIZE,
            "gamma_per_db": GAMMA_PER_DB, "out": str(path)})
        experiments.cmd_design(cfg, echo=lambda *_: None)
        files[spec] = path
        if workload["beampattern"]:
            csv = Path(f"{tag}-beampattern.csv")
            cfg = experiments.resolve_config("beampattern", overrides={
                "codebook": str(path), "out": str(csv)})
            experiments.cmd_beampattern(cfg, echo=lambda *_: None)
            outputs.append((f"beampattern/{codebook_name(spec)}",
                            sha256_file(csv)))
    return files, outputs


def load_designed(files: dict) -> tuple[dict, list]:
    books, outputs = {}, []
    for spec, path in files.items():
        text = path.read_text()
        outputs.append((f"codebook/{codebook_name(spec)}", sha256_text(text)))
        books[spec] = storage.deserialize(text)
    return books, outputs


def sweep_phase(workload: dict, books: dict, sim_seed: int,
                workers: int) -> tuple[dict, list]:
    """run_monte_carlo then write_csv; returns ({cpu_s, wall_s}, outputs)."""
    sweep = workload["sweep"]
    schemes = [(f"{spec[0]}/m{spec[2]}", books[spec], books[spec])
               for spec in sweep["codebooks"]]
    cfg = simulate.SimConfig(l_paths=sweep["l_paths"], l_s=L_S, n0=1.0,
                             papc=True, seed=sim_seed, trials=sweep["trials"])
    csv = Path("simulate.csv")
    start = clock()
    rows = simulate.run_monte_carlo(schemes, list(SNR_DB), cfg, workers=workers)
    experiments.write_csv(csv, CSV_HEADER,
                          [tuple(r[h] for h in CSV_HEADER) for r in rows],
                          f"# perfbench sweep seed={sim_seed}")
    return since(start), [(f"simulate/{workload['name']}/seed{sim_seed}",
                      sha256_file(csv))]


def run_pass(workload: dict, setup_books: dict, sim_seed: int,
             workers: int) -> dict:
    start = clock()
    files, outputs = design_phase(workload)
    design = since(start)
    books, loaded = load_designed(files)
    books.update(setup_books)
    outputs += loaded
    sweeps = []
    for _ in range(workload["sweep"]["repeats"]):
        seconds, swept = sweep_phase(workload, books, sim_seed, workers)
        sweeps.append(seconds)
        outputs += swept
    return {"design": design if workload["design"] else None,
            "sweep": sweeps, "outputs": outputs,
            "wall_s": since(start)["wall_s"]}


def rng_floor_per_call(seed: int, calls: int = 2000, repeats: int = 5) -> float:
    """Median seconds per default_rng([seed, t, si, ci]) construction."""
    per_call = []
    for r in range(repeats):
        start = time.perf_counter()
        for t in range(calls):
            np.random.default_rng([seed, t, r, 1])
        per_call.append((time.perf_counter() - start) / calls)
    return statistics.median(per_call)


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def peak_rss_mb() -> float:
    """Worker's peak RSS plus the largest pool child's growth after fork.

    The growth is the child's peak minus the smallest worker RSS at a fork,
    so pages shared with the worker are counted once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    shared = min(_FORK_RSS_KB, default=0)
    return (own + max(0, child - shared)) / 1024.0


def layer_report(setup_trace: dict, per_run: dict, passes: list,
                 traced: list, sim_seed: int) -> dict:
    """Traced set-up plus one traced pass (the traced passes' mean)."""
    n = len(traced)
    layer = tracing.Tracer()
    layer.merge(setup_trace)
    layer.calls.update({k: v // n for k, v in per_run["calls"].items()})
    layer.counts.update({k: v // n for k, v in per_run["counts"].items()})
    for label, seconds in per_run["self_s"].items():
        layer.self_s[label] += seconds / n
    return {
        "calls": dict(layer.calls), "self_s": dict(layer.self_s),
        "counts": dict(layer.counts),
        "uneven_counts": sorted(
            k for k, v in {**per_run["calls"], **per_run["counts"]}.items()
            if v % n),
        "rng_floor_s": (rng_floor_per_call(sim_seed)
                        * layer.counts["simulate.rng_streams"]),
        "traced_wall_s": statistics.median(p["wall_s"] for p in traced),
        "untraced_wall_s": statistics.median(p["wall_s"] for p in passes),
        "traced_passes": n,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    src = Path.cwd() / "src"
    if Path(mmwcodebook.__file__).resolve().parent != (src / "mmwcodebook").resolve():
        raise SystemExit(f"mmwcodebook imported from {mmwcodebook.__file__}, "
                         f"not from {src}")
    workload = dict(WORKLOADS[args.workload], name=args.workload)
    workers = sweep_workers(workload, os.cpu_count() or 1)
    tracer = tracing.Tracer() if args.trace else None

    build_start = clock()
    if tracer:
        tracer.install()
    setup_books = build_setup(workload)
    if tracer:
        tracer.uninstall()
        setup_trace = tracer.export()
        tracer.clear()
    setup = {"import": {"cpu_s": _CPU_IMPORTED, "wall_s": _T_IMPORTED - _T_START},
             "build": since(build_start)}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out)
    outputs = [(f"codebook/{codebook_name(spec)}", sha256_text(storage.serialize(cb)))
               for spec, cb in setup_books.items()]
    sim_seed = args.seed % SEED_PERIOD
    passes, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        result = run_pass(workload, setup_books, sim_seed, workers)
        passes.append(result)
        outputs += result["outputs"]
        if tracer:
            tracer.install()
            try:
                result = run_pass(workload, setup_books, sim_seed, workers)
            finally:
                tracer.uninstall()
            traced.append(result)
            outputs += result["outputs"]
        if time.perf_counter() >= deadline:
            break

    report = {
        "setup": setup,
        "design": [p["design"] for p in passes if p["design"] is not None],
        "sweep": [s for p in passes for s in p["sweep"]],
        "peak_rss_mb": peak_rss_mb(),
        "outputs": outputs,
        "numpy": np.__version__,
        "blas": blas_name(),
    }
    if tracer:
        report["trace"] = layer_report(setup_trace, tracer.export(), passes,
                                       traced, sim_seed)
        report["spans"] = str(args.out / "spans.csv")
        tracer.merge(setup_trace)
        tracer.write_spans("spans.csv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
