"""Record the sha256 of every benchmark output into goldens.json.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_goldens.py

One BLAS thread, as in the benchmark's runs.

Sweeps run with one worker, so the multi-worker `mc-large` runs are
checked against single-worker bytes.  Existing entries are kept; an entry
that differs from the recorded one is an error, not an update.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from worker import (
    build_setup, design_phase, load_designed, sha256_text, storage,
    sweep_phase,
)
from workloads import SEED_PERIOD, WORKLOADS, codebook_name

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def record(name: str) -> list:
    workload = dict(WORKLOADS[name], name=name)
    books = build_setup(workload)
    outputs = [(f"codebook/{codebook_name(spec)}", sha256_text(storage.serialize(cb)))
               for spec, cb in books.items()]
    files, designed = design_phase(workload)
    loaded_books, loaded = load_designed(files)
    books.update(loaded_books)
    outputs += designed + loaded
    for seed in range(SEED_PERIOD):
        outputs += sweep_phase(workload, books, seed, 1)[1]
    return outputs


def main() -> int:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    root = os.getcwd()
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        os.chdir(tmp)
        for name in WORKLOADS:
            for key, digest in record(name):
                if goldens.setdefault(key, digest) != digest:
                    raise SystemExit(f"{key}: {digest} differs from the "
                                     f"recorded {goldens[key]}")
            print(f"recorded {name}", flush=True)
        os.chdir(root)
    GOLDENS.write_text(json.dumps(dict(sorted(goldens.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
