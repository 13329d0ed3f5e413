"""Workload definitions shared by the launcher and the measurement worker.

Why each workload exists is stated in BENCHMARK.json and NOTES.md.

Stdlib only: the launcher imports this module without importing numpy, so
that the BLAS thread count can be fixed in the environment of every child
before numpy loads.

Every workload runs the paper's pipeline, design then search, with a
different share of time in each phase:

* `design` lists the codebooks designed inside each timed pass through
  `experiments.cmd_design` (the `mmwcodebook design --out` entry point),
  followed by `cmd_beampattern` on the stored file when `beampattern` is
  set.  The search phase then loads those files with `storage.deserialize`.
* `sweep` codebooks that are not designed in the pass are built once with
  `codebooks.build_codebook` as set-up, exactly as `cmd_simulate` does
  before its sweep.
* The search phase is `simulate.run_monte_carlo` over the default 7-point
  SNR grid followed by `experiments.write_csv`, run `repeats` times per
  pass so that a pass dominated by design still yields several sweep
  samples.
* `setup_samples` fresh interpreters measure set-up per run: the measuring
  worker plus set-up-only probes.  A set-up of the design workloads is only
  the import (about 0.25 s) and one of mc-small adds the N=32 builds (0.1
  s), so they take many.  mc-large takes few because each of its set-ups
  builds the N=256 ps-dft codebook (about 5 s).
"""

from __future__ import annotations

# (scheme, n_antennas, m_rf); design settings are the CLI defaults
# grid_size 64 and gamma_per 0 dB throughout
GRID_SIZE = 64
GAMMA_PER_DB = 0.0

# the default `simulate` SNR grid, pinned here so that the benchmark's
# inputs do not follow a change of the program's defaults
SNR_DB = (-40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0)
L_S = 32

# Simulation seeds repeat with period SEED_PERIOD: goldens for every
# simulate CSV were recorded at these seeds, so every output of every run is
# checked against a pinned hash.
SEED_PERIOD = 16

WORKLOADS = {
    "lcs-design": {
        "design": [("bmw-ms-lcs", 64, 2), ("bmw-ms-lcs", 64, 4)],
        "beampattern": False,
        "sweep": {"codebooks": [("bmw-ms-lcs", 64, 2), ("bmw-ms-lcs", 64, 4)],
                  "l_paths": 1, "workers": 1, "trials": 200, "repeats": 12},
        "setup_samples": 11,
    },
    "wide-design": {
        "design": [("ps-dft", 256, 2), ("bmw-ms-cf", 256, 2)],
        "beampattern": True,
        "sweep": {"codebooks": [("ps-dft", 256, 2), ("bmw-ms-cf", 256, 2)],
                  "l_paths": 1, "workers": 1, "trials": 60, "repeats": 10},
        "setup_samples": 11,
    },
    "mc-small": {
        "design": [],
        "beampattern": False,
        "sweep": {"codebooks": [("bmw-ms-cf", 32, 2), ("ps-dft", 32, 2)],
                  "l_paths": 1, "workers": 1, "trials": 300, "repeats": 1},
        "setup_samples": 11,
    },
    "mc-large": {
        "design": [],
        "beampattern": False,
        "sweep": {"codebooks": [("bmw-ms-cf", 256, 2), ("ps-dft", 256, 2)],
                  "l_paths": 3, "workers": "nproc", "trials": 120,
                  "repeats": 1},
        "setup_samples": 3,
    },
}


def sweep_workers(workload: dict, nproc: int) -> int:
    workers = workload["sweep"]["workers"]
    return nproc if workers == "nproc" else workers


def searches_per_sweep(workload: dict) -> int:
    """Hierarchical searches in one sweep: trials x SNRs x schemes."""
    sweep = workload["sweep"]
    return sweep["trials"] * len(SNR_DB) * len(sweep["codebooks"])


def codebook_name(spec) -> str:
    scheme, n, m_rf = spec
    return f"{scheme}/n{n}/m{m_rf}"
