"""Per-layer call tracing from outside the package.

`Tracer.install` replaces every public function that the modules
`arraymath`, `metrics`, `codebooks`, `storage`, `simulate` and
`experiments` define with a timing wrapper, under every name the package
looks it up by: the modules import names directly, so
`codebooks.response_matrix` and `arraymath.response_matrix` are two
bindings of one function and both are patched.  A span is recorded per
call; a label's self time is its spans' time minus the time of the wrapped
calls nested inside them.

Counts are taken at the same boundaries:

* `codebooks.candidates`, `codebooks.quad_points`, `codebooks.kernel_macs`
  and `codebooks.kernel_bytes` are computed from the arguments of each
  `lcs_phases` / `build_ps_dft` call with the model in `_kernel_counts`:
  the size of the exhaustive GDP candidate evaluation that call asks for.
* `storage.bytes` is the length of every document serialized or parsed.
* `simulate.rng_streams` counts `numpy.random.default_rng` calls.
* `simulate.pool_blocks` and the computed `simulate.pickled_bytes` are
  taken from `simulate.ProcessPoolExecutor.map`; pool children trace their
  blocks and send their spans back with each block's result.

Spans stay in memory until `write_spans` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler

import numpy as np

from mmwcodebook.metrics import GdpConfig

MODULES = ("arraymath", "metrics", "codebooks", "storage", "simulate",
           "experiments")

# every count the tracer takes; each reads 0 until its boundary is crossed
COUNT_NAMES = ("codebooks.candidates", "codebooks.quad_points",
               "codebooks.kernel_macs", "codebooks.kernel_bytes",
               "storage.bytes", "simulate.rng_streams", "simulate.pool_blocks",
               "simulate.pickled_bytes")

# bytes per complex128 / float64 element
_C16, _F8 = 16, 8

# the tracer whose wrappers are installed; forked pool children reach their
# copy through it to trace the blocks they run
_ACTIVE: "Tracer | None" = None


def _kernel_counts(n: int, columns: int, candidates: int,
                   points: int) -> dict[str, int]:
    """Computed work of one exhaustive GDP candidate evaluation.

    The kernel samples the coverage at `points` quadrature points, builds
    the (points x n) response matrix by a cumulative product, projects it
    on the `columns` basis columns once, then per candidate combines the
    columns (n x columns), forms the gains (points x columns) and
    integrates (points).  Bytes are those of the arrays it creates.
    """
    macs = (points * n + points * n * columns
            + candidates * (n * columns + points * columns + points))
    nbytes = (_C16 * points * n + _C16 * points * columns
              + candidates * (_C16 * n + _C16 * points + 2 * _F8 * points))
    return {"codebooks.candidates": candidates,
            "codebooks.quad_points": points,
            "codebooks.kernel_macs": macs,
            "codebooks.kernel_bytes": nbytes}


def _quad_points(points_per_unit: int, width: float) -> int:
    # sample count of metrics.quadrature_grid
    return math.ceil(points_per_unit * width) + 1


def _lcs_hook(tracer, a, result, self_s):
    plan, interval, grid = a["plan"], a["interval"], a["grid_size"]
    cfg = a["cfg"] or GdpConfig()
    layer = round(math.log(2.0 / interval.width) / math.log(plan.m_rf))
    tracer.self_s[f"codebooks.lcs_phases.k{layer}"] += self_s
    points = _quad_points(cfg.points_for(plan.n_antennas), interval.width)
    tracer.counts.update(_kernel_counts(plan.n_antennas, plan.n_subarrays,
                                        grid * grid, points))


def _ps_dft_hook(tracer, a, result, self_s):
    n, branching, grid = a["n"], a["branching"], a["grid_size"]
    cfg = a["cfg"] or GdpConfig()
    for layer in range(len(result.layers)):
        width = 2.0 / branching ** layer
        points = _quad_points(cfg.points_for(n), width)
        tracer.counts.update(_kernel_counts(n, n // branching ** layer, grid,
                                            points))


def _serialize_hook(tracer, a, result, self_s):
    tracer.counts["storage.bytes"] += len(result)


def _deserialize_hook(tracer, a, result, self_s):
    tracer.counts["storage.bytes"] += len(a["text"])


HOOKS = {
    "codebooks.lcs_phases": _lcs_hook,
    "codebooks.build_ps_dft": _ps_dft_hook,
    "storage.serialize": _serialize_hook,
    "storage.deserialize": _deserialize_hook,
}


class _ChildCall:
    """Runs one pool block under the child's copy of the tracer."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        tracer = _ACTIVE
        if tracer is None:  # a spawned child starts from a fresh import
            tracer = Tracer()
            tracer.install()
        tracer.clear()
        result = self.fn(item)
        return result, tracer.export()


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        # span ids never restart within a process, so (pid, id) is unique
        # across the blocks a pool child runs
        self._next_id = 0
        self.clear()

    # -- recording -------------------------------------------------------
    def clear(self) -> None:
        self.spans: list[tuple] = []  # (pid, id, parent, label, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter(dict.fromkeys(COUNT_NAMES, 0))
        self._stack: list[list] = []  # [span id, seconds in wrapped children]
        self._pid = os.getpid()

    def export(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def merge(self, other: dict) -> None:
        self.spans.extend(other["spans"])
        self.calls.update(other["calls"])
        for label, seconds in other["self_s"].items():
            self.self_s[label] += seconds
        self.counts.update(other["counts"])

    def _wrap(self, label: str, fn):
        hook = HOOKS.get(label)
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent = stack[-1][0] if stack else -1
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                self.spans.append((self._pid, span_id, parent, label,
                                   start, end))
                self.calls[label] += 1
                self.self_s[label] += own
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result, own)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        global _ACTIVE
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"mmwcodebook.{m}") for m in MODULES]
        pkg = importlib.import_module("mmwcodebook")
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for owner in (pkg, *mods):
            for name, obj in list(vars(owner).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(owner, name, wrappers[id(obj)])
        simulate = importlib.import_module("mmwcodebook.simulate")
        channel = simulate.ChannelRealization
        self._patch(channel, "matrix",
                    self._wrap("simulate.channel_matrix", channel.matrix))
        if hasattr(simulate, "ProcessPoolExecutor"):
            self._patch(simulate, "ProcessPoolExecutor", self._pool_class())
        self._patch(np.random, "default_rng", self._rng_counter())
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        _ACTIVE = None

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _rng_counter(self):
        original = np.random.default_rng

        @functools.wraps(original)
        def default_rng(*args, **kwargs):
            self.counts["simulate.rng_streams"] += 1
            return original(*args, **kwargs)

        return default_rng

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def map(self, fn, iterable, timeout=None, chunksize=1):
                items = list(iterable)
                for item in items:
                    tracer.counts["simulate.pool_blocks"] += 1
                    tracer.counts["simulate.pickled_bytes"] += len(
                        ForkingPickler.dumps(item))
                results = super().map(_ChildCall(fn), items,
                                      timeout=timeout, chunksize=chunksize)
                return _merged(results)

        def _merged(results):
            for result, child in results:
                tracer.merge(child)
                yield result

        return TracedPool

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("pid,id,parent,label,start_s,end_s\n")
            for pid, span_id, parent, label, start, end in self.spans:
                fh.write(f"{pid},{span_id},{parent},{label},{start!r},{end!r}\n")
