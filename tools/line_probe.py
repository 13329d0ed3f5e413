"""List the lines of `src/mmwcodebook` that the tests and the CLI never run.

    python tools/line_probe.py [pytest arguments ...]

A `sys.settrace` probe, limited to frames whose code lives under
`src/mmwcodebook`, records every line that runs during `pytest.main` (on
`tests/` unless arguments are given) and during one `cli.main` call of
each command with its defaults (`beampattern` reads the file that
`design` wrote).  Each module is compiled from its source, and every line
that a code object's `co_lines()` maps an instruction to, and the probe
never saw, is printed per file as ranges.  It needs the stdlib and
pytest only, and takes a few minutes, since every traced line costs a
Python call.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mmwcodebook"


def code_lines(path: Path) -> set[int]:
    """Every line an instruction of `path`'s code objects maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as `a, b-c, ...`."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class LineProbe:
    """Records (file, line) of every line run in a frame under `prefix`."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
            return self._local
        return None

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def cli_calls(out_dir: Path) -> list[list[str]]:
    """One argv per CLI command, each with its defaults and an output file."""
    book = str(out_dir / "cb.txt")
    calls = [["design", "--out", book], ["beampattern", "--codebook", book]]
    calls += [[command] for command in ("gdp", "cdf", "simulate",
                                        "linkbudget")]
    for argv in calls[1:]:
        argv += ["--out", str(out_dir / f"{argv[0]}.csv")]
    return calls


def main(argv=None) -> int:
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or [
        str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"]
    sys.path.insert(0, str(ROOT / "src"))
    probe = LineProbe(str(PACKAGE) + "/")
    with probe.tracing():
        status = pytest.main(args)
        from mmwcodebook import cli
        with tempfile.TemporaryDirectory() as tmp:
            for call in cli_calls(Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(call)
                print(f"cli {call[0]}: exit {code}")
    print(f"pytest exit status: {int(status)}")
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = {line for name, line in probe.hits if name == str(path)}
        unreached = code_lines(path) - hit
        missed += len(unreached)
        if unreached:
            print(f"{path.relative_to(ROOT)}: {ranges(unreached)}")
    print(f"{missed} unreached line(s)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
