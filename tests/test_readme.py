"""The README's library quick tour runs as printed, and its ladder table
states the screening ladders the phase searches run."""

import re
from pathlib import Path

import pytest

from mmwcodebook import codebooks

README = Path(__file__).parents[1] / "README.md"


def test_quick_tour_runs():
    text = README.read_text()
    tour = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, "README.md quick tour", "exec"), scope)
    # the figures its comments state
    assert scope["score"] == pytest.approx(0.979, abs=5e-4)
    assert scope["res"].overhead == 5 * 32
    assert len(scope["rows"]) == 2


def test_ladder_table_states_the_rungs():
    # each row reads `| scheme | 1/d (with 1/2d nested), then ... |`
    rows = dict(re.findall(r"^\| `(bmw-ms-lcs|ps-dft)` +\| (1/.*?) \|$",
                           README.read_text(), re.MULTILINE))
    stated = {}
    for scheme, text in rows.items():
        rungs = re.findall(r"1/(\d+) \(with 1/(\d+) nested\)", text)
        assert text == ", then ".join(f"1/{d} (with 1/{h} nested)"
                                      for d, h in rungs)
        assert all(int(h) == 2 * int(d) for d, h in rungs)
        stated[scheme] = tuple(int(d) for d, _ in rungs)
    assert stated == {"bmw-ms-lcs": codebooks._LCS_RUNGS,
                      "ps-dft": codebooks._PS_DFT_RUNGS}
