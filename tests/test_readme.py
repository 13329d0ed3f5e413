"""The README's library quick tour runs as printed."""

import re
from pathlib import Path

import pytest


def test_quick_tour_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    tour = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, "README.md quick tour", "exec"), scope)
    # the figures its comments state
    assert scope["score"] == pytest.approx(0.979, abs=5e-4)
    assert scope["res"].overhead == 5 * 32
    assert len(scope["rows"]) == 2
