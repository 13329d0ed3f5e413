"""The runtime depends on numpy and the standard library only."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mmwcodebook"


def _imports(path: Path):
    """(top-level module, level) of every import statement in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], 0
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").partition(".")[0], node.level


def test_modules_import_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [(path.name, name) for path in modules
               for name, level in _imports(path)
               if level == 0 and name != "numpy"
               and name not in sys.stdlib_module_names]
    assert foreign == []


def test_numpy_is_the_only_runtime_dependency():
    # tomllib needs Python 3.11 and the package supports 3.10, so read
    # the one-line list
    text = (ROOT / "pyproject.toml").read_text()
    found = re.findall(r"^dependencies\s*=\s*\[(.*)\]\s*$", text,
                       re.MULTILINE)
    assert found == ['"numpy>=2.0"']
