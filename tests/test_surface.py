"""Every public name has a caller outside the test suite.

A name in ``sepcodes.__all__`` must be read somewhere in the package
(other than ``__init__.py``, which only re-exports), in the benchmark
under ``bench/``, or in the README's library quick start.  Definitions,
assignments and imports do not count, only loads, so a name that only
tests call fails here: such helpers belong in ``tests/conftest.py``.
"""

import ast
from pathlib import Path

import sepcodes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sepcodes.__file__).resolve().parent


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def loaded_names(source: str) -> set[str]:
    """Every name and attribute the source reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def outside_callers() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "bench").glob("*.py")
    names = loaded_names(quick_start())
    for path in files:
        names |= loaded_names(path.read_text(encoding="utf-8"))
    return names


def test_every_export_has_a_caller_outside_tests():
    callers = outside_callers()
    uncalled = [name for name in sepcodes.__all__ if name not in callers]
    assert not uncalled, f"exported but only tests call them: {uncalled}"


def test_scan_reads_loads_only():
    # a definition, an import or an assignment is not a call; a read is
    source = "from m import a\ndef b(): pass\nc = 1\nd.e(f)\n"
    assert loaded_names(source) == {"d", "e", "f"}
    assert {"x_number", "verify_code"} <= loaded_names(quick_start())
