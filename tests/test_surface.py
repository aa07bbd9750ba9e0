"""Every public name has a caller outside the test suite.

A name in ``sepcodes.__all__``, and every public function and class
defined in a package module, must be read somewhere in the package
(other than ``__init__.py``, which only re-exports), in the benchmark
under ``bench/``, or in the README's library quick start.  The public
members of those classes (methods, properties, dataclass fields and
``self.<attr>`` assignments) must be read there as attributes.
Definitions, assignments and imports do not count, only loads, so a name
that only tests call fails here: such helpers belong in
``tests/conftest.py``, and a field nothing reads should go.  Likewise
every name a package module imports must be read in that module, so a
helper that moves out leaves no stale import behind.  The names whose one
reader outside the tests is the bench are pinned, so a new one fails.  And
no package file cites a ROADMAP item by number, since the roadmap
renumbers its items.
"""

import ast
import re
from pathlib import Path

import sepcodes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sepcodes.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def loads(source: str) -> tuple[set[str], set[str]]:
    """The names and the attributes the source reads."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def loaded_names(source: str) -> set[str]:
    """Every name and attribute the source reads."""
    names, attributes = loads(source)
    return names | attributes


BENCH = sorted((ROOT / "bench").glob("*.py"))


def reads(paths, *sources: str) -> tuple[set[str], set[str]]:
    """The names and attributes read by the files and the extra sources."""
    names, attributes = set(), set()
    for source in [*sources, *(path.read_text(encoding="utf-8") for path in paths)]:
        more_names, more_attributes = loads(source)
        names |= more_names
        attributes |= more_attributes
    return names, attributes


def outside_reads() -> tuple[set[str], set[str]]:
    """The names and attributes read by the package, the bench and the quick start."""
    return reads([*MODULES, *BENCH], quick_start())


def outside_callers() -> set[str]:
    names, attributes = outside_reads()
    return names | attributes


def public_definitions(source: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The module's public functions and classes, and each public class's
    public members: methods, properties, annotated fields and the
    attributes its methods assign on ``self``."""
    top, members = [], []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        top.append(node.name)
        if not isinstance(node, ast.ClassDef):
            continue
        found = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        found |= {item.target.id for item in node.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        found |= {sub.attr for sub in ast.walk(node)
                  if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                  and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
        members += [(node.name, name) for name in sorted(found) if not name.startswith("_")]
    return top, members


def test_every_export_has_a_caller_outside_tests():
    callers = outside_callers()
    uncalled = [name for name in sepcodes.__all__ if name not in callers]
    assert not uncalled, f"exported but only tests call them: {uncalled}"


def test_every_public_definition_has_a_reader_outside_tests():
    names, attributes = outside_reads()
    callers = names | attributes
    unread = []
    for path in MODULES:
        top, members = public_definitions(path.read_text(encoding="utf-8"))
        unread += [f"{path.stem}.{name}" for name in top if name not in callers]
        unread += [f"{cls}.{name}" for cls, name in members if name not in attributes]
    assert not unread, f"defined but only tests read them: {unread}"


def test_bench_only_names_are_pinned():
    # public names whose one reader outside the tests is the bench: each
    # leaves src/ with its last bench reader, and a new one fails here
    names, attributes = reads(MODULES, quick_start())
    bench_names, bench_attributes = reads(BENCH)
    bench_only = set()
    for path in MODULES:
        top, members = public_definitions(path.read_text(encoding="utf-8"))
        bench_only |= {f"{path.stem}.{name}" for name in top
                       if name not in names | attributes and name in bench_names | bench_attributes}
        bench_only |= {f"{cls}.{name}" for cls, name in members
                       if name not in attributes and name in bench_attributes}
    assert bench_only == {
        "Graph.closed_twins", "Graph.open_twins", "VertexSet.issubset",
        "codes.forced_vertices", "codes.is_admissible", "codes.verify_code_fast",
        "families.ftd_code_path_cycle", "families.random_gnp",
        "hypergraphs.greedy_cover",
    }


def test_scan_reads_loads_only():
    # a definition, an import or an assignment is not a call; a read is
    source = "from m import a\ndef b(): pass\nc = 1\nd.e(f)\n"
    assert loaded_names(source) == {"d", "e", "f"}
    assert loads(source) == ({"d", "f"}, {"e"})
    assert {"x_number", "verify_code"} <= loaded_names(quick_start())


def test_member_scan_finds_methods_fields_and_self_attributes():
    source = ("class A:\n    x: int\n    def m(self):\n        self.y = self._z = 1\n"
              "    def _p(self):\n        pass\nclass _B:\n    def q(self):\n        pass\n"
              "def f():\n    pass\nv = 1\n")
    assert public_definitions(source) == (["A", "f"], [("A", "m"), ("A", "x"), ("A", "y")])


def imported_names(source: str) -> set[str]:
    """The names the source's imports bind, ``from __future__`` aside."""
    bound = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound


def test_every_import_in_the_package_is_read():
    # annotations are loads in the tree, so a name read only there counts
    unread = []
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        stale = imported_names(source) - loads(source)[0]
        unread += [f"{path.stem}.{name}" for name in sorted(stale)]
    assert not unread, f"imported but never read: {unread}"


def test_no_source_file_cites_a_roadmap_item_number():
    # ROADMAP items are renumbered as the roadmap is revised, so a cited
    # number soon points at another item; say what the code waits on instead
    cited = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for m in re.finditer(r"ROADMAP\W+items?\W+\d", text, re.IGNORECASE):
            line = text.count("\n", 0, m.start()) + 1
            cited.append(f"{path.name}:{line}")
    assert not cited, f"ROADMAP item numbers cited at {cited}"


def test_import_scan_binds_what_the_import_binds():
    source = "from __future__ import annotations\nimport a.b\nfrom c import d as e, f\nx: f\n"
    assert imported_names(source) == {"a", "e", "f"}
    assert imported_names(source) - loads(source)[0] == {"a", "e"}
