"""Every public function, class and method in the package has a caller in the package.

The audit walks the modules' syntax trees and lists the public top-level
names, and the public methods and properties of top-level classes, that no
Name or Attribute node in any module references.  Such a name serves only
tests or outside scripts, so it must be deleted or named below with the
reason it stays.  A second audit keeps the tests from importing
names they never use, which would otherwise hold such a name in place.  A
third keeps JSON parsing in the reader module, inputs, so that no loader
grows its own field checks again, and a fourth keeps JSON and CSV rendering
in the writer module, outputs, so that every output file has one format.  A
fifth keeps the collector to one call of backend.measure, so that full_scan
and scan_instruction keep sharing one measuring loop.
"""

import ast
from pathlib import Path

import pmu_prospector

PACKAGE = Path(pmu_prospector.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

KEPT_WITHOUT_CALLER = {
    "collector.control_values": "benchmarks/ reads it until ROADMAP item 7 deletes it",
    "collector.scan_instruction": "benchmarks/ reads it until ROADMAP item 8 deletes it",
    "events.decode_msr_value": "the subject of acceptance criterion 02",
}
METHODS_KEPT_WITHOUT_CALLER = {
    "backend.SimulatedPmu.simulation": "simulation_of reads it by name, through getattr",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_public_names() -> tuple[set[str], set[str]]:
    """The public top-level names, and the public methods as module.Class.name,
    that no module of the package references."""
    functions: dict[str, str] = {}
    methods: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                functions[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                methods.update((f"{path.stem}.{node.name}.{item.name}", item.name)
                               for item in node.body
                               if isinstance(item, DEFINITIONS) and not item.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return ({key for key, name in functions.items() if name not in referenced},
            {key for key, name in methods.items() if name not in referenced})


def test_only_the_allowlist_lacks_a_caller_in_the_package():
    assert unreferenced_public_names() == (set(KEPT_WITHOUT_CALLER),
                                           set(METHODS_KEPT_WITHOUT_CALLER))


def unused_test_imports() -> set[str]:
    unused: set[str] = set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported: set[str] = set()
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused.update(f"{path.name}:{name}" for name in imported - used)
    return unused


def test_every_name_a_test_module_imports_is_used():
    assert unused_test_imports() == set()


def modules_naming(module: str, names: set[str]) -> set[str]:
    """Modules of the package that name one of module's names, by attribute
    (json.load) or by import (from json import load)."""
    found: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                named = {node.attr} if node.value.id == module else set()
            elif isinstance(node, ast.ImportFrom) and node.module == module:
                named = {alias.name for alias in node.names}
            else:
                continue
            if named & names:
                found.add(path.stem)
    return found


def test_only_the_reader_module_parses_json():
    assert modules_naming("json", {"load", "loads"}) == {"inputs"}


def test_only_the_writer_module_renders_output():
    assert modules_naming("json", {"dump", "dumps"}) | modules_naming("csv", {"writer"}) == {
        "outputs"}


def call_sites(module: str, name: str) -> int:
    """Calls in one module of the package of a function called name, by
    name (measure(...)) or by attribute (backend.measure(...))."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return sum(
        isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                 getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def test_the_collector_measures_at_one_site():
    assert call_sites("collector", "measure") == 1
