"""Every public function and class in the package has a caller in the package.

The audit walks the modules' syntax trees and lists the public top-level
names that no Name or Attribute node in any module references.  Such a name
serves only tests or outside scripts, so it must be deleted or named below
with the reason it stays.  A second audit keeps the tests from importing
names they never use, which would otherwise hold such a name in place.  A
third keeps JSON parsing in the reader module, inputs, so that no loader
grows its own field checks again, and a fourth keeps JSON and CSV rendering
in the writer module, outputs, so that every output file has one format.
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
    "seeding.point_fraction": "the scalar reference point_fractions is tested against",
}


def unreferenced_public_names() -> set[str]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {f"{module}.{name}" for name, module in defined.items() if name not in referenced}


def test_only_the_allowlist_lacks_a_caller_in_the_package():
    assert unreferenced_public_names() == set(KEPT_WITHOUT_CALLER)


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
