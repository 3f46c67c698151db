"""Every public module-level function and class in ``cswarn``, and every
public method and property of a public class, has a caller outside the
unit tests: the package itself, the benchmark, or the acceptance checks.
A public name that only unit tests use is dead API."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cswarn"
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]


def public_definitions(path: Path) -> list[str]:
    """Public module-level functions and classes, and ``Class.method`` for
    the public methods and properties of each public class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return names


def referenced_names(paths) -> set[str]:
    """Names used as a value, an attribute or an import; a definition is none of these."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_caller_outside_unit_tests():
    assert all(path.is_file() for path in CALLERS)
    used = referenced_names(CALLERS)
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_definitions(path)
        if name.rpartition(".")[2] not in used
    ]
    assert unused == []
