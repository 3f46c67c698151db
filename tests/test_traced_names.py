"""Every ``cswarn`` name the benchmark's tracer looks up by string is a name
the tracer actually wraps. A renamed function would otherwise leave its
per-layer metric reading 0 while the smoke run still passes."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
DOTTED = re.compile(r"[a-z]+(\.[A-Za-z_]\w*)+")


def constant(tree: ast.Module, name: str):
    """The literal value of a module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def traced_names(tree: ast.Module) -> set[str]:
    """Quoted ``module.name`` strings of the tracer, minus the metric keys
    and the input file names it matches against."""
    quoted = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and DOTTED.fullmatch(node.value)
    }
    return quoted - set(constant(tree, "LAYER_METRICS")) - set(constant(tree, "FUSE_INPUTS"))


def is_wrapped(name: str, modules: set[str]) -> bool:
    """The tracer wraps public functions of its modules by their defining
    module, and the ``FusionEngine`` methods it lists by class."""
    short, *path = name.split(".")
    if short not in modules:
        return False
    module = importlib.import_module(f"cswarn.{short}")
    if len(path) == 1:
        fn = getattr(module, path[0], None)
        return (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not path[0].startswith("_"))
    cls_name, meth = path
    cls = getattr(module, cls_name, None)
    return inspect.isclass(cls) and cls.__module__ == module.__name__ and meth in vars(cls)


def test_traced_names_resolve_in_cswarn():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    modules = set(constant(tree, "MODULES"))
    names = traced_names(tree)
    assert {"convection.label_array", "fusion.FusionEngine.run_epoch", "cli.main"} <= names
    assert sorted(n for n in names if not is_wrapped(n, modules)) == []
