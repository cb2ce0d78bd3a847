"""No library code exists only for tests: every public function of
``veritas.nn``, ``veritas.errors`` and ``veritas.calibration`` has a library
caller.

A function has one when another module of the package names it, or when a
function or class of its own module that has one calls it. ``__init__.py``
re-exports names for users, so its imports are no callers.
"""

import ast
import inspect
from pathlib import Path

from veritas import calibration, errors, nn

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "veritas"

# Public nn functions no library path calls, each kept for a stated reason.
EXEMPT = {
    # The benchmark's tracer (perfbench/spans.py TARGETS) wraps these three
    # by name, and criterion 1 differentiates them as checked single-op references.
    "dense_forward",
    "softmax_xent",
    "sampled_xent",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(path: Path, module: str) -> set[str]:
    """Names a package module takes from ``module``: ``from .module import x`` and ``module.x``."""
    used = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            used.add(node.attr)
    return used


def _calls_within(path: Path) -> dict[str, set[str]]:
    """For each top-level function and class of a module, the other names its definition reads."""
    return {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id != node.name}
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _unused_public_functions(module) -> set[str]:
    name = module.__name__.rsplit(".", 1)[-1]
    public = {
        fn_name
        for fn_name, fn in inspect.getmembers(module, inspect.isfunction)
        if not fn_name.startswith("_") and fn.__module__ == module.__name__
    }
    assert public
    others = [p for p in PACKAGE.glob("*.py") if p.name not in (f"{name}.py", "__init__.py")]
    reached = set().union(*(_names_used(p, name) for p in others))
    calls = _calls_within(PACKAGE / f"{name}.py")
    todo = list(reached)
    while todo:
        for callee in calls.get(todo.pop(), set()) - reached:
            reached.add(callee)
            todo.append(callee)
    return public - reached


def test_every_public_nn_function_has_a_library_caller():
    unused = _unused_public_functions(nn)
    assert sorted(unused - EXEMPT) == []
    # An exemption that gained a caller or left nn is stale.
    assert sorted(EXEMPT - unused) == []


def test_every_public_errors_function_has_a_library_caller():
    assert sorted(_unused_public_functions(errors)) == []


def test_every_public_calibration_function_has_a_library_caller():
    assert sorted(_unused_public_functions(calibration)) == []
