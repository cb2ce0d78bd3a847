"""No library code exists only for tests: every public function of
``veritas.nn`` and of ``veritas.errors`` is used by another module of the
package."""

import ast
import inspect
from pathlib import Path

from veritas import errors, nn

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "veritas"

# Public nn functions no library path calls, each kept for a stated reason.
EXEMPT = {
    # The benchmark's tracer (perfbench/spans.py TARGETS) wraps these three
    # by name, and criterion 1 differentiates them as checked single-op references.
    "dense_forward",
    "softmax_xent",
    "sampled_xent",
}


def _names_used(path: Path, module: str) -> set[str]:
    """Names a package module takes from ``module``: ``from .module import x`` and ``module.x``."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            used.add(node.attr)
    return used


def _unused_public_functions(module) -> set[str]:
    name = module.__name__.rsplit(".", 1)[-1]
    public = {
        fn_name
        for fn_name, fn in inspect.getmembers(module, inspect.isfunction)
        if not fn_name.startswith("_") and fn.__module__ == module.__name__
    }
    assert public
    used = set().union(*(_names_used(p, name) for p in PACKAGE.glob("*.py") if p.name != f"{name}.py"))
    return public - used


def test_every_public_nn_function_has_a_library_caller():
    unused = _unused_public_functions(nn)
    assert sorted(unused - EXEMPT) == []
    # An exemption that gained a caller or left nn is stale.
    assert sorted(EXEMPT - unused) == []


def test_every_public_errors_function_has_a_library_caller():
    assert sorted(_unused_public_functions(errors)) == []
