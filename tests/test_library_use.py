"""No library code exists only for tests: every public function of
``veritas.nn`` is used by another module of the package."""

import ast
import inspect
from pathlib import Path

from veritas import nn

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "veritas"

# Public nn functions no library path calls, each kept for a stated reason.
EXEMPT = {
    # The benchmark's tracer (perfbench/spans.py TARGETS) wraps these three
    # by name, and criterion 1 differentiates them as checked single-op references.
    "dense_forward",
    "softmax_xent",
    "sampled_xent",
}


def _nn_names_used(path: Path) -> set[str]:
    """Names a module takes from nn: ``from .nn import x`` and ``nn.x``."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "nn":
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "nn":
            used.add(node.attr)
    return used


def test_every_public_nn_function_has_a_library_caller():
    public = {
        name
        for name, fn in inspect.getmembers(nn, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == nn.__name__
    }
    assert public
    used = set().union(*(_nn_names_used(p) for p in PACKAGE.glob("*.py") if p.name != "nn.py"))
    assert sorted(public - used - EXEMPT) == []
    # An exemption that gained a caller or left nn is stale.
    assert sorted(EXEMPT - (public - used)) == []
