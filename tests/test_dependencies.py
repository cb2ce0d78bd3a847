"""numpy is the only runtime dependency: every import in the package is
from the standard library, from numpy, or package-relative. Within the
package, only ``model`` and ``rejection`` import the network (``nn``)."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "veritas"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path: Path) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    bad = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _absolute_imports(path)
        if module.split(".")[0] not in ALLOWED
    ]
    assert bad == []


def test_numpy_is_the_only_declared_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in project["dependencies"]]
    assert names == ["numpy"]


def _nn_imports(path: Path) -> list[str]:
    """The names of a module's ``from .nn import``, and ``nn`` for ``from . import nn``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "nn":
                found.extend(alias.name for alias in node.names)
            elif node.module is None:
                found.extend(alias.name for alias in node.names if alias.name == "nn")
    return found


def test_only_model_and_rejection_import_the_network():
    importers = {path.name: _nn_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    importers = {name: names for name, names in importers.items() if names}
    assert sorted(importers) == ["model.py", "rejection.py"]
    assert importers["rejection.py"] == ["sigmoid"]
