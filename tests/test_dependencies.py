"""numpy is the only runtime dependency: every import in the package is
from the standard library, from numpy, or package-relative. Within the
package, only ``model`` and ``rejection`` import the network (``nn``), and
only ``errors`` opens a file."""

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


# The calls that open a file: ``open(...)`` and the ``pathlib.Path`` methods that read or write one.
FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _file_calls(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) and func.id == "open" else None
            if isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
                name = f".{func.attr}"
            if name:
                found.append(f"{path.name}:{node.lineno}: {name}(")
    return found


def test_only_errors_opens_a_file():
    """Every other module reads and writes through ``errors.read_text``, ``read_json`` and ``write_text``."""
    found = [call for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py" for call in _file_calls(path)]
    assert found == []
    assert _file_calls(PACKAGE / "errors.py")
    # the network holds no file format
    assert not {"json", "pathlib"} & {module for _, module in _absolute_imports(PACKAGE / "nn.py")}
