"""The declared surface exists: every name in a module's __all__, and every
console script that pyproject.toml declares."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import direach

MODULES = ["direach"] + [f"direach.{m.name}" for m in pkgutil.iter_modules(direach.__path__)]
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_declared_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_only_interval_imports_fractions():
    """Directed rounding lives in interval: no other module does exact
    rational arithmetic of its own."""
    importers = set()
    for path in Path(direach.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names):
                importers.add(path.name)
    assert importers == {"interval.py"}
