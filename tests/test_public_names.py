"""Every gridtopo name the benchmark and the demos import must resolve.

The files are parsed, not run, so the check is cheap and a removed or
renamed export fails here instead of inside a benchmark run or a demo.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _gridtopo_imports(path):
    """(line, module, name) for each gridtopo import in a script; name None for `import m`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "gridtopo":
            out += [(node.lineno, node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(node.lineno, alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "gridtopo"]
    return out


def _resolves(module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_scripts_are_found():
    names = {p.name for p in SCRIPTS}
    assert "workloads.py" in names and "recover_bus33.py" in names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_gridtopo_import_resolves(path):
    missing = [f"line {line}: from {module} import {name}"
               for line, module, name in _gridtopo_imports(path)
               if not _resolves(module, name)]
    assert not missing, f"{path.name}: {missing}"
