"""Every gridtopo name the benchmark, the demos and the README import must resolve.

The files (and the README's python blocks) are parsed, not run, so the
check is cheap and a removed or renamed export fails here instead of
inside a benchmark run, a demo or a reader's copy of the quick start.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _readme_blocks():
    """(first line, source) of each python code block in the README."""
    lines = README.read_text().splitlines()
    blocks, start = [], None
    for n, line in enumerate(lines, 1):
        if start is None and line.strip() == "```python":
            start = n + 1
        elif start is not None and line.strip() == "```":
            blocks.append((start, "\n".join(lines[start - 1:n - 1])))
            start = None
    return blocks


def _gridtopo_imports(source, filename):
    """(line, module, name) for each gridtopo import in source; name None for `import m`."""
    out = []
    for node in ast.walk(ast.parse(source, filename=filename)):
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
               for line, module, name in _gridtopo_imports(path.read_text(), str(path))
               if not _resolves(module, name)]
    assert not missing, f"{path.name}: {missing}"


def test_readme_blocks_import_gridtopo():
    assert any(_gridtopo_imports(src, "README.md") for _, src in _readme_blocks())


@pytest.mark.parametrize("start, source", [pytest.param(start, source, id=f"README.md:{start}")
                                           for start, source in _readme_blocks()])
def test_every_readme_gridtopo_import_resolves(start, source):
    missing = [f"README.md line {start + line - 1}: from {module} import {name}"
               for line, module, name in _gridtopo_imports(source, "README.md")
               if not _resolves(module, name)]
    assert not missing, missing


def test_only_grid_model_imports_csv():
    """Opening, writing and line-numbering CSV files stays in grid_model."""
    importers = []
    for path in sorted((ROOT / "src" / "gridtopo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)) \
                    or (isinstance(node, ast.ImportFrom) and node.module == "csv"):
                importers.append(path.name)
    assert importers == ["grid_model.py"]
