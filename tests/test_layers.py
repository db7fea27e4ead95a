"""Layer boundaries: the exact layer imports no numerics."""

import ast
from pathlib import Path

import pytest

import subriemann

EXACT_MODULES = ["polynomials", "fields", "nsw", "automorph"]
FORBIDDEN = {"numpy", "scipy", "lattice", "metric", "sobolev"}


def imported_modules(path: Path) -> set[str]:
    """Every module name an import statement anywhere in the file refers to."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            # `from . import metric` names the module in the alias list
            names.update(f"{base}.{alias.name}" if base else alias.name
                         for alias in node.names)
    return names


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_layer_imports_no_numerics(module):
    path = Path(subriemann.__file__).parent / f"{module}.py"
    for name in imported_modules(path):
        parts = set(name.split("."))
        assert not parts & FORBIDDEN, f"{module} imports {name}"
