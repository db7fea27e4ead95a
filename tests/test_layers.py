"""Layer boundaries: the exact layer imports no numerics, statically and
at run time; the numerical layers load no scipy at import time and no
``scipy.linalg``; and the benchmark's imports from the library exist."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import subriemann

EXACT_MODULES = ["polynomials", "fields", "nsw", "automorph", "fixtures"]
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


EXACT_PROBE = f"""
import importlib
import sys
for module in {EXACT_MODULES!r}:
    importlib.import_module("subriemann." + module)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
assert not loaded, f"the exact modules load {{loaded[:5]}} ({{len(loaded)}} in all)"
"""


def _run_probe(code: str):
    env = dict(os.environ, PYTHONPATH=str(Path(subriemann.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exact_layer_loads_no_numerics():
    """Importing the exact modules and ``fixtures`` loads no numpy or scipy
    module, so the package root and whatever they import stay off the
    numerical layers at run time, not only in each file's import lines."""
    _run_probe(EXACT_PROBE)


SCIPY_PROBE = """
import sys
from subriemann import fixtures as fx
from subriemann.lattice import Lattice
from subriemann.metric import distance_field
from subriemann.sobolev import minimize_quotient
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"importing the numerical modules loads {loaded}"
system = fx.grushin()
# 127 x 33 unknowns, above the 2-D direct-solve size: the solve builds one
# Galerkin level and the block-tridiagonal solve of the coarsest
dom = Lattice([(-4, 4), (-2.125, 2.125)], [0.0625, 0.125])
minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=3, seed=0)
assert len(dom.horizontal_operator(system).preconditioner.levels) == 1
distance_field(system, [0, 0], Lattice([(-1, 1), (-1, 1)], 0.25, tau=0.5), seed=0)
assert "scipy.linalg" not in sys.modules, "a solve or distance field loads scipy.linalg"
"""


def test_no_scipy_at_import_and_no_scipy_linalg():
    """Importing the numerical modules (``lattice``, ``metric``,
    ``sobolev``) loads no scipy module, and a small p = 2
    ``minimize_quotient`` (with one multigrid level below the finest) plus
    a ``distance_field`` never load ``scipy.linalg``; ``scipy.sparse``
    and ``scipy.ndimage`` stay function-local imports.  Measured on a
    2-vCPU machine:

    - A module-level scipy import costs set-up time: importing
      ``scipy.linalg`` at the top of ``sobolev.py`` put the benchmark's
      ``numeric`` ``setup_s`` at 0.40-0.53 s, against 0.13-0.22 s.
    - ``scipy.linalg`` loads scipy's own OpenBLAS, whose threads compete
      with numpy's under the default thread count.  The R^3 33^3 solve
      took 0.13-0.17 s with numpy alone, 0.47-0.58 s with scipy BLAS in
      the L-BFGS two-loop, and 0.31-0.35 s (against 0.19 s) with one
      LAPACK Cholesky per multigrid build.
    - It also adds 8 MB of resident memory.

    So a faster coarse solve or thread fix in the Sobolev layer has to
    stay within numpy.
    """
    _run_probe(SCIPY_PROBE)



WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _imported(module: str, name: str):
    """What ``from module import name`` binds, or None when it would fail."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def test_benchmark_imports_exist():
    """Every name ``perfbench/workloads.py`` imports from the library exists.

    The benchmark cannot run without them, and a rename in ``src/`` that
    misses one fails every benchmark run but no other test.  Names read
    off an imported module (``fx.grushin``) are checked too.
    """
    tree = ast.parse(WORKLOADS.read_text())
    missing, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "subriemann":
            for alias in node.names:
                value = _imported(node.module, alias.name)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    assert modules, "workloads.py imports no library module"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    assert not missing, f"perfbench/workloads.py uses names the library lacks: {missing}"
