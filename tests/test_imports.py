"""Imports: scipy.linalg loads at the first factorization, not with symcs,
every name a module lists in ``__all__`` is defined there, and every private
module-level name is used somewhere in the package.

Each scipy case runs in a fresh interpreter with the package's source
directory on ``PYTHONPATH``, so no module that an earlier test imported can
hide a module-level ``scipy`` import.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import symcs

# argv[1] is "import" and a module name, or a symcs command line for cli.main;
# prints the exit code and whether scipy.linalg was loaded
_PROBE = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1] == "import":
        __import__(sys.argv[2])
        code = 0
    else:
        from symcs.cli import main
        code = main(sys.argv[1:])
print(code, "scipy.linalg" in sys.modules)
"""


def _probe(*argv):
    src = str(Path(symcs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded = done.stdout.split()
    return int(code), loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        ["import", "symcs"],
        ["import", "symcs.cli"],
        ["rip-scan", "-n", "6", "-N", "12", "--order", "2", "--seed", "0"],
        ["check-tails", "-N", "16", "-n", "8", "--eps", "0.5", "--trials", "50",
         "--seed", "1"],
        ["check-lemma21", "-N", "4", "-n", "4", "--alpha", "axis"],
        ["jl-size", "--eps", "0.5", "--beta", "1", "--points", "100"],
        ["gen-matrix", "--ensemble", "gaussian", "-n", "3", "-N", "5", "--seed", "1"],
        *(pytest.param(["gen-matrix", "--ensemble", name, "-n", "3", "-N", "5", "--seed", "1"],
                       id=f"gen-matrix {name}") for name in ("toeplitz", "circulant")),
    ],
    ids=lambda argv: " ".join(argv[:2]) if argv[0] == "import" else argv[0],
)
def test_commands_that_solve_nothing_leave_scipy_linalg_unloaded(argv):
    assert _probe(*argv) == (0, False)


def test_solves_load_scipy_linalg(tmp_path):
    spec = {"N": 16, "axis": "k", "axisValues": [2], "fixed": {"n": 8},
            "trials": 1, "ensembleList": ["partial-symmetric-bernoulli"],
            "masterSeed": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert _probe("sweep", "--spec", str(spec_path)) == (0, True)
    assert _probe("image-demo", "--fixture", "sparse32", "-n", "600", "--seed", "1") == (0, True)


# __main__ runs the command line when imported
_MODULES = [f"symcs.{info.name}" for info in pkgutil.iter_modules(symcs.__path__)
            if info.name != "__main__"]


@pytest.mark.parametrize("name", ["symcs", *_MODULES])
def test_every_name_in_all_is_defined(name):
    # a name moved out of a module but left in its __all__ fails here
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_private_module_level_name_is_used():
    # a helper left behind when its last caller is deleted fails here; only
    # code counts, so a docstring or comment that names it does not keep it
    defined, used = set(), set()
    for path in Path(symcs.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined |= {(path.stem, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted((m, n) for m, n in defined if n not in used) == []
