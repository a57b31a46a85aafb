"""No module under ``src/`` calls BLAS or LAPACK, or imports anything but
the standard library, numpy and resplite itself.

numpy hands matrix products and linear algebra to BLAS, whose threaded
kernels add in an order that follows the thread count, so one such call
would let a run's bits depend on ``OPENBLAS_NUM_THREADS``. Sums are numpy
reductions (``np.add.reduce``, ``.sum()``), which add in one order.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))

#: numpy names that reach BLAS or LAPACK, as attributes or imported names
BLAS_NAMES = {
    "dot", "matmul", "inner", "vdot", "tensordot", "einsum", "cov", "corrcoef", "linalg",
}


def blas_uses(tree: ast.AST) -> list[str]:
    """``line: what`` for every matrix product or BLAS-backed numpy name, in
    line order."""
    found = []
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name in BLAS_NAMES or "linalg" in node.module]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.startswith("numpy.linalg")]
    return found


def test_the_scan_sees_every_form():
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import dot\n"
        "from numpy.linalg import norm\n"
        "a @ b\n"
        "a @= b\n"
        "np.dot(a, b)\n"
        "a.dot(b)\n"
        "np.linalg.norm(a)\n"
        "np.einsum('i,i', a, b)\n"
        "np.cov(a)\n"
        "np.add.reduce(a * b)\n"
    )
    assert blas_uses(ast.parse(source)) == [
        "2: import numpy.linalg", "3: import dot", "4: import norm", "5: @", "6: @",
        "7: .dot", "8: .dot", "9: .linalg", "10: .einsum", "11: .cov",
    ]


@pytest.mark.parametrize("module", MODULES, ids=[str(m.relative_to(SRC)) for m in MODULES])
def test_module_makes_no_blas_call(module):
    assert blas_uses(ast.parse(module.read_text(encoding="utf-8"))) == []


#: the top-level packages that src/ may import besides the standard library
ALLOWED_PACKAGES = {"numpy", "resplite"}


def foreign_imports(tree: ast.AST) -> list[str]:
    """``line: import what`` for every absolute import, at any depth, of a
    package that is neither in the standard library nor allowed, in line
    order.  A relative import stays inside resplite."""
    found = []
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: import {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | ALLOWED_PACKAGES]
    return found


def test_the_import_scan_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path, pandas\n"
        "import numpy.random as npr\n"
        "from scipy.special import expit\n"
        "from . import tabular\n"
        "from .gbdt import fit\n"
        "from resplite.report import read_json\n"
        "def f():\n"
        "    import sklearn\n"
        "    from numpyx import y\n"
    )
    assert foreign_imports(ast.parse(source)) == [
        "2: import pandas", "4: import scipy.special", "9: import sklearn", "10: import numpyx",
    ]


@pytest.mark.parametrize("module", MODULES, ids=[str(m.relative_to(SRC)) for m in MODULES])
def test_module_imports_only_the_standard_library_and_numpy(module):
    assert foreign_imports(ast.parse(module.read_text(encoding="utf-8"))) == []
