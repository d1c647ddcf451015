"""One spectral convention: only grid.py touches numpy.fft."""

import ast
from pathlib import Path

import fowler

PACKAGE = Path(fowler.__file__).parent


def modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in paths} >= {"grid.py", "kernel.py", "operator.py"}
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def uses_numpy_fft(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                return True
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.fft") for a in node.names):
                return True
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.fft"):
                return True
            if node.module == "numpy" and any(a.name == "fft" for a in node.names):
                return True
    return False


def test_guard_detects_both_patterns():
    assert uses_numpy_fft(ast.parse("import numpy as np\nnp.fft.rfft(x)\n"))
    assert uses_numpy_fft(ast.parse("from numpy.fft import rfft\n"))
    assert uses_numpy_fft(ast.parse("from numpy import fft\n"))
    assert not uses_numpy_fft(ast.parse("np.linalg.norm(x)\n"))


def test_only_grid_calls_numpy_fft():
    offenders = [name for name, tree in modules() if name != "grid.py" and uses_numpy_fft(tree)]
    assert offenders == []
