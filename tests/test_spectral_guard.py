"""One spectral convention: only grid.py touches numpy.fft, and the
full-spectrum reference transforms stay out of the package's computations."""

import ast
from pathlib import Path

import fowler

PACKAGE = Path(fowler.__file__).parent
FULL_SPECTRUM_REFERENCE = {
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "hermitian_defect",
    "spectral_derivative",
}


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


def names_used(tree) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_guard_detects_both_patterns():
    tree = ast.parse("import numpy as np\nfrom .grid import forward_transform\nnp.fft.rfft(x)\n")
    assert uses_numpy_fft(tree)
    assert "forward_transform" in names_used(tree)
    assert not uses_numpy_fft(ast.parse("np.linalg.norm(x)\n"))


def test_only_grid_calls_numpy_fft():
    offenders = [name for name, tree in modules() if name != "grid.py" and uses_numpy_fft(tree)]
    assert offenders == []


def test_full_spectrum_reference_is_not_used_by_the_package():
    offenders = {
        name: sorted(names_used(tree) & FULL_SPECTRUM_REFERENCE)
        for name, tree in modules()
        if name not in ("grid.py", "__init__.py")
    }
    assert {k: v for k, v in offenders.items() if v} == {}
