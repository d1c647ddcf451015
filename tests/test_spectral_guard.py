"""Source guards over the package: one spectral convention (only grid.py
touches numpy.fft), no cache on a method, which would keep every instance
and argument it saw alive for the whole process, no cache built inside a
function body, which would be a new cache on every call, and numpy as the
only runtime dependency outside the standard library."""

import ast
import sys
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


def is_cache(expr) -> bool:
    """expr is functools.lru_cache or cache, bare or called."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name in ("lru_cache", "cache")


def cached_methods(tree) -> list[str]:
    """Class.method names decorated with functools.lru_cache or cache."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [f"{cls.name}.{fn.name}" for dec in fn.decorator_list if is_cache(dec)]
    return found


def test_guard_detects_cached_methods():
    source = (
        "class A:\n"
        "    @functools.lru_cache(maxsize=None)\n    def f(self, x): ...\n"
        "    @lru_cache\n    def g(self, x): ...\n"
        "    @functools.cache\n    def h(self, x): ...\n"
        "    @property\n    def p(self): ...\n"
        "@functools.lru_cache(maxsize=1)\ndef free(x): ...\n"
    )
    assert cached_methods(ast.parse(source)) == ["A.f", "A.g", "A.h"]


def test_no_method_is_cached():
    offenders = [f"{name}: {m}" for name, tree in modules() for m in cached_methods(tree)]
    assert offenders == []


def caches_built_per_call(tree) -> list[str]:
    """Functions whose body calls functools.lru_cache or cache, directly or
    as the decorator of a nested function."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = [node for stmt in fn.body for node in ast.walk(stmt)]
        if any(isinstance(node, ast.Call) and is_cache(node.func)
               or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(map(is_cache, node.decorator_list)) for node in inner):
            found.append(fn.name)
    return found


def test_guard_detects_caches_built_per_call():
    source = (
        "@functools.lru_cache(maxsize=16)\ndef table(n): ...\n"
        "def wrap(fn):\n    return functools.lru_cache(maxsize=1)(fn)\n"
        "def bare(fn):\n    return cache(fn)\n"
        "def nested():\n    @functools.cache\n    def g(x): ...\n    return g\n"
        "def plain(x):\n    return cached(x)\n"
        "class A:\n    @functools.cache\n    def h(self): ...\n"
    )
    assert caches_built_per_call(ast.parse(source)) == ["wrap", "bare", "nested"]


def test_no_cache_is_built_per_call():
    offenders = [f"{name}: {f}" for name, tree in modules() for f in caches_built_per_call(tree)]
    assert offenders == []


def third_party_imports(tree) -> list[str]:
    """Absolute imports of modules that are neither numpy nor part of the
    standard library (relative imports are the package's own)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    return found


def test_guard_detects_third_party_imports():
    source = (
        "from __future__ import annotations\nimport math, scipy\n"
        "import numpy as np\nfrom numpy.fft import rfft\n"
        "from scipy.special import gamma\nfrom . import grid\nfrom .grid import Grid\n"
        "def f():\n    import matplotlib.pyplot as plt\n"
    )
    assert third_party_imports(ast.parse(source)) == [
        "scipy", "scipy.special", "matplotlib.pyplot",
    ]


def test_runtime_dependency_is_numpy_only():
    offenders = [f"{name}: {m}" for name, tree in modules() for m in third_party_imports(tree)]
    assert offenders == []
