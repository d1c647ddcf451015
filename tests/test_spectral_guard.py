"""Source guards over the package: one spectral convention (only grid.py
touches numpy.fft, and every inverse transform there is n points long), no
cache on a method, which would keep every instance and argument it saw alive
for the whole process, no cache built inside a function body, which would be
a new cache on every call, only the command layer importing the kernel
module, numpy as the only runtime dependency outside the standard
library, and no import of dataclasses, whose classes generate and exec their
methods at every start-up (records are NamedTuple or record.Record classes)."""

import ast
import os
import subprocess
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


def irfft_lengths(tree) -> list[str]:
    """Source text of the length argument of each irfft call, '' where the
    call gives none."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "irfft" in (getattr(node.func, "attr", None),
                                                      getattr(node.func, "id", None)):
            length = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "n"), None)
            found.append("" if length is None else ast.unparse(length))
    return found


def test_guard_detects_irfft_lengths():
    source = ("np.fft.irfft(a, self.grid.n)\nnp.fft.irfft(b, 8 * self.grid.n)\n"
              "np.fft.irfft(c)\nirfft(d, n=m)\nnp.fft.rfft(e, 9)\n")
    assert irfft_lengths(ast.parse(source)) == ["self.grid.n", "8 * self.grid.n", "", "m"]


def test_every_inverse_transform_is_n_points_long():
    # off-grid samples come from shifted n-point copies, never from a longer
    # transform and its plan
    lengths = irfft_lengths(dict(modules())["grid.py"])
    assert lengths and set(lengths) == {"self.grid.n"}


def package_imports(tree) -> set[str]:
    """Names of the package's modules (and of names in them) that tree
    imports, relatively or as fowler.x, without the fowler. prefix."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["fowler", node.module])) if node.level else node.module
            found |= {module} | {f"{module}.{a.name}" for a in node.names}
    return {m.removeprefix("fowler.") for m in found if m.startswith("fowler.")}


def test_guard_detects_module_imports():
    for source in ("from .kernel import grad_kernel_norms\n", "from . import kernel\n",
                   "import fowler.kernel\n", "from fowler.kernel import kernel_field\n",
                   "from fowler import grid, kernel\n", "def f():\n    from .kernel import x\n"):
        assert "kernel" in package_imports(ast.parse(source)), source
    for source in ("from .operator import kernel\n", "from .kernels import x\n",
                   "import kernel\n", "from . import grid\n"):
        assert "kernel" not in package_imports(ast.parse(source)), source


def test_only_the_command_layer_imports_kernel():
    # the stepper and the rest of the package use the pinned constants of
    # evolution, not the kernel's norm fit
    importers = [name for name, tree in modules() if "kernel" in package_imports(tree)]
    assert importers == ["__init__.py", "cli.py"]


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


def imports_module(tree, module: str) -> bool:
    """tree imports module, or a name from it, anywhere (absolute imports)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            return True
    return False


def test_guard_detects_dataclasses_imports():
    for source in ("import dataclasses\n", "from dataclasses import dataclass, field\n",
                   "import math, dataclasses as dc\n",
                   "def f():\n    from dataclasses import replace\n"):
        assert imports_module(ast.parse(source), "dataclasses"), source
    for source in ("from .dataclasses import x\n", "import dataclasses_json\n",
                   "from typing import NamedTuple\n", "from .record import Record\n"):
        assert not imports_module(ast.parse(source), "dataclasses"), source


def test_no_module_imports_dataclasses():
    offenders = [name for name, tree in modules() if imports_module(tree, "dataclasses")]
    assert offenders == []


def test_fresh_import_leaves_dataclasses_unloaded():
    # nothing the package imports at start-up pulls dataclasses in either
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, fowler.cli; print(sorted({'fowler.cli', 'dataclasses'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), check=True)
    assert result.stdout.strip() == "['fowler.cli']"
