"""Source hygiene of the package and its tests, read with ``ast``."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import carelens

PACKAGE = Path(carelens.__file__).parent
TESTS = Path(__file__).parent
PYPROJECT = TESTS.parent / "pyproject.toml"
# numpy is the one runtime dependency; the package may also import itself
RUNTIME_IMPORTS = sys.stdlib_module_names | {"numpy", "carelens"}


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing else in ``source``
    reads, ``__all__`` included."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import json\nimport numpy as np\nfrom os import path as p, sep\n"
              "from .data import Dataset\n"
              "__all__ = ['Dataset']\n"
              "def f(x: np.ndarray) -> str:\n    return p.join(x)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: sep"]


def foreign_imports(source: str) -> list[str]:
    """Modules that ``source`` imports anywhere, function bodies included,
    from outside the standard library, numpy and the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue        # a relative import stays inside the package
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in RUNTIME_IMPORTS]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_import_check_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import json, scipy.stats\nimport numpy.linalg as la\n"
              "from os.path import join\nfrom . import data\n"
              "from .model import fit\nfrom carelens.metrics import auroc\n"
              "from hypothesis import given\n"
              "def f():\n    import pandas as pd\n    return pd\n")
    assert foreign_imports(source) == ["line 2: scipy.stats", "line 8: hypothesis",
                                       "line 10: pandas"]


def _bindings(tree: ast.Module, module: str) -> tuple[dict[str, str], set[str]]:
    """What each name of ``module`` stands for, as a dotted path: a package
    path starts with a dot (``ad`` -> ``.autodiff``, a top-level ``f`` ->
    ``.<module>.f``), anything else is absolute (``np`` -> ``numpy``).  Also
    the names that stand for whole modules."""
    paths = {node.name: f".{module}.{node.name}" for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                paths[name] = alias.name if alias.asname else name
                modules.add(name)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            prefix = ("." if node.level else "") + (f"{node.module}." if node.module else "")
            for alias in node.names:
                name = alias.asname or alias.name
                paths[name] = prefix + alias.name
                if node.module is None:         # from . import autodiff as ad
                    modules.add(name)
    return paths, modules


def _path(node: ast.expr, paths: dict[str, str]) -> str | None:
    """The dotted path of a name or an attribute chain; a name bound by no
    import and no top-level ``def`` or ``class`` is taken as a builtin."""
    if isinstance(node, ast.Name):
        return paths.get(node.id, f"builtins.{node.id}")
    if isinstance(node, ast.Attribute):
        head = _path(node.value, paths)
        return head and f"{head}.{node.attr}"
    return None


def uncalled(sources: dict[str, str], entry_points=()) -> list[str]:
    """Top-level functions and methods of a package that nothing in it
    refers to, as ``module.function`` or ``module.Class.method``.

    ``sources`` maps each module name to its source; the ``__all__`` of
    ``__init__`` and ``entry_points`` (``module.function``) are exempt, and
    so are dunder methods and methods that override an attribute of a base
    class (a base from outside the package is imported to list its
    attributes).  A function counts as referred to when a name or attribute
    resolves to it through the package's imports, so ``np.exp`` never
    refers to a package ``exp``; a method, when any attribute of its name
    is read from something that is not a module.
    """
    trees = {m: ast.parse(src) for m, src in sources.items()}
    bindings = {m: _bindings(tree, m) for m, tree in trees.items()}
    refs, attrs = set(), set()
    for m, tree in trees.items():
        paths, modules = bindings[m]
        for node in ast.walk(tree):
            if not (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)):
                continue
            refs.add(_path(node, paths))
            if isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in modules):
                attrs.add(node.attr)
    exempt = {f".{name}" for name in entry_points}
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exempt |= {bindings["__init__"][0].get(n) for n in ast.literal_eval(node.value)}
    classes = {f".{m}.{node.name}": (m, node) for m, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}

    def inherited(cls: ast.ClassDef, module: str) -> set[str]:
        names = set()
        for base in cls.bases:
            path = _path(base, bindings[module][0])
            if path in classes:
                m, node = classes[path]
                names |= {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                names |= inherited(node, m)
            elif path and not path.startswith("."):
                owner, _, name = path.rpartition(".")
                names |= set(dir(getattr(importlib.import_module(owner), name)))
        return names

    found = []
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                path = f".{m}.{node.name}"
                if path not in refs and path not in exempt:
                    found.append(path[1:])
            elif isinstance(node, ast.ClassDef):
                skip = inherited(node, m)
                found += [f"{m}.{node.name}.{f.name}" for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name not in attrs
                          and f.name not in skip
                          and not (f.name.startswith("__") and f.name.endswith("__"))]
    return sorted(found)


def test_every_function_and_method_has_a_caller_in_the_package():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    entry_points = [target.removeprefix("carelens.").replace(":", ".")
                    for target in scripts.values()]
    assert entry_points == ["cli.entrypoint"]
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert uncalled(sources, entry_points) == []


def test_uncalled_check_sees_what_it_should():
    sources = {
        "__init__": "from .ops import public\nfrom .user import run\n"
                    "__all__ = ['public', 'run']\n",
        "ops": ("import argparse\nimport numpy as np\n"
                "def public():\n    return np.exp(1.0)\n"
                "def exp(x):\n    return x\n"
                "def sqrt(x):\n    return np.sqrt(x)\n"
                "def planted():\n    return sqrt(2.0)\n"
                "def main():\n    return P(Box())\n"
                "class Box:\n"
                "    def __len__(self):\n        return 0\n"
                "    def size(self):\n        return np.mean(len(self))\n"
                "    def mean(self):\n        return 0.0\n"
                "    def unused(self):\n        return None\n"
                "class Crate(Box):\n"
                "    def unused(self):\n        return 1.0\n"
                "class P(argparse.ArgumentParser):\n"
                "    def error(self, message):\n        raise SystemExit(message)\n"
                "    def helper(self):\n        return None\n"),
        "user": ("from . import ops as o\nfrom .ops import Box as B\n"
                 "def run():\n    return o.sqrt(B().size())\n"),
    }
    assert uncalled(sources, ["ops.main"]) == [
        "ops.Box.mean", "ops.Box.unused", "ops.P.helper", "ops.exp", "ops.planted"]


def process_starts(source: str) -> list[str]:
    """What in ``source`` starts processes by a means of its own: a
    reference to ``os.fork``, or an import from ``concurrent.futures`` or
    ``multiprocessing`` of anything but ``multiprocessing.parent_process``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name == "os.fork"
                  or (name.split(".")[0] in ("concurrent", "multiprocessing")
                      and name != "multiprocessing.parent_process")]
    paths, _ = _bindings(tree, "module")
    found += [(node.lineno, "os.fork") for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and _path(node, paths) == "os.fork"]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_model_py_starts_processes(path):
    # model.fork_map is the package's one way to use several CPUs
    if path.name != "model.py":
        assert process_starts(path.read_text(encoding="utf-8")) == []


def test_process_start_check_sees_what_it_should():
    source = ("import os\nfrom os import fork as f\nimport multiprocessing\n"
              "from multiprocessing import parent_process, Pool\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "from concurrent import futures\nimport concurrent.futures as cf\n"
              "def g():\n    pid = os.fork()\n"
              "    return pid, f, parent_process(), os.getpid()\n")
    assert process_starts(source) == [
        "line 2: os.fork", "line 3: multiprocessing", "line 4: multiprocessing.Pool",
        "line 5: concurrent.futures.ProcessPoolExecutor", "line 6: concurrent.futures",
        "line 7: concurrent.futures", "line 9: os.fork", "line 10: os.fork"]


def adam_step_calls(source: str, module: str) -> list[str]:
    """Calls in ``source`` of the package's ``adam_step``, under whatever
    name or module path an import gives it."""
    tree = ast.parse(source)
    paths, _ = _bindings(tree, module)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = _path(node.func, paths) or ""
            if path.startswith((".", "carelens.")) and path.endswith(".adam_step"):
                found.append(f"line {node.lineno}: {path}")
    return found


# the one training loop, and the optimiser's own tests
ADAM_STEP_CALLERS = {PACKAGE / "train.py", TESTS / "test_optim.py"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_train_py_and_test_optim_call_adam_step(path):
    # a test that needs training steps calls train.train_epoch, so that no
    # copy of the loop can drift from the one that fit runs
    calls = adam_step_calls(path.read_text(encoding="utf-8"), path.stem)
    assert bool(calls) == (path in ADAM_STEP_CALLERS), calls


def test_adam_step_call_check_sees_what_it_should():
    source = ("import carelens\nimport carelens.optim as opt\n"
              "from carelens import adam_step as step\n"
              "from carelens.optim import ParamStore, adam_step\n"
              "from . import optim\nfrom .optim import adam_step as a\n"
              "def loop(store, trainer):\n"
              "    store.zero_grad()\n    adam_step(store, 0.1)\n"
              "    carelens.optim.adam_step(store, 0.1)\n    opt.adam_step(store, lr=0.1)\n"
              "    step(store, 0.1)\n    optim.adam_step(store, 0.1)\n    a(store, 0.1)\n"
              "    trainer.adam_step(store)\n    return adam_step\n")
    assert adam_step_calls(source, "loop") == [
        "line 9: carelens.optim.adam_step", "line 10: carelens.optim.adam_step",
        "line 11: carelens.optim.adam_step", "line 12: carelens.adam_step",
        "line 13: .optim.adam_step", "line 14: .optim.adam_step"]


def grad_leaf_builds(source: str, module: str) -> list[str]:
    """Calls in ``source`` that build the package's ``Var`` with a gradient
    buffer of the caller's: a ``grad`` keyword, or a fourth positional
    argument."""
    tree = ast.parse(source)
    paths, _ = _bindings(tree, module)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = _path(node.func, paths) or ""
            if (path in (".autodiff.Var", "carelens.autodiff.Var")
                    and (len(node.args) > 3 or any(k.arg == "grad" for k in node.keywords))):
                found.append(f"line {node.lineno}: {path}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_optim_py_builds_leaves_over_a_gradient_buffer(path):
    # ParamStore makes each parameter's leaf once, over its buffers; a leaf
    # built anywhere else would be made again on every call
    calls = grad_leaf_builds(path.read_text(encoding="utf-8"), path.stem)
    assert bool(calls) == (path.name == "optim.py"), calls


def test_grad_leaf_build_check_sees_what_it_should():
    source = ("import carelens.autodiff\nfrom . import autodiff as ad\n"
              "from .autodiff import Var\nfrom .autodiff import Var as V\n"
              "def leaves(x, g, parents, bwd):\n"
              "    a = Var(x, grad=g)\n    b = ad.Var(x, parents, bwd, g)\n"
              "    c = V(x, grad=None)\n    d = carelens.autodiff.Var(x, grad=g)\n"
              "    e = Var(x)\n    f = ad.Var(x, parents, bwd)\n"
              "    return Other(x, grad=g), a, b, c, d, e, f\n")
    assert grad_leaf_builds(source, "store") == [
        "line 6: .autodiff.Var", "line 7: .autodiff.Var", "line 8: .autodiff.Var",
        "line 9: carelens.autodiff.Var"]
