"""Source hygiene of the package, checked with ``ast`` alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import carelens

PACKAGE = Path(carelens.__file__).parent
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
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
