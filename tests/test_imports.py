"""Every module of the package uses each name it imports.

There is no linter in the toolchain, so this parses the sources with
``ast``: a name bound by an import and never read as a name anywhere in
the module (an attribute read such as ``np.sqrt`` reads ``np``) is a
leftover of a deletion.  ``__init__.py`` is left out, since its imports
are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import iwqm

MODULES = sorted(p for p in Path(iwqm.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .algebra import BRA, KET\n"
              "def f():\n    from .algebra import build_hamiltonian\n    return np.pi, KET\n")
    assert unused_imports(source) == ["os", "BRA", "build_hamiltonian"]


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"algebra.py", "quadrature.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
