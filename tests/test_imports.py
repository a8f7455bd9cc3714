"""Every module of the package uses each name it imports, and the
modules import each other in fixed layers.

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


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports by relative import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules |= {node.module} if node.module else {a.name for a in node.names}
    return modules


#: The package modules each layered module may import: ``algebra`` and
#: ``expressions`` are leaves, and coherent states need only the ladder bands.
LAYERS = {"algebra": set(), "expressions": set(), "coherent": {"algebra"}}


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .algebra import BRA, KET\n"
              "def f():\n    from .algebra import build_hamiltonian\n    return np.pi, KET\n")
    assert unused_imports(source) == ["os", "BRA", "build_hamiltonian"]


def test_package_imports_are_found():
    source = ("import numpy as np\nfrom . import algebra, coherent\n"
              "from .expressions import to_matrix\nfrom numpy import linalg\n")
    assert package_imports(source) == {"algebra", "coherent", "expressions"}


def _graph() -> dict[str, set[str]]:
    return {p.stem: package_imports(p.read_text(encoding="utf-8")) for p in MODULES}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layered_module_imports_only_its_layer(module):
    assert _graph()[module] == LAYERS[module]


def test_dynamics_does_not_reach_the_operator_forms():
    graph, reached, todo = _graph(), set(), ["dynamics"]
    while todo:
        for name in graph[todo.pop()] - reached:
            reached.add(name)
            todo.append(name)
    assert "expressions" not in reached and reached


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"algebra.py", "quadrature.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
