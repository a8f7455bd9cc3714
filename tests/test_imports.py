"""Every module of the package uses each name it imports, and the
modules import each other in fixed layers.

There is no linter in the toolchain, so this parses the sources with
``ast``: a name bound by an import and never read as a name anywhere in
the module (an attribute read such as ``np.sqrt`` reads ``np``) is a
leftover of a deletion.  ``__init__.py`` is left out: it imports no
module of the package, and reads each public name from its module on
first use.  A fresh process shows which modules each command loads.
"""

import ast
import importlib
import json
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


#: The package modules each layered module may import: ``algebra`` is a leaf,
#: ``expressions`` needs only its argument checks, and coherent states need
#: only those and the ladder bands.
LAYERS = {"algebra": set(), "expressions": {"algebra"}, "coherent": {"algebra"}}


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


#: The child of ``test_each_command_loads_only_its_modules``: runs each
#: command through ``main`` after dropping every ``iwqm`` module, so each
#: starts from a fresh ``import iwqm.cli``, and prints per command its exit
#: code, the ``iwqm`` modules then loaded and the ``numpy`` modules loaded so
#: far (``dump eigenfunction`` runs first, so its list is its own).
IMPORT_SETS_CHILD = r'''
import contextlib, io, json, sys
COMMANDS = {
    "eigenfunction": ["dump", "eigenfunction"],
    "coherent": ["dump", "coherent"],
    "gram": ["dump", "gram", "--nmax", "8"],
    "evolve": ["dump", "evolve", "--tfinal", "0.01"],
    "decay": ["dump", "decay", "--tfinal", "0.05"],
    "verify": ["verify", "--nmax", "8"],
    "op-check": ["op-check", "a- == a-", "--nmax", "4"],
}
report = {}
for name, argv in COMMANDS.items():
    for module in [m for m in sys.modules if m.split(".")[0] == "iwqm"]:
        del sys.modules[module]
    from iwqm.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report[name] = {"code": code,
                    "iwqm": sorted(m for m in sys.modules if m.split(".")[0] == "iwqm"),
                    "numpy": sorted(m for m in sys.modules if m.split(".")[0] == "numpy")}
print(json.dumps(report))
'''

_EVERY_MODULE = ["iwqm", *(f"iwqm.{p.stem}" for p in MODULES)]

#: The package modules each command loads, from a fresh process.
IMPORT_SETS = {
    "eigenfunction": ["iwqm", "iwqm.algebra", "iwqm.cli", "iwqm.eigenfunctions"],
    "coherent": ["iwqm", "iwqm.algebra", "iwqm.cli", "iwqm.coherent"],
    "gram": ["iwqm", "iwqm.algebra", "iwqm.cli", "iwqm.eigenfunctions", "iwqm.quadrature"],
    # dynamics binds its kernels at import
    "evolve": ["iwqm", "iwqm.algebra", "iwqm.cli", "iwqm.dynamics", "iwqm.kernels"],
    "decay": ["iwqm", "iwqm.algebra", "iwqm.cli", "iwqm.dynamics", "iwqm.kernels"],
    "verify": sorted(_EVERY_MODULE),
    "op-check": sorted(_EVERY_MODULE),
}


def test_each_command_loads_only_its_modules(run_capped):
    done = run_capped("-c", IMPORT_SETS_CHILD)
    assert done.returncode == 0, done.stderr[-4000:]
    report = json.loads(done.stdout)
    assert {name: r["code"] for name, r in report.items()} == dict.fromkeys(IMPORT_SETS, 0)
    assert {name: r["iwqm"] for name, r in report.items()} == IMPORT_SETS
    # numpy's lazy submodules stay unloaded: numpy.random costs about 13 ms
    eigenfunction_numpy = report["eigenfunction"]["numpy"]
    assert "numpy.linalg" in eigenfunction_numpy
    assert not [m for m in eigenfunction_numpy
                if m.startswith(("numpy.random", "numpy.polynomial"))]
    # each numpy list holds the modules of the commands run before it too
    for name in ("verify", "op-check"):
        assert not [m for m in report[name]["numpy"] if m.startswith("numpy.random")]


def test_public_names_resolve_to_their_modules_objects():
    assert len(iwqm.__all__) == len(set(iwqm.__all__)) == 52
    for name, module in iwqm._EXPORTS.items():
        assert getattr(iwqm, name) is getattr(importlib.import_module(f"iwqm.{module}"), name)
    namespace = {}
    exec("from iwqm import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(iwqm.__all__)
    assert set(dir(iwqm)) >= set(iwqm.__all__) | {"__version__"}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'iwqm' has no attribute 'no_such_name'"):
        iwqm.no_such_name
