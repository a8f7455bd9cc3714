"""Every private module-level name of the package is read somewhere in it.

Like ``test_imports.py`` this parses the sources with ``ast``.  A name
bound at the top of a module that starts with one underscore is read when
its own module reads it as a name, when another module imports it from
there (``test_imports.py`` checks that such an import is read) or when any
module reads an attribute of that name.  A private name read nowhere is a
helper or constant that the deletion of its last caller left behind.  The
tests do not count as readers: a private name only they read is still dead
code in the package.
"""

import ast
from pathlib import Path

import iwqm

TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(Path(iwqm.__file__).parent.glob("*.py"))}


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module binds at its top level, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each private module-level name that no module reads."""
    nodes = {module: list(ast.walk(tree)) for module, tree in trees.items()}
    attributes = {node.attr for walked in nodes.values() for node in walked
                  if isinstance(node, ast.Attribute)}
    lent = {(node.module, alias.name) for walked in nodes.values() for node in walked
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    unread = []
    for module, tree in trees.items():
        own = {node.id for node in nodes[module]
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}.{name}" for name in private_definitions(tree)
                   if name not in own and name not in attributes and (module, name) not in lent]
    return unread


def test_unread_private_names_are_found():
    trees = {
        "a": ast.parse("_USED = 1\n_ORPHAN = 2\n_LENT: int = 3\n_VIA_ATTRIBUTE = 4\n"
                       "__all__ = []\n"
                       "def _helper():\n    return _USED\n"
                       "def _unused_helper():\n    return 0\n"
                       "class _Orphan:\n    pass\n"
                       "def f():\n    return _helper()\n"),
        "b": ast.parse("from . import a\nfrom .a import _LENT\n_ORPHAN = 5\n"
                       "def g():\n    return _LENT, _ORPHAN, a._VIA_ATTRIBUTE\n"),
    }
    # b reads its own _ORPHAN, which does not read a's
    assert unread_private_names(trees) == ["a._ORPHAN", "a._unused_helper", "a._Orphan"]


def test_the_package_has_private_names():
    assert "_product" in private_definitions(TREES["expressions"])
    assert "_bra_phase_probe" in private_definitions(TREES["coherent"])


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names(TREES) == []
