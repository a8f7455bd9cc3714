"""The eigenfunction recurrence has one driver.

``eigenfunctions.hermite_levels`` is called at exactly one place in the
package, inside the row writer ``eigenfunctions._write_levels``, which
``evaluate``, ``evaluate_levels`` and the rule Gram all go through.  A
second call site would be a second way of collecting the levels, with its
own level skip, copies and buffer rules.  Like ``test_imports.py`` this
parses the sources with ``ast``.
"""

import ast
from pathlib import Path

import iwqm

SOURCES = {p.stem: p.read_text(encoding="utf-8")
           for p in sorted(Path(iwqm.__file__).parent.glob("*.py"))}


def call_sites(sources: dict[str, str], name: str) -> list[str]:
    """``module.function`` for each call of ``name`` (as a name or an
    attribute), named after the innermost function around it."""
    sites = []

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                sites.append(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sites


def test_call_sites_are_found():
    sources = {
        "a": "def f(z):\n    return g(z)\ndef h():\n    def inner():\n        return a.g(1)\n",
        "b": "x = g(2)\ndef g(z):\n    return z\n",
    }
    assert call_sites(sources, "g") == ["a.f", "a.inner", "b.<module>"]


def test_the_recurrence_is_called_only_by_the_row_writer():
    assert call_sites(SOURCES, "hermite_levels") == ["eigenfunctions._write_levels"]
