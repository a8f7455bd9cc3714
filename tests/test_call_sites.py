"""The eigenfunction recurrence has one driver, and the decay factors one
call per family.

``eigenfunctions.hermite_levels`` is called at exactly one place in the
package, inside the row writer ``eigenfunctions._write_levels``, which
``evaluate``, ``evaluate_levels`` and the rule Gram all go through.  A
second call site would be a second way of collecting the levels, with its
own level skip, copies and buffer rules.  ``dynamics.propagate_fock`` is
called once per family by the decay suite, ``schrodinger_residual`` and
``dump decay``, each on its whole (level, time) grid, and neither the
coherent nor the decay suite has a ``for`` statement or a ``.tolist()``:
a loop over the batch would be a second, scalar path.  Like
``test_imports.py`` this parses the sources with ``ast``.
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


def test_the_decay_factors_come_from_one_call_per_family():
    # the decay suite takes both families in one generator, schrodinger_residual
    # its five stencil points in one call, dump decay all its steps
    assert sorted(call_sites(SOURCES, "propagate_fock")) == [
        "cli.cmd_dump_decay", "cli.cmd_dump_decay", "dynamics.schrodinger_residual",
        "verify.decay_suite"]


def test_the_coherent_and_decay_suites_loop_over_no_batch():
    suites = {node.name: node for node in ast.walk(ast.parse(SOURCES["verify"]))
              if isinstance(node, ast.FunctionDef)
              and node.name in ("coherent_suite", "decay_suite")}
    assert len(suites) == 2
    for name, suite in suites.items():
        nodes = list(ast.walk(suite))
        assert not any(isinstance(node, ast.For) for node in nodes), name
        assert not any(getattr(node, "attr", None) == "tolist" for node in nodes), name
