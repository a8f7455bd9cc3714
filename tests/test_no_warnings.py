"""No module of the package imports ``warnings`` or calls ``warnings.warn``.

Like ``test_private_names.py`` this parses the sources with ``ast``.  The
package reports through return values, report fields and exceptions, which
``cli.main`` maps to one stderr line; a Python warning is a second channel
that prints a source path and line on stderr and that a library caller
has to filter.  A finding names the module and the line.
"""

import ast
from pathlib import Path

import iwqm

TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(Path(iwqm.__file__).parent.glob("*.py"))}


def warning_uses(trees: dict[str, ast.Module]) -> list[str]:
    """``module:line`` for each import of ``warnings`` and each ``warnings.warn`` call."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hit = any(alias.name == "warnings" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "warnings"
            elif isinstance(node, ast.Call):
                func = node.func
                hit = (isinstance(func, ast.Attribute) and func.attr == "warn"
                       and isinstance(func.value, ast.Name) and func.value.id == "warnings")
            else:
                hit = False
            if hit:
                found.append(f"{module}:{node.lineno}")
    return found


def test_warning_uses_are_found():
    trees = {
        "a": ast.parse("import math, warnings\n"),
        "b": ast.parse("from warnings import warn\nwarn('x')\n"),
        "c": ast.parse("import numpy as np\n\ndef f():\n    warnings.warn('x')\n"),
        "d": ast.parse("import numpy as np\nnp.seterr(all='ignore')\nlog.warn('x')\n"),
    }
    assert warning_uses(trees) == ["a:1", "b:1", "c:4"]


def test_the_package_issues_no_warnings():
    assert warning_uses(TREES) == []
