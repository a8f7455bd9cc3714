"""Every module attribute that the README and the package's docstrings name
exists: a reference left behind by a deleted or renamed object fails here."""

import ast
import importlib
import re
from pathlib import Path

import iwqm

PACKAGE = Path(iwqm.__file__).parent
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

_FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_BACKTICKED = re.compile(r"`([^`]+)`")
_MODULE_NAME = re.compile(rf"(?<![\w./])({'|'.join(MODULES)})\.(\w+)")
_ROLE = re.compile(r":(?:func|data|class):`([\w.]+)`")


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(f"iwqm.{module}")
    for name in path.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def readme_references(text: str) -> list[tuple[str, str]]:
    """(module, name) for each ``module.name`` inside a backticked span out of
    the fenced blocks, where module is an iwqm module; a file name such as
    ``verify.py`` is not a reference."""
    spans = _BACKTICKED.findall(_FENCED.sub("", text))
    return sorted({(m.group(1), m.group(2)) for span in spans
                   for m in _MODULE_NAME.finditer(span) if m.group(2) != "py"})


def docstring_references(module: str, source: str) -> list[tuple[str, str]]:
    """(module, dotted name) for each :func:, :data: or :class: role in the
    docstrings of ``source``: ``iwqm.m.name`` names module m, and a bare
    name is looked up in ``module`` itself."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            for target in _ROLE.findall(ast.get_docstring(node) or ""):
                if target.startswith("iwqm."):
                    refs.add(tuple(target.removeprefix("iwqm.").split(".", 1)))
                else:
                    refs.add((module, target))
    return sorted(refs)


def unresolved(refs) -> list[str]:
    return [f"{module}.{path}" for module, path in refs if not _resolves(module, path)]


def test_the_checker_finds_a_stale_reference():
    text = ("`expressions.MAX_DEGREE`, `x = expressions.OpSum(...)`, `verify.py`,\n"
            "```\niwqm op-check `\n```\n`iwqm.expressions`, `np.vdot`")
    refs = readme_references(text)
    assert refs == [("expressions", "MAX_DEGREE"), ("expressions", "OpSum")]
    assert unresolved(refs) == ["expressions.OpSum"]
    source = ('"""See :func:`to_matrix`, :data:`iwqm.algebra.BRA_PHASE` and '
              ':class:`Scaled`."""\n')
    assert unresolved(docstring_references("expressions", source)) == ["expressions.Scaled"]


def test_readme_references_resolve():
    refs = readme_references(README.read_text(encoding="utf-8"))
    assert len(refs) >= 8
    assert unresolved(refs) == []


def test_docstring_references_resolve():
    refs = [ref for module in MODULES
            for ref in docstring_references(module, (PACKAGE / f"{module}.py").read_text(
                encoding="utf-8"))]
    assert len(refs) >= 10
    assert unresolved(refs) == []
