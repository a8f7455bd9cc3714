"""The eigenfunction recurrence has one driver, the grid runs one stepping
loop, and the decay factors one call per family.

``eigenfunctions.hermite_levels`` is called at exactly one place in the
package, inside the row writer ``eigenfunctions._write_levels``, which
``evaluate``, ``evaluate_levels`` and the rule Gram all go through.  A
second call site would be a second way of collecting the levels, with its
own level skip, copies and buffer rules.  ``np.fft`` is called only in
``dynamics.grid_split_step_runs``: a second caller would be a second
stepping loop, and a new kind of grid run is a new row of that one loop.
``dynamics.propagate_fock`` is called once per family by the decay suite,
``schrodinger_residual`` and ``dump decay``, each on its whole (level,
time) grid, and neither the coherent nor the decay suite has a ``for``
statement or a ``.tolist()``: a loop over the batch would be a second,
scalar path.  Every verify row's
residual is reduced in ``SuiteReport.add``, and nowhere else in ``verify``.
What a valid family, integer, rate or real number is, the argument checks
of ``algebra`` say, and no other module raises their refusals itself.  That
a 0-d result leaves as a Python scalar, ``algebra._per_label`` says, and no
other module returns a conditional on ``ndim`` itself.  That an array is
stored or shared read-only, ``algebra._read_only`` says, and no other
module calls ``setflags``.
Like ``test_imports.py`` this parses the sources with ``ast``.
"""

import ast
from pathlib import Path

import iwqm

SOURCES = {p.stem: p.read_text(encoding="utf-8")
           for p in sorted(Path(iwqm.__file__).parent.glob("*.py"))}


def call_sites(sources: dict[str, str], name: str) -> list[str]:
    """``module.function`` for each call of ``name`` (as a name or an
    attribute), named after the innermost function around it."""
    return sites_of(sources, lambda func: getattr(func, "id", None) == name
                    or getattr(func, "attr", None) == name)


def fft_call_sites(sources: dict[str, str]) -> list[str]:
    """``module.function`` for each call of a function of an ``fft`` module,
    such as ``np.fft.fft`` or ``np.fft.fftfreq``."""
    return sites_of(sources, lambda func: "fft" in ast.unparse(func).split(".")[:-1])


def sites_of(sources: dict[str, str], matches) -> list[str]:
    """``module.function`` for each call whose callee ``matches``, named after
    the innermost function around it."""
    sites = []

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and matches(node.func):
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


def test_fft_call_sites_are_found():
    sources = {"a": "import numpy as np\ndef f(z):\n    return np.fft.ifft(np.fft.fft(z))\n"
                    "def g(n):\n    return numpy.fft.fftfreq(n), fft(n), fft.rfft(n)\n"}
    assert fft_call_sites(sources) == ["a.f", "a.f", "a.g", "a.g"]


def test_only_the_stepping_loop_calls_np_fft():
    assert set(fft_call_sites(SOURCES)) == {"dynamics.grid_split_step_runs"}


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


def test_verify_reduces_residuals_only_in_suite_report_add():
    # Python's max and np.max (a call of the attribute max) are one name to the
    # helper; the two other sites reduce conventions, not a row's residual
    assert sorted(set(call_sites({"verify": SOURCES["verify"]}, "max"))) == [
        "verify._dual_signs", "verify.add", "verify.conventions"]


#: Wording of the refusals that only ``algebra``'s argument checks raise.
ARGUMENT_RULES = ("must be an integer", "must be finite and positive", "must be a real number",
                  "family must be")


def value_error_texts(source: str) -> list[str]:
    """The literal text of each ``raise ValueError(...)`` message in ``source``,
    with each replacement field of an f-string read as ``{}``."""
    texts = []
    for node in ast.walk(ast.parse(source)):
        call = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ValueError":
            parts = call.args[0].values if isinstance(call.args[0], ast.JoinedStr) else call.args
            texts.append("".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts))
    return texts


def test_value_error_texts_are_found():
    source = ('def f(x):\n    if x:\n        raise ValueError(f"x must be an integer, got {x!r}")\n'
              '    raise ValueError("plain")\nraise KeyError("x must be an integer")\n')
    assert sorted(value_error_texts(source)) == ["plain", "x must be an integer, got {}"]


def test_argument_rules_are_raised_only_in_algebra():
    raised = {module: value_error_texts(source) for module, source in SOURCES.items()}
    assert any(rule in text for text in raised["algebra"] for rule in ARGUMENT_RULES)
    assert [f"{module}: {text}" for module, texts in raised.items() if module != "algebra"
            for text in texts if any(rule in text for rule in ARGUMENT_RULES)] == []


def ndim_conditional_returns(source: str) -> list[str]:
    """Each ``return A if TEST else B`` in ``source`` whose TEST reads an
    ``ndim`` (``x.ndim`` or ``np.ndim(x)``), as source text."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Return) and isinstance(node.value, ast.IfExp)
            and any(getattr(n, "attr", None) == "ndim" for n in ast.walk(node.value.test))]


def test_ndim_conditional_returns_are_found():
    source = ("def f(x):\n    return x.item() if x.ndim == 0 else x\n"
              "def g(x):\n    y = x[0] if x.ndim else x\n    return y if y else x\n"
              "def h(x):\n    return float(x) if np.ndim(x) == 0 else x\n")
    assert ndim_conditional_returns(source) == [
        "return x.item() if x.ndim == 0 else x", "return float(x) if np.ndim(x) == 0 else x"]


def test_zero_d_results_leave_only_through_algebra():
    assert len(ndim_conditional_returns(SOURCES["algebra"])) == 1
    assert [f"{module}: {line}" for module, source in SOURCES.items() if module != "algebra"
            for line in ndim_conditional_returns(source)] == []


def test_only_algebra_makes_arrays_read_only():
    assert call_sites(SOURCES, "setflags") == ["algebra._read_only"]
