"""Algebraic quantization of a particle on an inverted potential well.

Imaginary-frequency ladder operators, dual biorthogonal Fock families
with purely imaginary Hamiltonian eigenvalues, explicit non-localized
eigenfunctions normalized under an oscillatory integration measure,
minimum-uncertainty coherent states, and the quantum-classical
correspondence of the runaway orbit; every claim backed by a
verification suite with independent numerical oracles.

``import iwqm`` loads no submodule.  Each public name is read from its
module (``_EXPORTS``) the first time it is asked for (PEP 562), so a
command or a caller pays only for the modules it uses.
"""

import importlib

#: Each public name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("BRA", "KET", "ladder_action"), "algebra"),
    **dict.fromkeys(("CoherentState", "Uncertainty", "build_coherent", "eigen_residual",
                     "expectation", "expectation_closed_form", "moments", "mutual_pairing",
                     "tail_bound", "uncertainty_product"), "coherent"),
    **dict.fromkeys(("GridLeakError", "GridState", "NormDriftError", "StepSizeError",
                     "Trajectory", "classical_orbit", "gaussian_packet", "grid_split_step",
                     "integrate_alpha", "propagate_fock", "schrodinger_residual",
                     "step_count"), "dynamics"),
    **dict.fromkeys(("Eigenfunction", "eigenfunction", "evaluate", "evaluate_levels",
                     "generating_function"), "eigenfunctions"),
    **dict.fromkeys(("ExpressionParseError", "OperatorExpression", "adjoint",
                     "equation_residual", "hamiltonian_expression", "identity_residual",
                     "momentum_expression", "number_expression", "parse_equation",
                     "parse_expression", "position_expression", "su11_expressions",
                     "to_matrix"), "expressions"),
    **dict.fromkeys(("ContourQuadrature", "density_interval_integral", "fresnel_gaussian",
                     "gram_matrix"), "quadrature"),
    **dict.fromkeys(("CheckResult", "RunConfig", "SuiteReport", "conventions", "run_all"),
                    "verify"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
