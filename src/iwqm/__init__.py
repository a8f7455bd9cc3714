"""Algebraic quantization of a particle on an inverted potential well.

Imaginary-frequency ladder operators, dual biorthogonal Fock families
with purely imaginary Hamiltonian eigenvalues, explicit non-localized
eigenfunctions normalized under an oscillatory integration measure,
minimum-uncertainty coherent states, and the quantum-classical
correspondence of the runaway orbit; every claim backed by a
verification suite with independent numerical oracles.
"""

from .algebra import (
    BRA,
    KET,
    ladder_action,
)
from .coherent import (
    CoherentState,
    Uncertainty,
    build_coherent,
    eigen_residual,
    expectation,
    expectation_closed_form,
    moments,
    mutual_pairing,
    tail_bound,
    uncertainty_product,
)
from .dynamics import (
    GridLeakError,
    GridState,
    NormDriftError,
    StepSizeError,
    Trajectory,
    classical_orbit,
    gaussian_packet,
    grid_split_step,
    integrate_alpha,
    propagate_fock,
    schrodinger_residual,
    step_count,
)
from .eigenfunctions import (
    Eigenfunction,
    eigenfunction,
    evaluate,
    generating_function,
)
from .expressions import (
    ExpressionParseError,
    OperatorExpression,
    adjoint,
    equation_residual,
    hamiltonian_expression,
    identity_residual,
    momentum_expression,
    number_expression,
    parse_equation,
    parse_expression,
    position_expression,
    su11_expressions,
    to_matrix,
)
from .quadrature import (
    ContourQuadrature,
    density_interval_integral,
    fresnel_gaussian,
    gram_matrix,
)
from .verify import CheckResult, RunConfig, SuiteReport, conventions, run_all

__version__ = "0.1.0"
