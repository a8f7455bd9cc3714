"""Arguments that are not integers where a level, a dimension, an nmax, a seed
or a step count is meant, and non-finite rates, times and steps, are refused
with a ValueError whose message starts with the argument's name.  None of
them may first surface as a numpy TypeError, a ZeroDivisionError, a bare
math domain error or a RuntimeWarning, so the table runs with warnings as
errors."""

import math

import numpy as np
import pytest

from iwqm import coherent, dynamics, eigenfunctions, quadrature
from iwqm.algebra import KET
from iwqm.verify import RunConfig

pytestmark = pytest.mark.filterwarnings("error")

X = np.linspace(-1.0, 1.0, 5)

REFUSALS = [
    ("build_coherent_dim", lambda: coherent.build_coherent(KET, 1.0, 8.5), "dim"),
    ("expectation_dim", lambda: coherent.expectation("x", 1.0, 8.0), "dim"),
    ("uncertainty_product_dim", lambda: coherent.uncertainty_product([0.5, 1j], 16.0), "dim"),
    ("tail_bound_negative_dim", lambda: coherent.tail_bound(1.0, -1), "dim"),
    ("tail_bound_dim", lambda: coherent.tail_bound(1.0, 2.5), "dim"),
    ("eigenfunction_level", lambda: eigenfunctions.eigenfunction(KET, 1.5), "level"),
    ("evaluate_level",
     lambda: eigenfunctions.evaluate(eigenfunctions.eigenfunction(KET, 1.5), 0.3), "level"),
    ("evaluate_levels_top", lambda: eigenfunctions.evaluate_levels(KET, 2.5, X), "level"),
    ("gram_matrix_nmax", lambda: quadrature.gram_matrix(2.5), "nmax"),
    ("gram_matrix_moments_nmax", lambda: quadrature.gram_matrix(2.5, use_moments=True), "nmax"),
    ("density_interval_level", lambda: quadrature.density_interval_integral(
        eigenfunctions.eigenfunction(KET, 1.5), 0.0, 1.0), "level"),
    ("run_config_nmax", lambda: RunConfig(nmax=4.5), "nmax"),
    ("run_config_seed", lambda: RunConfig(seed=1.5), "seed"),
    ("propagate_level", lambda: dynamics.propagate_fock(KET, 1.5, 1.0, 0.1), "level"),
    ("propagate_level_array",
     lambda: dynamics.propagate_fock(KET, np.array([0.0, 1.0]), 1.0, 0.1), "level"),
    ("propagate_omega", lambda: dynamics.propagate_fock(KET, 1, math.inf, 0.1), "omega"),
    ("propagate_omega_nan", lambda: dynamics.propagate_fock(KET, 1, math.nan, 0.0), "omega"),
    ("propagate_time", lambda: dynamics.propagate_fock(KET, 1, 1.0, math.nan), "t"),
    ("propagate_time_array",
     lambda: dynamics.propagate_fock(KET, np.arange(3)[:, None], 1.0, [0.0, math.inf]), "t"),
    ("schrodinger_dt", lambda: dynamics.schrodinger_residual(KET, 1, 1.0, 0.0), "dt"),
    ("schrodinger_dt_nan", lambda: dynamics.schrodinger_residual(KET, 1, 1.0, math.nan), "dt"),
    ("classical_orbit_omega", lambda: dynamics.classical_orbit(1.0, math.inf, 1, 1.0), "omega"),
    ("grid_split_step_steps",
     lambda: dynamics.grid_split_step(dynamics.gaussian_packet(0.5), 0.01, 2.5), "steps"),
]


@pytest.mark.parametrize("call, argument", [(call, argument) for _, call, argument in REFUSALS],
                         ids=[name for name, _, _ in REFUSALS])
def test_refused_with_a_value_error_naming_the_argument(call, argument):
    with pytest.raises(ValueError, match=rf"^{argument} must be "):
        call()
