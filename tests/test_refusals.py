"""Arguments that are not integers where a level, a dimension, an nmax, a seed,
a step count or a node count is meant, rates that are not finite positive
reals (an int beyond the float range among them), values that are not
finite, bounds, points and times that are not real, array fields with
entries of another kind, operator texts that are not strings and unknown
families are refused with a ValueError whose message starts with the
argument's name; so are times, steps and labels whose results would leave
the float range.  None of them may first surface as
a TypeError, a ZeroDivisionError, a bare math domain error or a
RuntimeWarning, so the table runs with warnings as errors."""

import math

import numpy as np
import pytest

from iwqm import algebra, coherent, dynamics, eigenfunctions, expressions, quadrature
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
    ("run_config_omega_text", lambda: RunConfig(omega="1"), "omega"),
    ("run_config_omega_none", lambda: RunConfig(omega=None), "omega"),
    ("run_config_omega_complex", lambda: RunConfig(omega=1 + 0j), "omega"),
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
    ("to_matrix_dim", lambda: expressions.to_matrix(expressions.A_MINUS, 1.5), "dim"),
    ("identity_residual_nmax",
     lambda: expressions.identity_residual(expressions.A_MINUS, expressions.A_MINUS, 0), "nmax"),
    ("equation_residual_nmax", lambda: expressions.equation_residual("n == n", 2.5), "nmax"),
    ("hamiltonian_omega_text", lambda: expressions.hamiltonian_expression("1"), "omega"),
    ("propagate_omega_none", lambda: dynamics.propagate_fock(KET, 1, None, 0.1), "omega"),
    ("classical_orbit_omega_none", lambda: dynamics.classical_orbit(1.0, None, 1, 0.5), "omega"),
    ("grid_state_omega_text",
     lambda: dynamics.GridState(-1.0, 1.0, 4, np.zeros(4), "1"), "omega"),
    ("integrate_alpha_omega", lambda: dynamics.integrate_alpha(1.0, math.inf, 1.0, 0.1), "omega"),
    ("gaussian_packet_omega", lambda: dynamics.gaussian_packet(0.5, math.inf), "omega"),
    ("gaussian_packet_v", lambda: dynamics.gaussian_packet(math.nan), "v"),
    ("integrate_alpha_v", lambda: dynamics.integrate_alpha(math.nan, 1.0, 1.0, 0.1), "v"),
    ("schrodinger_dt_text", lambda: dynamics.schrodinger_residual(KET, 1, 1.0, "1"), "dt"),
    ("grid_split_step_dt_text",
     lambda: dynamics.grid_split_step(dynamics.gaussian_packet(0.5), "0.1", 3), "dt"),
    ("step_count_t_final_text", lambda: dynamics.step_count("1", 0.1), "t_final"),
    ("ladder_action_family", lambda: algebra.ladder_action("a-", "x", np.ones(3)), "family"),
    ("build_coherent_family", lambda: coherent.build_coherent("x", 1.0), "family"),
    ("classical_orbit_v_none", lambda: dynamics.classical_orbit(None, 1.0, 1, 0.5), "v"),
    ("classical_orbit_v_nan", lambda: dynamics.classical_orbit(math.nan, 1.0, 1, 0.5), "v"),
    ("classical_orbit_v_over_omega_overflow",
     lambda: dynamics.classical_orbit(1e300, 1e-10, 1, 0.0), "v"),
    ("integrate_alpha_check_tol_text",
     lambda: dynamics.integrate_alpha(1.0, 1.0, 1.0, 0.1, check_tol="x"), "check_tol"),
    ("integrate_alpha_check_tol_negative",
     lambda: dynamics.integrate_alpha(1.0, 1.0, 1.0, 0.1, check_tol=-1.0), "check_tol"),
    ("density_interval_lo_text", lambda: quadrature.density_interval_integral(
        eigenfunctions.eigenfunction(KET, 1), "0", 1.0), "lo"),
    ("density_interval_hi_none", lambda: quadrature.density_interval_integral(
        eigenfunctions.eigenfunction(KET, 1), 0.0, None), "hi"),
    ("parse_expression_text", lambda: expressions.parse_expression(5), "text"),
    ("parse_equation_text", lambda: expressions.parse_equation(None), "text"),
    ("equation_residual_text", lambda: expressions.equation_residual(b"n == n", 4), "text"),
    ("propagate_omega_huge_int", lambda: dynamics.propagate_fock(KET, 1, 10 ** 400, 0.1), "omega"),
    ("gaussian_packet_omega_huge_int", lambda: dynamics.gaussian_packet(0.5, 10 ** 400), "omega"),
    ("hamiltonian_omega_huge_int",
     lambda: expressions.hamiltonian_expression(10 ** 400), "omega"),
    ("gaussian_packet_v_array", lambda: dynamics.gaussian_packet([1, 2]), "v"),
    ("grid_state_x_min_array",
     lambda: dynamics.GridState([1, 2], 1.0, 4, np.zeros(4), 1.0), "x_min"),
    ("grid_state_psi_text",
     lambda: dynamics.GridState(-1.0, 1.0, 4, ["x"] * 4, 1.0), "psi"),
    ("trajectory_complex_times", lambda: dynamics.Trajectory(1j, 1j), "times"),
    ("trajectory_object_values", lambda: dynamics.Trajectory([0, 1], [None, 1]), "values"),
    ("coherent_state_object_coeffs",
     lambda: coherent.CoherentState(KET, 0.5, [None] * 4), "coeffs"),
    ("coherent_state_text_coeffs", lambda: coherent.CoherentState(KET, 0.5, ["x"] * 4), "coeffs"),
    ("coherent_state_family", lambda: coherent.CoherentState("x", 0.5, np.zeros(4)), "family"),
    ("contour_quadrature_object_nodes",
     lambda: quadrature.ContourQuadrature([None], [1.0]), "nodes"),
    ("contour_quadrature_weights_shape",
     lambda: quadrature.ContourQuadrature([1], [1, 2]), "weights"),
    ("contour_build_float", lambda: quadrature.ContourQuadrature.build(2.5), "node_count"),
    ("contour_build_float32",
     lambda: quadrature.ContourQuadrature.build(np.float32(2.0)), "node_count"),
    ("contour_build_none", lambda: quadrature.ContourQuadrature.build(None), "node_count"),
    ("contour_build_text", lambda: quadrature.ContourQuadrature.build("1"), "node_count"),
    ("contour_build_complex", lambda: quadrature.ContourQuadrature.build(1j), "node_count"),
    ("contour_build_0d_array",
     lambda: quadrature.ContourQuadrature.build(np.array(4)), "node_count"),
    ("evaluate_x_complex",
     lambda: eigenfunctions.evaluate(eigenfunctions.eigenfunction(KET, 1), 1j), "x"),
    ("evaluate_x_text",
     lambda: eigenfunctions.evaluate(eigenfunctions.eigenfunction(KET, 1), "0.5"), "x"),
    ("evaluate_levels_x_complex", lambda: eigenfunctions.evaluate_levels(KET, 2, [0, 1j]), "x"),
    ("classical_orbit_t_complex", lambda: dynamics.classical_orbit(1.0, 1.0, 1, 1j), "t"),
    ("classical_orbit_t_text", lambda: dynamics.classical_orbit(1.0, 1.0, 1, "0.5"), "t"),
    ("classical_orbit_t_overflow", lambda: dynamics.classical_orbit(1.0, 1.0, 1, 800.0), "t"),
    ("classical_orbit_t_overflow_at_rest",
     lambda: dynamics.classical_orbit(0.0, 1.0, 1, [0.0, 800.0]), "t"),
    # an x86-64 longdouble beyond the float64 range casts to inf, refused as such
    ("evaluate_x_longdouble_overflow", lambda: eigenfunctions.evaluate(
        eigenfunctions.eigenfunction(KET, 1), np.array([np.longdouble("1e4000")])), "x"),
    ("classical_orbit_t_longdouble_overflow",
     lambda: dynamics.classical_orbit(1.0, 1.0, 1, np.array([np.longdouble("1e4000")])), "t"),
    ("schrodinger_dt_overflow",
     lambda: dynamics.schrodinger_residual(KET, 1, 1.0, 1e308), "dt"),
    ("expectation_closed_form_alpha_overflow",
     lambda: coherent.expectation_closed_form("x2", 1e200), "alpha"),
    ("expectation_closed_form_alpha_nan",
     lambda: coherent.expectation_closed_form("x", complex("nan")), "alpha"),
    ("expectation_closed_form_alpha_batch",
     lambda: coherent.expectation_closed_form("p2", [0.5, 1e200j]), "alpha"),
]


@pytest.mark.parametrize("call, argument", [(call, argument) for _, call, argument in REFUSALS],
                         ids=[name for name, _, _ in REFUSALS])
def test_refused_with_a_value_error_naming_the_argument(call, argument):
    with pytest.raises(ValueError, match=rf"^{argument} must be "):
        call()
