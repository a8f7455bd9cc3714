import dataclasses
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import hermite as nherm
from numpy.polynomial import polynomial as npoly

from iwqm.algebra import BRA, KET
from iwqm.eigenfunctions import (
    Eigenfunction,
    eigenfunction,
    evaluate,
    exact_form,
    generating_function,
    hermite_coefficients,
    lowering,
    raising,
)

X_WIDE = np.linspace(-10.0, 10.0, 1001)
X_INNER = np.linspace(-5.0, 5.0, 801)


def test_generating_function_values():
    ket = generating_function(KET)
    assert evaluate(ket, 0.0) == pytest.approx(np.pi ** -0.25 * np.exp(1j * np.pi / 8))
    bra = generating_function(BRA)
    assert evaluate(bra, 0.0) == pytest.approx(np.conj(evaluate(ket, 0.0)))


def test_bra_ground_state_conjugates_ket():
    ket = generating_function(KET)
    bra = generating_function(BRA)
    np.testing.assert_allclose(evaluate(bra, X_WIDE), np.conj(evaluate(ket, X_WIDE)),
                               atol=1e-15)


@pytest.mark.parametrize("family", [KET, BRA])
def test_ground_state_density_is_constant(family):
    density = np.abs(evaluate(generating_function(family), X_WIDE)) ** 2
    np.testing.assert_allclose(density, np.pi ** -0.5, rtol=0, atol=1e-14)


@pytest.mark.parametrize("family", [KET, BRA])
def test_lowering_annihilates_ground_state(family):
    lowered = lowering(exact_form(generating_function(family)))
    assert np.max(np.abs(lowered.values(X_WIDE))) <= 1e-12


def test_first_polynomials():
    assert hermite_coefficients(3) == [[1], [0, 2], [-2, 0, 4], [0, -12, 0, 8]]
    assert exact_form(eigenfunction(BRA, 2)).coeffs == (-2, 0, 4)


@pytest.mark.parametrize("family", [KET, BRA])
def test_recurrence_matches_symbolic_oracle(family):
    # the exact raising chain from the ground state, normalized by sqrt(n),
    # against the float recurrence behind evaluate
    form = exact_form(generating_function(family))
    for n in range(1, 11):
        form = raising(form)
        step = math.sqrt(n) * (1 if family == KET else 1j)
        form = dataclasses.replace(form, scale=form.scale / step)
        np.testing.assert_allclose(form.values(X_INNER), evaluate(eigenfunction(family, n), X_INNER),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", range(9))
def test_degree_and_leading_coefficient(n):
    coeffs = exact_form(eigenfunction(KET, n)).coeffs
    assert len(coeffs) == n + 1
    assert coeffs[-1] == 2 ** n
    np.testing.assert_array_equal(coeffs, nherm.herm2poly([0] * n + [1]))


def test_level_three_leading_raw_coefficient():
    assert exact_form(eigenfunction(KET, 3)).coeffs[-1] == 8


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugation_symmetry_of_polynomials(n):
    ket = exact_form(eigenfunction(KET, n))
    bra = exact_form(eigenfunction(BRA, n))
    assert bra.coeffs == ket.coeffs
    assert bra.scale == pytest.approx(np.conj(ket.scale), abs=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_ladder_identity_pointwise(n):
    lowered = lowering(exact_form(eigenfunction(KET, n)))
    target = np.sqrt(n) * evaluate(eigenfunction(KET, n - 1), X_INNER)
    assert np.max(np.abs(lowered.values(X_INNER) - target)) <= 1e-10


@pytest.mark.parametrize("bra_phase", [1j, -1j])
@pytest.mark.parametrize("n", range(1, 6))
def test_bra_ladder_identity_pointwise(n, bra_phase):
    # the bra lowering step returns bra_phase * sqrt(n) times the previous level
    lowered = lowering(exact_form(eigenfunction(BRA, n, bra_phase)))
    target = bra_phase * np.sqrt(n) * evaluate(eigenfunction(BRA, n - 1, bra_phase), X_INNER)
    assert np.max(np.abs(lowered.values(X_INNER) - target)) <= 1e-10


@pytest.mark.parametrize("family", [KET, BRA])
@pytest.mark.parametrize("n", range(9))
def test_number_operator_pointwise(family, n):
    # lowering-then-raising realizes a+ a- on kets but a- a+ = -(dual number
    # operator) on bras, so the bra eigenvalue flips sign
    f = eigenfunction(family, n)
    count = raising(lowering(exact_form(f)))
    scale = n if family == KET else -n
    target = scale * evaluate(f, X_INNER)
    assert np.max(np.abs(count.values(X_INNER) - target)) <= 1e-9


@pytest.mark.parametrize("n", range(7))
def test_dual_function_conjugation(n):
    # with the orthonormal phase the bra function equals conj(ket) exactly;
    # the alternative phase deviates by the unimodular factor (-1)^n
    ket_vals = evaluate(eigenfunction(KET, n), X_INNER)
    bra_vals = evaluate(eigenfunction(BRA, n, 1j), X_INNER)
    np.testing.assert_allclose(bra_vals, np.conj(ket_vals), atol=1e-12)
    alt_vals = evaluate(eigenfunction(BRA, n, -1j), X_INNER)
    np.testing.assert_allclose(alt_vals, (-1.0) ** n * np.conj(ket_vals), atol=1e-12)


def test_eigenfunction_level_zero_is_generating_function():
    assert eigenfunction(KET, 0) == generating_function(KET)
    assert eigenfunction(BRA, 0) == generating_function(BRA)


def test_evaluate_scalar_matches_array():
    f = eigenfunction(KET, 3)
    assert evaluate(f, 1.25) == pytest.approx(evaluate(f, np.array([1.25]))[0])


def test_values_stay_finite_and_polynomially_bounded():
    f = eigenfunction(KET, 5)
    values = evaluate(f, X_WIDE)
    assert np.all(np.isfinite(values))
    form = exact_form(f)
    bound = abs(form.scale) * npoly.polyval(np.abs(X_WIDE), np.abs(form.coeffs))
    assert np.all(np.abs(values) <= bound + 1e-12)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        generating_function("middle")
    with pytest.raises(ValueError):
        eigenfunction(KET, -1)
    with pytest.raises(ValueError):
        eigenfunction(BRA, 1, bra_phase=1.0)
    with pytest.raises(ValueError):
        Eigenfunction("middle", 0)


def test_coefficients_are_immutable():
    f = eigenfunction(KET, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.n = 3
    with pytest.raises(TypeError):
        exact_form(f).coeffs[0] = 0


def test_evaluate_matches_high_precision_hermite():
    # 50-digit reference (i/pi)^(1/4) H_n(e^{i pi/4} x) e^{-i x^2/2} / sqrt(2^n n!)
    x = np.linspace(-5.0, 5.0, 21)
    with mpmath.workdps(50):
        rot = mpmath.exp(0.25j * mpmath.pi)
        ground = (1j / mpmath.pi) ** 0.25
        for n in range(65):
            norm = mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n))
            ref = np.array([complex(ground * mpmath.hermite(n, rot * mpmath.mpf(xi))
                                    * mpmath.exp(-0.5j * mpmath.mpf(xi) ** 2) / norm)
                            for xi in x])
            for family, expected in ((KET, ref), (BRA, np.conj(ref))):
                values = evaluate(eigenfunction(family, n), x)
                np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0,
                                           err_msg=f"{family} level {n}")
