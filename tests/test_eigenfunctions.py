import dataclasses
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import mpmath
import numpy as np
import pytest
from numpy.polynomial import hermite as nherm
from numpy.polynomial import polynomial as npoly

from iwqm import eigenfunctions
from iwqm.algebra import BRA, BRA_PHASE, KET
from iwqm.eigenfunctions import (
    Eigenfunction,
    eigenfunction,
    evaluate,
    evaluate_levels,
    exact_form,
    generating_function,
    hermite_coefficients,
    hermite_levels,
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


def bra_form(n: int, phase: complex) -> eigenfunctions.ExactForm:
    """The exact form of bra level n under the bra phase ``phase``: the
    opposite of ``BRA_PHASE`` gives the parity image, the default form times
    (-1)^n."""
    form = exact_form(eigenfunction(BRA, n))
    if phase == BRA_PHASE:
        return form
    return dataclasses.replace(form, scale=(-1) ** n * form.scale)


@pytest.mark.parametrize("bra_phase", [1j, -1j])
@pytest.mark.parametrize("n", range(1, 6))
def test_bra_ladder_identity_pointwise(n, bra_phase):
    # the bra lowering step returns bra_phase * sqrt(n) times the previous level
    lowered = lowering(bra_form(n, bra_phase))
    target = bra_phase * np.sqrt(n) * bra_form(n - 1, bra_phase).values(X_INNER)
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
    # the alternative phase gives its parity image, which deviates by the
    # unimodular factor (-1)^n
    ket_vals = evaluate(eigenfunction(KET, n), X_INNER)
    bra_vals = evaluate(eigenfunction(BRA, n), X_INNER)
    np.testing.assert_allclose(bra_vals, np.conj(ket_vals), atol=1e-12)
    alt_vals = bra_form(n, -BRA_PHASE).values(X_INNER)
    np.testing.assert_allclose(alt_vals, (-1.0) ** n * np.conj(ket_vals), atol=1e-12)


def test_eigenfunction_level_zero_is_generating_function():
    assert eigenfunction(KET, 0) == generating_function(KET)
    assert eigenfunction(BRA, 0) == generating_function(BRA)


def test_evaluate_scalar_matches_array():
    for family in (KET, BRA):
        f = eigenfunction(family, 3)
        value = evaluate(f, 1.25)
        assert type(value) is complex
        assert value == evaluate(f, np.array([1.25]))[0]
    # a point alone and inside an array get the same bits: about half of
    # these differed in the last bit while the ground state's complex
    # product ran in place on a one-element array
    x = np.random.default_rng(2000).uniform(-5.0, 5.0, 2000)
    for f in (eigenfunction(KET, 0), eigenfunction(BRA, 10)):
        values = evaluate(f, x)
        assert all(evaluate(f, float(xi)) == v for xi, v in zip(x, values)), f


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


def _in_place_levels(z, start, number):
    # each level is copied as it is yielded: the recurrence reuses its buffers
    return np.array([scale * q for scale, q in islice(hermite_levels(z, start), number)])


def _gauss_hermite_nodes():
    return nherm.hermgauss(64)[0].astype(complex)


def _rotated_ground(x):
    return np.exp(0.25j * np.pi) * x, (1j / np.pi) ** 0.25 * np.exp(-0.5j * x * x)


def test_in_place_recurrence_is_bitwise_the_allocating_one(reference_levels):
    nodes = _gauss_hermite_nodes()
    rotated, ground = _rotated_ground(np.linspace(-6.0, 6.0, 2001))
    for z, start in ((nodes, np.ones_like(nodes)), (rotated, ground)):
        expected = reference_levels(z, start.copy(), 65)
        assert np.array_equal(_in_place_levels(z, start.copy(), 65), expected)


def test_in_place_recurrence_overwrites_a_level_two_levels_later():
    z = np.linspace(-2.0, 2.0, 7).astype(complex)
    start = np.ones_like(z)
    gen = hermite_levels(z, start)
    scale0, level0 = next(gen)
    assert level0 is start and scale0 == 1.0
    next(gen)
    assert np.array_equal(level0, np.ones_like(z))
    next(gen)
    assert not np.array_equal(level0, np.ones_like(z))


def test_scaled_recurrence_matches_the_normalized_one(normalized_levels):
    # levels 0-200 on [-5, 5] (no point at x = 0) and 0-64 on the real
    # Gauss-Hermite nodes; both ranges fold the scale into the arrays
    rotated, ground = _rotated_ground(np.linspace(-5.0, 5.0, 1000))
    expected = np.array(list(islice(normalized_levels(rotated, ground), 201)))
    np.testing.assert_allclose(_in_place_levels(rotated, ground.copy(), 201), expected,
                               rtol=1e-13, atol=0)
    nodes = _gauss_hermite_nodes()
    expected = np.array(list(islice(normalized_levels(nodes, np.ones_like(nodes)), 65)))
    # the nodes sit near zeros of the levels (all of level 64), so each
    # point is measured against the largest of its levels
    defect = np.abs(_in_place_levels(nodes, np.ones_like(nodes), 65) - expected)
    assert np.max(defect / np.abs(expected).max(axis=0)) <= 1e-13
    for z, start, number in ((rotated, ground, 201), (nodes, np.ones_like(nodes), 65)):
        scales = [scale for scale, _ in islice(hermite_levels(z, start.copy()), number)]
        assert min(scales) >= 1.0
        assert any(later > earlier for earlier, later in zip(scales[2:], scales[3:]))  # a fold


@pytest.mark.parametrize("n, x", [(100000, np.linspace(-0.5, 0.5, 21)),
                                  # at the overflow edge: about 1e288, 1e297 and 1e302
                                  (30, np.array([1e10, -1e10])), (31, np.array([1e10, -1e10])),
                                  (30, np.array([3e10, -3e10]))])
def test_evaluate_matches_the_normalized_recurrence(n, x, normalized_levels):
    rotated, ground = _rotated_ground(x)
    expected = next(islice(normalized_levels(rotated, ground), n, None))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = evaluate(eigenfunction(KET, n), x)
    assert np.all(np.isfinite(values))
    np.testing.assert_allclose(values, expected, rtol=1e-13 if n == 100000 else 1e-12, atol=0)


def test_evaluate_result_owns_its_memory():
    x = np.linspace(-3.0, 3.0, 201)
    before = x.copy()
    first = evaluate(eigenfunction(KET, 7), x)
    second = evaluate(eigenfunction(BRA, 7), x)
    assert not np.shares_memory(first, x)
    assert not np.shares_memory(first, second)
    assert np.array_equal(x, before)
    np.testing.assert_allclose(second, np.conj(first), atol=1e-15)


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, 1e200, [0.0, 2e154]])
def test_evaluate_refuses_x_with_non_finite_phase(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite x\\^2/2"):
            evaluate(eigenfunction(KET, 2), x)


def test_evaluate_refuses_overflowing_levels():
    # the phase of x = 1e100 is finite, but psi_5 ~ x^5 is not
    assert abs(evaluate(eigenfunction(KET, 0), 1e100)) == pytest.approx(np.pi ** -0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="level 5 overflows"):
            evaluate(eigenfunction(KET, 5), np.array([0.0, 1e100]))


BLOCK = 2 ** 15


def _allocating_ground(x):
    # the ground state as one unblocked pass over the whole grid, its complex
    # product into a new array: in place, a one-element array rounds it
    # differently from a longer one
    phase = x * -0.5 * x
    ground = np.empty(x.shape, dtype=complex)
    ground.real, ground.imag = np.cos(phase), np.sin(phase)
    return ground * (1j / np.pi) ** 0.25


#: Levels checked on the multi-block grids: both buffer parities, the folds
#: into the arrays at levels 4 and 43, and the top (a sweep of all 65 levels
#: costs about 0.6 s per 2^15 points).
SAMPLED_LEVELS = {0, 1, 2, 3, 4, 5, 32, 42, 43, 44, 63, 64}


@pytest.mark.parametrize("size, checked", [(1, range(65)), (BLOCK, SAMPLED_LEVELS),
                                           (BLOCK + 1, SAMPLED_LEVELS),
                                           (3 * BLOCK + 7, SAMPLED_LEVELS)])
def test_blocked_evaluate_is_bitwise_the_allocating_recurrence(size, checked, scaled_levels):
    # the last point, x = 5, is one where numpy's in-place complex product
    # of a one-element array rounds differently from the same product in a
    # longer one, so a one-point last block must not change its ground state
    x = np.linspace(-5.0, 5.0, size)
    levels = scaled_levels(np.exp(0.25j * np.pi) * x, _allocating_ground(x))
    for n, (scale, q) in zip(range(65), levels):
        if n in checked:
            expected = scale * q
            assert np.array_equal(evaluate(eigenfunction(KET, n), x), expected), n
            assert np.array_equal(evaluate(eigenfunction(BRA, n), x), np.conj(expected)), n


def test_scratch_buffers_are_reset_before_use(reference_levels):
    z, start = _rotated_ground(np.linspace(-4.0, 4.0, 301))
    scratch = np.full((2, 301), np.nan + 1j * np.inf)
    levels = [scale * q for scale, q in islice(hermite_levels(z, start.copy(), scratch), 40)]
    assert np.array_equal(levels, reference_levels(z, start.copy(), 40))


def _later_block(value):
    x = np.zeros(BLOCK + 5)
    x[-1] = value
    return x


@pytest.mark.parametrize("value", [np.inf, np.nan, 2e154])
def test_non_finite_phase_in_a_later_block_is_refused(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite x\\^2/2"):
            evaluate(eigenfunction(KET, 3), _later_block(value))


def test_overflow_in_a_later_block_is_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="level 5 overflows at \\|x\\| up to 1e\\+100"):
            evaluate(eigenfunction(KET, 5), _later_block(1e100))


def test_evaluate_result_does_not_share_the_workspace():
    x = np.linspace(-3.0, 3.0, BLOCK + 3)
    work = eigenfunctions._workspace()
    assert work.shape == (3, BLOCK)
    for n in (0, 1, 2, 9):  # the level ends in either recurrence buffer
        first = evaluate(eigenfunction(KET, n), x)
        kept = first.copy()
        assert not np.shares_memory(first, work)
        evaluate(eigenfunction(BRA, n + 1), x[::-1])
        assert eigenfunctions._workspace() is work
        assert np.array_equal(first, kept)


@pytest.mark.parametrize("values", [lambda x: evaluate(eigenfunction(KET, 40), x),
                                    lambda x: evaluate_levels(BRA, 8, x)],
                         ids=["evaluate", "evaluate_levels"])
def test_threads_evaluate_concurrently_as_they_do_serially(values):
    # four threads, switching often: a workspace shared between
    # threads would mix their grids
    grids = [np.linspace(-4.0, 4.0, BLOCK + 11), np.linspace(-2.0, 5.0, 20001),
             np.linspace(-1.0, 3.0, 2 * BLOCK + 1), np.linspace(-5.0, 5.0, 4001)]
    serial = [values(x) for x in grids]
    barrier = threading.Barrier(len(grids))

    def run(x, expected):
        barrier.wait(timeout=60)
        return eigenfunctions._workspace(), [np.array_equal(values(x), expected)
                                             for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(grids)) as pool:
            futures = [pool.submit(run, x, expected) for x, expected in zip(grids, serial)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len({id(work) for work, _ in results}) == len(grids)  # one workspace per thread
    for _, equal in results:
        assert all(equal)


#: Tops whose last level ends in either recurrence buffer, low and high.
TOPS = [0, 1, 2, 9]


@pytest.mark.parametrize("family", [KET, BRA])
@pytest.mark.parametrize("top", TOPS)
def test_evaluate_levels_rows_are_evaluate_bit_for_bit(family, top):
    x = np.linspace(-4.0, 4.0, BLOCK + 3)  # across a block boundary
    rows = evaluate_levels(family, top, x)
    assert rows.shape == (top + 1, x.size)
    for n, row in enumerate(rows):
        assert np.array_equal(row, evaluate(eigenfunction(family, n), x)), n


def test_evaluate_levels_takes_scalars_and_grids():
    for x in (1.25, np.float64(1.25), np.array(1.25)):
        for family in (KET, BRA):
            rows = evaluate_levels(family, 4, x)
            assert rows.shape == (5,)
            assert rows.tolist() == [evaluate(eigenfunction(family, n), 1.25) for n in range(5)]
    grid = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    rows = evaluate_levels(KET, 3, grid)
    assert rows.shape == (4, 3, 4)
    assert np.array_equal(rows[2], evaluate(eigenfunction(KET, 2), grid))


def test_evaluate_levels_refuses_what_evaluate_refuses():
    with pytest.raises(ValueError, match="family must be"):
        evaluate_levels("middle", 2, 0.0)
    with pytest.raises(ValueError, match="level must be nonnegative"):
        evaluate_levels(KET, -1, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.inf, np.nan, 1e200, [0.0, 2e154], _later_block(np.inf)):
            with pytest.raises(ValueError, match="finite x\\^2/2"):
                evaluate_levels(KET, 2, x)
        # levels 5-7 overflow at 1e100, and the message names the top
        for x in (np.array([0.0, 1e100]), _later_block(1e100)):
            with pytest.raises(ValueError, match="level 7 overflows at \\|x\\| up to 1e\\+100"):
                evaluate_levels(BRA, 7, x)


def test_evaluate_levels_result_does_not_share_the_workspace():
    x = np.linspace(-3.0, 3.0, BLOCK + 3)
    work = eigenfunctions._workspace()
    for top in TOPS:
        first = evaluate_levels(KET, top, x)
        kept = first.copy()
        assert not np.shares_memory(first, work)
        evaluate_levels(BRA, top + 1, x[::-1])
        assert eigenfunctions._workspace() is work
        assert work.shape == (3, BLOCK)
        assert np.array_equal(first, kept)
