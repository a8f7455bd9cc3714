import gc
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwqm import expressions, verify
from iwqm.expressions import (
    A_MINUS,
    A_PLUS,
    IDENTITY,
    AMinus,
    APlus,
    ExpressionParseError,
    Identity,
    OpProduct,
    OpSum,
    Scaled,
    adjoint,
    equation_residual,
    hamiltonian_expression,
    identity_residual,
    momentum_expression,
    number_expression,
    op_product,
    op_sum,
    parse_equation,
    parse_expression,
    position_expression,
    scaled,
    su11_expressions,
    to_matrix,
)

DIM = 12
BLOCK = slice(0, DIM - 1)


def _mat(expr):
    return to_matrix(expr, DIM)


@pytest.mark.parametrize("sigma", [-1, 1])
def test_adjoint_number_is_pseudo_hermitian(sigma, dense_ladder):
    adj_n = _mat(adjoint(number_expression(), sigma))
    low, rai = dense_ladder(DIM)
    target = -(rai @ low + np.eye(DIM))
    assert np.max(np.abs((adj_n - target)[BLOCK, BLOCK])) <= 1e-12


@pytest.mark.parametrize("sigma", [-1, 1])
def test_adjoint_hamiltonian_is_hermitian(sigma):
    ham = hamiltonian_expression(1.7)
    residual = _mat(adjoint(ham, sigma)) - _mat(ham)
    assert np.max(np.abs(residual[BLOCK, BLOCK])) <= 1e-12


@pytest.mark.parametrize("sigma", [-1, 1])
def test_adjoint_is_involutive(sigma):
    samples = [
        A_MINUS,
        op_product(A_PLUS, A_MINUS),
        scaled(2.0 - 0.5j, op_sum(A_MINUS, op_product(A_PLUS, A_PLUS))),
        hamiltonian_expression(0.8),
    ]
    for expr in samples:
        twice = adjoint(adjoint(expr, sigma), sigma)
        np.testing.assert_allclose(_mat(twice), _mat(expr), atol=1e-13)


@pytest.mark.parametrize("sigma", [-1, 1])
def test_adjoint_reverses_products(sigma):
    prod = op_product(A_MINUS, A_PLUS, A_MINUS)
    lhs = _mat(adjoint(prod, sigma))
    rhs = (_mat(adjoint(A_MINUS, sigma)) @ _mat(adjoint(A_PLUS, sigma))
           @ _mat(adjoint(A_MINUS, sigma)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("sigma", [-1, 1])
def test_su11_adjoint_signs(sigma):
    su = su11_expressions()
    for name, sign in (("Sz", -1), ("S+", -1), ("S-", -1), ("Sx", -1), ("Sy", +1)):
        residual = _mat(adjoint(su[name], sigma)) - sign * _mat(su[name])
        assert np.max(np.abs(residual[BLOCK, BLOCK])) <= 1e-12, name


def test_to_matrix_generators(dense_ladder):
    low, rai = dense_ladder(DIM)
    np.testing.assert_array_equal(_mat(A_MINUS), low)
    np.testing.assert_array_equal(_mat(A_PLUS), rai)
    np.testing.assert_array_equal(_mat(IDENTITY), np.eye(DIM))


def _dense_reference(expr, ladder):
    """Dense evaluation from the generators ``ladder = (lowering, raising)``
    and ``@``, independent of the normal form."""
    low, rai = ladder
    dim = low.shape[0]
    if isinstance(expr, AMinus):
        return low
    if isinstance(expr, APlus):
        return rai
    if isinstance(expr, Identity):
        return np.eye(dim, dtype=low.dtype)
    if isinstance(expr, Scaled):
        return expr.scalar * _dense_reference(expr.child, ladder)
    if isinstance(expr, OpSum):
        return sum((_dense_reference(t, ladder) for t in expr.terms),
                   np.zeros((dim, dim), low.dtype))
    if isinstance(expr, OpProduct):
        out = np.eye(dim, dtype=low.dtype)
        for f in expr.factors:
            out = out @ _dense_reference(f, ladder)
        return out
    raise TypeError(expr)


def _trees(sigma):
    scalars = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)

    def extend(children):
        return st.one_of(
            st.builds(scaled, scalars, children),
            st.lists(children, min_size=1, max_size=3).map(lambda t: op_sum(*t)),
            st.lists(children, min_size=1, max_size=3).map(lambda f: op_product(*f)),
            children.map(lambda c: adjoint(c, sigma)),
            st.tuples(children, children).map(
                lambda ab: op_sum(op_product(*ab), scaled(-1.0, op_product(*ab[::-1])))),
        )
    return st.recursive(st.sampled_from([A_MINUS, A_PLUS, IDENTITY]), extend, max_leaves=10)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.integers(4, 40), sigma=st.sampled_from([1, -1]))
def test_to_matrix_matches_dense_reference(data, dim, sigma, dense_ladder):
    expr = data.draw(_trees(sigma))
    # a word of at most max_leaves = 10 generators never leaves the truncation
    # at dim + 10 from the leading dim levels, so the crop is untruncated.
    # Normal order cancels a vanishing word exactly, while float64 products
    # leave eps times the intermediate entries (up to ~1e-12 when they reach
    # ~5e3): the reference is evaluated in extended precision instead.
    ladder = dense_ladder(dim + 10, np.clongdouble)
    reference = _dense_reference(expr, ladder)[:dim, :dim].astype(complex)
    atol = 1e-12 * (1.0 + np.max(np.abs(reference)))
    np.testing.assert_allclose(to_matrix(expr, dim), reference, rtol=0, atol=atol)


def test_position_and_momentum_expressions(dense_ladder):
    low, rai = dense_ladder(DIM)
    np.testing.assert_allclose(_mat(position_expression()), (low + rai) / np.sqrt(2j),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(_mat(momentum_expression()), (low - rai) / np.sqrt(2j),
                               rtol=0, atol=1e-15)


# (nmax, omega) across the sizes and curvatures verify takes
PARITY_POINTS = [(27, 40.0), (53, 10.0), (84, 1.0), (95, 0.05)]


def _skip_grid(*args, **kwargs):
    raise verify.dynamics.GridLeakError("the grid checks are not under test here")


@pytest.mark.parametrize("sigma", [-1, 1])
@pytest.mark.parametrize("nmax,omega", PARITY_POINTS)
def test_verify_identity_sides_match_dense_reference(nmax, omega, sigma, monkeypatch,
                                                     dense_ladder):
    monkeypatch.setattr(verify.dynamics, "grid_split_step", _skip_grid)
    cfg = verify.RunConfig(nmax=nmax, omega=omega, sigma=sigma)
    rows = verify.algebra_identities(cfg) + verify.heisenberg_identities(omega)
    checks = {c.name: c for suite in (verify.algebra_suite(cfg), verify.correspondence_suite(cfg))
              for c in suite.checks}
    # the rows' words have at most four generators: the crop is untruncated
    ladder = dense_ladder(nmax + 4)
    for name, anchor, lhs, rhs, tol in rows:
        assert (checks[name].anchor, checks[name].tolerance) == (anchor, tol)
        assert checks[name].passed, (name, checks[name].residual)
        for side in (lhs, rhs):
            reference = _dense_reference(side, ladder)[:nmax, :nmax]
            atol = 1e-12 * (1.0 + np.max(np.abs(reference)))
            np.testing.assert_allclose(to_matrix(side, nmax), reference, rtol=0, atol=atol,
                                       err_msg=name)


@pytest.mark.parametrize("dim", [2, 8, 160])
def test_ladder_band_is_one_read_only_array_per_truncation(dim, dense_ladder):
    band = expressions.ladder_band(dim)
    assert expressions.ladder_band(dim) is band
    np.testing.assert_array_equal(band, np.sqrt(np.arange(1, dim)))
    with pytest.raises(ValueError):
        band[0] = 2.0
    np.testing.assert_array_equal(dense_ladder(dim)[0].diagonal(1), band)


def test_to_matrix_product_order(dense_ladder):
    ab = _mat(op_product(A_MINUS, A_PLUS))
    low, rai = dense_ladder(DIM)
    np.testing.assert_allclose(ab[BLOCK, BLOCK], (low @ rai)[BLOCK, BLOCK])


def test_adjoint_rejects_bad_sigma():
    with pytest.raises(ValueError):
        adjoint(A_MINUS, 2)


@pytest.mark.parametrize("text", [
    "comm(a-, a+) == I",
    "adj(n) == -(n + I)",
    "adj(H) == H",
    "comm(S+, S-) == -2*Sz",
    "comm(Sx, Sy) == i*Sz",
    "comm(Sz, S+) == S+",
    "comm(Sz, S-) == -S-",
    "H == i*(n + 0.5*I)",
    "2i*Sz == i*(2*Sz)",
    "a+*a- + I == a-*a+",
    "adj(adj(a-)) == a-",
])
@pytest.mark.parametrize("sigma", [-1, 1])
def test_identities_hold(text, sigma):
    assert equation_residual(text, 24, sigma) <= 1e-10, text


def test_identity_failure_is_detected():
    assert equation_residual("adj(n) == n", 24) > 1.0


@pytest.mark.parametrize("text", [
    "1e200*1e200*I - 1e200*1e200*I == I",
    "1e200*1e200*I == 1e200*1e200*I",
    "a- + 1e200*1e200*a+ - 1e200*1e200*a+ == a-",
])
def test_overflowing_scalars_give_infinite_residual(text):
    # the NaN of one band must not hide behind the finite entries of another
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert equation_residual(text, 8) == float("inf")


def test_equation_residual_at_nmax_100000(run_capped):
    # a dense evaluation at this size needs a 74.5 GiB array
    code = ("import time; from iwqm.expressions import equation_residual; "
            "t = time.perf_counter(); r = equation_residual('comm(Sx, Sy) == i*Sz', 100000); "
            "print(r, time.perf_counter() - t)")
    done = run_capped("-c", code)
    assert done.returncode == 0, done.stderr
    residual, seconds = map(float, done.stdout.split())
    assert seconds < 1.0
    # the two products of the commutator reach nmax^2 / 4 and cancel in normal order
    assert residual == 0.0


def _nested(depth: int, inner: str, outer: str) -> str:
    """``outer`` wrapped ``depth`` times around ``inner``, at its ``{}``."""
    for _ in range(depth):
        inner = outer.format(inner)
    return inner


@pytest.mark.parametrize("text", [
    _nested(30, "a-", "comm({}, I)") + " == 0*I",
    _nested(30, "a+", "comm(n, {})") + " == a+",
    "adj(" + _nested(30, "a+", "comm(n, {})") + ") == -i*a+",
], ids=["comm_I", "comm_n", "adj_comm_n"])
def test_nested_commutators_cost_linear_in_the_parse_dag(text):
    # comm(a, b) refers to each operand twice, so a walk that followed the
    # parse DAG as a tree would visit 2^30 nodes here
    start = time.perf_counter()
    residual = equation_residual(text, 64)
    assert time.perf_counter() - start < 1.0
    assert residual == 0.0


def test_walks_leave_no_reference_cycle():
    # the memoized walk refers to itself; it must free its memo of every node
    # and form on return, not leave it to the cycle collector (the youngest
    # generation holds everything the call allocates while collection is off)
    gc.collect(0)
    gc.disable()
    try:
        equation_residual("adj(comm(S+, S-)) == 2*Sz", 8)
        assert gc.collect(0) == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("nmax", [0, -3, 2.5])
def test_equation_residual_refuses_empty_block(nmax):
    with pytest.raises(ValueError, match="integer >= 1"):
        equation_residual("a- == a-", nmax)


def test_parse_expression_scalars():
    dim = 4
    np.testing.assert_allclose(to_matrix(parse_expression("2.5i"), dim), 2.5j * np.eye(4))
    np.testing.assert_allclose(to_matrix(parse_expression("-3"), dim), -3.0 * np.eye(4))
    np.testing.assert_allclose(to_matrix(parse_expression("i*i"), dim), -np.eye(4))


def test_parse_precedence():
    # * binds tighter than +
    lhs = to_matrix(parse_expression("n + 2*Sz"), 8)
    rhs = to_matrix(number_expression(), 8) + 2 * to_matrix(su11_expressions()["Sz"], 8)
    np.testing.assert_allclose(lhs, rhs)


def test_parse_equation_splits_sides():
    lhs, rhs = parse_equation("a- == a-")
    np.testing.assert_array_equal(to_matrix(lhs, 4), to_matrix(rhs, 4))


@pytest.mark.parametrize("text,position", [
    ("a- $ a+", 3),
    ("comm(a-)", 7),
    ("adj(a-", 6),
    ("a- ==", 5),
    ("a- == a+ extra", None),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ExpressionParseError) as err:
        parse_equation(text)
    if position is not None:
        assert err.value.position == position


@pytest.mark.parametrize("text,position", [
    ("1e400*I == I", 0),
    ("I == 2*1e400i", 7),
])
def test_scalar_literal_out_of_range_is_a_parse_error(text, position):
    with pytest.raises(ExpressionParseError, match="out of range") as err:
        parse_equation(text)
    assert err.value.position == position


@pytest.mark.parametrize("text", ["comm(Sx, Sy) == i*Sz", "adj(n) == n", "H == 2i*Sz"])
def test_equation_residual_is_identity_residual_of_the_parsed_sides(text):
    assert equation_residual(text, 20) == identity_residual(*parse_equation(text), 20)


def test_parse_error_on_missing_equality():
    with pytest.raises(ExpressionParseError):
        parse_equation("a- + a+")


def test_trailing_input_rejected():
    with pytest.raises(ExpressionParseError):
        parse_expression("a- a+")
