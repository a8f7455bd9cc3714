import gc
import math
import re
import time
import warnings
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwqm import expressions, verify
from iwqm.expressions import (
    A_MINUS,
    A_PLUS,
    ADJOINT_SIGN,
    IDENTITY,
    ExpressionParseError,
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


def _adjoint(form, sigma):
    """The adjoint of a form under the sign ``sigma``: the package's for
    ``ADJOINT_SIGN``, and for the opposite sign its parity image P adj(A) P,
    which multiplies the word (j, k) by (-1)^(j+k)."""
    form = adjoint(form)
    if sigma == ADJOINT_SIGN:
        return form
    return MappingProxyType({(j, k): c * (-1) ** (j + k) for (j, k), c in form.items()})


@pytest.mark.parametrize("sigma", [-1, 1])
def test_adjoint_number_is_pseudo_hermitian(sigma, dense_ladder):
    adj_n = _mat(_adjoint(number_expression(), sigma))
    low, rai = dense_ladder(DIM)
    target = -(rai @ low + np.eye(DIM))
    assert np.max(np.abs((adj_n - target)[BLOCK, BLOCK])) <= 1e-12


@pytest.mark.parametrize("sigma", [-1, 1])
def test_adjoint_hamiltonian_is_hermitian(sigma):
    ham = hamiltonian_expression(1.7)
    residual = _mat(_adjoint(ham, sigma)) - _mat(ham)
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
        twice = _adjoint(_adjoint(expr, sigma), sigma)
        np.testing.assert_allclose(_mat(twice), _mat(expr), atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.integers(4, 16))
@pytest.mark.parametrize("sigma", [-1, 1])
def test_adjoint_reverses_products(sigma, data, dim, dense_ladder):
    prod = op_product(A_MINUS, A_PLUS, A_MINUS)
    lhs = _mat(_adjoint(prod, sigma))
    rhs = (_mat(_adjoint(A_MINUS, sigma)) @ _mat(_adjoint(A_PLUS, sigma))
           @ _mat(_adjoint(A_MINUS, sigma)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    # adj(A B) = adj(B) adj(A) and adj(c A) = conj(c) adj(A) on random forms,
    # against the dense reference of the trees' own adjoint
    a, b = data.draw(_SMALL_TREES), data.draw(_SMALL_TREES)
    c = data.draw(_SCALARS)
    ladder = dense_ladder(dim + 10, np.clongdouble)
    form_a, form_b = _build(a, sigma), _build(b, sigma)
    for form, tree in ((_adjoint(op_product(form_a, form_b), sigma), ("adj", ("prod", a, b))),
                       (op_product(_adjoint(form_b, sigma), _adjoint(form_a, sigma)),
                        ("prod", ("adj", b), ("adj", a))),
                       (_adjoint(scaled(c, form_a), sigma), ("adj", ("scaled", c, a))),
                       (scaled(np.conj(c), _adjoint(form_a, sigma)),
                        ("scaled", np.conj(c), ("adj", a)))):
        _assert_matches_reference(form, tree, sigma, ladder, dim)


@pytest.mark.parametrize("sigma", [-1, 1])
def test_su11_adjoint_signs(sigma):
    su = su11_expressions()
    for name, sign in (("Sz", -1), ("S+", -1), ("S-", -1), ("Sx", -1), ("Sy", +1)):
        residual = _mat(_adjoint(su[name], sigma)) - sign * _mat(su[name])
        assert np.max(np.abs(residual[BLOCK, BLOCK])) <= 1e-12, name


@pytest.mark.parametrize("form", [A_MINUS, parse_expression("comm(S+, S-)")],
                         ids=["A_MINUS", "parsed"])
def test_forms_are_read_only(form):
    words = dict(form)
    with pytest.raises(TypeError):
        form[(0, 0)] = 1.0
    with pytest.raises(TypeError):
        form |= {(0, 0): 1.0}
    with pytest.raises(TypeError):
        del form[next(iter(form))]
    assert dict(form) == words


def test_to_matrix_generators(dense_ladder):
    low, rai = dense_ladder(DIM)
    np.testing.assert_array_equal(_mat(A_MINUS), low)
    np.testing.assert_array_equal(_mat(A_PLUS), rai)
    np.testing.assert_array_equal(_mat(IDENTITY), np.eye(DIM))


# Test-local operator trees, independent of the package's normal form: a leaf
# "a-", "a+" or "I", or a tuple ("scaled", c, tree), ("sum", *trees),
# ("prod", *trees) or ("adj", tree).

def _build(tree, sigma):
    """The package form of ``tree``, through the public constructors."""
    if isinstance(tree, str):
        return {"a-": A_MINUS, "a+": A_PLUS, "I": IDENTITY}[tree]
    kind, *args = tree
    if kind == "scaled":
        return scaled(args[0], _build(args[1], sigma))
    children = [_build(t, sigma) for t in args]
    if kind == "adj":
        return _adjoint(*children, sigma)
    return (op_sum if kind == "sum" else op_product)(*children)


def _adjoint_tree(tree, sigma):
    """The physical adjoint on trees: products reversed, scalars conjugated,
    each generator times sigma*i."""
    if tree == "I":
        return tree
    if isinstance(tree, str):
        return ("scaled", sigma * 1j, tree)
    kind, *args = tree
    if kind == "scaled":
        return ("scaled", np.conj(args[0]), _adjoint_tree(args[1], sigma))
    if kind == "adj":
        return _adjoint_tree(_adjoint_tree(args[0], sigma), sigma)
    children = [_adjoint_tree(t, sigma) for t in args]
    return (kind, *(children[::-1] if kind == "prod" else children))


def _dense_reference(tree, ladder, sigma):
    """Dense evaluation of a tree from the generators ``ladder = (lowering,
    raising)`` and ``@``, independent of the normal form."""
    low, rai = ladder
    dim = low.shape[0]
    if isinstance(tree, str):
        return {"a-": low, "a+": rai, "I": np.eye(dim, dtype=low.dtype)}[tree]
    kind, *args = tree
    if kind == "scaled":
        return args[0] * _dense_reference(args[1], ladder, sigma)
    if kind == "adj":
        return _dense_reference(_adjoint_tree(args[0], sigma), ladder, sigma)
    out = np.zeros((dim, dim), low.dtype) if kind == "sum" else np.eye(dim, dtype=low.dtype)
    for t in args:
        m = _dense_reference(t, ladder, sigma)
        out = out + m if kind == "sum" else out @ m
    return out


def _assert_matches_reference(form, tree, sigma, ladder, dim):
    # a word of at most 10 generators never leaves the truncation at dim + 10
    # from the leading dim levels, so the crop is untruncated.  Normal order
    # cancels a vanishing word exactly, while float64 products leave eps times
    # the intermediate entries (up to ~1e-12 when they reach ~5e3): the
    # reference is evaluated in extended precision instead.
    reference = _dense_reference(tree, ladder, sigma)[:dim, :dim].astype(complex)
    atol = 1e-12 * (1.0 + np.max(np.abs(reference)))
    np.testing.assert_allclose(to_matrix(form, dim), reference, rtol=0, atol=atol)


_SCALARS = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def _trees(max_leaves=10):
    def extend(children):
        return st.one_of(
            st.tuples(st.just("scaled"), _SCALARS, children),
            st.lists(children, min_size=1, max_size=3).map(lambda t: ("sum", *t)),
            st.lists(children, min_size=1, max_size=3).map(lambda f: ("prod", *f)),
            children.map(lambda c: ("adj", c)),
            st.tuples(children, children).map(
                lambda ab: ("sum", ("prod", *ab), ("scaled", -1.0, ("prod", *ab[::-1])))),
        )
    return st.recursive(st.sampled_from(["a-", "a+", "I"]), extend, max_leaves=max_leaves)


_TREES, _SMALL_TREES = _trees(), _trees(max_leaves=5)


@settings(max_examples=40, deadline=None)
@given(tree=_SMALL_TREES)
def test_opposite_sign_adjoint_is_the_parity_image(tree):
    # verify and these tests take the opposite sign's adjoint as P adj(A) P;
    # the adjoint computed under the flipped constant is that, bit for bit
    form = _build(tree, ADJOINT_SIGN)
    image = _adjoint(form, -ADJOINT_SIGN)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expressions, "ADJOINT_SIGN", -ADJOINT_SIGN)
        assert adjoint(form) == image


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.integers(4, 40), sigma=st.sampled_from([1, -1]))
def test_to_matrix_matches_dense_reference(data, dim, sigma, dense_ladder):
    tree = data.draw(_TREES)
    ladder = dense_ladder(dim + 10, np.clongdouble)
    _assert_matches_reference(_build(tree, sigma), tree, sigma, ladder, dim)


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


def _row_trees(omega):
    """Every row of verify's operator tables as a pair of test-local trees."""
    n = ("prod", "a+", "a-")
    ham = ("scaled", 1j * omega, ("sum", n, ("scaled", 0.5, "I")))
    x = ("scaled", 1 / np.sqrt(2j), ("sum", "a-", "a+"))
    p = ("scaled", 1 / np.sqrt(2j), ("sum", "a-", ("scaled", -1.0, "a+")))
    sz = ("scaled", 0.5, ("sum", n, ("scaled", 0.5, "I")))
    s_plus, s_minus = ("scaled", 0.5, ("prod", "a+", "a+")), ("scaled", 0.5, ("prod", "a-", "a-"))
    sx = ("scaled", 0.5, ("sum", s_plus, s_minus))
    sy = ("scaled", 0.5j, ("sum", s_plus, ("scaled", -1.0, s_minus)))

    def comm(a, b):
        return ("sum", ("prod", a, b), ("scaled", -1.0, ("prod", b, a)))

    def neg(a):
        return ("scaled", -1.0, a)
    return {
        "commutator_ladder": (comm("a-", "a+"), "I"),
        "adjoint_position": (("adj", x), x),
        "adjoint_momentum": (("adj", p), p),
        "adjoint_number": (("adj", n), neg(("sum", n, "I"))),
        "adjoint_hamiltonian": (("adj", ham), ham),
        "adjoint_sz": (("adj", sz), neg(sz)),
        "adjoint_s_plus": (("adj", s_plus), neg(s_plus)),
        "adjoint_s_minus": (("adj", s_minus), neg(s_minus)),
        "adjoint_sx": (("adj", sx), neg(sx)),
        "adjoint_sy": (("adj", sy), sy),
        "commutator_sx_sy": (comm(sx, sy), ("scaled", 1j, sz)),
        "commutator_sz_s_plus": (comm(sz, s_plus), s_plus),
        "commutator_sz_s_minus": (comm(sz, s_minus), neg(s_minus)),
        "commutator_s_plus_s_minus": (comm(s_plus, s_minus), ("scaled", -2.0, sz)),
        "hamiltonian_su11": (ham, ("scaled", 2j * omega, sz)),
        "heisenberg_x": (comm(x, ham), ("scaled", 1j * omega, p)),
        "heisenberg_p": (comm(p, ham), ("scaled", 1j * omega, x)),
    }


@pytest.mark.parametrize("sigma", [-1, 1])
@pytest.mark.parametrize("nmax,omega", PARITY_POINTS)
def test_verify_identity_sides_match_dense_reference(nmax, omega, sigma, monkeypatch,
                                                     dense_ladder):
    monkeypatch.setattr(verify.dynamics, "grid_split_step", _skip_grid)
    # the opposite sign's rows, through the parity image of verify's adjoint
    monkeypatch.setattr(verify, "adjoint", lambda form: _adjoint(form, sigma))
    cfg = verify.RunConfig(nmax=nmax, omega=omega)
    rows = verify.algebra_identities(omega) + verify.heisenberg_identities(omega)
    trees = _row_trees(omega)
    assert [row[0] for row in rows] == list(trees)
    checks = {c.name: c for suite in (verify.algebra_suite(cfg), verify.correspondence_suite(cfg))
              for c in suite.checks}
    # the rows' words have at most four generators: the crop is untruncated
    ladder = dense_ladder(nmax + 4)
    for name, anchor, lhs, rhs, tol in rows:
        assert (checks[name].anchor, checks[name].tolerance) == (anchor, tol)
        # x and p are self-adjoint only under ADJOINT_SIGN; the other rows
        # have even degree and hold under either sign
        expected = sigma == ADJOINT_SIGN or name not in ("adjoint_position", "adjoint_momentum")
        assert checks[name].passed == expected, (name, checks[name].residual)
        for side, tree in zip((lhs, rhs), trees[name]):
            reference = _dense_reference(tree, ladder, sigma)[:nmax, :nmax]
            atol = 1e-12 * (1.0 + np.max(np.abs(reference)))
            np.testing.assert_allclose(to_matrix(side, nmax), reference, rtol=0, atol=atol,
                                       err_msg=name)


def test_to_matrix_product_order(dense_ladder):
    ab = _mat(op_product(A_MINUS, A_PLUS))
    low, rai = dense_ladder(DIM)
    np.testing.assert_allclose(ab[BLOCK, BLOCK], (low @ rai)[BLOCK, BLOCK])


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
def test_identities_hold(text, sigma, monkeypatch):
    # the parser's adj, under the opposite sign, is the parity image
    monkeypatch.setattr(expressions, "adjoint", lambda form: _adjoint(form, sigma))
    assert equation_residual(text, 24) <= 1e-10, text


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
    # comm(a, b) refers to each operand twice, so an evaluation that followed
    # the parse as a tree would visit 2^30 nodes here; the parser builds each
    # operand's form once, bottom up
    start = time.perf_counter()
    residual = equation_residual(text, 64)
    assert time.perf_counter() - start < 1.0
    assert residual == 0.0


def test_walks_leave_no_reference_cycle():
    # parsing and evaluation must free every form on return, not leave it to
    # the cycle collector (the youngest generation holds everything the call
    # allocates while collection is off)
    gc.collect(0)
    gc.disable()
    try:
        equation_residual("adj(comm(S+, S-)) == 2*Sz", 8)
        assert gc.collect(0) == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("omega", [0.0, -1.0, float("nan"), float("inf")])
def test_equation_residual_refuses_the_omega_of_h(omega):
    # H == H read 0.0 at omega -1 and inf at nan; an equation without H
    # does not read omega
    for text in ("H == H", "adj(H) == H"):
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            equation_residual(text, 8, omega=omega)
    assert equation_residual("a- == a-", 8, omega=omega) == 0.0


@pytest.mark.parametrize("nmax", [0, -3, 2.5])
def test_equation_residual_refuses_empty_block(nmax):
    with pytest.raises(ValueError, match=r"^nmax must be (an integer|at least 1), got "):
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
    ("a- == a+ extra", 9),
    # an alphanumeric name may not run on into a letter or digit
    ("np == n", 0),
    ("Szx == Sz", 0),
    ("I == ii", 5),
    ("adjx(a-) == a-", 0),
    ("a- + Hn == a-", 5),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ExpressionParseError) as err:
        parse_equation(text)
    assert err.value.position == position


@pytest.mark.parametrize("name", list(expressions._NAMES))
def test_each_table_name_is_one_token(name):
    assert expressions._tokenize(f" {name} ") == [("NAME", name, 1), ("END", "", len(name) + 2)]


def test_readme_names_the_grammar_of_the_table():
    readme = (Path(expressions.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"`expressions\._NAMES`: the atoms(.*?)Besides", readme, re.DOTALL)[1]
    assert sorted(re.findall(r"`(.+?)(?:\(.*?\))?`", listed)) == sorted(expressions._NAMES)


#: Pieces of text from the grammar's alphabet, with run-on names, bad
#: characters and non-ASCII letters and digits
_PIECES = [*expressions._NAMES, "*", "+", "-", "(", ")", ",", "==", "=", "2", "0.5", "2i", "1e3",
           "1e400", "7.", "x", "_", "$", "ä", "٣", "Ⅻ", "²", "\t"]
_ATOMS = [name for name, entry in expressions._NAMES.items()
          if not isinstance(entry, tuple) or entry[1] == 0] + ["2", "0.5i", "1e200"]
_SIDES = st.recursive(st.sampled_from(_ATOMS), lambda side: st.one_of(
    st.tuples(side, st.sampled_from([" + ", " - ", "*"]), side).map("".join),
    side.map("-{}".format), side.map("adj({})".format),
    st.tuples(side, side).map(lambda ab: "comm({}, {})".format(*ab))), max_leaves=3)
_EQUATIONS = st.tuples(_SIDES, _SIDES).map(" == ".join)
_TEXTS = st.one_of(
    st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(["", " "])), max_size=12)
    .map(lambda pieces: "".join(piece + gap for piece, gap in pieces)),
    _EQUATIONS,
    # an equation with one piece put in at a drawn place
    st.tuples(_EQUATIONS, st.integers(0, 40), st.sampled_from(_PIECES))
    .map(lambda e: e[0][:e[1]] + e[2] + e[0][e[1]:]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_TEXTS)
def test_parse_equation_returns_forms_or_refuses_at_a_position(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sides = parse_equation(text)
        except ExpressionParseError as err:
            assert 0 <= err.position <= len(text), text
            return
        except ValueError as err:
            assert "normal-order cap" in str(err), text
            return
        assert len(sides) == 2 and all(isinstance(f, MappingProxyType) for f in sides)
        residual = equation_residual(text, 8)
    assert type(residual) is float and not math.isnan(residual), text


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
