"""Operators in normal order, the physical adjoint, a tiny grammar, and
their evaluation on the leading block.

Every operator of the grammar is a polynomial in a+ and a-, and
[a-, a+] = 1 brings it to normal order: a sum of words c a+^j a-^k with
the raising operators on the left (Blasiak, Horzela, Penson, Solomon,
Duchamp, Am. J. Phys. 75, 639 (2007)).  An :data:`OperatorExpression` is
that sum itself, the read-only map ``{(j, k): c}``: the generators are
one-word forms, a scalar scales the coefficients, a sum adds them word by
word, and a product moves each a-^k past a+^l.  A product may reach degree
``MAX_DEGREE`` in the generators and is refused beyond it.  The normal
form is the untruncated operator, without a truncation edge:
:func:`to_matrix` writes its leading block, and :func:`identity_residual`
compares two sides on the leading nmax x nmax block, one diagonal at a
time in O(nmax) memory, after they cancel word by word.

The physical adjoint of the imaginary-frequency ladder operators is not
the matrix conjugate-transpose in the biorthogonal frame: each generator
a maps to s i a, and x = (a- + a+) / sqrt(2i) and p are self-adjoint only
for s i = conj(sqrt(2i)) / sqrt(2i) = -i, on either branch of the root,
so s is the constant :data:`ADJOINT_SIGN`.  Products reverse and scalars
conjugate, so :func:`adjoint` maps the word c a+^j a-^k to
conj(c) (s i)^(j+k) a-^k a+^j and brings that back to normal order.

The named operators n, H, x, p and the SU(1,1) generators are defined
here once, as forms built at import (H per omega).  Every operator
identity that :mod:`iwqm.verify` checks is a pair of forms compared by
:func:`identity_residual`; the spectrum suite's eigensolver takes the
dense H from :func:`to_matrix`.  Of the package, the module imports only
the argument checks of :mod:`iwqm.algebra`.
"""

from __future__ import annotations

import functools
import math
import re
from types import MappingProxyType

import numpy as np

from .algebra import _require_integer, _require_positive

#: The sign s of the physical adjoint a^dag = s i a: the one sign under which
#: x and p are self-adjoint.
ADJOINT_SIGN = -1

#: An operator as its normal-ordered words: the read-only map {(j, k): c} of
#: the sum c a+^j a-^k, so a form shared between operators is never mutated.
OperatorExpression = MappingProxyType

#: Largest degree j + k of a word a+^j a-^k that a product may produce: the
#: product of two forms of degree d costs about d^5 operations, about 50 ms
#: at this cap.  The verified identities reach degree 4.
MAX_DEGREE = 32


def _collect(terms) -> OperatorExpression:
    """Sum (word, coefficient) pairs by word, dropping the words that cancel exactly."""
    out: dict[tuple[int, int], complex] = {}
    for word, c in terms:
        out[word] = out.get(word, 0) + c
    return MappingProxyType({word: c for word, c in out.items() if c != 0})


def _product(left, right) -> OperatorExpression:
    """Normal form of a product, from a-^k a+^l = sum_r C(k,r) C(l,r) r! a+^(l-r) a-^(k-r)."""
    degree = max(map(sum, left), default=0) + max(map(sum, right), default=0)
    if degree > MAX_DEGREE:
        raise ValueError(f"a product of degree {degree} exceeds the normal-order cap "
                         f"of {MAX_DEGREE}")
    out: dict[tuple[int, int], complex] = {}
    for (j, k), c in left.items():
        for (l, m), d in right.items():
            cd, weight = c * d, 1
            for r in range(min(k, l) + 1):
                word = (j + l - r, k + m - r)
                out[word] = out.get(word, 0) + cd * weight
                weight = weight * (k - r) * (l - r) // (r + 1)
    return _collect(out.items())


A_MINUS = MappingProxyType({(0, 1): 1 + 0j})
A_PLUS = MappingProxyType({(1, 0): 1 + 0j})
IDENTITY = MappingProxyType({(0, 0): 1 + 0j})


def scaled(scalar: complex, child: OperatorExpression) -> OperatorExpression:
    scalar = complex(scalar)
    return MappingProxyType({word: scalar * c for word, c in child.items()})


def op_sum(*terms: OperatorExpression) -> OperatorExpression:
    return _collect(item for t in terms for item in t.items())


def op_product(*factors: OperatorExpression) -> OperatorExpression:
    return functools.reduce(_product, factors)


def commutator(a: OperatorExpression, b: OperatorExpression) -> OperatorExpression:
    """[a, b] = a b - b a."""
    return op_sum(op_product(a, b), scaled(-1.0, op_product(b, a)))


def adjoint(expr: OperatorExpression) -> OperatorExpression:
    """Physical adjoint: the word c a+^j a-^k maps to conj(c) (s i)^(j+k) a-^k a+^j,
    with s = :data:`ADJOINT_SIGN`."""
    return _collect((word, c.conjugate() * (ADJOINT_SIGN * 1j) ** (j + k) * d)
                    for (j, k), c in expr.items()
                    for word, d in _product({(0, k): 1}, {(j, 0): 1}).items())


def _diagonals(form: OperatorExpression, size: int):
    """Yield (p, d) for the diagonals of a normal form's leading size x size
    block: d[s] is the entry at (s, s + p) for p >= 0, at (s - p, s) for p < 0.

    Word (j, k) takes level m + k to m + j with weight sqrt((m+j)! (m+k)!) / m!,
    which is s!/(s - t)! sqrt((s+1)...(s+|p|)) with s = m + t, t = min(j, k)
    and p = k - j: the paired factors are exact integers, so n and H are exact.
    """
    for p in {k - j for j, k in form if abs(k - j) < size}:
        s = np.arange(size - abs(p), dtype=float)
        poly = sum(c * np.prod(s - np.arange(min(j, k))[:, None], axis=0)
                   for (j, k), c in form.items() if k - j == p)
        yield p, poly * np.sqrt(np.prod(s + np.arange(1, abs(p) + 1)[:, None], axis=0))


def to_matrix(expr: OperatorExpression, dim: int) -> np.ndarray:
    """The leading dim x dim block of an expression's untruncated operator, on
    ket-family coefficients."""
    dim = _require_integer("dim", dim, minimum=2)
    out = np.zeros((dim, dim), dtype=complex)
    for p, d in _diagonals(expr, dim):
        out += np.diag(d, p)
    return out


# ---------------------------------------------------------------------------
# named operators
# ---------------------------------------------------------------------------

_NUMBER = op_product(A_PLUS, A_MINUS)
_NUMBER_PLUS_HALF = op_sum(_NUMBER, scaled(0.5, IDENTITY))
_POSITION = scaled(1 / np.sqrt(2j), op_sum(A_MINUS, A_PLUS))
_MOMENTUM = scaled(1 / np.sqrt(2j), op_sum(A_MINUS, scaled(-1.0, A_PLUS)))
_S_PLUS = scaled(0.5, op_product(A_PLUS, A_PLUS))
_S_MINUS = scaled(0.5, op_product(A_MINUS, A_MINUS))
_SU11 = {
    "Sz": scaled(0.5, _NUMBER_PLUS_HALF),
    "S+": _S_PLUS,
    "S-": _S_MINUS,
    "Sx": scaled(0.5, op_sum(_S_PLUS, _S_MINUS)),
    "Sy": scaled(0.5j, op_sum(_S_PLUS, scaled(-1.0, _S_MINUS))),
}


def number_expression() -> OperatorExpression:
    """n = a+ a-."""
    return _NUMBER


def hamiltonian_expression(omega: float = 1.0) -> OperatorExpression:
    """H = i omega (n + 1/2), for a finite and positive omega."""
    return scaled(1j * _require_positive("omega", omega), _NUMBER_PLUS_HALF)


def position_expression() -> OperatorExpression:
    """x = (a- + a+) / sqrt(2i)."""
    return _POSITION


def momentum_expression() -> OperatorExpression:
    """p = (a- - a+) / sqrt(2i)."""
    return _MOMENTUM


def su11_expressions() -> dict[str, OperatorExpression]:
    """The hyperbolic generators: Sz = (a+ a- + 1/2)/2, S+- = a+-^2 / 2,
    Sx = (S+ + S-)/2 and Sy = (i/2)(S+ - S-).

    This is the one definition of the generators.  The Sy sign is the one
    under which the full relation set [Sx, Sy] = i Sz, [Sz, S+-] = +-S+-,
    [S+, S-] = -2 Sz holds simultaneously (the opposite sign flips the
    first commutator).
    """
    return dict(_SU11)


# ---------------------------------------------------------------------------
# grammar:  expr (== expr)?  with  * binding tighter than binary +/-; atoms and
# functions are the names of _NAMES, besides scalar literals (2, 0.5, 2i)
# ---------------------------------------------------------------------------

class ExpressionParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: The grammar's one name table: an atom to its form, a function to the name of
#: the module function that applies it and its arity.  H, the one atom that reads
#: omega, is the function of arity 0, applied to omega.  The parser looks each
#: function up in the module globals when it calls it, so a wrapper bound over
#: one (as the benchmark's tracer binds) sees the call.
_NAMES = {"n": _NUMBER, "I": IDENTITY, "i": scaled(1j, IDENTITY), "a-": A_MINUS,
          "a+": A_PLUS, **_SU11, "H": ("hamiltonian_expression", 0),
          "adj": ("adjoint", 1), "comm": ("commutator", 2)}

#: One token per match, the empty END last.  An alphanumeric name may not run
#: on into a letter or digit ([^\W_] is exactly str.isalnum), so "np" is
#: refused, not read as n p.
_TOKEN = re.compile(
    r"(?P<SPACE>\s+)|(?P<EQ>==)|(?P<NUM>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)(?P<IMAG>i)?|(?P<NAME>"
    + "|".join(re.escape(name) + (r"(?![^\W_])" if name.isalnum() else "") for name in _NAMES)
    + r")|(?P<OP>[*+\-(),])|(?P<END>\Z)|(?P<BAD>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, an operator's kind being its text; a
    scalar's text leaves out the i of an imaginary one."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ExpressionParseError(f"unexpected character {m[0]!r}", m.start())
        if kind != "SPACE":
            tokens.append((m[0] if kind == "OP" else kind, m["NUM"] or m[0], m.start()))
    return tokens


#: Deepest nesting the parser takes, counted over parentheses, the arguments
#: of adj and comm, and unary signs: a level costs at most five Python
#: frames, so a parse stays well inside the default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, omega: float):
        self.tokens = _tokenize(text)
        self.idx = self.depth = 0
        self.omega = omega

    def take(self, *kinds: str, required: bool = False):
        """The next token, consumed, if no ``kinds`` are given or it is of one of
        them; otherwise None, or with ``required`` a parse error at it."""
        tok = self.tokens[self.idx]
        if not kinds or tok[0] in kinds:
            self.idx += 1
            return tok
        if required:
            raise ExpressionParseError(f"expected {kinds[0]!r}, found {tok[1]!r}", tok[2])
        return None

    def nested(self, parse, pos: int) -> OperatorExpression:
        """``parse()`` one nesting level deeper, the level the token at ``pos`` opens."""
        if self.depth == MAX_NESTING:
            raise ExpressionParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_expr(self) -> OperatorExpression:
        node = self.parse_term()
        while op := self.take("+", "-"):
            rhs = self.parse_term()
            node = op_sum(node, scaled(-1.0, rhs) if op[0] == "-" else rhs)
        return node

    def parse_term(self) -> OperatorExpression:
        node = self.parse_factor()
        while self.take("*"):
            node = op_product(node, self.parse_factor())
        return node

    def parse_factor(self) -> OperatorExpression:
        if sign := self.take("+", "-"):
            child = self.nested(self.parse_factor, sign[2])
            return scaled(-1.0, child) if sign[0] == "-" else child
        return self.parse_primary()

    def parse_primary(self) -> OperatorExpression:
        kind, value, pos = self.take()
        if kind in ("NUM", "IMAG"):
            number = float(value)
            if not np.isfinite(number):
                raise ExpressionParseError(f"scalar literal {value!r} is out of range", pos)
            return scaled(1j * number if kind == "IMAG" else number, IDENTITY)
        if kind == "(":
            node = self.nested(self.parse_expr, pos)
            self.take(")", required=True)
            return node
        if kind != "NAME":
            raise ExpressionParseError(f"unexpected token {value!r}", pos)
        entry = _NAMES[value]
        if not isinstance(entry, tuple):
            return entry
        function, arity = entry
        if not arity:
            return globals()[function](self.omega)
        args = []
        for separator in "(,"[:arity]:  # "(" before the first argument, "," before the next
            self.take(separator, required=True)
            args.append(self.nested(self.parse_expr, pos))
        self.take(")", required=True)
        return globals()[function](*args)


def _parse(text: str, omega: float, equation: bool) -> list[OperatorExpression]:
    """The forms of ``text``: one expression, or the two sides of an equation.
    A ``text`` that is not a string is refused with ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"text must be a string, got {text!r}")
    parser = _Parser(text, omega)
    forms = [parser.parse_expr()]
    if equation:
        parser.take("EQ", required=True)
        forms.append(parser.parse_expr())
    kind, value, pos = parser.take()
    if kind != "END":
        raise ExpressionParseError(f"trailing input {value!r}", pos)
    return forms


def parse_expression(text: str, *, omega: float = 1.0) -> OperatorExpression:
    """Parse a single operator expression."""
    return _parse(text, omega, equation=False)[0]


def parse_equation(text: str, *,
                   omega: float = 1.0) -> tuple[OperatorExpression, OperatorExpression]:
    """Parse ``LHS == RHS`` into a pair of forms."""
    return tuple(_parse(text, omega, equation=True))


def identity_residual(lhs: OperatorExpression, rhs: OperatorExpression, nmax: int) -> float:
    """Max-entry residual of ``lhs == rhs`` on the leading nmax x nmax block.

    The sides are subtracted word by word in normal order, so a true
    identity cancels before any matrix entry is formed; only the rounding of
    scalar coefficients can remain.  Finite scalars whose products overflow
    leave no finite difference: the residual is then inf, never NaN.
    """
    nmax = _require_integer("nmax", nmax, minimum=1)
    diff = op_sum(lhs, scaled(-1.0, rhs))
    with np.errstate(over="ignore", invalid="ignore"):
        worst = [np.max(np.abs(d)) for _, d in _diagonals(diff, nmax)]
    residual = float(np.max(worst, initial=0.0))
    return residual if math.isfinite(residual) else math.inf


def equation_residual(text: str, nmax: int, *, omega: float = 1.0) -> float:
    """:func:`identity_residual` of the parsed ``LHS == RHS``."""
    return identity_residual(*parse_equation(text, omega=omega), nmax)
