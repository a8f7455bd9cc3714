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
dense H from :func:`to_matrix`.  The module imports no other module of
the package.
"""

from __future__ import annotations

import functools
import math
import re
from types import MappingProxyType

import numpy as np

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


def _check_dim(dim: int, minimum: int = 2) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < minimum:
        raise ValueError(f"truncation dimension must be an integer >= {minimum}, got {dim!r}")


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
    _check_dim(dim)
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
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be finite and positive, got {omega!r}")
    return scaled(1j * omega, _NUMBER_PLUS_HALF)


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
# grammar:  expr (== expr)?  with  * binding tighter than binary +/-
# atoms: a-  a+  I  Sz  S+  S-  Sx  Sy  n  H, scalar literals (2, 0.5, 2i, i),
# functions adj(e), comm(a, b)
# ---------------------------------------------------------------------------

class ExpressionParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_KEYWORDS = ("adj", "comm", "a-", "a+", "Sz", "S+", "S-", "Sx", "Sy", "n", "H", "I", "i")
_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if text.startswith("==", pos):
            tokens.append(("EQ", "==", pos))
            pos += 2
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            end = m.end()
            if end < len(text) and text[end] == "i":
                tokens.append(("IMAG", m.group(), pos))
                pos = end + 1
            else:
                tokens.append(("NUM", m.group(), pos))
                pos = end
            continue
        for kw in _KEYWORDS:
            if text.startswith(kw, pos):
                following = text[pos + len(kw):pos + len(kw) + 1]
                if kw.isalnum() and following.isalnum():
                    continue  # e.g. "np" must not match atom "n"
                tokens.append(("NAME", kw, pos))
                pos += len(kw)
                break
        else:
            if ch in "*+-(),":
                tokens.append((ch, ch, pos))
                pos += 1
            else:
                raise ExpressionParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("END", "", len(text)))
    return tokens


#: Deepest nesting the parser takes, counted over parentheses, the arguments
#: of adj and comm, and unary signs: a level costs at most five Python
#: frames, so a parse stays well inside the default recursion limit of 1000.
MAX_NESTING = 100

_NAMED = {"n": _NUMBER, "I": IDENTITY, "a-": A_MINUS, "a+": A_PLUS, **_SU11}


class _Parser:
    def __init__(self, text: str, omega: float):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.omega = omega

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

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
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            node = op_sum(node, scaled(-1.0, rhs) if op == "-" else rhs)
        return node

    def parse_term(self) -> OperatorExpression:
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            node = op_product(node, self.parse_factor())
        return node

    def parse_factor(self) -> OperatorExpression:
        kind, _, pos = self.peek()
        if kind in ("+", "-"):
            self.advance()
            child = self.nested(self.parse_factor, pos)
            return scaled(-1.0, child) if kind == "-" else child
        return self.parse_primary()

    def parse_primary(self) -> OperatorExpression:
        kind, value, pos = self.advance()
        if kind in ("NUM", "IMAG"):
            number = float(value)
            if not np.isfinite(number):
                raise ExpressionParseError(f"scalar literal {value!r} is out of range", pos)
            return scaled(1j * number if kind == "IMAG" else number, IDENTITY)
        if kind == "(":
            node = self.nested(self.parse_expr, pos)
            self.expect(")")
            return node
        if kind == "NAME":
            if value == "i":
                return scaled(1j, IDENTITY)
            if value == "H":
                return hamiltonian_expression(self.omega)
            if value in ("adj", "comm"):
                self.expect("(")
                args = [self.nested(self.parse_expr, pos)]
                if value == "comm":
                    self.expect(",")
                    args.append(self.nested(self.parse_expr, pos))
                self.expect(")")
                return adjoint(*args) if value == "adj" else commutator(*args)
            return _NAMED[value]
        raise ExpressionParseError(f"unexpected token {value!r}", pos)


def parse_expression(text: str, *, omega: float = 1.0) -> OperatorExpression:
    """Parse a single operator expression."""
    parser = _Parser(text, omega)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ExpressionParseError(f"trailing input {tok[1]!r}", tok[2])
    return node


def parse_equation(text: str, *,
                   omega: float = 1.0) -> tuple[OperatorExpression, OperatorExpression]:
    """Parse ``LHS == RHS`` into a pair of forms."""
    parser = _Parser(text, omega)
    lhs = parser.parse_expr()
    parser.expect("EQ")
    rhs = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ExpressionParseError(f"trailing input {tok[1]!r}", tok[2])
    return lhs, rhs


def identity_residual(lhs: OperatorExpression, rhs: OperatorExpression, nmax: int) -> float:
    """Max-entry residual of ``lhs == rhs`` on the leading nmax x nmax block.

    The sides are subtracted word by word in normal order, so a true
    identity cancels before any matrix entry is formed; only the rounding of
    scalar coefficients can remain.  Finite scalars whose products overflow
    leave no finite difference: the residual is then inf, never NaN.
    """
    _check_dim(nmax, minimum=1)
    diff = op_sum(lhs, scaled(-1.0, rhs))
    with np.errstate(over="ignore", invalid="ignore"):
        worst = [np.max(np.abs(d)) for _, d in _diagonals(diff, nmax)]
    residual = float(np.max(worst, initial=0.0))
    return residual if math.isfinite(residual) else math.inf


def equation_residual(text: str, nmax: int, *, omega: float = 1.0) -> float:
    """:func:`identity_residual` of the parsed ``LHS == RHS``."""
    return identity_residual(*parse_equation(text, omega=omega), nmax)
