"""Symbolic operator expressions, the physical adjoint, a tiny grammar, and
their evaluation as diagonal bands.

The physical adjoint of the imaginary-frequency ladder operators is not
the matrix conjugate-transpose in the biorthogonal frame: each generator
maps to (sigma * i) times itself, with a global sign sigma in {+1, -1}
coming from the branch of the square root in the generator prefactor.
The adjoint is therefore implemented structurally on expression trees
(reverse products, conjugate scalars, rephase generators) and only then
evaluated.  None of the verified operator identities depend on sigma;
both settings are exercised by the test suite.

In the truncated Fock basis every operator of the grammar is a few
diagonals, so a tree is evaluated as bands ``{p: d}`` with
``d[i] = M[i, i + p]`` (length dim, zero where i + p leaves the matrix):
a- is :func:`ladder_band` at offset +1, a+ the same values at offset -1,
I ones at offset 0.  A scalar scales the bands, a sum adds them offset by
offset, and the product of band a at p with band b at q is
``a[i] * b[i + p]`` at offset p + q, with b[i + p] = 0 outside the
matrix, which is the truncation of the dense product.
:func:`identity_residual` subtracts the two sides band by band in O(dim)
memory and time, and :func:`equation_residual` does so for parsed text;
:func:`to_matrix` writes the bands into one dense matrix.

The named operators n, H, x, p and the SU(1,1) generators are defined
here once, as trees.  Every operator identity that :mod:`iwqm.verify`
checks is a pair of such trees compared by :func:`identity_residual`;
:func:`iwqm.algebra.build_hamiltonian` densifies H for the eigensolver.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

#: Default adjoint sign: conj(sqrt(i/2)) / sqrt(i/2) = -i on the principal
#: branch, i.e. a^dag = -i a.
ADJOINT_SIGN = -1


class OperatorExpression:
    """Base class for expression-tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class AMinus(OperatorExpression):
    pass


@dataclass(frozen=True)
class APlus(OperatorExpression):
    pass


@dataclass(frozen=True)
class Identity(OperatorExpression):
    pass


@dataclass(frozen=True)
class Scaled(OperatorExpression):
    scalar: complex
    child: OperatorExpression


@dataclass(frozen=True)
class OpSum(OperatorExpression):
    terms: tuple


@dataclass(frozen=True)
class OpProduct(OperatorExpression):
    factors: tuple


A_MINUS = AMinus()
A_PLUS = APlus()
IDENTITY = Identity()


def scaled(scalar: complex, child: OperatorExpression) -> OperatorExpression:
    return Scaled(complex(scalar), child)


def op_sum(*terms: OperatorExpression) -> OperatorExpression:
    return OpSum(tuple(terms))


def op_product(*factors: OperatorExpression) -> OperatorExpression:
    return OpProduct(tuple(factors))


def commutator(a: OperatorExpression, b: OperatorExpression) -> OperatorExpression:
    """[a, b] = a b - b a."""
    return op_sum(op_product(a, b), scaled(-1.0, op_product(b, a)))


def adjoint(expr: OperatorExpression, sigma: int = ADJOINT_SIGN) -> OperatorExpression:
    """Physical adjoint: antihomomorphism with generators mapping to sigma*i times themselves."""
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
    if isinstance(expr, (AMinus, APlus)):
        return Scaled(sigma * 1j, expr)
    if isinstance(expr, Identity):
        return expr
    if isinstance(expr, Scaled):
        return Scaled(np.conj(expr.scalar), adjoint(expr.child, sigma))
    if isinstance(expr, OpSum):
        return OpSum(tuple(adjoint(t, sigma) for t in expr.terms))
    if isinstance(expr, OpProduct):
        return OpProduct(tuple(adjoint(f, sigma) for f in reversed(expr.factors)))
    raise TypeError(f"not an operator expression: {expr!r}")


def _check_dim(dim: int, minimum: int = 2) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < minimum:
        raise ValueError(f"truncation dimension must be an integer >= {minimum}, got {dim!r}")


# Bounded: truncations come from user input.
@functools.lru_cache(maxsize=64)
def ladder_band(dim: int) -> np.ndarray:
    """sqrt(1..dim-1): the entries sqrt(n) of a- at (n-1, n) and of a+ at (n, n-1).

    Computed once per truncation and shared by every caller, so the array
    is read-only.
    """
    band = np.sqrt(np.arange(1, dim, dtype=float))
    band.setflags(write=False)
    return band


def _shifted(band: np.ndarray, p: int) -> np.ndarray:
    """out[i] = band[i + p], zero where i + p leaves 0..dim-1."""
    if p == 0:
        return band
    out = np.zeros_like(band)
    if p > 0:
        out[:-p] = band[p:]
    else:
        out[-p:] = band[:p]
    return out


def _add(bands: dict[int, np.ndarray], p: int, d: np.ndarray) -> None:
    bands[p] = bands[p] + d if p in bands else d


def _bands(expr: OperatorExpression, dim: int) -> dict[int, np.ndarray]:
    """The diagonals of ``expr`` at truncation dim, keyed by offset."""
    if isinstance(expr, (AMinus, APlus)):
        d = np.zeros(dim, dtype=complex)
        if isinstance(expr, AMinus):
            d[:-1] = ladder_band(dim)
            return {1: d}
        d[1:] = ladder_band(dim)
        return {-1: d}
    if isinstance(expr, Identity):
        return {0: np.ones(dim, dtype=complex)}
    if isinstance(expr, Scaled):
        return {p: expr.scalar * d for p, d in _bands(expr.child, dim).items()}
    if isinstance(expr, OpSum):
        out: dict[int, np.ndarray] = {}
        for t in expr.terms:
            for p, d in _bands(t, dim).items():
                _add(out, p, d)
        return out
    if isinstance(expr, OpProduct):
        out = _bands(expr.factors[0], dim)
        for f in expr.factors[1:]:
            right = _bands(f, dim)
            product: dict[int, np.ndarray] = {}
            for p, a in out.items():
                for q, b in right.items():
                    if abs(p + q) < dim:
                        _add(product, p + q, a * _shifted(b, p))
            out = product
        return out
    raise TypeError(f"not an operator expression: {expr!r}")


def _rows(p: int, size: int) -> slice:
    """Rows i of band p whose entry (i, i + p) lies in the leading size x size block."""
    return slice(max(0, -p), max(0, size - max(0, p)))


def to_matrix(expr: OperatorExpression, dim: int) -> np.ndarray:
    """Evaluate an expression to a dense matrix on ket-family coefficients."""
    _check_dim(dim)
    out = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    for p, d in _bands(expr, dim).items():
        rows = index[_rows(p, dim)]
        out[rows, rows + p] = d[rows]
    return out


# ---------------------------------------------------------------------------
# named operators
# ---------------------------------------------------------------------------

def number_expression() -> OperatorExpression:
    """n = a+ a-."""
    return op_product(A_PLUS, A_MINUS)


def hamiltonian_expression(omega: float = 1.0) -> OperatorExpression:
    """H = i omega (n + 1/2)."""
    return scaled(1j * omega, op_sum(number_expression(), scaled(0.5, IDENTITY)))


def position_expression() -> OperatorExpression:
    """x = (a- + a+) / sqrt(2i)."""
    return scaled(1 / np.sqrt(2j), op_sum(A_MINUS, A_PLUS))


def momentum_expression() -> OperatorExpression:
    """p = (a- - a+) / sqrt(2i)."""
    return scaled(1 / np.sqrt(2j), op_sum(A_MINUS, scaled(-1.0, A_PLUS)))


def su11_expressions() -> dict[str, OperatorExpression]:
    """The hyperbolic generators as expression trees: Sz = (a+ a- + 1/2)/2,
    S+- = a+-^2 / 2, Sx = (S+ + S-)/2 and Sy = (i/2)(S+ - S-).

    This is the one definition of the generators.  The Sy sign is the one
    under which the full relation set [Sx, Sy] = i Sz, [Sz, S+-] = +-S+-,
    [S+, S-] = -2 Sz holds simultaneously (the opposite sign flips the
    first commutator).
    """
    sz = scaled(0.5, op_sum(op_product(A_PLUS, A_MINUS), scaled(0.5, IDENTITY)))
    s_plus = scaled(0.5, op_product(A_PLUS, A_PLUS))
    s_minus = scaled(0.5, op_product(A_MINUS, A_MINUS))
    sx = scaled(0.5, op_sum(s_plus, s_minus))
    sy = scaled(0.5j, op_sum(s_plus, scaled(-1.0, s_minus)))
    return {"Sz": sz, "S+": s_plus, "S-": s_minus, "Sx": sx, "Sy": sy}


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


class _Parser:
    def __init__(self, text: str, sigma: int, omega: float):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.sigma = sigma
        self.named = {"n": number_expression(), "H": hamiltonian_expression(omega),
                      "I": IDENTITY, "a-": A_MINUS, "a+": A_PLUS}
        self.named.update(su11_expressions())

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

    def parse_expr(self) -> OperatorExpression:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            if op == "-":
                rhs = Scaled(-1.0 + 0j, rhs)
            node = op_sum(node, rhs)
        return node

    def parse_term(self) -> OperatorExpression:
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            node = op_product(node, self.parse_factor())
        return node

    def parse_factor(self) -> OperatorExpression:
        if self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            child = self.parse_factor()
            return Scaled(-1.0 + 0j, child) if op == "-" else child
        return self.parse_primary()

    def parse_primary(self) -> OperatorExpression:
        kind, value, pos = self.advance()
        if kind in ("NUM", "IMAG"):
            number = float(value)
            if not np.isfinite(number):
                raise ExpressionParseError(f"scalar literal {value!r} is out of range", pos)
            return Scaled(1j * number if kind == "IMAG" else complex(number), IDENTITY)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "NAME":
            if value == "i":
                return Scaled(1j, IDENTITY)
            if value == "adj":
                self.expect("(")
                child = self.parse_expr()
                self.expect(")")
                return adjoint(child, self.sigma)
            if value == "comm":
                self.expect("(")
                a = self.parse_expr()
                self.expect(",")
                b = self.parse_expr()
                self.expect(")")
                return commutator(a, b)
            return self.named[value]
        raise ExpressionParseError(f"unexpected token {value!r}", pos)


def parse_expression(text: str, sigma: int = ADJOINT_SIGN, omega: float = 1.0) -> OperatorExpression:
    """Parse a single operator expression."""
    parser = _Parser(text, sigma, omega)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ExpressionParseError(f"trailing input {tok[1]!r}", tok[2])
    return node


def parse_equation(text: str, sigma: int = ADJOINT_SIGN,
                   omega: float = 1.0) -> tuple[OperatorExpression, OperatorExpression]:
    """Parse ``LHS == RHS`` into a pair of expression trees."""
    parser = _Parser(text, sigma, omega)
    lhs = parser.parse_expr()
    parser.expect("EQ")
    rhs = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ExpressionParseError(f"trailing input {tok[1]!r}", tok[2])
    return lhs, rhs


def identity_residual(lhs: OperatorExpression, rhs: OperatorExpression,
                      nmax: int, guard: int = 8) -> float:
    """Max-entry residual of ``lhs == rhs`` on the leading nmax block.

    Both sides are evaluated at truncation nmax + guard so that edge
    artifacts of finite generator words stay outside the compared block;
    with guard k the block is that of the dense identity at truncation
    nmax + k with its last k rows and columns dropped.  The sides are
    subtracted band by band; no dense matrix is formed.  Finite scalars
    whose products overflow leave no finite difference: the residual is
    then inf, a failed check, and never NaN.
    """
    _check_dim(nmax, minimum=1)
    dim = nmax + guard
    with np.errstate(over="ignore", invalid="ignore"):
        diff = _bands(lhs, dim)
        for p, d in _bands(rhs, dim).items():
            _add(diff, p, -d)
    worst = [np.max(np.abs(d[_rows(p, nmax)])) for p, d in diff.items() if abs(p) < nmax]
    residual = float(np.max(worst, initial=0.0))
    return residual if math.isfinite(residual) else math.inf


def equation_residual(text: str, nmax: int, sigma: int = ADJOINT_SIGN,
                      omega: float = 1.0) -> float:
    """:func:`identity_residual` of the parsed ``LHS == RHS``, at the default guard."""
    return identity_residual(*parse_equation(text, sigma, omega), nmax)
