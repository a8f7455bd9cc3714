"""Symbolic operator expressions, the physical adjoint, a tiny grammar, and
their evaluation in normal order.

The physical adjoint of the imaginary-frequency ladder operators is not
the matrix conjugate-transpose in the biorthogonal frame: each generator
maps to (sigma * i) times itself, with a global sign sigma in {+1, -1}
coming from the branch of the square root in the generator prefactor.
The adjoint is therefore implemented structurally on expression trees
(reverse products, conjugate scalars, rephase generators) and only then
evaluated.  None of the verified operator identities depend on sigma;
both settings are exercised by the test suite.

Every operator of the grammar is a polynomial in a+ and a-, and
[a-, a+] = 1 brings it to normal order: a sum ``{(j, k): c}`` of words
c a+^j a-^k with the raising operators on the left (Blasiak, Horzela,
Penson, Solomon, Duchamp, Am. J. Phys. 75, 639 (2007)).  A product may
reach degree ``MAX_DEGREE`` in the generators and is refused beyond it.
Both walks visit each distinct node of the parse DAG once.  The normal
form is the untruncated operator, without a truncation edge:
:func:`to_matrix` writes its leading block, and :func:`identity_residual`
compares two sides on the leading nmax x nmax block, one diagonal at a
time in O(nmax) memory, after they cancel word by word.

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


def _walk_dag(expr: OperatorExpression, visit):
    """``visit(node, walk)`` at ``expr``, ``walk`` visiting each distinct node
    once: ``comm(a, b)`` refers to a and b twice, so a tree walk costs 2^depth.
    The memo is keyed by ``id``, as hashing a frozen node walks its subtree,
    and holds each node, so that no id is reused during the walk."""
    memo: dict[int, tuple] = {}

    def walk(node):
        hit = memo.get(id(node))
        if hit is None:
            hit = memo[id(node)] = (node, visit(node, walk))
        return hit[1]
    try:
        return walk(expr)
    finally:
        del walk  # walk refers to itself: free it and the memo now, not at a collection


def adjoint(expr: OperatorExpression, sigma: int = ADJOINT_SIGN) -> OperatorExpression:
    """Physical adjoint: antihomomorphism with generators mapping to sigma*i times themselves."""
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")

    def visit(node, walk):
        if isinstance(node, (AMinus, APlus)):
            return Scaled(sigma * 1j, node)
        if isinstance(node, Identity):
            return node
        if isinstance(node, Scaled):
            return Scaled(np.conj(node.scalar), walk(node.child))
        if isinstance(node, OpSum):
            return OpSum(tuple(walk(t) for t in node.terms))
        if isinstance(node, OpProduct):
            return OpProduct(tuple(walk(f) for f in reversed(node.factors)))
        raise TypeError(f"not an operator expression: {node!r}")
    return _walk_dag(expr, visit)


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


#: Largest degree j + k of a word a+^j a-^k that a product may produce: the
#: product of two forms of degree d costs about d^5 operations, about 50 ms
#: at this cap.  The verified identities reach degree 4.
MAX_DEGREE = 32


def _collect(terms) -> dict[tuple[int, int], complex]:
    """Sum (word, coefficient) pairs by word, dropping the words that cancel exactly."""
    out: dict[tuple[int, int], complex] = {}
    for word, c in terms:
        out[word] = out.get(word, 0) + c
    return {word: c for word, c in out.items() if c != 0}


def _product(left: dict, right: dict) -> dict[tuple[int, int], complex]:
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


def _normal_form(expr: OperatorExpression) -> dict[tuple[int, int], complex]:
    """``expr`` as {(j, k): c}, the operator sum c a+^j a-^k of the untruncated
    algebra; a form is shared between the nodes that reach it, and never mutated."""
    def visit(node, walk):
        if isinstance(node, (AMinus, APlus, Identity)):
            return {(int(isinstance(node, APlus)), int(isinstance(node, AMinus))): 1 + 0j}
        if isinstance(node, Scaled):
            return {word: node.scalar * c for word, c in walk(node.child).items()}
        if isinstance(node, OpSum):
            return _collect(item for t in node.terms for item in walk(t).items())
        if isinstance(node, OpProduct):
            return functools.reduce(_product, map(walk, node.factors))
        raise TypeError(f"not an operator expression: {node!r}")
    return _walk_dag(expr, visit)


def _diagonals(form: dict[tuple[int, int], complex], size: int):
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
    for p, d in _diagonals(_normal_form(expr), dim):
        out += np.diag(d, p)
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


def identity_residual(lhs: OperatorExpression, rhs: OperatorExpression, nmax: int) -> float:
    """Max-entry residual of ``lhs == rhs`` on the leading nmax x nmax block.

    The sides are subtracted word by word in normal order, so a true
    identity cancels before any matrix entry is formed; only the rounding of
    scalar coefficients can remain.  Finite scalars whose products overflow
    leave no finite difference: the residual is then inf, never NaN.
    """
    _check_dim(nmax, minimum=1)
    diff = _normal_form(op_sum(lhs, scaled(-1.0, rhs)))
    with np.errstate(over="ignore", invalid="ignore"):
        worst = [np.max(np.abs(d)) for _, d in _diagonals(diff, nmax)]
    residual = float(np.max(worst, initial=0.0))
    return residual if math.isfinite(residual) else math.inf


def equation_residual(text: str, nmax: int, sigma: int = ADJOINT_SIGN,
                      omega: float = 1.0) -> float:
    """:func:`identity_residual` of the parsed ``LHS == RHS``."""
    return identity_residual(*parse_equation(text, sigma, omega), nmax)
