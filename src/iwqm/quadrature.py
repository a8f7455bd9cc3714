"""Integrals of polynomial * exp(-i x^2) under the oscillatory measure.

The Fresnel-type weight exp(-i x^2) turns into a plain Gaussian on the
contour rotated by exp(-i pi/4), so Gauss-Hermite nodes and weights give
a rule that is exact for polynomials up to degree 2*nodes - 1.  Every
rule result can be cross-checked against the closed-form moment oracle
integral(x^m exp(-i x^2)) = sqrt(pi/i) (m-1)!! / (2i)^(m/2) (even m).

The dual-family pairings are sqrt(i/pi) h_m(z) h_n(z) exp(-i x^2) with
z = e^{i pi/4} x (see :mod:`iwqm.eigenfunctions`), as the bra function is
conj(psi_n) under the one bra phase; the opposite phase would give the
parity image diag((-1)^m) G of the Gram matrix.  On the rotated
contour x = e^{-i pi/4} s the variable z is s itself and dx carries
e^{-i pi/4}, which cancels the phase of sqrt(i/pi): the pairing is the
real Gauss-Hermite orthonormality sum_k w_k h_m(s_k) h_n(s_k) / sqrt(pi).
So the rule path runs the eigenfunction recurrence on the real nodes and
contracts the levels with ``einsum`` (a product this small is slower on
threaded BLAS); the moment path contracts the exact integer Hermite
coefficients with the Gaussian moments instead, one parity at a time,
since H_m has only powers of m's parity and odd moments vanish.  The rule
size follows from nmax alone (:func:`default_node_count`).  The rotated
rule (:class:`ContourQuadrature`) serves the Fresnel check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import _freeze, _read_only, _require_integer, _require_real, _stored
from .eigenfunctions import (_BRA_Z_PHASE, Eigenfunction, _write_levels, evaluate,
                             hermite_coefficients)

#: Contour rotation mapping exp(-i x^2) to exp(-s^2): e^{-i pi/4}, the bra
#: family's phase of its variable z.
ROTATION = _BRA_Z_PHASE

#: Largest Gauss-Hermite rule: numpy 2.4's hermgauss gives weights that are
#: all 0.0 at 371 nodes and non-finite from 372; at 370 the least is 2.4e-308.
MAX_HERMITE_NODES = 370

#: The bound of max|G - I| under which the Gram identity passes.
GRAM_TOLERANCE = 1e-8


@dataclass(frozen=True)
class ContourQuadrature:
    """Gauss-Hermite rule rotated onto the stationary-phase contour: nodes and
    weights of one shape, stored as read-only complex arrays.  :meth:`build`
    refuses a node count that is not an integer of at least 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _stored("nodes", self.nodes, complex)
        weights = _stored("weights", self.weights, complex)
        if weights.shape != nodes.shape:
            raise ValueError(f"weights must be shaped as nodes {nodes.shape}, got {weights.shape}")
        _freeze(self, nodes=nodes, weights=weights)

    @classmethod
    def build(cls, node_count: int) -> "ContourQuadrature":
        h, w = _gauss_hermite(_require_integer("node_count", node_count, minimum=1))
        return cls(ROTATION * h, ROTATION * w)


# Both rule caches are bounded: their node counts come from user input.
@functools.lru_cache(maxsize=64)
def _gauss_hermite(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, computed once per node count.

    The weights are positive in exact arithmetic, so a rule with a weight
    that is not finite and positive is refused.  A refused count raises, so
    the cache never holds it.
    """
    if not 1 <= node_count <= MAX_HERMITE_NODES:
        raise ValueError(f"node_count must be 1 to {MAX_HERMITE_NODES}, got {node_count}: "
                         f"hermgauss gives zero or non-finite weights from {MAX_HERMITE_NODES + 1}")
    with np.errstate(all="ignore"):
        h, w = np.polynomial.hermite.hermgauss(node_count)
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(w)) and np.all(w > 0)):
        raise ValueError(f"hermgauss gives non-finite nodes or weights at {node_count} nodes, "
                         f"or a weight that is not positive (it fails from a few hundred nodes)")
    return _read_only(h), _read_only(w)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count."""
    return tuple(map(_read_only, np.polynomial.legendre.leggauss(node_count)))


def fresnel_gaussian() -> complex:
    """integral(exp(-i x^2)) = sqrt(pi/i) = sqrt(pi) exp(-i pi/4), principal branch."""
    return complex(np.sqrt(np.pi) * ROTATION)


def _rule_pairings(node_count: int, top: int) -> np.ndarray:
    """integral(psi_m psi_n) of ket levels m, n <= top by the real Gauss-Hermite rule."""
    s, w = _gauss_hermite(node_count)
    levels = np.empty((top + 1, node_count))
    _write_levels(s, np.ones(node_count), range(top + 1), levels)
    # einsum sums in its own loop; a matmul this small on threaded BLAS wakes a
    # worker that costs far more than the product
    return np.einsum("in,jn->ij", levels * w, levels) / math.sqrt(math.pi)


def _moment_pairings(top: int) -> np.ndarray:
    """integral(psi_m psi_n) of ket levels m, n <= top, from the integer table.

    integral(z^(2r) exp(-i x^2)) = sqrt(pi/i) (2r-1)!!/2^r, and sqrt(pi/i)
    cancels sqrt(i/pi); the sums are exact integers scaled by 2^top.  H_m
    has only powers of m's parity and odd moments vanish, so each parity
    is contracted on its own powers and unlike parities pair to an exact
    0.  Each nonzero sum takes one division.
    """
    padded = [c + [0] * (top + 1 - len(c)) for c in hermite_coefficients(top)]
    table = np.array(padded, dtype=object)
    # 2^top (2r-1)!!/2^r: the scaled moment of z^(2r)
    scaled = [math.prod(range(1, 2 * r, 2)) << (top - r) for r in range(top + 1)]
    out = np.zeros((top + 1, top + 1))
    for parity in (0, 1):
        # the powers z^(parity + 2a); z^(parity + 2a) z^(parity + 2b) = z^(2r),
        # r = parity + a + b
        width = (top - parity) // 2 + 1
        hankel = np.array([scaled[parity + a:parity + a + width] for a in range(width)],
                          dtype=object)
        block = table[parity::2, parity::2]
        for (a, b), v in np.ndenumerate(block @ hankel @ block.T):
            if v:
                m, n = parity + 2 * a, parity + 2 * b
                denom = 4 ** top * 2 ** (m + n) * math.factorial(m) * math.factorial(n)
                out[m, n] = math.copysign(math.sqrt(v * v / denom), v)
    return out


def default_node_count(nmax: int) -> int:
    """Default rule size of the Gram matrix up to level nmax."""
    return max(64, nmax + 1)


def gram_matrix(nmax: int, use_moments: bool = False) -> np.ndarray:
    """G[m, n] = integral(conj(psi_m^l) psi_n^r) for levels up to nmax; expected identity.

    The rule has :func:`default_node_count` nodes, at least the nmax + 1 that
    integrate the degree-2 nmax integrands exactly, so the rule refuses nmax
    above ``MAX_HERMITE_NODES - 1``; an nmax that is not an integer of at least
    1 is refused on both paths.  With ``use_moments`` every entry comes
    from the exact-integer moment oracle instead: the cross-check path.
    """
    nmax = _require_integer("nmax", nmax, minimum=1)
    if use_moments:
        return _moment_pairings(nmax).astype(complex)
    if nmax > MAX_HERMITE_NODES - 1:
        raise ValueError(f"nmax must be at most {MAX_HERMITE_NODES - 1} for the rule, got "
                         f"{nmax}: hermgauss gives zero weights from {MAX_HERMITE_NODES + 1} nodes")
    return _rule_pairings(default_node_count(nmax), nmax).astype(complex)


#: Highest level :func:`density_interval_integral` takes.  Its (n+1)-node
#: Gauss-Legendre rule comes from an O(n^3) eigenvalue problem: 1001 nodes
#: take 0.14 s and 7.7 MiB to build, 2001 take 0.6 s and 31 MiB, 4001 take
#: 4.1 s and 122 MiB.  At level 1000 the masses on [-L, L] (L = 1/2, 5/2, 4)
#: are within 2e-11 (relative) of the exact rational ones; at 2000, 7e-11.
MAX_MASS_LEVEL = 1000


def density_interval_integral(f: Eigenfunction, lo: float, hi: float) -> float:
    """Same-family probability mass integral(|psi|^2) on a finite interval.

    For the non-localized eigenfunctions this grows without bound as the
    interval widens (the ground-state density is the constant 1/sqrt(pi)).
    On the real line |e^{-+i x^2/2}| = 1, so |psi_n|^2 is a real polynomial
    of degree 2n and the (n+1)-node Gauss-Legendre rule integrates it
    exactly, from one vectorized evaluation.

    Raises ValueError, before any rule is built, for bounds that are not
    real numbers or not finite, for hi < lo, for a width hi - lo that
    overflows and for levels above ``MAX_MASS_LEVEL``; and where the mass
    overflows.
    """
    lo, hi = _require_real("lo", lo), _require_real("hi", hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)) or hi < lo:
        raise ValueError(f"the interval needs finite bounds lo <= hi and a finite width, "
                         f"got [{lo!r}, {hi!r}]")
    if f.n > MAX_MASS_LEVEL:
        raise ValueError(f"interval masses are computed up to level {MAX_MASS_LEVEL}, "
                         f"got {f.n}: the rule costs O(n^3)")
    nodes, weights = _gauss_legendre(f.n + 1)
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * nodes
    with np.errstate(over="ignore"):
        mass = float(half * np.sum(weights * np.abs(evaluate(f, x)) ** 2))
    if not math.isfinite(mass):
        raise ValueError(f"the mass of level {f.n} on [{lo!r}, {hi!r}] overflows")
    return mass
