"""Dual coherent states of the imaginary-frequency boson.

The ket coherent state is the eigenstate of the ket-family lowering
generator, the bra coherent state the eigenstate of the raising
generator acting on the bra family.  In the truncated Fock frame

    ket:  c_n = e^{+i|alpha|^2/2} alpha^n / sqrt(n!)
    bra:  c_n = e^{-i|alpha|^2/2} (i alpha)^n / sqrt(n!)

with the bra phase i = :data:`iwqm.algebra.BRA_PHASE`, which satisfies the
eigenvalue equation and the mutual normalization <alpha|alpha> = 1
together; the opposite phase would build the parity image (-1)^n c_n,
which fails both.

A state is one coefficient vector with its family and label
(:class:`CoherentState`).  The dual pairing of a bra with a ket is the
plain sum_n conj(bra_n) ket_n, so :func:`mutual_pairing` is one
``np.vdot`` behind the family and dimension check.  Expectation values
of x, p, x^2, p^2 in the dual pairing are computed from one built
(bra, ket) pair by :func:`moments`: x = (a- + a+)/sqrt(2i) and
p = (a- - a+)/sqrt(2i) act on the ket coefficients as O(dim) ladder
bands, and x^2 is x applied twice to the truncated vector, which equals
the truncated matrix product (X @ X) @ c.  No dense matrix is formed.
:func:`expectation` and :func:`uncertainty_product` build the pair
themselves, in strict mode;
:func:`expectation` applies only the observable it is asked for (two
ladder actions for x or p, four for x^2 or p^2) with the same
operations, so it equals the :func:`moments` entry bit for bit.  The
sqrt(n) band that the ladder actions and the coefficient recurrence use
is computed once per truncation (:func:`iwqm.expressions.ladder_band`).
The closed forms of the label algebra give the same values, and the two
routes are cross-asserted by the tests.  The variances come out as the
alpha-independent constants -i/2 and +i/2, whose principal square roots
multiply to the minimum uncertainty product 1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import BRA, BRA_PHASE, KET, ladder_action
from .expressions import ladder_band

#: Largest admissible truncation-tail magnitude |alpha|^dim / sqrt(dim!).
TAIL_TOLERANCE = 1e-12


class TruncationError(ValueError):
    """Raised in strict mode when the coefficient tail exceeds the budget."""


class TruncationWarning(UserWarning):
    """Issued in permissive mode when the coefficient tail exceeds the budget."""


def tail_bound(alpha: complex, dim: int) -> float:
    """|alpha|^dim / sqrt(dim!), the magnitude scale of the first dropped coefficient,
    computed in logarithms so that no large dim overflows."""
    if alpha == 0:
        return 0.0 if dim > 0 else 1.0
    log_tail = dim * math.log(abs(alpha)) - 0.5 * math.lgamma(dim + 1)
    return math.exp(log_tail) if log_tail < 709.0 else math.inf


@dataclass(frozen=True)
class CoherentState:
    family: str
    alpha: complex
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def build_coherent(family: str, alpha: complex, dim: int = 64, *,
                   strict: bool = True) -> CoherentState:
    """Coherent coefficient vector of one family at label alpha.

    Coefficients are produced by the stable ratio recurrence
    c_n = c_{n-1} * base / sqrt(n) with base = alpha (ket) or
    ``BRA_PHASE`` * alpha (bra), taken as one cumulative product.  The
    truncation tail must stay under ``TAIL_TOLERANCE``; violations raise
    in strict mode and warn otherwise.  A label whose tail is not even
    finite is refused with ``ValueError`` in either mode.
    """
    if family not in (KET, BRA):
        raise ValueError(f"family must be 'ket' or 'bra', got {family!r}")
    if dim < 8:
        raise ValueError(f"dim must be at least 8, got {dim}")
    alpha = complex(alpha)
    tail = tail_bound(alpha, dim)
    if not math.isfinite(tail):
        raise ValueError(f"label |alpha|={abs(alpha):.3g} has no finite truncation tail "
                         f"at dim={dim}; its coefficients overflow")
    if tail > TAIL_TOLERANCE:
        message = (f"truncation tail {tail:.3e} exceeds {TAIL_TOLERANCE:.0e} "
                   f"for |alpha|={abs(alpha):.3g}, dim={dim}")
        if strict:
            raise TruncationError(message)
        warnings.warn(message, TruncationWarning, stacklevel=2)
    base = alpha if family == KET else BRA_PHASE * alpha
    ratios = np.empty(dim, dtype=complex)
    ratios[0] = np.exp(0.5j * abs(alpha) ** 2) if family == KET else np.exp(-0.5j * abs(alpha) ** 2)
    ratios[1:] = base / ladder_band(dim)
    return CoherentState(family, alpha, np.cumprod(ratios))


def eigen_residual(state: CoherentState) -> float:
    """Norm of (generator - alpha I) applied to the coefficient vector.

    Ket states are tested against the lowering generator, bra states
    against the raising generator acting on the bra family (``a+``,
    which lowers bra levels with step phase ``BRA_LADDER_PHASE``).
    """
    gen = "a-" if state.family == KET else "a+"
    action = ladder_action(gen, state.family, state.coeffs)
    return float(np.linalg.norm(action - state.alpha * state.coeffs))


def _check_pair(bra: CoherentState, ket: CoherentState) -> None:
    if bra.family != BRA or ket.family != KET:
        raise ValueError(
            f"the dual pairing takes (bra, ket); got families ({bra.family!r}, {ket.family!r})")
    if bra.dim != ket.dim:
        raise ValueError(f"dimension mismatch: {bra.dim} vs {ket.dim}")


def mutual_pairing(bra: CoherentState, ket: CoherentState) -> complex:
    """<alpha|alpha> = sum_n conj(bra_n) ket_n between the dual coherent states;
    1 for the consistent phase."""
    _check_pair(bra, ket)
    return complex(np.vdot(bra.coeffs, ket.coeffs))


_OBSERVABLES = ("x", "p", "x2", "p2")

_ROOT_2I = np.sqrt(2j)


def _quadratures(c: np.ndarray, names: str) -> list[np.ndarray]:
    """x and/or p (``names`` is "x", "p" or "xp") applied to ket coefficients c.

    One lowering and one raising action serve both: x c = (a- c + a+ c) / sqrt(2i)
    and p c = (a- c - a+ c) / sqrt(2i).
    """
    low = ladder_action("a-", KET, c)
    rai = ladder_action("a+", KET, c)
    return [(low + rai) / _ROOT_2I if name == "x" else (low - rai) / _ROOT_2I for name in names]


def moments(bra: CoherentState, ket: CoherentState) -> dict[str, complex]:
    """<bra| O |ket> for O = x, p, x^2, p^2 on the truncated Fock space.

    x and p act on the ket coefficients as ladder bands, and x^2 (p^2)
    is x (p) applied twice, which equals the truncated matrix square
    applied once.
    """
    _check_pair(bra, ket)
    x_ket, p_ket = _quadratures(ket.coeffs, "xp")
    vectors = {"x": x_ket, "p": p_ket,
               "x2": _quadratures(x_ket, "x")[0], "p2": _quadratures(p_ket, "p")[0]}
    return {name: complex(np.vdot(bra.coeffs, v)) for name, v in vectors.items()}


def expectation(observable: str, alpha: complex, dim: int = 64) -> complex:
    """Dual-pairing expectation of x, p, x^2 or p^2 on the truncated Fock space.

    Only the requested observable is applied, with the operations
    :func:`moments` uses for it, so the value equals
    ``moments(bra, ket)[observable]`` bit for bit.
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
    ket = build_coherent(KET, alpha, dim)
    bra = build_coherent(BRA, alpha, dim)
    name = observable[0]
    (v,) = _quadratures(ket.coeffs, name)
    if observable.endswith("2"):
        (v,) = _quadratures(v, name)
    return complex(np.vdot(bra.coeffs, v))


def expectation_closed_form(observable: str, alpha: complex) -> complex:
    """The same expectations from the closed-form algebra of the label alpha."""
    alpha = complex(alpha)
    ac = np.conj(alpha)
    if observable == "x":
        return complex((alpha - 1j * ac) / _ROOT_2I)
    if observable == "p":
        return complex((alpha + 1j * ac) / _ROOT_2I)
    if observable == "x2":
        return complex((alpha ** 2 - 2j * abs(alpha) ** 2 + 1 - ac ** 2) / 2j)
    if observable == "p2":
        return complex((alpha ** 2 - ac ** 2 + 2j * abs(alpha) ** 2 - 1) / 2j)
    raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")


@dataclass(frozen=True)
class Uncertainty:
    """Complex variances, their principal roots, and the real product."""

    dx2: complex
    dp2: complex
    dx: complex
    dp: complex
    product: float

    @classmethod
    def from_moments(cls, m: dict[str, complex]) -> "Uncertainty":
        """Variances x2 - x^2, p2 - p^2 and their roots from :func:`moments`."""
        dx2 = m["x2"] - m["x"] ** 2
        dp2 = m["p2"] - m["p"] ** 2
        dx = complex(np.sqrt(dx2))
        dp = complex(np.sqrt(dp2))
        return cls(complex(dx2), complex(dp2), dx, dp, float((dx * dp).real))


def uncertainty_product(alpha: complex, dim: int = 64) -> Uncertainty:
    """Variances of x and p and the product of their principal square roots.

    The individual deviations are complex (and carry the branch
    convention of the square root); the assertable physics is the pair
    of variances -i/2, +i/2 and the real product 1/2.
    """
    ket = build_coherent(KET, alpha, dim)
    bra = build_coherent(BRA, alpha, dim)
    return Uncertainty.from_moments(moments(bra, ket))
