"""Coordinate-space eigenfunctions of the inverted potential well.

The ket eigenfunctions are rotated Hermite functions,

    psi_n(x) = (i/pi)^(1/4) H_n(z) exp(-i x^2 / 2) / sqrt(2^n n!),   z = e^{i pi/4} x,

and on the real line the bra eigenfunctions are their complex conjugates.
An :class:`Eigenfunction` is only its family and level; values
come from the normalized three-term recurrence

    h_{n+1} = sqrt(2/(n+1)) z h_n - sqrt(n/(n+1)) h_{n-1},

which is stable off the real z axis and on the real Gauss-Hermite nodes
of the rotated pairing rule (see :mod:`iwqm.quadrature`).  It is run as
h_n = s_n q_n with the monic q_{n+1} = z q_n - (n/2) q_{n-1} on the arrays
and the normalization s_{n+1} = sqrt(2/(n+1)) s_n carried as one scalar
(:func:`hermite_levels`), which only the row writer :func:`_write_levels` runs: for the
rule Gram and for the one block driver of :func:`evaluate` and :func:`evaluate_levels`,
whose rows are :func:`evaluate`'s values bit for bit.

For bras the driver conjugates the ket values; it reads no phase
constant.  These are the bras of the phase +i (:data:`iwqm.algebra.BRA_PHASE`),
under which the dual families are mutually orthonormal under the pairing
integral(conj(psi_l) psi_r); the opposite phase would give the parity
image (-1)^n conj(psi_n) of each bra function.  :func:`iwqm.verify.conventions`
reads the phase off the values.

The independent oracle is the exact integer Hermite table.  In the family
variable u = e^{+-i pi/4} x (ket/bra) each eigenfunction is a scale times
H_n(u) exp(-u^2 / 2), and the ladder operators (p = -i d/dx) become

    ket lowering  sqrt(i/2) (x - i d/dx) = (u + d/du) / sqrt(2)
    ket raising   sqrt(i/2) (x + i d/dx) = (u - d/du) / sqrt(2)
    bra lowering  sqrt(i/2) (x + i d/dx) = i (u + d/du) / sqrt(2)
    bra raising   sqrt(i/2) (x - i d/dx) = i (u - d/du) / sqrt(2)

so on P(u) exp(-u^2/2) they act on the integers exactly, P -> P' and
P -> 2uP - P' (:func:`lowering`, :func:`raising`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import count

import numpy as np

from .algebra import BRA, KET, _per_label, _require_family, _require_integer

_Z_PHASE = np.exp(0.25j * np.pi)  # z = e^{i pi/4} x turns exp(-i x^2/2) into exp(-z^2/2)

_GROUND = (1j / np.pi) ** 0.25  # ket ground-state amplitude (i/pi)^(1/4)

_FOLD = 2.0 ** -64  # moved from the scale into the arrays of hermite_levels

#: Points per block of :func:`_evaluate`; its per-thread workspace holds 3 * _BLOCK complex.
_BLOCK = 2 ** 15

_local = threading.local()


def _workspace() -> np.ndarray:
    """This thread's (3, _BLOCK) complex workspace of :func:`_evaluate`, made on first use."""
    work = getattr(_local, "work", None)
    if work is None:
        work = _local.work = np.empty((3, _BLOCK), dtype=complex)
    return work


@dataclass(frozen=True)
class Eigenfunction:
    """The level-``n`` eigenfunction of one dual family; an unknown family and a
    level that is not a nonnegative integer are refused with ValueError."""

    family: str
    n: int

    def __post_init__(self):
        _require_family(self.family)
        _require_integer("level", self.n)


def generating_function(family: str) -> Eigenfunction:
    """Ground state: (i/pi)^(1/4) e^(-i x^2/2) for ket, (-i/pi)^(1/4) e^(+i x^2/2) for bra."""
    return Eigenfunction(family, 0)


def eigenfunction(family: str, n: int) -> Eigenfunction:
    """The n-th normalized eigenfunction of a family."""
    return Eigenfunction(family, n)


def hermite_levels(z: np.ndarray, start: np.ndarray, scratch=None):
    """Yield (scale, q) with scale * q = start * H_n(z) / sqrt(2^n n!) for n = 0, 1, 2, ...

    The arrays run the monic recurrence q_{n+1} = z q_n - (n/2) q_{n-1},
    three array passes per level, and the normalization sqrt(2^n / n!) is
    carried as the scalar ``scale``, times sqrt(2/(n+1)) per level.
    Whenever the next scale would drop below 1, 2^-64 is folded into both
    arrays and 2^64 into the scale.  Both are exact, so the scale stays at
    or above 1 and an array never exceeds its normalized level: whatever
    level is finite stays finite.  The price is at the other end: an array
    sits up to 2^64 below its level, so a level below about 1e-289 (an odd
    level at |x| below about 1e-289) loses relative precision to
    subnormal underflow.

    The recurrence runs in place on three complex buffers: ``start`` is
    consumed as the first, and ``scratch`` gives the other two, each of
    start's shape; the first of them is zero-filled.  Without ``scratch``
    both are allocated.  A yielded array is overwritten two levels later;
    copy it to keep it.
    """
    if scratch is None:
        prev, tmp = np.zeros_like(start), np.empty_like(start)
    else:
        prev, tmp = scratch
        prev.fill(0.0)
    cur, scale = start, 1.0
    for n in count():
        yield scale, cur
        scale *= math.sqrt(2.0 / (n + 1))
        if scale < 1.0:
            cur *= _FOLD
            prev *= _FOLD
            scale /= _FOLD
        np.multiply(z, cur, out=tmp)
        prev *= 0.5 * n
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev


def _write_levels(z: np.ndarray, start: np.ndarray, levels, out, scratch=None) -> None:
    """Write scale * q of each wanted level (ascending) into its row of ``out``, from
    one :func:`hermite_levels` pass that ends at the last: its row may be scratch[1]."""
    rows = iter(out)
    for n, (scale, q) in zip(range(levels[-1] + 1), hermite_levels(z, start, scratch)):
        if n in levels:
            np.multiply(q, scale, out=next(rows))


def _evaluate(family: str, levels, x) -> np.ndarray:
    """Values of the wanted levels (ascending) at real x, shape (len(levels), *x.shape).

    The phase e^{-i x^2/2} goes into the last row, and the recurrence runs over the
    flattened points in blocks of at most ``_BLOCK``: z, its first buffer and the block's
    ground state (i/pi)^(1/4) e^{-i x^2/2} (not in place: numpy rounds a one-element
    complex product differently) sit in this thread's workspace, made once, so a call
    allocates only its result; the second buffer is the block's slice of the last row.
    The folds depend on the level alone, so a point's value is that of one unblocked
    recurrence, bit for bit, alone or in an array.
    """
    xs = np.asarray(x, dtype=float).reshape(-1)
    vals = np.empty((len(levels), xs.size), dtype=complex)
    phase = vals[-1].imag  # -x^2/2, until the sine overwrites it
    np.multiply(xs, -0.5, out=phase)
    with np.errstate(over="ignore"):
        phase *= xs
    if not np.all(np.isfinite(phase)):
        raise ValueError("eigenfunctions need x with a finite x^2/2")
    np.cos(phase, out=vals[-1].real)
    np.sin(phase, out=phase)
    for lo in range(0, xs.size, _BLOCK):
        xb, out = xs[lo:lo + _BLOCK], vals[:, lo:lo + _BLOCK]
        z, prev, ground = _workspace()[:, :xb.size]
        np.multiply(out[-1], _GROUND, out=ground)
        np.multiply(_Z_PHASE, xb, out=z)
        with np.errstate(over="ignore", invalid="ignore"):
            _write_levels(z, ground, levels, out, (prev, out[-1]))
        if not np.all(np.isfinite(out)):
            raise ValueError(f"level {levels[-1]} overflows at |x| up to {np.max(np.abs(xs)):.3g}")
    if family == BRA:
        np.conjugate(vals, out=vals)
    return vals.reshape(len(levels), *np.shape(x))


def evaluate(f: Eigenfunction, x):
    """Values of the eigenfunction at real x: a complex for scalar x, else an array.

    Raises ValueError where x^2/2 is not finite, since the phase exp(-i x^2/2) has no
    value there, and where the level's values overflow.
    """
    return _per_label(_evaluate(f.family, (f.n,), x)[0])


def evaluate_levels(family: str, top: int, x) -> np.ndarray:
    """Levels 0..top at real x from one recurrence pass, shape (top + 1, *x.shape):
    row n is ``evaluate(eigenfunction(family, n), x)`` bit for bit."""
    Eigenfunction(family, top)  # refuses an unknown family and a top that is no level
    return _evaluate(family, range(top + 1), x)


def hermite_coefficients(nmax: int) -> list[list[int]]:
    """Exact integer coefficients (ascending) of H_0 .. H_nmax: H_{n+1} = 2u H_n - 2n H_{n-1}."""
    rows = [[1], [0, 2]]
    for n in range(1, nmax):
        nxt = [0] + [2 * c for c in rows[n]]
        for j, c in enumerate(rows[n - 1]):
            nxt[j] -= 2 * n * c
        rows.append(nxt)
    return rows[:nmax + 1]


@dataclass(frozen=True)
class ExactForm:
    """scale * P(u) * exp(-u^2/2) with integer coefficients P (ascending powers)
    in the family variable u = e^{+-i pi/4} x (ket/bra)."""

    family: str
    scale: complex
    coeffs: tuple[int, ...]

    @property
    def step(self) -> complex:
        """Factor of each ladder operator: 1/sqrt(2) for ket, i/sqrt(2) for bra."""
        return (1.0 if self.family == KET else 1j) / math.sqrt(2.0)

    def values(self, x) -> np.ndarray:
        """Values at real x (low levels: the coefficients are converted to floats)."""
        xs = np.asarray(x, dtype=float)
        ket = self.family == KET
        u = (_Z_PHASE if ket else np.conj(_Z_PHASE)) * xs
        poly = np.polynomial.polynomial.polyval(u, np.array(self.coeffs, dtype=float))
        return self.scale * poly * np.exp((-0.5j if ket else 0.5j) * xs * xs)


def exact_form(f: Eigenfunction) -> ExactForm:
    """The eigenfunction as scale * H_n(u) * exp(-u^2/2) on the integer table."""
    scale = _GROUND / math.sqrt(2.0 ** f.n * math.factorial(f.n))
    if f.family == BRA:
        scale = np.conj(scale)
    return ExactForm(f.family, complex(scale), tuple(hermite_coefficients(f.n)[f.n]))


def lowering(form: ExactForm) -> ExactForm:
    """The family's lowering differential operator, exactly: P -> P'."""
    deriv = tuple(j * c for j, c in enumerate(form.coeffs))[1:] or (0,)
    return ExactForm(form.family, form.scale * form.step, deriv)


def raising(form: ExactForm) -> ExactForm:
    """The family's raising differential operator, exactly: P -> 2uP - P'."""
    out = [0] + [2 * c for c in form.coeffs]
    for j, c in enumerate(form.coeffs[1:], start=1):
        out[j - 1] -= j * c
    return ExactForm(form.family, form.scale * form.step, tuple(out))
