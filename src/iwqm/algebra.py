"""Truncated coefficient vectors of the imaginary-frequency boson algebra.

The ladder operators of the inverted potential well obey the usual
commutation relation [a-, a+] = 1, but their physical adjoints are
proportional to themselves (a^dag = -i a with the principal square-root
branch), so the number operator n = a+ a- is pseudo-Hermitian and the
Hamiltonian H = i omega (n + 1/2) is Hermitian with purely imaginary
eigenvalues.  Two mutually orthonormal eigenstate families ("ket" and
"bra") are represented by plain coefficient vectors over the truncated
Fock levels; the dual pairing of a bra vector with a ket vector is the
sesquilinear form sum_n conj(bra_n) ket_n (``np.vecdot``), which makes the
biorthonormality condition Euclidean by construction.

The module holds the family names, the one bra convention, the sqrt(n)
ladder band (:func:`ladder_band`) and :func:`ladder_action`, the O(dim)
band of a ladder generator applied to one family's coefficient vectors,
along the last axis of an array whose leading axes are labels (on bra
vectors the roles of the two generators swap and each step carries
``BRA_LADDER_PHASE``).  No function takes another bra phase: the
opposite one obeys the same ladder algebra, but what it builds is the
parity image P c = (-1)^n c of what ``BRA_PHASE`` builds, and
:func:`iwqm.coherent.determine_bra_phase` tests that image.

It also holds the one argument contract of the package: five private
checks that refuse a family other than ket or bra, a level, dimension or
count that is not an integer at its minimum, a number that is not real, a
rate that is not a finite positive real and a value that is not finite,
each with a ValueError whose message starts with the argument's name, and
its one output rule, :func:`_per_label`: a 0-d result leaves as a Python
scalar.  It imports no other module of the package.  Every named operator
(n, H, x, p and the SU(1,1) generators) is defined once, as a normal-ordered
form, in :mod:`iwqm.expressions`; operator identities are checked there,
word by word, and :func:`iwqm.expressions.to_matrix` writes a form's
leading block.
"""

from __future__ import annotations

import functools
import math

import numpy as np

KET = "ket"
BRA = "bra"

#: The bra-family phase under which the dual families are mutually
#: orthonormal, carried by each bra coherent coefficient ratio; -1j would
#: multiply bra level n by (-1)^n.
BRA_PHASE = 1j

#: Phase of each bra ladder step on coefficient vectors: the dual pairing
#: conjugates bra vectors, so it is the conjugate of ``BRA_PHASE``.
BRA_LADDER_PHASE = BRA_PHASE.conjugate()

_FAMILIES = (KET, BRA)
_GENERATORS = ("a-", "a+")


def _require_family(family) -> None:
    """Refuse a family other than ``KET`` and ``BRA``."""
    if family not in _FAMILIES:
        raise ValueError(f"family must be {KET!r} or {BRA!r}, got {family!r}")


def _require_integer(name: str, value, minimum: int = 0, *, arrays: bool = False) -> None:
    """Refuse ``value`` unless it is a Python or numpy integer of at least
    ``minimum``, or, with ``arrays``, an integer array whose entries all are."""
    scalar = isinstance(value, (int, np.integer))  # no numpy call on the common path
    if not (scalar or arrays and np.asarray(value).dtype.kind in "iu"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    least = value if scalar else np.min(value, initial=minimum)
    if least < minimum:
        bound = f"at least {minimum}" if minimum else "nonnegative"
        raise ValueError(f"{name} must be {bound}, got {least}")


def _require_real(name: str, value) -> None:
    """Refuse ``value`` unless it is a real number: a Python or numpy scalar,
    or a 0-d array, of a bool, integer or floating type."""
    if not (isinstance(value, (int, float, np.integer, np.floating))
            or np.ndim(value) == 0 and np.asarray(value).dtype.kind in "biuf"):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _require_positive(name: str, value) -> None:
    """Refuse ``value`` unless it is a finite positive real number."""
    _require_real(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_finite(name: str, value) -> None:
    """Refuse ``value`` unless it is a real number or an array of them, all
    finite; the message names the first entry that is not."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got {value!r}")
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {float(arr.flat[np.argmin(finite)])!r}")


def _per_label(value):
    """A result per label or point: a Python scalar for a 0-d value, else the array."""
    return value.item() if np.ndim(value) == 0 else value


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


def ladder_action(generator: str, family: str, coeffs: np.ndarray) -> np.ndarray:
    """A ladder generator applied to one family's coefficient vectors, which
    lie along the last axis of ``coeffs``; leading axes are labels.

    On ket coefficients ``a-`` lowers and ``a+`` raises with the plain
    sqrt(n) band.  On bra coefficients the roles swap and each step is
    multiplied by ``BRA_LADDER_PHASE`` = -i: a- raises with -i sqrt(n+1)
    and a+ lowers with -i sqrt(n).  A lowering step moves sqrt(n) c_n
    to level n-1, a raising step moves sqrt(n) c_{n-1} to level n and
    drops the image of the top level, exactly as the truncated matrix
    does.
    """
    if generator not in _GENERATORS:
        raise ValueError(f"generator must be one of {_GENERATORS}, got {generator!r}")
    _require_family(family)
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim < 1 or c.shape[-1] < 2:
        raise ValueError(f"coefficients must be vectors of length >= 2, got shape {c.shape}")
    root = ladder_band(c.shape[-1])
    out = np.zeros(c.shape, dtype=complex)
    if (generator == "a-") == (family == KET):
        out[..., :-1] = root * c[..., 1:]
    else:
        out[..., 1:] = root * c[..., :-1]
    return out if family == KET else BRA_LADDER_PHASE * out
