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
``BRA_LADDER_PHASE``).  :func:`ladder_action` checks its arguments and
calls :func:`_ladder`, the one band kernel, which takes checked complex128
arrays and writes into a preallocated output; :mod:`iwqm.coherent` calls
the same kernel on the arrays it has already checked.  No function takes
another bra phase: the opposite one obeys the same ladder algebra, but
what it builds is the parity image P c = (-1)^n c of what ``BRA_PHASE``
builds, and :func:`iwqm.coherent.determine_bra_phase` tests that image.

It also holds the one argument contract of the package: five private
checks that refuse a family other than ket or bra, a level, dimension or
count that is not an integer at its minimum, a number that is not real, a
rate that is not a finite positive real and a value that is not finite,
each with a ValueError whose message starts with the argument's name.
Each check returns what it accepted as the one type the package computes
with: a Python int or float (a real array as float64), so a numpy float32
argument is computed in double precision.  Frozen types store only those
values and, through :func:`_stored`, read-only float64 or complex128
copies of their array fields.  Its one output rule is :func:`_per_label`:
a 0-d result leaves as a Python scalar.  It imports no other module of the
package.  Every named operator (n, H, x, p and the SU(1,1) generators) is
defined once, as a normal-ordered form, in :mod:`iwqm.expressions`;
operator identities are checked there, word by word, and
:func:`iwqm.expressions.to_matrix` writes a form's leading block.
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


def _require_integer(name: str, value, minimum: int = 0, *, arrays: bool = False):
    """Refuse ``value`` unless it is a Python or numpy integer of at least
    ``minimum``, or, with ``arrays``, an integer array whose entries all are.
    Returns a Python int, or the integer array as given."""
    scalar = isinstance(value, (int, np.integer))  # no numpy call on the common path
    if not (scalar or arrays and np.asarray(value).dtype.kind in "iu"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    least = value if scalar else np.min(value, initial=minimum)
    if least < minimum:
        bound = f"at least {minimum}" if minimum else "nonnegative"
        raise ValueError(f"{name} must be {bound}, got {least}")
    return int(value) if scalar else value


def _require_real(name: str, value, *, arrays: bool = False):
    """Refuse ``value`` unless it is a real number: a Python or numpy scalar, or
    a 0-d array, of a bool, integer or floating type; with ``arrays``, also an
    array of such a type, told by its dtype alone.  Returns a Python float,
    which is +-inf for an int beyond the float range, or a float64 array,
    +-inf where a wider float is beyond it."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        arr = np.asarray(value)
        if arr.dtype.kind not in "biuf" or arr.ndim and not arrays:
            kind = "a real number or an array of them" if arrays else "a real number"
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        if arr.ndim:
            with np.errstate(over="ignore"):  # a longdouble beyond the float range: +-inf
                return arr.astype(float, copy=False)
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def _require_positive(name: str, value) -> float:
    """Refuse ``value`` unless it is a finite positive real number; returns it
    as a Python float."""
    number = _require_real(name, value)
    if not 0 < number < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return number


def _require_finite(name: str, value, *, arrays: bool = False):
    """Refuse ``value`` unless it is a finite real number, or, with ``arrays``,
    an array of them, all finite; the message names the first entry that is
    not.  Returns what :func:`_require_real` returns."""
    number = _require_real(name, value, arrays=arrays)
    finite = np.isfinite(number)
    if not finite.all():
        bad = value if isinstance(number, float) else number.flat[np.argmin(finite)].item()
        raise ValueError(f"{name} must be finite, got {bad!r}")
    return number


def _per_label(value):
    """A result per label or point, a numpy array or scalar: a Python scalar for
    a 0-d value, else the array."""
    return value.item() if value.ndim == 0 else value


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, no longer writable: it is shared or stored."""
    arr.setflags(False)  # write=False; numpy parses the keyword at twice the cost
    return arr


def _stored(name: str, value, dtype: type) -> np.ndarray:
    """A new read-only float64 (``dtype`` float) or complex128 (complex) copy of
    the array field ``name``; entries of another kind, complex ones in a real
    field, objects or text, are refused with ValueError."""
    arr = np.asarray(value)
    if arr.dtype.kind not in ("biuf" if dtype is float else "biufc"):
        raise ValueError(f"{name} must be numeric{' and real' if dtype is float else ''}, "
                         f"got {arr.dtype} entries")
    return _read_only(arr.astype(dtype))


def _freeze(instance, **fields) -> None:
    """Store checked ``fields`` on a frozen dataclass ``instance``, past the
    ``__setattr__`` that refuses assignments."""
    vars(instance).update(fields)


# Bounded: truncations come from user input.
@functools.lru_cache(maxsize=64)
def ladder_band(dim: int) -> np.ndarray:
    """sqrt(1..dim-1): the entries sqrt(n) of a- at (n-1, n) and of a+ at (n, n-1).

    Computed once per truncation and shared by every caller, so the array
    is read-only.
    """
    return _read_only(np.sqrt(np.arange(1, dim, dtype=float)))


@functools.lru_cache(maxsize=64)
def _complex_band(dim: int) -> np.ndarray:
    """:func:`ladder_band` as complex128, the type numpy casts it to in every
    product and quotient with coefficients: cast once per truncation."""
    return _read_only(ladder_band(dim).astype(complex))


def _ladder(generator: str, family: str, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`ladder_action` of checked complex128 vectors ``c`` (length >= 2 along
    the last axis), written into ``out`` of the same shape, which it returns.
    The one band kernel: :func:`ladder_action` and the coherent layer call it."""
    root = _complex_band(c.shape[-1])
    lowers = (generator == "a-") == (family == KET)
    np.multiply(root, c[..., 1:] if lowers else c[..., :-1],
                out=out[..., :-1] if lowers else out[..., 1:])
    out[..., -1 if lowers else 0] = 0
    return out if family == KET else np.multiply(BRA_LADDER_PHASE, out, out=out)


def ladder_action(generator: str, family: str, coeffs: np.ndarray) -> np.ndarray:
    """A ladder generator applied to one family's coefficient vectors, which
    lie along the last axis of ``coeffs``; leading axes are labels.

    On ket coefficients ``a-`` lowers and ``a+`` raises with the plain
    sqrt(n) band.  On bra coefficients the roles swap and each step is
    multiplied by ``BRA_LADDER_PHASE`` = -i: a- raises with -i sqrt(n+1)
    and a+ lowers with -i sqrt(n).  A lowering step moves sqrt(n) c_n
    to level n-1, a raising step moves sqrt(n) c_{n-1} to level n and
    drops the image of the top level, exactly as the truncated matrix
    does.  The arguments are checked here, once, and the band is applied
    by the one kernel that the coherent layer calls on its own checked
    arrays.
    """
    if generator not in _GENERATORS:
        raise ValueError(f"generator must be one of {_GENERATORS}, got {generator!r}")
    _require_family(family)
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim < 1 or c.shape[-1] < 2:
        raise ValueError(f"coefficients must be vectors of length >= 2, got shape {c.shape}")
    return _ladder(generator, family, c, np.empty(c.shape, dtype=complex))
