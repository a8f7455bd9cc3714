"""Truncated matrix representation of the imaginary-frequency boson algebra.

The ladder operators of the inverted potential well obey the usual
commutation relation [a-, a+] = 1, but their physical adjoints are
proportional to themselves (a^dag = -i a with the principal square-root
branch), so the number operator n = a+ a- is pseudo-Hermitian and the
Hamiltonian H = i omega (n + 1/2) is Hermitian with purely imaginary
eigenvalues.  Two mutually orthonormal eigenstate families ("ket" and
"bra") are represented by plain coefficient vectors over the truncated
Fock levels; the dual pairing of a bra vector with a ket vector is the
sesquilinear form sum_n conj(bra_n) ket_n (``np.vdot``), which makes the
biorthonormality condition Euclidean by construction.

The module holds the family names, the one bra convention, the
Hamiltonian as a dense complex matrix, which the eigensolver of the
spectrum suite and the density equation need, and :func:`ladder_action`,
the O(dim) sqrt(n) band of a ladder generator applied to one family's
coefficient vector (on bra vectors the roles of the two generators swap
and each step carries ``BRA_LADDER_PHASE``).  No function takes another
bra phase: the opposite one obeys the same ladder algebra, but what it
builds is the parity image P c = (-1)^n c of what ``BRA_PHASE`` builds,
and :mod:`iwqm.verify` tests that image.  The sqrt(n) ladder band and
every named operator (n, H, x, p and the SU(1,1) generators) are defined
once, as expression trees, in :mod:`iwqm.expressions`; operator
identities are checked there, in normal order.
"""

from __future__ import annotations

import numpy as np

from .expressions import _check_dim, hamiltonian_expression, ladder_band, to_matrix

KET = "ket"
BRA = "bra"

#: The bra-family phase under which the dual families are mutually
#: orthonormal, carried by each bra coherent coefficient ratio and each step
#: of the bra eigenfunction chain; -1j would multiply bra level n by (-1)^n.
BRA_PHASE = 1j

#: Phase of each bra ladder step on coefficient vectors: the dual pairing
#: conjugates bra vectors, so it is the conjugate of ``BRA_PHASE``.
BRA_LADDER_PHASE = BRA_PHASE.conjugate()

_FAMILIES = (KET, BRA)
_GENERATORS = ("a-", "a+")


def build_hamiltonian(dim: int, omega: float) -> np.ndarray:
    """H = i omega (n + 1/2): Hermitian, with purely imaginary spectrum."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    return to_matrix(hamiltonian_expression(omega), dim)


def ladder_action(generator: str, family: str, coeffs: np.ndarray) -> np.ndarray:
    """A ladder generator applied to one family's coefficient vector.

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
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise ValueError("coefficients must be a one-dimensional vector")
    _check_dim(c.shape[0])
    root = ladder_band(c.shape[0])
    out = np.zeros_like(c)
    if (generator == "a-") == (family == KET):
        out[:-1] = root * c[1:]
    else:
        out[1:] = root * c[:-1]
    return out if family == KET else BRA_LADDER_PHASE * out
