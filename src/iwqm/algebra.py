"""Truncated matrix representation of the imaginary-frequency boson algebra.

The ladder operators of the inverted potential well obey the usual
commutation relation [a-, a+] = 1, but their physical adjoints are
proportional to themselves (a^dag = -i a with the principal square-root
branch), so the number operator n = a+ a- is pseudo-Hermitian and the
Hamiltonian H = i omega (n + 1/2) is Hermitian with purely imaginary
eigenvalues.  Two mutually orthonormal eigenstate families ("ket" and
"bra") are represented here by standard unit coefficient vectors; the
dual pairing on coefficients is the plain sesquilinear form, which makes
the biorthonormality condition Euclidean by construction.

The builders return dense complex matrices acting on ket-family
coefficient vectors: the two generators, which the tests use as a dense
reference, and the Hamiltonian, which the eigensolver of the spectrum
suite and the density equation need.  Actions on bra-family vectors
(where the roles of the two generators swap and each step carries a
phase) are provided by :func:`generator_action` as a matrix and by
:func:`ladder_action` as the O(dim) band applied to one coefficient
vector.  The sqrt(n) ladder band and every named operator (n, H, x, p
and the SU(1,1) generators) are defined once, as expression trees, in
:mod:`iwqm.expressions`; operator identities are checked there, on
diagonal bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import _check_dim, hamiltonian_expression, ladder_band, to_matrix

KET = "ket"
BRA = "bra"

#: Phase attached to each bra-family ladder step.  With the default -1j the
#: bra generation chain a-^n |0>_l / ((-i)^n sqrt(n!)) reproduces |n>_l with
#: unit phase; the opposite choice +1j flips the chain phase to (-1)^n.
BRA_LADDER_PHASE = -1j

_FAMILIES = (KET, BRA)
_GENERATORS = ("a-", "a+")


def build_lowering(dim: int) -> np.ndarray:
    """Lowering generator: entry sqrt(n) at (n-1, n)."""
    _check_dim(dim)
    return np.diag(ladder_band(dim), 1).astype(complex)


def build_raising(dim: int) -> np.ndarray:
    """Raising generator: entry sqrt(n) at (n, n-1)."""
    _check_dim(dim)
    return np.diag(ladder_band(dim), -1).astype(complex)


def build_hamiltonian(dim: int, omega: float) -> np.ndarray:
    """H = i omega (n + 1/2): Hermitian, with purely imaginary spectrum."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    return to_matrix(hamiltonian_expression(omega), dim)


def generator_action(generator: str, family: str, dim: int,
                     bra_phase: complex = BRA_LADDER_PHASE) -> np.ndarray:
    """Matrix of a ladder generator acting on one family's coefficients.

    On ket coefficients ``a-`` lowers and ``a+`` raises with the plain
    sqrt(n) entries.  On bra coefficients the roles swap and each step is
    multiplied by ``bra_phase``: a- raises with bra_phase*sqrt(n+1) and
    a+ lowers with bra_phase*sqrt(n).
    """
    _check_action(generator, family, bra_phase)
    if family == KET:
        return build_lowering(dim) if generator == "a-" else build_raising(dim)
    if generator == "a-":
        return bra_phase * build_raising(dim)
    return bra_phase * build_lowering(dim)


def ladder_action(generator: str, family: str, coeffs: np.ndarray,
                  bra_phase: complex = BRA_LADDER_PHASE) -> np.ndarray:
    """``generator_action(generator, family, len(coeffs), bra_phase) @ coeffs``
    without forming the matrix.

    The generator acts as the shifted sqrt(n) band: a lowering step moves
    sqrt(n) c_n to level n-1, a raising step moves sqrt(n) c_{n-1} to
    level n and drops the image of the top level, exactly as the
    truncated matrix does.
    """
    _check_action(generator, family, bra_phase)
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
    return out if family == KET else bra_phase * out


def _check_action(generator: str, family: str, bra_phase: complex) -> None:
    if generator not in _GENERATORS:
        raise ValueError(f"generator must be one of {_GENERATORS}, got {generator!r}")
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")
    if bra_phase not in (1j, -1j):
        raise ValueError(f"bra_phase must be +1j or -1j, got {bra_phase!r}")


@dataclass(frozen=True)
class DualVector:
    """Coefficient vector over one Fock family ("ket" or "bra")."""

    family: str
    coeffs: np.ndarray

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a one-dimensional vector")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def fock_state(family: str, n: int, dim: int) -> DualVector:
    """The n-th basis state of a family as a unit coefficient vector."""
    _check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError(f"level n={n} outside truncation 0..{dim - 1}")
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return DualVector(family, c)


def dual_pairing(bra: DualVector, ket: DualVector) -> complex:
    """Sesquilinear pairing sum_n conj(bra_n) ket_n between the dual families.

    Only defined with a bra-family vector on the left and a ket-family
    vector on the right; anything else violates the biorthogonal contract.
    """
    if bra.family != BRA or ket.family != KET:
        raise ValueError(
            f"pairing takes (bra, ket); got families ({bra.family!r}, {ket.family!r})")
    if bra.dim != ket.dim:
        raise ValueError(f"dimension mismatch: {bra.dim} vs {ket.dim}")
    return complex(np.vdot(bra.coeffs, ket.coeffs))
