"""Dual coherent states of the imaginary-frequency boson.

The ket coherent state is the eigenstate of the ket-family lowering
generator, the bra coherent state the eigenstate of the raising
generator acting on the bra family.  In the truncated Fock frame

    ket:  c_n = e^{+i|alpha|^2/2} alpha^n / sqrt(n!)
    bra:  c_n = e^{-i|alpha|^2/2} (i alpha)^n / sqrt(n!)

with the bra phase i = :data:`iwqm.algebra.BRA_PHASE`, which satisfies the
eigenvalue equation and the mutual normalization <alpha|alpha> = 1
together; the opposite phase would build the parity image (-1)^n c_n,
which fails both.  :func:`determine_bra_phase` tests both phases at
``PROBE_LABEL`` and names the one that passes.

A state is a coefficient vector with its family and label
(:class:`CoherentState`), or a batch of them: an array of labels, with
one vector per label along the last axis of the coefficients.
:func:`build_coherent`, :func:`eigen_residual`, :func:`mutual_pairing`,
:func:`moments`, :func:`expectation_closed_form`, ``Uncertainty.from_moments``,
:func:`uncertainty_product` and :func:`tail_bound` take the leading label
axes as they come and return one value per label, a Python scalar for a
single label; each row of a batch equals its label alone bit for bit.  The dual pairing of a
bra with a ket is the plain sum_n conj(bra_n) ket_n, so
:func:`mutual_pairing` is ``np.vecdot`` over the last axis behind the
family, dimension and label-shape check.  Expectation values
of x, p, x^2, p^2 in the dual pairing are computed from one built
(bra, ket) pair by :func:`moments`: x = (a- + a+)/sqrt(2i) and
p = (a- - a+)/sqrt(2i) act on the ket coefficients as O(dim) ladder
bands, and x^2 is x applied twice to the truncated vector, which equals
the truncated matrix product (X @ X) @ c.  No dense matrix is formed.
Each public function checks its arguments once, at the boundary, and
then works on bare complex128 arrays: :func:`_labels` checks the labels
and the dim, :func:`_coefficients` builds one family's coefficients from
them, :func:`_pair` the (bra, ket) coefficients from one check, and
:func:`_moments` contracts x, p, x^2 and p^2 from those arrays.  The ladder
bands are applied by :func:`iwqm.algebra._ladder`, the one band kernel,
which :func:`iwqm.algebra.ladder_action` also calls after its own checks.
:func:`build_coherent` wraps its coefficients in a :class:`CoherentState`;
:func:`expectation` and :func:`uncertainty_product` build no state and
copy nothing: they take :func:`_pair`'s arrays to :func:`_moments`, and
:func:`moments` takes its checked pair's arrays there, so
:func:`expectation`, which applies only the observable it is asked for
(two band applications for x or p, four for x^2 or p^2), equals the
:func:`moments` entry bit for bit.  Every truncation is built, short or
not: how much a truncation drops is the number :func:`tail_bound`, which
``dump coherent`` reports.  The sqrt(n) band that the ladder kernel and
the coefficient recurrence use is computed once per truncation
(:func:`iwqm.algebra.ladder_band`), and cast to complex128 once
(``_complex_band``), the type numpy would cast it to in every product.
The closed forms of the label algebra give the same values, and the two
routes are cross-asserted by the tests.  The variances come out as the
alpha-independent constants -i/2 and +i/2, whose principal square roots
multiply to the minimum uncertainty product 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (BRA, BRA_PHASE, KET, _complex_band, _freeze, _ladder, _per_label,
                      _require_family, _require_integer, _stored)

#: The bound ``dump coherent`` holds its :func:`tail_bound` to (``"passed"``).
TAIL_TOLERANCE = 1e-12

#: The bound of |<alpha|alpha> - 1| and the eigen residuals (verify, ``dump coherent``).
STATE_TOLERANCE = 1e-10

#: Label at which :func:`determine_bra_phase` tests the two bra phases.
PROBE_LABEL = 1.0 + 0.5j

#: Truncation of the bra-phase probe and of every coherent state that
#: ``iwqm verify`` builds: each of its labels has |alpha| <= 2, so the first
#: dropped coefficient is below 1e-24.
PROBE_DIM = 64

#: Largest coefficient :func:`build_coherent` builds.  The moments sum products of
#: coefficients and the variances square moments: ``dump coherent`` overflows from a
#: largest coefficient of 1e76.4 (dim 355) to 1e83.5 (dim 1000 up), over 32 phases.
MAX_COEFFICIENT = 1e75


def tail_bound(alpha, dim: int):
    """|alpha|^dim / sqrt(dim!), the magnitude scale of the first dropped coefficient,
    computed in logarithms so that no large dim overflows: a float for one label,
    else an array with one bound per label of ``alpha``.  A dim that is not a
    nonnegative integer is refused with ValueError."""
    dim = _require_integer("dim", dim)
    alpha = np.asarray(alpha, dtype=complex)
    bounds = [_tail(abs(a), dim) for a in alpha.ravel().tolist()]
    return _per_label(np.reshape(bounds, alpha.shape))


def _tail(r: float, dim: int) -> float:
    """:func:`tail_bound` of one label of magnitude r: inf for a non-finite r."""
    if r == 0:
        return 0.0 if dim > 0 else 1.0
    log_tail = _log_coefficient(r, dim)
    return math.exp(log_tail) if log_tail < 709.0 else math.inf


def _log_coefficient(r: float, n: int) -> float:
    return n * math.log(r) - 0.5 * math.lgamma(n + 1)  # log |c_n| = log(r^n / sqrt(n!))


@dataclass(frozen=True)
class CoherentState:
    """Coefficient vectors of one family along the last axis of ``coeffs``, one
    per label of ``alpha``: a complex for one label, else an array of labels.
    An unknown family, entries that are not numbers and a label shape that does
    not match are refused with ValueError."""

    family: str
    alpha: complex | np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        _require_family(self.family)
        alpha = _stored("alpha", self.alpha, complex)
        coeffs = _stored("coeffs", self.coeffs, complex)
        if coeffs.shape[:-1] != alpha.shape or coeffs.ndim < 1:
            raise ValueError(f"coefficients of shape {coeffs.shape} do not hold one vector "
                             f"per label of shape {alpha.shape}")
        _freeze(self, alpha=_per_label(alpha), coeffs=coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1]


def _index(flat: int, shape: tuple) -> int | tuple[int, ...]:
    """The index of the flat position ``flat`` in an array of ``shape``."""
    index = tuple(int(i) for i in np.unravel_index(flat, shape))
    return index[0] if len(index) == 1 else index


def _labels(alpha, dim: int) -> tuple[np.ndarray, list[complex], int]:
    """The labels as a complex array and as a flat list of complexes, and the
    dim, after the refusals that :func:`build_coherent` states."""
    dim = _require_integer("dim", dim, minimum=8)
    alpha = np.asarray(alpha, dtype=complex)
    labels = alpha.ravel().tolist()
    for index, a in enumerate(labels):
        r = abs(a)
        if r < math.inf:
            n = math.floor(r * r) if r * r < dim else dim - 1  # |c_n| = r^n / sqrt(n!) peaks at r^2
            if not n or _log_coefficient(r, n) <= math.log(MAX_COEFFICIENT):
                continue
        where = "" if alpha.ndim == 0 else f" at index {_index(index, alpha.shape)}"
        if not r < math.inf:
            raise ValueError(f"label alpha={a!r}{where} is not finite")
        raise ValueError(f"label |alpha|={r:.3g}{where} has coefficients above "
                         f"{MAX_COEFFICIENT:g} at dim={dim}; its moments overflow")
    return alpha, labels, dim


def _coefficients(family: str, alpha: np.ndarray, labels: list[complex], dim: int) -> np.ndarray:
    """The coefficients of :func:`build_coherent` at labels that :func:`_labels`
    passed, as a new complex128 array."""
    ratios = np.empty(alpha.shape + (dim,), dtype=complex)
    # per label: np.abs and np.exp on arrays round differently from these scalar
    # forms; of an imaginary argument, cmath.exp and np.exp are both libm's cos
    # and sin, bit for bit
    phases = [cmath.exp((0.5j if family == KET else -0.5j) * abs(a) ** 2) for a in labels]
    ratios[..., 0] = np.reshape(phases, alpha.shape) if alpha.ndim else phases[0]
    base = alpha if family == KET else BRA_PHASE * alpha
    np.divide(base[..., None], _complex_band(dim), out=ratios[..., 1:])
    return np.multiply.accumulate(ratios, axis=-1, out=ratios)


def build_coherent(family: str, alpha, dim: int = 64) -> CoherentState:
    """Coherent coefficient vectors of one family at the label alpha, or at each
    label of an array of them (the vectors then lie along a last axis).

    Coefficients are produced by the stable ratio recurrence
    c_n = c_{n-1} * base / sqrt(n) with base = alpha (ket) or
    ``BRA_PHASE`` * alpha (bra), taken as one cumulative product.  Any
    truncation is built; a caller that needs the dropped coefficients to
    be small reads :func:`tail_bound`.  A dim that is not an integer of at
    least 8 is refused with ``ValueError``, and so is a label that is not
    finite or has a coefficient above ``MAX_COEFFICIENT``, whose moments
    overflow; in a batch the error names the first such label's index.
    """
    _require_family(family)
    alpha, labels, dim = _labels(alpha, dim)
    return CoherentState(family, alpha, _coefficients(family, alpha, labels, dim))


def _pair(alpha, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (bra, ket) coefficients of :func:`build_coherent`, its labels checked
    once, as bare arrays: no state is built and nothing is copied."""
    checked = _labels(alpha, dim)
    return _coefficients(BRA, *checked), _coefficients(KET, *checked)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, each equal bit for bit to
    ``np.linalg.norm`` of its vector, whose formula this spells out (a
    norm over ``axis=-1`` rounds differently)."""
    return np.sqrt(np.vecdot(vectors.real, vectors.real) + np.vecdot(vectors.imag, vectors.imag))


def eigen_residual(state: CoherentState):
    """Norm of (generator - alpha I) applied to the coefficient vector, a float
    for one label and an array of them for a batch.

    Ket states are tested against the lowering generator, bra states
    against the raising generator acting on the bra family (``a+``,
    which lowers bra levels with step phase ``BRA_LADDER_PHASE``).
    """
    c = state.coeffs
    defect = _ladder("a-" if state.family == KET else "a+", state.family, c, np.empty_like(c))
    defect -= np.asarray(state.alpha)[..., None] * c
    return _per_label(_norms(defect))


def _check_pair(bra: CoherentState, ket: CoherentState) -> None:
    if bra.family != BRA or ket.family != KET:
        raise ValueError(
            f"the dual pairing takes (bra, ket); got families ({bra.family!r}, {ket.family!r})")
    if bra.coeffs.shape != ket.coeffs.shape:
        if bra.dim != ket.dim:
            raise ValueError(f"dimension mismatch: {bra.dim} vs {ket.dim}")
        raise ValueError(f"label shape mismatch: {bra.coeffs.shape[:-1]} vs "
                         f"{ket.coeffs.shape[:-1]}")


def mutual_pairing(bra: CoherentState, ket: CoherentState):
    """<alpha|alpha> = sum_n conj(bra_n) ket_n between the dual coherent states,
    per label; 1 for the consistent phase."""
    _check_pair(bra, ket)
    return _per_label(np.vecdot(bra.coeffs, ket.coeffs))


_OBSERVABLES = ("x", "p", "x2", "p2")

_ROOT_2I = np.sqrt(2j)


def _quadratures(c: np.ndarray, names: str) -> list[np.ndarray]:
    """x and/or p (``names`` is "x", "p" or "xp") applied to ket coefficients c.

    One lowering and one raising action serve both: x c = (a- c + a+ c) / sqrt(2i)
    and p c = (a- c - a+ c) / sqrt(2i).
    """
    low = _ladder("a-", KET, c, np.empty_like(c))
    rai = _ladder("a+", KET, c, np.empty_like(c))
    return [(low + rai) / _ROOT_2I if name == "x" else (low - rai) / _ROOT_2I for name in names]


def _moments(bra: np.ndarray, ket: np.ndarray, observables=_OBSERVABLES) -> dict:
    """<bra| O |ket> per label for each O of ``observables``, from checked
    coefficient arrays: x and p are applied to the ket once, x^2 (p^2) as x (p)
    applied to that, each only if asked for, so that an entry has the same bits
    whichever others are asked for."""
    names = "".join(dict.fromkeys(o[0] for o in observables))  # "xp", "x" or "p"
    vectors = dict(zip(names, _quadratures(ket, names)))
    vectors.update({o: _quadratures(vectors[o[0]], o[0])[0] for o in observables if o[1:]})
    return {o: _per_label(np.vecdot(bra, vectors[o])) for o in observables}


def moments(bra: CoherentState, ket: CoherentState) -> dict:
    """<bra| O |ket> for O = x, p, x^2, p^2 on the truncated Fock space, per
    label: a complex for one label, else an array.

    x and p act on the ket coefficients as ladder bands, and x^2 (p^2)
    is x (p) applied twice, which equals the truncated matrix square
    applied once.
    """
    _check_pair(bra, ket)
    return _moments(bra.coeffs, ket.coeffs)


def expectation(observable: str, alpha: complex, dim: int = 64) -> complex:
    """Dual-pairing expectation of x, p, x^2 or p^2 on the truncated Fock space.

    Only the requested observable is applied, with the operations
    :func:`moments` uses for it, so the value equals
    ``moments(bra, ket)[observable]`` bit for bit.
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
    return _moments(*_pair(alpha, dim), (observable,))[observable]


def expectation_closed_form(observable: str, alpha):
    """The same expectations from the closed-form algebra of the label alpha, per
    label: a complex for one label, else an array.  A label that is not finite,
    or whose expectation overflows, is refused with ValueError naming it, in a
    batch by its index."""
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
    shape = np.shape(alpha)
    # on a flat array: numpy's scalar arithmetic rounds differently from its array loops
    a = np.asarray(alpha, dtype=complex).reshape(-1)
    ac = np.conj(a)
    forms = {"x": lambda: (a - 1j * ac) / _ROOT_2I, "p": lambda: (a + 1j * ac) / _ROOT_2I,
             "x2": lambda: (a ** 2 - 2j * np.abs(a) ** 2 + 1 - ac ** 2) / 2j,
             "p2": lambda: (a ** 2 - ac ** 2 + 2j * np.abs(a) ** 2 - 1) / 2j}
    with np.errstate(all="ignore"):  # a label that is not finite or overflows: refused below
        values = forms[observable]()
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        where = f" at index {_index(bad, shape)}" if shape else ""
        raise ValueError(f"alpha must be a label with a finite <{observable}>, got "
                         f"{a[bad].item()!r}{where}")
    return _per_label(values.reshape(shape))


@dataclass(frozen=True)
class Uncertainty:
    """Complex variances, their principal roots, and the real product, per label."""

    dx2: complex | np.ndarray
    dp2: complex | np.ndarray
    dx: complex | np.ndarray
    dp: complex | np.ndarray
    product: float | np.ndarray

    @classmethod
    def from_moments(cls, m: dict) -> "Uncertainty":
        """Variances x2 - x^2, p2 - p^2 and their roots from the :func:`moments`
        of one label or of a batch."""
        shape = np.shape(m["x"])
        # on flat arrays, as in expectation_closed_form
        x, p, x2, p2 = (np.asarray(m[name]).reshape(-1) for name in _OBSERVABLES)
        dx2, dp2 = x2 - x ** 2, p2 - p ** 2
        dx, dp = np.sqrt(dx2), np.sqrt(dp2)
        return cls(*(_per_label(v.reshape(shape)) for v in (dx2, dp2, dx, dp, (dx * dp).real)))


def uncertainty_product(alpha, dim: int = 64) -> Uncertainty:
    """Variances of x and p and the product of their principal square roots, per label.

    The individual deviations are complex (and carry the branch
    convention of the square root); the assertable physics is the pair
    of variances -i/2, +i/2 and the real product 1/2.
    """
    return Uncertainty.from_moments(_moments(*_pair(alpha, dim)))


def _passing_phases(phase: complex, test, value) -> list[str]:
    """The names of ``phase`` and of ``-phase``, in that order, for which ``test``
    holds of ``value`` and of its parity image (-1)^n value[n], which the opposite
    bra phase builds in its place (and a ladder step of opposite phase sees)."""
    image = np.array(value)
    image[1::2] *= -1
    return ["+i" if p == 1j else "-i" for p, v in ((phase, value), (-phase, image)) if test(v)]


def _bra_coherent_phases() -> list[str]:
    """The bra coherent phases, ``BRA_PHASE`` and then its opposite, that give
    <alpha|alpha> = 1 and solve the eigenvalue equation at the probe label."""
    ket = build_coherent(KET, PROBE_LABEL, PROBE_DIM)
    bra = build_coherent(BRA, PROBE_LABEL, PROBE_DIM)

    def test(coeffs: np.ndarray) -> bool:
        state = CoherentState(BRA, PROBE_LABEL, coeffs)
        return (abs(mutual_pairing(state, ket) - 1.0) <= STATE_TOLERANCE
                and eigen_residual(state) <= STATE_TOLERANCE)
    return _passing_phases(BRA_PHASE, test, bra.coeffs)


def determine_bra_phase() -> str:
    """Name the bra coherent coefficient phase that passes both conditions;
    the convention does not depend on a caller's truncation."""
    return (_bra_coherent_phases() or ["none"])[0]
