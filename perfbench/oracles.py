"""Reference values computed apart from the iwqm package.

Nothing here imports iwqm.  Each oracle derives its value from the
mathematics the package claims to implement, by a different route:

* ``psi``: the rotated-Hermite closed form of the eigenfunctions,
  psi_n(x) = (i/pi)^(1/4) H_n(e^{i pi/4} x) e^{-i x^2/2} / sqrt(2^n n!)
  for ket levels; the bra level is its complex conjugate.  The package
  builds the same functions as monomial polynomials raised step by step.
* ``interval_mass``: the exact integral of |psi_n|^2 over [lo, hi], from
  integer polynomial arithmetic on the closed form.
* ``coherent_moments``: <x>, <p>, <x^2>, <p^2> of the dual coherent pair
  from the label algebra alone (normal ordering with a- -> alpha acting
  right and a+ -> -i conj(alpha) acting left).
* ``classical_orbit``: (v/omega) sinh(omega t).
* Gram identity: the dual families are mutually orthonormal, G = I.

The ``check_*`` helpers return an error message, or ``None`` when the
measured value agrees with the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Tolerance of the Gram identity, the one the package's own
#: normalization suite holds ``gram_matrix`` to.
GRAM_TOL = 1e-8
#: Largest relative deviation of a sampled eigenfunction from ``psi``,
#: relative to the largest magnitude on the grid.
PSI_RTOL = 1e-12
#: Tolerance of identities and coherent-state properties (the CLI default).
ALGEBRA_TOL = 1e-10
#: Relative tolerance of an interval mass; adaptive Simpson runs at 1e-10.
MASS_RTOL = 1e-9
#: Principal square root of 2i.
SQRT_2I = 1.0 + 1.0j
ROTATE = np.exp(0.25j * np.pi)


def hermite_coeffs(n: int) -> list[int]:
    """Integer coefficients of the physicists' Hermite polynomial H_n, ascending."""
    prev, cur = [1], [0, 2]
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = [0] * (k + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(prev):
            nxt[j] -= 2 * k * c
        prev, cur = cur, nxt
    return cur


def _hermite_values(n: int, z: np.ndarray) -> np.ndarray:
    h_prev = np.ones_like(z)
    if n == 0:
        return h_prev
    h = 2.0 * z
    for k in range(1, n):
        h_prev, h = h, 2.0 * z * h - 2.0 * k * h_prev
    return h


def psi(family: str, n: int, x: np.ndarray) -> np.ndarray:
    """Eigenfunction of level n of the ket or bra family at real x."""
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(2.0 ** n * math.factorial(n))
    ket = (1j / math.pi) ** 0.25 * _hermite_values(n, ROTATE * x) * np.exp(-0.5j * x * x) / norm
    if family == "ket":
        return ket
    if family == "bra":
        return np.conj(ket)
    raise ValueError(f"family must be 'ket' or 'bra', got {family!r}")


def _density_poly(n: int) -> dict[int, int]:
    """Integer coefficients of |H_n(e^{i pi/4} x)|^2 in powers of x.

    The cross term c_j c_k carries e^{i pi (j - k)/4}; H_n has one
    parity, so j - k is even and the real part is cos(pi (j - k)/4),
    which is +1, 0 or -1.  The imaginary parts cancel between (j, k)
    and (k, j).
    """
    c = hermite_coeffs(n)
    cos_table = {0: 1, 2: 0, 4: -1, 6: 0}
    out: dict[int, int] = {}
    for j, cj in enumerate(c):
        for k, ck in enumerate(c):
            if cj == 0 or ck == 0:
                continue
            out[j + k] = out.get(j + k, 0) + cj * ck * cos_table[(j - k) % 8]
    return out


def interval_mass(n: int, lo: float, hi: float) -> float:
    """Exact integral of |psi_n(x)|^2 over [lo, hi]; 2L/sqrt(pi) on [-L, L] for n = 0."""
    a, b = Fraction(lo), Fraction(hi)
    total = sum(Fraction(coef, m + 1) * (b ** (m + 1) - a ** (m + 1))
                for m, coef in _density_poly(n).items())
    return float(total / (2 ** n * math.factorial(n))) / math.sqrt(math.pi)


def coherent_moments(alpha: complex) -> dict[str, complex]:
    """<x>, <p>, <x^2>, <p^2> between the dual coherent states of label alpha.

    With x = (a- + a+)/sqrt(2i), p = (a- - a+)/sqrt(2i) and [a-, a+] = 1,
    normal ordering gives a- a+ = a+ a- + 1; a- acting right gives alpha,
    a+ acting left gives beta = -i conj(alpha).
    """
    a = complex(alpha)
    b = -1j * a.conjugate()
    return {
        "x": (a + b) / SQRT_2I,
        "p": (a - b) / SQRT_2I,
        "x2": (a * a + 2.0 * a * b + 1.0 + b * b) / 2j,
        "p2": (a * a - 2.0 * a * b - 1.0 + b * b) / 2j,
    }


#: Variances of x and p and the uncertainty product, independent of alpha.
VAR_X = -0.5j
VAR_P = 0.5j
PRODUCT = 0.5


def classical_orbit(v: float, omega: float, t: np.ndarray) -> np.ndarray:
    """(v/omega) sinh(omega t), the runaway orbit from the potential top."""
    return (v / omega) * np.sinh(omega * np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_close(what: str, measured: complex, expected: complex, tol: float,
                scale: float = 1.0) -> str | None:
    err = abs(complex(measured) - complex(expected))
    if not err <= tol * scale:
        return f"{what}: |{measured} - {expected}| = {err:.3e} > {tol * scale:.3e}"
    return None


def check_psi(family: str, n: int, x: np.ndarray, values: np.ndarray) -> str | None:
    expected = psi(family, n, x)
    err = float(np.max(np.abs(np.asarray(values) - expected)))
    scale = float(np.max(np.abs(expected)))
    if not err <= PSI_RTOL * scale:
        return f"psi {family} n={n}: max deviation {err:.3e} > {PSI_RTOL:g} * {scale:.3e}"
    return None


def gram_defect(gram: np.ndarray) -> float:
    """max |G - I| of a Gram matrix."""
    gram = np.asarray(gram)
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def check_gram(gram: np.ndarray) -> str | None:
    defect = gram_defect(gram)
    if not defect <= GRAM_TOL:
        return f"gram nmax={gram.shape[0] - 1}: max|G - I| = {defect:.3e} > {GRAM_TOL:g}"
    return None


def check_mass(n: int, lo: float, hi: float, measured: float) -> str | None:
    expected = interval_mass(n, lo, hi)
    return check_close(f"mass n={n} on [{lo}, {hi}]", measured, expected, MASS_RTOL, abs(expected))


def check_coherent(alpha: complex, moments: dict[str, complex], dx2: complex, dp2: complex,
                   product: float) -> str | None:
    """Expectations against ``coherent_moments``, variances and the product."""
    expected = coherent_moments(alpha)
    scale = 1.0 + abs(alpha) ** 2
    for name, value in moments.items():
        msg = check_close(f"<{name}> at alpha={alpha}", value, expected[name], ALGEBRA_TOL, scale)
        if msg:
            return msg
    return (check_close("var(x)", dx2, VAR_X, ALGEBRA_TOL)
            or check_close("var(p)", dp2, VAR_P, ALGEBRA_TOL)
            or check_close("dx dp", product, PRODUCT, ALGEBRA_TOL))


def orbit_rel_err(times: np.ndarray, values: np.ndarray, v: float, omega: float,
                  t_min: float) -> float:
    """Largest relative deviation of a trajectory from the classical orbit for t >= t_min."""
    times = np.asarray(times, dtype=float)
    window = times * omega >= t_min
    exact = classical_orbit(v, omega, times[window])
    return float(np.max(np.abs(np.real(values)[window] - exact) / np.abs(exact)))
