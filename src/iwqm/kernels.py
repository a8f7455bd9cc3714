"""Hot numeric kernels of the dynamics: the RK4 label trajectory in closed
form and the observables of the grid split-step, taken for one state per
call after every step."""

from __future__ import annotations

import numpy as np

__all__ = ["NUMBA_ENABLED", "rk4_trajectory", "grid_observables"]

#: Always False: there is one, pure-numpy kernel path.  Kept because the
#: benchmark records it in its environment block.
NUMBA_ENABLED = False


def rk4_trajectory(v, omega, dt, steps):
    """Classic RK4 for a'' = omega^2 a with a(0) = 0, a'(0) = v; returns
    (steps+1, 2): positions in column 0, velocities in column 1.

    On this linear equation one RK4 step multiplies (a, a') by p(A dt),
    where A has eigenvalues +-omega and p is the degree-4 Taylor polynomial
    of exp, which is positive on the real line.  With
    log p(+-omega dt) = m +- h the k-th step is, in closed form,

        a_k = (v/omega) e^{k m} sinh(k h),   a'_k = v e^{k m} cosh(k h),

    which equals the stepped recurrence to rounding.  omega must be nonzero.
    """
    x = omega * dt
    log_plus, log_minus = (np.log1p(y * (1.0 + y * (0.5 + y * (1.0 / 6.0 + y / 24.0))))
                           for y in (x, -x))
    m = 0.5 * (log_plus + log_minus)
    h = 0.5 * (log_plus - log_minus)
    k = np.arange(steps + 1)
    growth = np.exp(k * m)
    out = np.empty((steps + 1, 2))
    out[:, 0] = (v / omega) * growth * np.sinh(k * h)
    out[:, 1] = v * growth * np.cosh(k * h)
    return out


def grid_observables(state, x, dx):
    """L2 norm, position expectation and larger boundary amplitude of one grid
    state (shape (N,)); returns three Python floats, the amplitude NaN if
    either boundary entry is."""
    amplitude = np.abs(state)
    first, last = amplitude[0], amplitude[-1]
    dens = np.square(amplitude, out=amplitude)
    norm = float(dens.sum() * dx)
    # the larger of the two, NaN if either is: a NaN compares false
    edge = first if first > last or first != first else last
    return norm, float(np.dot(dens, x) * dx / norm), float(edge)
