"""Hot numeric kernels of the dynamics: the RK4 label trajectory in closed
form and the observables of the grid split-step, taken for a block of
steps per call."""

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


def grid_observables(states, x, dx):
    """L2 norms, position expectations and largest boundary amplitudes of grid
    states, one per row of ``states`` (shape (m, N)); returns three (m,) arrays."""
    dens = np.abs(states) ** 2
    norms = dens.sum(axis=-1) * dx
    xmeans = dens @ x * dx / norms
    edges = np.maximum(np.abs(states[..., 0]), np.abs(states[..., -1]))
    return norms, xmeans, edges
