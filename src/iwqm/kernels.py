"""Hot numeric kernels of the dynamics: the RK4 label trajectory and the
observables of the grid split-step, taken for a block of steps per call."""

from __future__ import annotations

import numpy as np

__all__ = ["NUMBA_ENABLED", "rk4_trajectory", "grid_observables"]

#: Always False: there is one, pure-numpy kernel path.  Kept because the
#: benchmark records it in its environment block.
NUMBA_ENABLED = False


def rk4_trajectory(v, omega, dt, steps):
    # classic RK4 for a'' = omega^2 a with a(0) = 0, a'(0) = v;
    # returns (steps+1, 2): positions in column 0, velocities in column 1
    w2 = omega * omega
    a = 0.0
    ad = v
    out = np.empty((steps + 1, 2))
    out[0, 0] = a
    out[0, 1] = ad
    for k in range(steps):
        k1a = ad
        k1b = w2 * a
        k2a = ad + 0.5 * dt * k1b
        k2b = w2 * (a + 0.5 * dt * k1a)
        k3a = ad + 0.5 * dt * k2b
        k3b = w2 * (a + 0.5 * dt * k2a)
        k4a = ad + dt * k3b
        k4b = w2 * (a + dt * k3a)
        a = a + dt * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        ad = ad + dt * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
        out[k + 1, 0] = a
        out[k + 1, 1] = ad
    return out


def grid_observables(states, x, dx):
    """L2 norms, position expectations and largest boundary amplitudes of grid
    states, one per row of ``states`` (shape (m, N)); returns three (m,) arrays."""
    dens = np.abs(states) ** 2
    norms = dens.sum(axis=-1) * dx
    xmeans = dens @ x * dx / norms
    edges = np.maximum(np.abs(states[..., 0]), np.abs(states[..., -1]))
    return norms, xmeans, edges
