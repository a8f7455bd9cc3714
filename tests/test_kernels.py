import numpy as np
import pytest

from iwqm import kernels


def test_grid_observables_values():
    # Gaussian |psi|^2 = exp(-(x - 0.5)^2) on a wide grid: norm sqrt(pi), mean 0.5
    x = np.linspace(-10.0, 10.0, 512, endpoint=False)
    psi = np.exp(-0.5 * (x - 0.5) ** 2) * np.exp(2j * x)
    norm, xmean, edge = kernels.grid_observables(psi, x, x[1] - x[0])
    assert norm == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    assert xmean == pytest.approx(0.5, rel=1e-12)
    assert edge == max(abs(psi[0]), abs(psi[-1]))
