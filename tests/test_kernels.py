import numpy as np
import pytest

from iwqm import kernels


def test_grid_observables_values():
    # rows |psi|^2 = exp(-(x - c)^2) on a wide grid: norm sqrt(pi), mean c
    x = np.linspace(-10.0, 10.0, 512, endpoint=False)
    centers = np.array([-1.0, 0.0, 0.5, 2.0])
    block = np.exp(-0.5 * (x - centers[:, None]) ** 2) * np.exp(2j * x)
    block[2] *= 3.0
    norms, xmeans, edges = kernels.grid_observables(block, x, x[1] - x[0])
    assert norms.shape == xmeans.shape == edges.shape == (4,)
    assert norms == pytest.approx(np.sqrt(np.pi) * np.array([1.0, 1.0, 9.0, 1.0]), rel=1e-12)
    assert xmeans == pytest.approx(centers, rel=1e-12, abs=1e-14)
    assert np.array_equal(edges, np.maximum(np.abs(block[:, 0]), np.abs(block[:, -1])))
