import numpy as np
import pytest

from iwqm import kernels


def test_grid_observables_values():
    # rows |psi|^2 = exp(-(x - c)^2) on a wide grid: norm sqrt(pi), mean c
    x = np.linspace(-10.0, 10.0, 512, endpoint=False)
    centers = np.array([-1.0, 0.0, 0.5, 2.0])
    block = np.exp(-0.5 * (x - centers[:, None]) ** 2) * np.exp(2j * x)
    block[2] *= 3.0
    norms, xmeans, edges = zip(*(kernels.grid_observables(row, x, x[1] - x[0]) for row in block))
    assert all(type(value) is float for value in norms + xmeans + edges)
    assert norms == pytest.approx(np.sqrt(np.pi) * np.array([1.0, 1.0, 9.0, 1.0]), rel=1e-12)
    assert xmeans == pytest.approx(centers, rel=1e-12, abs=1e-14)
    assert np.array_equal(edges, np.maximum(np.abs(block[:, 0]), np.abs(block[:, -1])))


@pytest.mark.parametrize("end", [0, -1])
def test_grid_observables_edge_is_nan_when_either_boundary_is(end):
    x = np.linspace(-10.0, 10.0, 16, endpoint=False)
    state = np.exp(-0.5 * x * x).astype(complex)
    state[end] = np.nan
    assert np.isnan(kernels.grid_observables(state, x, float(x[1] - x[0]))[2])
