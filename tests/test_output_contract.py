"""One output contract.  Scalar arguments give a Python ``float`` or
``complex``, never a numpy scalar, and arrays give arrays.  Every CSV table
of ``iwqm dump`` writes each value as the ``repr`` of a Python float, byte
for byte what the earlier per-row f-strings wrote from the library's arrays,
which the tests below rebuild from the same library calls."""

import json

import numpy as np
import pytest

from iwqm import coherent, dynamics, eigenfunctions
from iwqm.algebra import BRA, KET
from iwqm.cli import main
from iwqm.quadrature import gram_matrix

ALPHA = 1.0 + 0.5j


def _pair(alpha=ALPHA, dim=16):
    return coherent.build_coherent(BRA, alpha, dim), coherent.build_coherent(KET, alpha, dim)


SCALAR_CALLS = [
    ("classical_orbit", lambda: dynamics.classical_orbit(0.5, 1.0, 1, 0.3), float),
    ("classical_orbit_numpy_t", lambda: dynamics.classical_orbit(0.5, 1.0, -1, np.float64(0.3)),
     float),
    ("classical_orbit_0d_t", lambda: dynamics.classical_orbit(0.5, 2.0, 1, np.array(0.3)), float),
    ("propagate_fock_ket", lambda: dynamics.propagate_fock(KET, 2, 1.0, 0.3), float),
    ("propagate_fock_bra_numpy", lambda: dynamics.propagate_fock(BRA, np.int64(2), 1.0,
                                                                 np.float64(0.3)), float),
    ("schrodinger_residual", lambda: dynamics.schrodinger_residual(KET, 2, 1.0, 1e-3), float),
    ("evaluate_ket",
     lambda: eigenfunctions.evaluate(eigenfunctions.eigenfunction(KET, 3), 0.4), complex),
    ("evaluate_bra_0d", lambda: eigenfunctions.evaluate(eigenfunctions.eigenfunction(BRA, 3),
                                                        np.array(0.4)), complex),
    ("tail_bound", lambda: coherent.tail_bound(ALPHA, 16), float),
    ("mutual_pairing", lambda: coherent.mutual_pairing(*_pair()), complex),
    ("eigen_residual", lambda: coherent.eigen_residual(_pair()[1]), float),
]


@pytest.mark.parametrize("call, kind", [(call, kind) for _, call, kind in SCALAR_CALLS],
                         ids=[name for name, _, _ in SCALAR_CALLS])
def test_scalar_arguments_give_python_scalars(call, kind):
    assert type(call()) is kind


ARRAY_CALLS = [
    ("classical_orbit", lambda: dynamics.classical_orbit(0.5, 1.0, 1, [0.0, 0.3])),
    ("propagate_fock", lambda: dynamics.propagate_fock(KET, [0, 2], 1.0, 0.3)),
    ("schrodinger_residual", lambda: dynamics.schrodinger_residual(KET, [0, 2], 1.0, 1e-3)),
    ("evaluate", lambda: eigenfunctions.evaluate(eigenfunctions.eigenfunction(KET, 3),
                                                 [0.4, 0.5])),
    ("tail_bound", lambda: coherent.tail_bound([ALPHA, 0.5], 16)),
    ("mutual_pairing", lambda: coherent.mutual_pairing(*_pair([ALPHA, 0.5]))),
    ("eigen_residual", lambda: coherent.eigen_residual(_pair([ALPHA, 0.5])[1])),
]


@pytest.mark.parametrize("call", [call for _, call in ARRAY_CALLS],
                         ids=[name for name, _ in ARRAY_CALLS])
def test_array_arguments_give_arrays(call):
    result = call()
    assert isinstance(result, np.ndarray) and result.shape == (2,)


def _stdout(capsys, argv: str) -> str:
    assert main(argv.split()) == 0
    return capsys.readouterr().out


def _lines(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("family, n, xmin, xmax, samples", [
    (KET, 0, -5.0, 5.0, 1001), (BRA, 16, -2.7, 3.3, 2001), (KET, 40, -9.0, 9.0, 333)])
def test_dump_eigenfunction_writes_the_per_row_formatting(capsys, family, n, xmin, xmax, samples):
    x = np.linspace(xmin, xmax, samples)
    values = eigenfunctions.evaluate(eigenfunctions.eigenfunction(family, n), x)
    expected = _lines("x,re_psi,im_psi,abs2_psi", (
        f"{float(xi)!r},{float(vi.real)!r},{float(vi.imag)!r},{float(abs(vi) ** 2)!r}"
        for xi, vi in zip(x, values)))
    argv = f"dump eigenfunction --set={family} --n={n} --xmin={xmin} --xmax={xmax} "
    assert _stdout(capsys, argv + f"--samples={samples}") == expected


@pytest.mark.parametrize("nmax", [64, 20])
def test_dump_gram_writes_the_per_row_formatting(capsys, nmax):
    table, defect = _stdout(capsys, f"dump gram --nmax={nmax}").rsplit("\n", 2)[:2]
    assert table == "\n".join(",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row)
                              for row in gram_matrix(nmax))
    assert json.loads(defect)["passed"] is True


@pytest.mark.parametrize("v, omega, tfinal, grid", [
    (0.5, 1.0, 1.5, False), (0.5, 1.0, 1.5, True), (-0.3, 3.0, 2.0, False), (0.0, 1.0, 0.5, False)])
def test_dump_evolve_writes_the_per_row_formatting(capsys, v, omega, tfinal, grid):
    dt = 1e-3 / omega
    if grid:
        steps = dynamics.step_count(tfinal, dt)
        packet = dynamics.gaussian_packet(v, omega, t_final=steps * dt)
        trajectory = dynamics.grid_split_step(packet, dt, steps)
    else:
        trajectory = dynamics.integrate_alpha(v, omega, tfinal, dt)
    with np.errstate(all="ignore"):
        classical = dynamics.classical_orbit(v, omega, 1, trajectory.times)
    expected = _lines("t,re_x,im_x,classical_x,abs_error", (
        f"{float(t)!r},{float(z.real)!r},{float(z.imag)!r},{float(c)!r},{float(abs(z - c))!r}"
        for t, z, c in zip(trajectory.times, trajectory.values, classical)))
    argv = f"dump evolve --v={v} --omega={omega} --tfinal={tfinal}" + " --grid" * grid
    assert _stdout(capsys, argv) == expected


@pytest.mark.parametrize("n, family, omega, tfinal, dt", [
    (0, KET, 1.0, 1.0, 0.01), (7, BRA, 2.5, 3.0, 0.01), (0, KET, 1.0, 1.0, 0.001)])
def test_dump_decay_writes_the_per_row_formatting(capsys, n, family, omega, tfinal, dt):
    times = dt * np.arange(dynamics.step_count(tfinal, dt) + 1)
    grown = dynamics.propagate_fock(KET, n, omega, times)
    decayed = dynamics.propagate_fock(BRA, n, omega, times)
    factors = grown if family == KET else decayed
    expected = _lines("t,factor,mixed_pairing", (
        f"{t!r},{f!r},{m!r}"
        for t, f, m in zip(times.tolist(), factors.tolist(), (decayed * grown).tolist())))
    argv = f"dump decay --n={n} --set={family} --omega={omega} --tfinal={tfinal} --dt={dt}"
    assert _stdout(capsys, argv) == expected
