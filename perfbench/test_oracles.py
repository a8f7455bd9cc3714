"""Self-tests of the benchmark's oracles and its metric list.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each oracle must agree with iwqm where iwqm is known to be right, and
its check must reject a slightly perturbed value.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
from iwqm import coherent, dynamics, eigenfunctions, quadrature


@pytest.mark.parametrize("family", ["ket", "bra"])
def test_psi_matches_evaluate_up_to_level_12(family):
    x = np.linspace(-4.0, 4.0, 801)
    for n in range(13):
        values = eigenfunctions.evaluate(eigenfunctions.eigenfunction(family, n), x)
        assert oracles.check_psi(family, n, x, values) is None
        assert oracles.check_psi(family, n, x, values * (1 + 1e-9)) is not None


def test_bra_is_conjugate_and_ground_state_is_flat():
    x = np.linspace(-3.0, 3.0, 101)
    assert np.array_equal(oracles.psi("bra", 5, x), np.conj(oracles.psi("ket", 5, x)))
    assert np.allclose(np.abs(oracles.psi("ket", 0, x)) ** 2, 1 / math.sqrt(math.pi), rtol=1e-15)


def test_hermite_coefficients():
    assert oracles.hermite_coeffs(0) == [1]
    assert oracles.hermite_coeffs(3) == [0, -12, 0, 8]
    assert oracles.hermite_coeffs(4) == [12, 0, -48, 0, 16]


def test_interval_mass():
    for half_width in (0.5, 1.0, 2.5):
        assert oracles.interval_mass(0, -half_width, half_width) == pytest.approx(
            2 * half_width / math.sqrt(math.pi), rel=1e-15)
    for n, half_width in ((1, 2.0), (2, 3.5), (3, 2.5)):
        f = eigenfunctions.eigenfunction("ket", n)
        mass = quadrature.density_interval_integral(f, -half_width, half_width)
        assert oracles.check_mass(n, -half_width, half_width, mass) is None
        assert oracles.check_mass(n, -half_width, half_width, mass * (1 + 1e-7)) is not None
    # against the trapezoid rule on the closed form, independent of iwqm
    x = np.linspace(-1.5, 2.0, 200001)
    density = np.abs(oracles.psi("ket", 4, x)) ** 2
    trapezoid = float(np.sum(density[1:] + density[:-1]) * (x[1] - x[0]) / 2)
    assert oracles.interval_mass(4, -1.5, 2.0) == pytest.approx(trapezoid, rel=1e-8)


def test_coherent_moments():
    for alpha in (0.3 - 0.2j, 1.0 + 0.5j, -1.4 + 1.1j):
        moments = {o: coherent.expectation(o, alpha) for o in ("x", "p", "x2", "p2")}
        unc = coherent.uncertainty_product(alpha)
        assert oracles.check_coherent(alpha, moments, unc.dx2, unc.dp2, unc.product) is None
        for o in moments:
            assert moments[o] == pytest.approx(coherent.expectation_closed_form(o, alpha),
                                               abs=1e-12)
        bad = dict(moments, x2=moments["x2"] + 1e-8)
        assert oracles.check_coherent(alpha, bad, unc.dx2, unc.dp2, unc.product) is not None
        assert oracles.check_coherent(alpha, moments, unc.dx2, unc.dp2,
                                      unc.product + 1e-8) is not None


def test_classical_orbit():
    t = np.linspace(0.0, 2.0, 201)
    assert np.allclose(oracles.classical_orbit(0.7, 1.3, t),
                       dynamics.classical_orbit(0.7, 1.3, 1, t), rtol=1e-15, atol=0)
    label = dynamics.integrate_alpha(1.0, 1.0, 2.0, 1e-3, check_tol=None)
    assert oracles.orbit_rel_err(label.times, label.values, 1.0, 1.0, 1e-3) < 1e-8
    assert oracles.orbit_rel_err(label.times, label.values * (1 + 1e-6), 1.0, 1.0, 1e-3) > 1e-8


def test_gram_identity():
    gram = quadrature.gram_matrix(12)
    assert oracles.check_gram(gram) is None
    assert oracles.gram_defect(gram) < 1e-10
    perturbed = gram.copy()
    perturbed[3, 4] += 1e-6
    assert oracles.check_gram(perturbed) is not None


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
