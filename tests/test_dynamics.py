import math
import re
import warnings

import numpy as np
import pytest

from iwqm import dynamics, kernels
from iwqm.algebra import BRA, KET
from iwqm.dynamics import (
    MAX_GRID_POINTS,
    MAX_STEPS,
    GridLeakError,
    GridState,
    NormDriftError,
    StepSizeError,
    Trajectory,
    classical_orbit,
    gaussian_packet,
    grid_split_step,
    integrate_alpha,
    propagate_fock,
    schrodinger_residual,
    step_count,
)
from iwqm.expressions import hamiltonian_expression, to_matrix
from iwqm.verify import RunConfig, decay_suite


def test_growth_factor_values():
    assert propagate_fock(KET, 0, 1.0, 1.0) == pytest.approx(np.exp(0.5))
    assert propagate_fock(BRA, 0, 1.0, 1.0) == pytest.approx(np.exp(-0.5))


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("t", [0.0, 0.25, 1.0])
def test_factor_product_cancels(n, t):
    product = propagate_fock(KET, n, 1.0, t) * propagate_fock(BRA, n, 1.0, t)
    assert abs(product - 1.0) <= 1e-14


def test_overflow_guard():
    with pytest.raises(OverflowError):
        propagate_fock(KET, 1000, 1.0, 1.0)


@pytest.mark.parametrize("n, omega, t", [(2, 1.0, 1e308), (3, 1e300, -1e300)])
def test_overflow_guard_takes_an_overflowing_exponent_without_a_warning(n, omega, t):
    # (n + 1/2) omega t overflows to +-inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="overflow guard"):
            propagate_fock(KET, n, omega, t)


def test_an_overflow_of_the_level_times_omega_alone_is_no_overflow():
    # (n + 1/2) omega = inf, but (n + 1/2) (omega t) = 1.05e-11 and, at t = 0, 0
    # (both refused as "exponent inf" and "exponent nan" before)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert propagate_fock(KET, 10, 1e308, 1e-320) == math.exp(10.5 * (1e308 * 1e-320))
        assert propagate_fock(BRA, 10, 1e308, 1e-320) == math.exp(-10.5 * (1e308 * 1e-320))
        assert propagate_fock(KET, 10, 1e308, 0.0) == propagate_fock(BRA, 10, 1e308, 0.0) == 1.0
        grid = propagate_fock(KET, np.array([[0], [10]]), 1e308, [0.0, 1e-320, -1e-320])
        assert grid.tolist() == [[propagate_fock(KET, n, 1e308, t) for t in (0.0, 1e-320, -1e-320)]
                                 for n in (0, 10)]
        # an exponent that overflows either way is still refused
        with pytest.raises(OverflowError, match="exponent inf exceeds"):
            propagate_fock(KET, 10, 1e308, 1.0)


def test_factor_grid_is_its_scalar_calls_bit_for_bit():
    # levels along one axis and times along another, as the decay suite and
    # dump decay take them, against one call per (level, time)
    levels, times = np.arange(12)[:, None], np.linspace(-2.0, 3.0, 41)
    for family in (KET, BRA):
        for omega in (0.05, 1.0, 37.3):
            grid = propagate_fock(family, levels, omega, times / omega)
            assert grid.shape == (12, 41)
            alone = [[propagate_fock(family, n, omega, t) for t in (times / omega).tolist()]
                     for n in range(12)]
            assert grid.tolist() == alone
            assert type(alone[0][0]) is float
            residuals = schrodinger_residual(family, np.arange(4), omega, 1e-3 / omega)
            assert residuals.tolist() == [schrodinger_residual(family, n, omega, 1e-3 / omega)
                                          for n in range(4)]


def test_propagate_arguments():
    with pytest.raises(ValueError):
        propagate_fock("middle", 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        propagate_fock(KET, -1, 1.0, 1.0)
    with pytest.raises(ValueError):
        propagate_fock(KET, 0, 0.0, 1.0)


def test_same_family_density_grows():
    n, omega = 1, 1.0
    base = np.zeros(4, dtype=complex)
    base[n] = 1.0
    for t in (0.2, 0.7):
        grown = base * [propagate_fock(KET, k, omega, t) for k in range(4)]
        ratio = np.vdot(grown, grown).real
        assert ratio == pytest.approx(np.exp(2 * (n + 0.5) * omega * t), rel=1e-12)


def _dense_density(n: int, omega: float, t: float) -> np.ndarray:
    """rho(t) on the levels 0..n+1: the outer product of the propagated ket
    level n with the conjugate of the propagated bra level n."""
    ket = np.zeros(n + 2, dtype=complex)
    bra = np.zeros(n + 2, dtype=complex)
    ket[n] = propagate_fock(KET, n, omega, t)
    bra[n] = propagate_fock(BRA, n, omega, t)
    return np.outer(ket, np.conj(bra))


def test_decay_rows_match_the_dense_density(region_points):
    # the suite reads both rows off the factor product k b; the dense route
    # forms rho and the commutator with H from its normal form
    for omega, nmax in region_points:
        times = np.linspace(0.0, 1.0 / omega, 11)
        invariance = float(np.max([
            np.max(np.abs(_dense_density(n, omega, t) - _dense_density(n, omega, 0.0)))
            for n in range(3) for t in times]))
        dt = 1e-3 / omega
        equation = []
        for n in range(3):
            ham = to_matrix(hamiltonian_expression(omega), n + 2)
            rho = _dense_density(n, omega, 0.0)
            drho = (_dense_density(n, omega, dt) - _dense_density(n, omega, -dt)) / (2.0 * dt)
            equation.append(np.max(np.abs(1j * drho + rho @ ham - ham @ rho)))
        checks = {c.name: c.residual
                  for c in decay_suite(RunConfig(nmax=nmax, omega=omega)).checks}
        assert checks["mixed_density_invariant"] == invariance, omega
        assert checks["density_equation"] == float(np.max(equation)), omega


def test_schrodinger_residual_scales_quartically():
    assert schrodinger_residual(KET, 1, 1.0, 1e-3) <= 1e-6
    # at dt ~ 1e-3 the fourth-order defect is near rounding, so the ratio is
    # taken where the truncation error dominates
    coarse = schrodinger_residual(KET, 1, 1.0, 4e-2)
    fine = schrodinger_residual(KET, 1, 1.0, 2e-2)
    assert coarse / fine == pytest.approx(16.0, rel=0.05)


@pytest.mark.parametrize("omega", [0.05, 1.0, 10.0, 40.0])
def test_schrodinger_residual_holds_at_scaled_step(omega):
    for family in (KET, BRA):
        for n in range(2):
            assert schrodinger_residual(family, n, omega, 1e-3 / omega) <= 1e-6


def test_classical_orbit_values():
    assert classical_orbit(1.0, 1.0, 1, 1.0) == pytest.approx(np.sinh(1.0))
    assert classical_orbit(1.0, 1.0, 1, 0.0) == 0.0
    assert classical_orbit(1.0, 2.0, -1, 0.5) == pytest.approx(-0.5 * np.sinh(1.0))
    np.testing.assert_array_equal(classical_orbit(0.0, 1.0, 1, np.linspace(0, 2, 5)),
                                  np.zeros(5))


def test_classical_orbit_arguments():
    with pytest.raises(ValueError):
        classical_orbit(1.0, 0.0, 1, 1.0)
    with pytest.raises(ValueError):
        classical_orbit(1.0, 1.0, 2, 1.0)


def test_label_integration_matches_closed_form():
    trajectory = integrate_alpha(1.0, 1.0, 2.0, 1e-3)
    exact = classical_orbit(1.0, 1.0, 1, trajectory.times)
    mask = trajectory.times > 0
    rel = np.abs(trajectory.values.real[mask] - exact[mask]) / np.abs(exact[mask])
    assert np.max(rel) <= 1e-8


def test_label_integration_energy_invariant():
    state = kernels.rk4_trajectory(1.0, 1.3, 1e-3, 1500)
    invariant = state[:, 1] ** 2 - 1.3 ** 2 * state[:, 0] ** 2
    assert np.max(np.abs(invariant - invariant[0])) <= 1e-8


def test_label_second_difference_restates_the_ode():
    trajectory = integrate_alpha(1.0, 1.0, 1.0, 1e-3)
    a = trajectory.values.real
    dt = trajectory.times[1] - trajectory.times[0]
    second = (a[2:] - 2 * a[1:-1] + a[:-2]) / dt ** 2
    assert np.max(np.abs(second - a[1:-1])) <= 1e-4


def rk4_loop(v, omega, dt, steps):
    """Classic RK4 for a'' = omega^2 a, a(0) = 0, a'(0) = v, stepped one step
    at a time: the reference for the closed form of ``kernels.rk4_trajectory``."""
    w2 = omega * omega
    a, ad = 0.0, v
    out = np.empty((steps + 1, 2))
    out[0] = a, ad
    for k in range(steps):
        k1a, k1b = ad, w2 * a
        k2a, k2b = ad + 0.5 * dt * k1b, w2 * (a + 0.5 * dt * k1a)
        k3a, k3b = ad + 0.5 * dt * k2b, w2 * (a + 0.5 * dt * k2a)
        k4a, k4b = ad + dt * k3b, w2 * (a + dt * k3a)
        a = a + dt * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        ad = ad + dt * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
        out[k + 1] = a, ad
    return out


@pytest.mark.parametrize("v, omega, dt, steps", [
    (1.0, 1.0, 1e-3, 2000), (1.0, 1.3, 1e-3, 1500), (0.5, 40.0, 2.5e-5, 2000),
    (1.0, 0.05, 2e-2, 2000), (1.0, 1.0, 0.25, 8), (-2.0, 3.0, 1e-2, 300)])
def test_rk4_closed_form_matches_stepped_loop(v, omega, dt, steps):
    expected = rk4_loop(v, omega, dt, steps)
    state = kernels.rk4_trajectory(v, omega, dt, steps)
    assert state.shape == (steps + 1, 2)
    assert np.array_equal(state[0], [0.0, v])
    assert np.max(np.abs(state[1:] - expected[1:]) / np.abs(expected[1:])) <= 1e-14


def test_label_integration_is_fourth_order():
    errors = []
    for dt in (0.05, 0.025):
        trajectory = integrate_alpha(1.0, 1.0, 2.0, dt, check_tol=None)
        exact = classical_orbit(1.0, 1.0, 1, trajectory.times[1:])
        errors.append(np.max(np.abs(trajectory.values.real[1:] - exact) / exact))
    assert 14.0 <= errors[0] / errors[1] <= 18.0


def test_label_integration_refuses_non_positive_omega():
    for omega in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="omega"):
            integrate_alpha(1.0, omega, 1.0, 1e-3, check_tol=None)


@pytest.mark.parametrize("v, omega, t_final, dt, message", [
    (-1e300, 1e-300, 0.01, 1e-3, "trajectory .* is not finite"),
    (1.0, 1.0, 1e300, 1e300, "trajectory .* is not finite"),
    (1e-300, 1e-300, 1e-300, 1e-300, "closed-form orbit .* leaves the float range"),
])
def test_label_integration_refuses_orbits_outside_the_float_range(v, omega, t_final, dt,
                                                                 message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as err:
            integrate_alpha(v, omega, t_final, dt)
    assert not isinstance(err.value, StepSizeError)


def test_label_integration_step_size_guard():
    with pytest.raises(StepSizeError):
        integrate_alpha(1.0, 1.0, 2.0, 0.25)
    trajectory = integrate_alpha(1.0, 1.0, 2.0, 0.25, check_tol=None)
    assert trajectory.times[-1] == pytest.approx(2.0)


def test_gaussian_packet_is_normalized():
    packet = gaussian_packet(0.5)
    dens = np.abs(packet.psi) ** 2
    assert np.sum(dens) * packet.dx == pytest.approx(1.0, abs=1e-12)


def test_grid_state_validation():
    with pytest.raises(ValueError):
        GridState(-1.0, 1.0, 100, np.zeros(100), 1.0)
    with pytest.raises(ValueError):
        GridState(1.0, -1.0, 128, np.zeros(128), 1.0)
    with pytest.raises(ValueError):
        GridState(-1.0, 1.0, 128, np.zeros(64), 1.0)
    with pytest.raises(ValueError):
        GridState(-1.0, 1.0, 128, np.zeros(128), 0.0)


@pytest.mark.parametrize("edges, omega, message", [
    ((math.nan, 1.0), 1.0, "x_min must be finite, got nan"),
    ((-math.inf, 1.0), 1.0, "x_min must be finite, got -inf"),
    ((-1.0, math.inf), 1.0, "x_max must be finite, got inf"),
    ((-1.0, 1.0), math.inf, "omega must be finite and positive, got inf"),
])
def test_grid_state_refuses_non_finite_edges_and_omega(edges, omega, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GridState(*edges, 8, np.ones(8), omega)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([1.0]))


def test_grid_split_step_symmetric_packet_stays_centered():
    trajectory = grid_split_step(gaussian_packet(0.0), 1e-3, 300)
    assert np.max(np.abs(trajectory.values)) <= 1e-10


def test_grid_split_step_tracks_classical_orbit():
    diagnostics = {}
    (trajectory,) = dynamics.grid_split_step_runs(gaussian_packet(0.5), [(1e-3, 1000)],
                                                  [diagnostics])
    classical = classical_orbit(0.5, 1.0, 1, trajectory.times)
    mask = trajectory.times >= 0.1
    rel = np.abs(trajectory.values.real[mask] - classical[mask]) / np.abs(classical[mask])
    assert np.max(rel) <= 1e-4
    assert diagnostics["norm_drift"] <= 1e-10
    assert diagnostics["edge_max"] <= 1e-10


def chin_reference(packet, dt, steps, leak_tol=1e-10):
    """Unfused fourth-order steps V(dt/6) T(dt/2) Vt(2 dt/3) T(dt/2) V(dt/6),
    both outer kicks applied every step and the gradient term of
    Vt = V - (dt^2/48) V'^2 written out, with observables after every step:
    <x>(t) and the first step whose boundary amplitude exceeds ``leak_tol``
    (or None)."""
    x, dx = packet.x, packet.dx
    k = 2.0 * np.pi * np.fft.fftfreq(packet.points, dx)
    potential = -0.5 * packet.omega ** 2 * x * x
    gradient = -packet.omega ** 2 * x
    corrected = potential - dt ** 2 / 48.0 * gradient ** 2

    def kick(psi, v, h):
        return np.exp(-1j * h * v) * psi

    def drift(psi, h):
        return np.fft.ifft(np.exp(-0.5j * h * k * k) * np.fft.fft(psi))

    psi = packet.psi
    xs = []
    for s in range(steps + 1):
        if s:
            psi = kick(psi, potential, dt / 6.0)
            psi = drift(psi, dt / 2.0)
            psi = kick(psi, corrected, 2.0 * dt / 3.0)
            psi = drift(psi, dt / 2.0)
            psi = kick(psi, potential, dt / 6.0)
        dens = np.abs(psi) ** 2
        xs.append(np.sum(x * dens) / np.sum(dens))
        if max(abs(psi[0]), abs(psi[-1])) > leak_tol:
            return np.array(xs), s
    return np.array(xs), None


def test_grid_split_step_matches_unfused_reference():
    packet = gaussian_packet(0.5)
    # a fine step, and the coarse step of the correspondence suite, where a
    # step without the gradient term is 2e-5 away
    for dt, steps in ((1e-3, 1500), (5e-2, 30)):
        expected, leak_step = chin_reference(packet, dt, steps)
        assert leak_step is None
        trajectory = grid_split_step(packet, dt, steps)
        assert np.max(np.abs(trajectory.values.real - expected)) <= 1e-12


def test_grid_split_step_detects_boundary_leak():
    # a grid sized for t_final = 0.1 cannot hold the packet for 3 time units
    short = gaussian_packet(0.5, t_final=0.1)
    _, leak_step = chin_reference(short, 1e-3, 3000)
    assert leak_step is not None and 100 < leak_step < 3000
    with pytest.raises(GridLeakError, match=f"at step {leak_step}$"):
        grid_split_step(short, 1e-3, 3000)


def test_leak_guard_is_relative_to_the_initial_peak():
    # the peak grows like omega^(1/4): at omega 1e20 it is 7.5e4, and the
    # FFT's rounding leaves edges above 1e-10 on a grid that holds the packet
    omega = 1e20
    packet = gaussian_packet(0.5, omega)
    diagnostics = {}
    dynamics.grid_split_step_runs(packet, [(1e-3 / omega, 1500)], [diagnostics])
    assert 1e-10 < diagnostics["edge_max"] <= 1e-13 * np.max(np.abs(packet.psi))
    # a grid too small for the horizon still stops the run
    with pytest.raises(GridLeakError, match="exceeds 7.5"):
        grid_split_step(gaussian_packet(0.5, omega, t_final=0.1 / omega), 1e-3 / omega, 3000)


@pytest.mark.parametrize("omega", [0.05, 1.0, 40.0])
def test_grid_split_step_is_fourth_order(omega):
    packet = gaussian_packet(0.5, omega)
    # the second pair is the one the correspondence suite runs
    for pair in (((3e-2, 50), (1.5e-2, 100)), ((5e-2, 30), (2.5e-2, 60))):
        errors = []
        for dt, steps in pair:
            trajectory = grid_split_step(packet, dt / omega, steps)
            classical = classical_orbit(0.5, omega, 1, trajectory.times)
            mask = trajectory.times * omega >= 0.1
            errors.append(np.max(np.abs(trajectory.values.real[mask] - classical[mask])
                                 / np.abs(classical[mask])))
        assert 14.0 <= errors[0] / errors[1] <= 18.0


@pytest.mark.parametrize("omega", [0.05, 1.0, 40.0])
def test_gaussian_packet_grid_stays_small(omega):
    packet = gaussian_packet(0.5, omega)
    assert packet.points <= 1024
    assert np.sum(np.abs(packet.psi) ** 2) * packet.dx == pytest.approx(1.0, abs=1e-12)
    trajectory = grid_split_step(packet, 1e-3 / omega, 1500)
    classical = classical_orbit(0.5, omega, 1, trajectory.times)
    mask = trajectory.times * omega >= 0.1
    rel = np.abs(trajectory.values.real[mask] - classical[mask]) / np.abs(classical[mask])
    assert np.max(rel) <= 1e-4


def test_gaussian_packet_refuses_over_cap_horizon():
    assert gaussian_packet(0.5, t_final=3.0).points <= MAX_GRID_POINTS
    for t_final in (6.0, 1e6):
        with pytest.raises(ValueError, match="grid points"):
            gaussian_packet(0.5, t_final=t_final)
    with pytest.raises(ValueError):
        gaussian_packet(0.5, t_final=0.0)
    with pytest.raises(ValueError):
        gaussian_packet(0.5, 0.0)


def test_grid_split_step_detects_norm_drift(monkeypatch):
    monkeypatch.setattr(dynamics, "DRIFT_TOL", -1.0)
    with pytest.raises(NormDriftError):
        grid_split_step(gaussian_packet(0.5), 1e-3, 5)


def test_grid_split_step_argument_validation():
    with pytest.raises(ValueError):
        grid_split_step(gaussian_packet(0.5), 0.0, 10)
    with pytest.raises(ValueError):
        grid_split_step(gaussian_packet(0.5), 1e-3, 0)


def test_step_count_is_capped_before_allocating():
    assert step_count(0.5 * MAX_STEPS, 0.5) == MAX_STEPS
    for t_final, dt in ((1.0, 1e-15), (1.0, 1e-320), (float("inf"), 1.0)):
        with pytest.raises(ValueError, match="cap"):
            step_count(t_final, dt)
    for t_final, dt in ((1.0, 0.0), (-1.0, 1e-3), (float("nan"), 1e-3)):
        with pytest.raises(ValueError, match="positive"):
            step_count(t_final, dt)
    for t_final, dt in ((1.0, 5.0), (1.0, 2.0), (1e-300, 1.0)):
        with pytest.raises(ValueError, match="0 steps"):
            step_count(t_final, dt)
    assert step_count(1.0, 1.9) == 1
    with pytest.raises(ValueError, match="cap"):
        integrate_alpha(1.0, 1.0, 1.0, 1e-15)
    with pytest.raises(ValueError, match="cap"):
        grid_split_step(gaussian_packet(0.5), 1e-3, MAX_STEPS + 1)


def unstacked_reference(packet, dt, steps):
    """The fused loop of one run with allocating one-dimensional FFTs and the
    observables taken after every step: the form the stacked loop replaced."""
    x, dx = packet.x, packet.dx
    k = 2.0 * np.pi * np.fft.fftfreq(packet.points, dx)
    tau = packet.omega * dt
    u2 = (x * np.sqrt(packet.omega)) ** 2
    sixth_kick = np.exp((1j * tau / 12.0) * u2)
    outer_kick = sixth_kick * sixth_kick
    middle_kick = np.exp((1j * tau / 3.0) * (1.0 + tau ** 2 / 24.0) * u2)
    kinetic = np.exp(-0.25j * dt * k * k)
    psi = np.conj(sixth_kick) * packet.psi
    xs = [kernels.grid_observables(psi, x, dx)[1]]
    for _ in range(steps):
        phi = np.fft.ifft(kinetic * np.fft.fft(outer_kick * psi))
        psi = np.fft.ifft(kinetic * np.fft.fft(middle_kick * phi))
        xs.append(kernels.grid_observables(psi, x, dx)[1])
    return np.array(xs)


@pytest.mark.parametrize("omega", [0.05, 1.0, 40.0])
def test_stacked_runs_equal_the_runs_made_alone(omega):
    packet = gaussian_packet(0.5 * np.sqrt(omega), omega, t_final=1.5 / omega)
    # the correspondence pair, a run longer than one block, and an equal-length pair
    runs = [(5e-2 / omega, 30), (2.5e-2 / omega, 60), (1e-3 / omega, 1500),
            (3e-2 / omega, 50), (2e-2 / omega, 50)]
    diagnostics = [{} for _ in runs]
    stacked = dynamics.grid_split_step_runs(packet, runs, diagnostics)
    assert len(stacked) == len(runs)
    for (dt, steps), trajectory, diagnostic in zip(runs, stacked, diagnostics):
        alone_diagnostics = {}
        (alone,) = dynamics.grid_split_step_runs(packet, [(dt, steps)], [alone_diagnostics])
        assert trajectory.times.tobytes() == alone.times.tobytes()
        assert trajectory.values.tobytes() == alone.values.tobytes()
        assert diagnostic == alone_diagnostics and set(diagnostic) == {"norm_drift", "edge_max"}
        assert all(type(value) is float for value in diagnostic.values())
        expected = unstacked_reference(packet, dt, steps)
        assert trajectory.values.real.tobytes() == expected.tobytes()


def test_a_guard_tripping_in_one_row_names_the_step_of_the_run_alone():
    # a grid sized for t = 0.1: the short run stays inside it, the long one leaks
    short = gaussian_packet(0.5, t_final=0.1)
    runs = [(1e-3, 100), (5e-2, 60)]
    with pytest.raises(GridLeakError) as alone:
        grid_split_step(short, *runs[1])
    grid_split_step(short, *runs[0])
    for order in (runs, runs[::-1]):
        with pytest.raises(GridLeakError) as stacked:
            dynamics.grid_split_step_runs(short, order)
        assert str(stacked.value) == str(alone.value)
    assert 0 < int(str(alone.value).rsplit(" ", 1)[1]) < 60


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3, 1e300,
                                1.2e154])
def test_grid_split_step_refuses_a_bad_dt_before_stepping(monkeypatch, dt):
    observed = []
    monkeypatch.setattr(dynamics, "grid_observables",
                        lambda *args: observed.append(args) or kernels.grid_observables(*args))
    packet = gaussian_packet(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and positive|overflows"):
            grid_split_step(packet, dt, 3)
        with pytest.raises(ValueError, match="finite and positive|overflows"):
            dynamics.grid_split_step_runs(packet, [(1e-3, 3), (dt, 3)])
    assert observed == []


@pytest.mark.parametrize("column, error", [(0, NormDriftError), (2, GridLeakError)])
def test_guards_fail_on_a_nan_observable(monkeypatch, column, error):
    calls = []

    def nan_at_step_2(state, x, dx):
        values = list(kernels.grid_observables(state, x, dx))
        calls.append(state)
        if len(calls) == 3:
            values[column] = math.nan
        return tuple(values)

    monkeypatch.setattr(dynamics, "grid_observables", nan_at_step_2)
    with pytest.raises(error, match=r"nan exceeds .* at step 2$"):
        grid_split_step(gaussian_packet(0.5), 1e-3, 5)


@pytest.mark.parametrize("runs", [[(5e-2, 60)], [(1e-3, 100), (5e-2, 60)]])
def test_a_tripped_guard_stops_the_call_at_its_step(monkeypatch, runs):
    # a grid sized for t = 0.1 leaks within the 60 steps of dt = 5e-2
    short = gaussian_packet(0.5, t_final=0.1)
    with pytest.raises(GridLeakError) as alone:
        grid_split_step(short, 5e-2, 60)
    leak_step = int(str(alone.value).rsplit(" ", 1)[1])
    assert 0 < leak_step < 60
    ffts, observed = [], []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: ffts.append(args) or fft(*args, **kw))
    monkeypatch.setattr(dynamics, "grid_observables",
                        lambda *args: observed.append(args) or kernels.grid_observables(*args))
    with pytest.raises(GridLeakError, match=f"at step {leak_step}$"):
        dynamics.grid_split_step_runs(short, runs)
    # two FFT calls a step, each over every live row, and one observation a row
    # at each of the steps 0 to leak_step
    assert len(ffts) == 2 * leak_step
    assert len(observed) == len(runs) * (leak_step + 1)


def test_grid_split_step_runs_arguments():
    packet = gaussian_packet(0.5)
    with pytest.raises(ValueError, match="at least one"):
        dynamics.grid_split_step_runs(packet, [])
    with pytest.raises(ValueError, match="diagnostics"):
        dynamics.grid_split_step_runs(packet, [(1e-3, 3), (1e-3, 4)], [{}])
    with pytest.raises(ValueError, match="steps"):
        dynamics.grid_split_step_runs(packet, [(1e-3, 3), (1e-3, 0)])
