"""Time evolution, decay factors, and the quantum-classical correspondence.

The stationary states of the inverted well evolve by real exponential
factors (``propagate_fock``): ket levels grow as e^{(n+1/2) omega t},
bra levels decay by the inverse, so same-family probability densities
are not conserved while the mixed ket-bra density of one level, whose
one entry is the product of the two factors, is exactly time-invariant.
A (level, time) grid of factors is one ``propagate_fock`` call, each
entry equal to its scalar call bit for bit.

The coherent-state label obeys the classical equation alpha'' =
omega^2 alpha, whose solution (v/omega) sinh(omega t) is the orbit of a
unit-mass particle rolling off the potential top.  Two independent
numerical routes confirm it:

* fourth-order integration of the label equation (``integrate_alpha``),
* a spectral split-step solution of the time-dependent Schroedinger
  equation on a grid (``grid_split_step``), whose standard L2 position
  expectation follows the same curve exactly for quadratic potentials.
  Each step is Chin's gradient-corrected fourth-order factorization, two
  kinetic FFT pairs per step, so the error in <x>(t), which for a
  quadratic Hamiltonian is the classical splitting error, falls as dt^4.
  Its gradient term omega^4 x^2 is quadratic like the potential itself, so
  for this well the correction is one more elementwise phase, exact and
  free of FFTs.

The grid is sized from the packet: ``gaussian_packet`` takes the horizon
the run must reach and picks the smallest power-of-two grid that holds
the packet's closed-form spreads in position and momentum until then
(512 points for the default packet at omega = 1, 1024 at most from
omega = 0.05 to 40), refusing horizons that need more than
``MAX_GRID_POINTS``.  The split-step fuses the outer half-kicks of
consecutive steps, and after every step takes each run's observables and
checks its guards.  Runs of one packet at several step sizes are stacked
as the rows of one array (``grid_split_step_runs``), so they share each
FFT call while they last; each row equals its run made alone bit for bit,
and ``grid_split_step`` is the one-run case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (KET, _freeze, _per_label, _require_family, _require_finite,
                      _require_integer, _require_positive, _require_real, _stored)
from .kernels import grid_observables, rk4_trajectory

#: Largest exponent fed to exp(); beyond this double precision overflows.
EXP_GUARD = 700.0

#: Amplitude, relative to the peak, left at the edges of a packet's grid
#: in position and in momentum at its horizon.
EDGE_FRACTION = 1e-16

#: Largest grid ``gaussian_packet`` builds.
MAX_GRID_POINTS = 1 << 16

#: Largest number of time steps a trajectory takes.
MAX_STEPS = 10 ** 7

#: Largest boundary amplitude of a grid state, relative to the initial peak
#: amplitude when that is above 1.
LEAK_TOL = 1e-10

#: Largest drift of a grid state's L2 norm from the initial one.
DRIFT_TOL = 1e-8


class GridLeakError(RuntimeError):
    """Wave-function amplitude reached the grid boundary."""


class NormDriftError(RuntimeError):
    """L2 norm of the grid state drifted beyond tolerance."""


class StepSizeError(ValueError):
    """Integration step too coarse for the requested accuracy."""


@dataclass(frozen=True)
class Trajectory:
    """Strictly increasing sample times with complex observable values."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = _stored("times", self.times, float), _stored("values", self.values, complex)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be equal-length vectors")
        if t.shape[0] > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        _freeze(self, times=t, values=v)


@dataclass(frozen=True)
class GridState:
    """Wave function sampled on a uniform grid of power-of-two size."""

    x_min: float
    x_max: float
    points: int
    psi: np.ndarray
    omega: float

    def __post_init__(self):
        points = _require_integer("points", self.points, minimum=2)
        if points & (points - 1):
            raise ValueError(f"points must be a power of two, got {points}")
        x_min, x_max = _require_finite("x_min", self.x_min), _require_finite("x_max", self.x_max)
        if x_max <= x_min:
            raise ValueError("x_max must exceed x_min")
        omega = _require_positive("omega", self.omega)
        psi = _stored("psi", self.psi, complex)
        if psi.shape != (points,):
            raise ValueError(f"psi must have shape ({points},), got {psi.shape}")
        _freeze(self, x_min=x_min, x_max=x_max, points=points, psi=psi, omega=omega)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.points)


def propagate_fock(family: str, n, omega: float, t):
    """Growth factor e^{+(n+1/2) omega t} of level n at time t for ket, inverse for bra:
    n and t broadcast, a float for scalars, else an array of the scalar calls bit
    for bit.  A level that is not a nonnegative integer, an omega that is not
    finite and positive and a time that is not finite are refused with
    ValueError; an exponent beyond ``EXP_GUARD`` raises OverflowError.  The
    exponent is ((n + 1/2) omega) t, and (n + 1/2) (omega t) where that
    product is not finite, so an overflow of (n + 1/2) omega alone is no
    overflow of the exponent.
    """
    _require_family(family)
    omega = _require_positive("omega", omega)
    n = _require_integer("level", n, arrays=True)
    t = _require_finite("t", t, arrays=True)
    level = np.asarray(n, dtype=float) + 0.5
    with np.errstate(over="ignore", invalid="ignore"):  # still not finite: refused below
        exponent = level * omega * t
        peak = np.max(np.abs(exponent), initial=0.0)
        if not peak <= EXP_GUARD:  # where (n + 1/2) omega alone overflowed: (n + 1/2) (omega t)
            exponent = np.where(np.isfinite(exponent), exponent, level * (omega * t))
            peak = np.max(np.abs(exponent), initial=0.0)
    if not peak <= EXP_GUARD:
        raise OverflowError(f"exponent {peak:.3g} exceeds the overflow guard {EXP_GUARD}")
    factor = np.exp(exponent if family == KET else -exponent)
    return _per_label(factor)


def schrodinger_residual(family: str, n, omega: float, dt: float):
    """Centered-difference defect of i d/dt psi = E psi at t = 0 for propagated
    levels: a float for one level, else an array with one defect per level of n.

    The eigenvalue is i omega (n + 1/2) for ket levels and its conjugate
    for bra levels.  The derivative is the fourth-order five-point stencil
    (f(-2dt) - 8 f(-dt) + 8 f(dt) - f(2dt)) / (12 dt), its five factors
    taken in one :func:`propagate_fock` call, so the defect is the
    truncation error ((n+1/2) omega)^5 dt^4 / 30 plus rounding.  A dt that
    is not finite and positive, or whose 2 dt overflows, is refused with
    ValueError.
    """
    dt = _require_positive("dt", dt)
    if 2.0 * dt == math.inf:
        raise ValueError(f"dt must be at most half the largest float, got {dt!r}")
    stencil = dt * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]).reshape((5,) + (1,) * np.ndim(n))
    # propagate_fock refuses a family, a level or an omega it cannot take
    back2, back, now, ahead, ahead2 = propagate_fock(family, n, omega, stencil)
    energy = 1j * omega * (np.asarray(n, dtype=float) + 0.5) * (1 if family == KET else -1)
    derivative = (back2 - 8.0 * back + 8.0 * ahead - ahead2) / (12.0 * dt)
    residual = np.abs(1j * derivative - energy * now)
    return _per_label(residual)


def classical_orbit(v: float, omega: float, sign: int, t):
    """x(t) = sign (v/omega) sinh(omega t), the runaway classical solution: a float
    for scalars, else an array.  A v that is not finite or whose v/omega is not,
    an omega that is not finite and positive, and a t that is not real or at
    which the orbit leaves the float range (at v = 0 too, where sinh
    overflows) are refused with ValueError."""
    v = _require_finite("v", v, arrays=True)
    omega = _require_positive("omega", omega)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    t = _require_real("t", t, arrays=True)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf at v = 0: refused below
        amplitude = v / omega
        if not np.isfinite(amplitude).all():
            raise ValueError(f"v must be at most the largest float times omega={omega!r}, "
                             f"got |v| up to {float(np.max(np.abs(v)))!r}")
        orbit = sign * amplitude * np.sinh(omega * t)
    if not np.isfinite(orbit).all():
        raise ValueError(f"t must be a time at which the classical orbit of v={v!r} at "
                         f"omega={omega!r} is finite, got |t| up to {float(np.max(np.abs(t)))!r}")
    return _per_label(orbit)


def step_count(t_final: float, dt: float) -> int:
    """round(t_final / dt) for positive t_final and dt, refused with ValueError
    when it is 0 (dt of 2 t_final or more) or above ``MAX_STEPS``, before
    anything is allocated."""
    t_final, dt = _require_real("t_final", t_final), _require_real("dt", dt)
    if not (t_final > 0 and dt > 0):
        raise ValueError(f"t_final and dt must be positive, got {t_final!r}, {dt!r}")
    ratio = t_final / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_final/dt = {ratio:.3g} steps exceeds the cap of {MAX_STEPS}")
    steps = int(round(ratio))
    if steps == 0:
        raise ValueError(f"t_final = {t_final!r} with dt = {dt!r} gives 0 steps; "
                         f"dt must be below 2 t_final")
    return steps


def integrate_alpha(v: float, omega: float, t_final: float, dt: float,
                    check_tol: float | None = 1e-8) -> Trajectory:
    """Fourth-order integration of alpha'' = omega^2 alpha, alpha(0)=0, alpha'(0)=v.

    A setting whose trajectory is not finite raises ValueError.  When
    ``check_tol`` is set the result is compared against the closed form:
    a relative deviation above it raises :class:`StepSizeError`, and a
    closed-form orbit that overflows or underflows to 0, so that no
    deviation can be measured, raises ValueError.  A ``check_tol`` that is
    neither None nor a finite positive real is refused with ValueError.
    """
    v = _require_finite("v", v)
    omega = _require_positive("omega", omega)
    if check_tol is not None:
        check_tol = _require_positive("check_tol", check_tol)
    steps, dt = step_count(t_final, dt), _require_real("dt", dt)
    with np.errstate(all="ignore"):  # overflow leaves inf or nan, refused below
        values = rk4_trajectory(v, omega, dt, steps)[:, 0]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"the label trajectory of v={v!r} at omega={omega!r} is not finite "
                         f"up to t_final={t_final!r}")
    times = dt * np.arange(steps + 1)
    if check_tol is not None and v != 0:
        with np.errstate(all="ignore"):
            exact = classical_orbit(v, omega, 1, times[1:])
            rel = float(np.max(np.abs(values[1:] - exact) / np.abs(exact)))
        if math.isnan(rel):  # inf / inf or 0 / 0
            raise ValueError(f"the closed-form orbit of v={v!r} at omega={omega!r} leaves the "
                             f"float range up to t_final={t_final!r}")
        if rel > check_tol:
            raise StepSizeError(
                f"step dt={dt:g} leaves relative error {rel:.3e} > {check_tol:g} "
                f"against the closed-form orbit")
    return Trajectory(times, values)


def gaussian_packet(v: float, omega: float = 1.0, t_final: float | None = None) -> GridState:
    """Normalized Gaussian packet at the potential top with mean momentum v,
    on the smallest power-of-two grid that holds it until ``t_final``.

    The packet is exp(-x^2 / (2 width^2) + i v x) with the natural length
    width = 1/sqrt(omega); ``t_final`` defaults to 1.5/omega.  Under the
    inverted well the spreads grow in closed form,

        sigma_x(t) = spread width,   sigma_p(t) = spread / width,
        spread^2 = (cosh^2 + sinh^2) / 2,

    and the means are (v/omega) sinh and v cosh.  The half-width and the
    largest wave number each hold the mean plus the distance at which the
    amplitude falls to ``EDGE_FRACTION`` of its peak, at t_final.  A
    horizon needing more than ``MAX_GRID_POINTS`` points raises ValueError.
    """
    v = _require_finite("v", v)
    omega = _require_positive("omega", omega)
    t_final = _require_real("t_final", 1.5 / omega if t_final is None else t_final)
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    width = 1.0 / math.sqrt(omega)
    # cosh and sinh overflow past EXP_GUARD; the cap still gives an infinite need
    growth = min(omega * t_final, EXP_GUARD)
    cosh, sinh = math.cosh(growth), math.sinh(growth)
    spread = math.sqrt(0.5 * cosh * cosh + 0.5 * sinh * sinh)
    sigma_x, sigma_p = spread * width, spread / width
    # |psi| ~ exp(-d^2 / (4 sigma^2)) falls to EDGE_FRACTION at d = reach * sigma
    reach = 2.0 * math.sqrt(-math.log(EDGE_FRACTION))
    half_width = abs(v) * sinh / omega + reach * sigma_x
    k_max = abs(v) * cosh + reach * sigma_p
    needed = 2.0 * half_width * k_max / math.pi
    if not needed <= MAX_GRID_POINTS:
        raise ValueError(f"a packet held until t_final={t_final:g} needs {needed:.3g} grid points, "
                         f"more than the cap of {MAX_GRID_POINTS}")
    points = max(2, 1 << math.ceil(math.log2(needed)))
    dx = 2.0 * half_width / points
    x = -half_width + dx * np.arange(points)
    psi = np.exp(-0.5 * (x / width) ** 2) * np.exp(1j * v * x)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    return GridState(-half_width, half_width, points, psi, omega)


def _check_run(initial: GridState, dt: float, steps: int) -> tuple[float, int]:
    """Refuse a (dt, steps) run of ``initial`` before anything is allocated, or
    return it as checked."""
    dt = _require_positive("dt", dt)
    tau = initial.omega * dt
    reach = max(abs(initial.x_min), abs(initial.x_max))
    u_edge, k_edge = reach * math.sqrt(initial.omega), math.pi / initial.dx
    # the largest phases of the middle kick, (tau/3)(1 + tau^2/24) u^2, and
    # of the kinetic factor, dt k^2 / 4: an infinite one leaves NaN in the
    # factor, and tau ** 2 itself raises OverflowError from 1.3e154
    if not (tau * tau < math.inf
            and tau / 3.0 * (1.0 + tau * tau / 24.0) * u_edge * u_edge < math.inf
            and 0.25 * dt * k_edge * k_edge < math.inf):
        raise ValueError(f"omega * dt = {tau:.3g} overflows the phases of the kicks on a "
                         f"grid reaching |x| = {reach:.3g}")
    steps = _require_integer("steps", steps, minimum=1)
    if steps > MAX_STEPS:
        raise ValueError(f"{steps} steps exceeds the cap of {MAX_STEPS}")
    return dt, steps


def grid_split_step_runs(initial: GridState, runs, diagnostics: list | None = None
                         ) -> list[Trajectory]:
    """Fourth-order split-step spectral evolution under H = p^2/2 - omega^2 x^2/2
    of one packet, for each (dt, steps) run of ``runs``.

    Returns one :class:`Trajectory` per run, in the order of ``runs``: the
    standard L2 expectation <x>(t) sampled after every step.  A dt that is
    not finite and positive, or at which a phase of the kicks overflows
    (omega dt near 1e154 or above), is refused with ValueError before
    anything is allocated.  A run raises
    :class:`GridLeakError` if its boundary amplitude exceeds ``LEAK_TOL``
    times the initial peak amplitude, or ``LEAK_TOL`` itself for a peak
    below 1, and :class:`NormDriftError` if its L2 norm drifts by more than
    ``DRIFT_TOL`` (a NaN fails both), naming the first offending step.
    The peak grows like omega^(1/4) and the FFT's rounding at the edges
    with it (about 1e-14 of the peak), so an absolute bound would stop
    correct runs at large omega.  When ``diagnostics`` is given, a list of
    one dict per run, each receives its run's largest ``norm_drift`` and
    ``edge_max`` over its steps, as Python floats.

    A step is Chin's factorization 4A (Phys. Lett. A 226, 344 (1997);
    Chin and Chen, J. Chem. Phys. 114, 7338 (2001))

        U(dt) = V(dt/6) T(dt/2) Vt(2 dt/3) T(dt/2) V(dt/6),

    with kicks V(h) = exp(-i h V) for V = -omega^2 x^2/2, kinetic factors
    T(h) = exp(-i k^2 h/2) applied by FFT, and the gradient-corrected
    middle potential Vt = V - (dt^2/48) V'^2.  The weights cancel the
    [T,[T,V]] part of the dt^3 error and the gradient term its [V,[T,V]]
    part; without the term the step is second order.  For this well
    V'^2 = omega^4 x^2 is quadratic too, so with tau = omega dt and the
    reduced coordinate u = sqrt(omega) x the middle kick is the single
    phase exp(i (tau/3) (1 + tau^2/24) u^2), and a step costs two FFT
    pairs, both with the kinetic array T(dt/2).  No power of omega is
    formed, so the kicks hold wherever the grid does.  The outer kicks
    V(dt/6) of consecutive steps are fused: the loop evolves
    phi = conj(V(dt/6)) psi, starting each step with V(dt/3), and
    |phi| = |psi| pointwise, so every observable is read from phi.

    The runs are stacked as rows of one array, longest first, each with
    its own kick and kinetic rows, and every step applies each factor to
    all the runs still stepping with one in-place call, FFTs included, so
    the runs share each FFT call for as long as they last.  Each row holds
    the values of a run made alone, bit for bit.  After every step each
    live run's norm, <x> and boundary amplitude are read from its row, one
    state at a time, and both guards checked there, so a run that trips one
    stops the call at that step.
    """
    runs = [_check_run(initial, dt, steps) for dt, steps in runs]
    if not runs:
        raise ValueError("need at least one (dt, steps) run")
    if diagnostics is not None and len(diagnostics) != len(runs):
        raise ValueError(f"{len(runs)} runs but {len(diagnostics)} diagnostics dicts")
    leak_limit = LEAK_TOL * max(1.0, float(np.max(np.abs(initial.psi))))
    x, dx = initial.x, initial.dx
    k = 2.0 * np.pi * np.fft.fftfreq(initial.points, dx)
    u2 = (x * math.sqrt(initial.omega)) ** 2
    order = sorted(range(len(runs)), key=lambda i: -runs[i][1])
    outer, middle, kinetic, phi = (np.empty((len(runs), initial.points), dtype=complex)
                                   for _ in range(4))
    for row, i in enumerate(order):
        dt = runs[i][0]
        tau = initial.omega * dt
        sixth_kick = np.exp((1j * tau / 12.0) * u2)
        outer[row] = sixth_kick * sixth_kick
        middle[row] = np.exp((1j * tau / 3.0) * (1.0 + tau ** 2 / 24.0) * u2)
        kinetic[row] = np.exp(-0.25j * dt * k * k)
        phi[row] = np.conj(sixth_kick) * initial.psi
    xs = [np.empty(runs[i][1] + 1) for i in order]
    norms0, drift_max, edge_max = ([0.0] * len(runs) for _ in range(3))
    live = len(runs)
    for step in range(runs[order[0]][1] + 1):
        while runs[order[live - 1]][1] < step:
            live -= 1
            outer, middle, kinetic, phi = (rows[:live] for rows in (outer, middle, kinetic, phi))
        if step:
            # operand order as in kick * phi: complex products are not commutative bitwise
            for kick in (outer, middle):
                np.multiply(kick, phi, out=phi)
                np.fft.fft(phi, out=phi)
                np.multiply(kinetic, phi, out=phi)
                np.fft.ifft(phi, out=phi)
        for row, state in enumerate(phi):
            norm, xs[row][step], edge = grid_observables(state, x, dx)
            if not step:
                norms0[row] = norm
            drift = abs(norm - norms0[row])
            # written so that a NaN norm or edge fails them
            if not edge <= leak_limit:
                raise GridLeakError(f"boundary amplitude {edge:.3e} exceeds {leak_limit:g} "
                                    f"at step {step}")
            if not drift <= DRIFT_TOL:
                raise NormDriftError(f"norm drift {drift:.3e} exceeds {DRIFT_TOL:g} at step {step}")
            drift_max[row], edge_max[row] = max(drift_max[row], drift), max(edge_max[row], edge)
    trajectories = [None] * len(runs)
    for row, i in enumerate(order):
        dt, steps = runs[i]
        trajectories[i] = Trajectory(dt * np.arange(steps + 1), xs[row])
        if diagnostics is not None:
            diagnostics[i].update(norm_drift=drift_max[row], edge_max=edge_max[row])
    return trajectories


def grid_split_step(initial: GridState, dt: float, steps: int) -> Trajectory:
    """The one-run case of :func:`grid_split_step_runs`: <x>(t) after each of
    ``steps`` steps of size ``dt``, with the same refusals and guards."""
    (trajectory,) = grid_split_step_runs(initial, [(dt, steps)])
    return trajectory
