"""Verification suites over every subsystem, with machine-readable reports.

Each suite bundles named checks; a check records the mathematical
identity it probes (``anchor``), the measured residual, the tolerance it
was held to, and the verdict.  Every tolerance is fixed here; no
setting of :class:`RunConfig` widens one.  The coherent-state checks
build every label at one truncation, :data:`iwqm.coherent.PROBE_DIM`,
whatever nmax is.  They build the 25 labels as one batch pair, and each
row is one array reduction over its label axis; the decay checks read
theirs off one (level, time) grid of factors per family.  Every row hands
its raw parts to :meth:`SuiteReport.add`, the one place a residual is
reduced: the largest |entry| over the parts, with a NaN anywhere read as
inf, so a part that cannot be computed fails its row.

The operator identities (the algebra suite and the Heisenberg equations
of the correspondence suite) are tables of pairs of normal-ordered forms
from :mod:`iwqm.expressions`, each compared word by word by
:func:`iwqm.expressions.identity_residual` on the leading nmax block.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra, coherent, dynamics, eigenfunctions, expressions, quadrature
from .algebra import BRA, KET, _freeze, _require_integer, _require_real
from .coherent import determine_bra_phase
from .expressions import (
    A_MINUS,
    A_PLUS,
    IDENTITY,
    adjoint,
    commutator,
    hamiltonian_expression,
    identity_residual,
    momentum_expression,
    number_expression,
    op_sum,
    position_expression,
    scaled,
    su11_expressions,
    to_matrix,
)


#: The region where every check holds correct physics to its tolerance.
#: Below the smallest normal omega, 2/omega is inf.  ``eigenvalues`` misses
#: i omega (n + 1/2) by ulps, at most 4.5e-13 up to omega 100 against its
#: absolute 1e-12 (one ulp is 9.1e-13 from 128), and the Heisenberg rows
#: leave 1.53e-16 omega sqrt(nmax), 4.6e-13 at the product bound.
#: ``MAX_NMAX`` is the largest nmax the region's tests run (at the smallest
#: omega): a row that rounding leaves unequal at a generic omega costs
#: O(nmax) memory per diagonal, and without a cap nmax reaches (3e3/omega)^2.
MIN_OMEGA, MAX_OMEGA, MAX_OMEGA_SQRT_NMAX = sys.float_info.min, 100.0, 3e3
MAX_NMAX = 100_000
REGION = (f"{MIN_OMEGA!r} <= omega <= {MAX_OMEGA:g}, omega * sqrt(nmax) <= "
          f"{MAX_OMEGA_SQRT_NMAX:g}, nmax <= {MAX_NMAX}")


@dataclass(frozen=True)
class RunConfig:
    """Knobs of the suites, as ``verify`` and ``op-check`` take them: nmax is
    the size of the operator-identity block, and the seed draws the labels.
    An (omega, nmax) outside ``REGION``, an omega that is not a real number,
    an nmax or a seed that is not an integer and a negative seed are refused
    with ValueError; an accepted omega is stored as a Python float and an
    nmax or seed as a Python int, so a report of them serializes."""

    nmax: int = 64
    omega: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _freeze(self, nmax=_require_integer("nmax", self.nmax, minimum=4),
                seed=_require_integer("seed", self.seed), omega=_require_real("omega", self.omega))
        # the largest sqrt(nmax): 0 off the omega range, inf (no OverflowError) squared
        root = MAX_OMEGA_SQRT_NMAX / self.omega if MIN_OMEGA <= self.omega <= MAX_OMEGA else 0.0
        if self.nmax > min(root * root, MAX_NMAX):
            raise ValueError(f"omega={self.omega!r} at nmax={self.nmax} is outside the region "
                             f"{REGION}")


@dataclass
class CheckResult:
    name: str
    anchor: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class SuiteReport:
    """A suite's checks and the wall time, in seconds, that the suite took."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, anchor: str, residual, tolerance: float) -> CheckResult:
        """Record a check whose parts, ``residual``, are a number, an array, or a
        list or tuple of them: its residual is the largest |entry| over all
        parts, and a NaN anywhere is recorded as inf."""
        worst = 0.0
        for part in residual if isinstance(residual, (list, tuple)) else (residual,):
            # a Python number skips numpy's reduction, which costs microseconds
            value = abs(part) if isinstance(part, (int, float, complex)) else np.max(np.abs(part))
            if not value <= worst:  # true for a NaN too
                worst = math.inf if math.isnan(value) else float(value)
        check = CheckResult(name, anchor, worst, float(tolerance))
        self.checks.append(check)
        return check


def _observed_order_residual(coarse: float, fine: float, order: int) -> float:
    """|log2(coarse / fine) - order| for the errors of a run at dt and at
    dt/2; inf unless both errors are finite and positive."""
    if not (0.0 < coarse < math.inf and 0.0 < fine < math.inf):
        return math.inf
    return abs(math.log2(coarse / fine) - order)


def _add_identities(report: SuiteReport, rows, nmax: int) -> None:
    """Check each row (name, anchor, lhs, rhs, tolerance) on the leading nmax block."""
    for name, anchor, lhs, rhs, tol in rows:
        report.add(name, anchor, identity_residual(lhs, rhs, nmax), tol)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def algebra_identities(omega: float) -> tuple:
    """The rows (name, anchor, lhs, rhs, tolerance) of :func:`algebra_suite`."""
    number = number_expression()
    ham = hamiltonian_expression(omega)
    x, p = position_expression(), momentum_expression()
    su = su11_expressions()
    sz, s_plus, s_minus, sx, sy = (su[k] for k in ("Sz", "S+", "S-", "Sx", "Sy"))
    return (
        ("commutator_ladder", "[a-, a+] = I", commutator(A_MINUS, A_PLUS), IDENTITY, 1e-12),
        ("adjoint_position", "adj(x) = x", adjoint(x), x, 1e-12),
        ("adjoint_momentum", "adj(p) = p", adjoint(p), p, 1e-12),
        ("adjoint_number", "adj(n) = -(n + 1)",
         adjoint(number), scaled(-1.0, op_sum(number, IDENTITY)), 1e-12),
        ("adjoint_hamiltonian", "adj(H) = H", adjoint(ham), ham, 1e-12),
        ("adjoint_sz", "adj(Sz) = -Sz", adjoint(sz), scaled(-1.0, sz), 1e-12),
        ("adjoint_s_plus", "adj(S+) = -S+", adjoint(s_plus), scaled(-1.0, s_plus), 1e-12),
        ("adjoint_s_minus", "adj(S-) = -S-", adjoint(s_minus), scaled(-1.0, s_minus), 1e-12),
        ("adjoint_sx", "adj(Sx) = -Sx", adjoint(sx), scaled(-1.0, sx), 1e-12),
        ("adjoint_sy", "adj(Sy) = Sy", adjoint(sy), sy, 1e-12),
        ("commutator_sx_sy", "[Sx, Sy] = i Sz", commutator(sx, sy), scaled(1j, sz), 1e-12),
        ("commutator_sz_s_plus", "[Sz, S+] = S+", commutator(sz, s_plus), s_plus, 1e-12),
        ("commutator_sz_s_minus", "[Sz, S-] = -S-",
         commutator(sz, s_minus), scaled(-1.0, s_minus), 1e-12),
        ("commutator_s_plus_s_minus", "[S+, S-] = -2 Sz",
         commutator(s_plus, s_minus), scaled(-2.0, sz), 1e-12),
        ("hamiltonian_su11", "H = 2 i omega Sz", ham, scaled(2j * omega, sz), 0.0),
    )


def heisenberg_identities(omega: float) -> tuple:
    """The Heisenberg-equation rows of :func:`correspondence_suite`, as in
    :func:`algebra_identities`."""
    ham = hamiltonian_expression(omega)
    x, p = position_expression(), momentum_expression()
    return (
        ("heisenberg_x", "[x, H] = i omega p", commutator(x, ham), scaled(1j * omega, p), 1e-12),
        ("heisenberg_p", "[p, H] = i omega x", commutator(p, ham), scaled(1j * omega, x), 1e-12),
    )


def algebra_suite(cfg: RunConfig) -> SuiteReport:
    """Ladder commutator, physical-adjoint identities, and the hyperbolic algebra."""
    report = SuiteReport("algebra")
    _add_identities(report, algebra_identities(cfg.omega), cfg.nmax)
    return report


def spectrum_suite(cfg: RunConfig) -> SuiteReport:
    """Eigen-decomposition of H: purely imaginary ladder spectrum."""
    report = SuiteReport("spectrum")
    dim = 32
    values = np.linalg.eigvals(to_matrix(hamiltonian_expression(cfg.omega), dim))
    values = values[np.argsort(values.imag)]
    expected = 1j * cfg.omega * (np.arange(dim) + 0.5)
    report.add("eigenvalues", "eig(H) = i omega (n + 1/2)", values - expected, 1e-12)
    report.add("real_parts", "Re eig(H) = 0", values.real, 1e-12)
    return report


def eigenfunction_suite(cfg: RunConfig) -> SuiteReport:
    """Annihilation of the generating functions and the pointwise ladder chain,
    differentiating the exact integer Hermite table against the recurrence."""
    report = SuiteReport("eigenfunctions")
    x = np.linspace(-10.0, 10.0, 1001)
    for family in (KET, BRA):
        lowered = eigenfunctions.lowering(
            eigenfunctions.exact_form(eigenfunctions.generating_function(family)))
        report.add(f"annihilation_{family}", "lowering(psi_0) = 0", lowered.values(x), 1e-12)
    # non-decaying eigenfunctions reach ~1e6 by |x| = 10, so the pointwise
    # ladder comparison samples the inner window where 1e-10 is meaningful
    x_inner = np.linspace(-5.0, 5.0, 1001)
    defects = []
    for n, below in enumerate(eigenfunctions.evaluate_levels(KET, 7, x_inner), start=1):
        psi_n = eigenfunctions.exact_form(eigenfunctions.eigenfunction(KET, n))
        defects.append(eigenfunctions.lowering(psi_n).values(x_inner) - np.sqrt(n) * below)
    report.add("ladder_ket", "lowering(psi_n) = sqrt(n) psi_{n-1}", defects, 1e-10)
    return report


def normalization_suite(cfg: RunConfig) -> SuiteReport:
    """The oscillatory-measure normalization and the dual-family Gram identity."""
    report = SuiteReport("normalization")
    rule = quadrature.ContourQuadrature.build(32)
    measured = complex(np.sum(rule.weights))
    report.add("fresnel_gaussian", "int e^{-i x^2} dx = sqrt(pi) e^{-i pi/4}",
               measured - quadrature.fresnel_gaussian(), 1e-13)

    gram = quadrature.gram_matrix(12)
    report.add("gram_identity", "G[m, n] = delta_mn", gram - np.eye(13),
               quadrature.GRAM_TOLERANCE)
    oracle = quadrature.gram_matrix(12, use_moments=True)
    report.add("gram_oracle_crosscheck", "rule G = moment-oracle G", gram - oracle, 1e-10)
    return report


def nonlocalization_suite(cfg: RunConfig) -> SuiteReport:
    """Constant ground-state density and linear divergence of the restricted norm."""
    report = SuiteReport("nonlocalization")
    x = np.linspace(-10.0, 10.0, 1001)
    target = 1.0 / np.sqrt(np.pi)
    densities = [np.abs(eigenfunctions.evaluate(eigenfunctions.generating_function(family), x))
                 ** 2 - target for family in (KET, BRA)]
    report.add("ground_density_constant", "|psi_0(x)|^2 = 1/sqrt(pi)", densities, 1e-14)

    psi0 = eigenfunctions.generating_function(KET)
    lengths = (1.0, 2.0, 5.0, 10.0, 20.0)
    masses = [quadrature.density_interval_integral(psi0, -L, L) for L in lengths]
    report.add("interval_norm", "int_{-L}^{L} |psi_0|^2 = 2 L / sqrt(pi)",
               [mass - 2.0 * L * target for mass, L in zip(masses, lengths)], 1e-10)
    report.add("linear_divergence", "mass(2L) = 2 mass(L)",
               [masses[lengths.index(2 * L)] / masses[lengths.index(L)] - 2.0
                for L in (1.0, 5.0, 10.0)], 1e-9)
    return report


#: The number of labels the coherent suite draws, and the radius of the disk
#: they are drawn from, within which :data:`iwqm.coherent.PROBE_DIM` holds them.
_LABEL_COUNT, _LABEL_RADIUS = 25, 2.0


def _alpha_grid(cfg: RunConfig) -> np.ndarray:
    """``_LABEL_COUNT`` labels drawn uniformly from the disk ``|alpha| <= _LABEL_RADIUS``.

    Python's generator draws the uniforms: importing ``numpy.random`` for 50 of
    them would cost a cold process about 13 ms."""
    rng = random.Random(cfg.seed)
    u, v = np.array([rng.random() for _ in range(2 * _LABEL_COUNT)]).reshape(2, _LABEL_COUNT)
    return _LABEL_RADIUS * np.sqrt(u) * np.exp(2j * np.pi * v)


def coherent_suite(cfg: RunConfig) -> SuiteReport:
    """Mutual normalization, eigenvalue equations, variances, minimum uncertainty,
    for each sampled label at the truncation ``PROBE_DIM``, each row the worst
    of one array over the label axis of one built batch pair.

    Also determines which bra coefficient phase (+i or -i) is consistent:
    exactly one must satisfy the eigenvalue equation and the mutual
    normalization at once (the opposite of ``BRA_PHASE`` is tested on the
    parity image of the bra state), and the suite records it as a check.
    """
    report = SuiteReport("coherent")
    alphas = _alpha_grid(cfg)
    ket = coherent.build_coherent(KET, alphas, coherent.PROBE_DIM)
    bra = coherent.build_coherent(BRA, alphas, coherent.PROBE_DIM)
    moments = coherent.moments(bra, ket)
    unc = coherent.Uncertainty.from_moments(moments)

    tol = coherent.STATE_TOLERANCE  # the bound of dump coherent's pairing and residual
    report.add("mutual_normalization", "<alpha|alpha> = 1",
               coherent.mutual_pairing(bra, ket) - 1.0, tol)
    report.add("eigen_residual_ket", "a- |alpha>_r = alpha |alpha>_r",
               coherent.eigen_residual(ket), tol)
    report.add("eigen_residual_bra", "a+ |alpha>_l = alpha |alpha>_l",
               coherent.eigen_residual(bra), tol)
    report.add("closed_form_crosscheck", "Fock contraction = closed form",
               [values - coherent.expectation_closed_form(name, alphas)
                for name, values in moments.items()], 1e-10)
    report.add("variances", "var(x) = -i/2, var(p) = +i/2",
               (unc.dx2 + 0.5j, unc.dp2 - 0.5j), 1e-10)
    report.add("uncertainty_product", "dx dp = 1/2", unc.dx * unc.dp - 0.5, 1e-10)

    report.add("bra_phase_unique", "exactly one bra phase satisfies both conditions",
               0.0 if len(coherent._bra_coherent_phases()) == 1 else 1.0, 0.0)
    return report


def decay_suite(cfg: RunConfig) -> SuiteReport:
    """Exponential growth/decay factors and invariance of the mixed density,
    all from one (level, time) grid of :func:`iwqm.dynamics.propagate_fock`
    factors per family."""
    report = SuiteReport("decay")
    omega = cfg.omega
    times = np.linspace(0.0, 1.0 / omega, 11)
    # both stencils step dt = 1e-3/omega, so every exponent (n+1/2) omega t
    # they reach is at most 3e-3 whatever omega
    dt = 1e-3 / omega
    # levels 0-8 at the 11 times, then at -dt and dt for the density equation
    levels = np.arange(9)[:, None]
    ket, bra = (dynamics.propagate_fock(family, levels, omega, np.append(times, (-dt, dt)))
                for family in (KET, BRA))
    density = ket[:3, -2:] * bra[:3, -2:]
    ket, bra = ket[:, :-2], bra[:, :-2]
    scale = np.exp((levels + 0.5) * omega * times)
    report.add("growth_factors", "factor = e^{+-(n+1/2) omega t}",
               ((ket - scale) / scale, (bra - 1.0 / scale) * scale), 1e-12)
    report.add("factor_product", "ket factor * bra factor = 1", ket * bra - 1.0, 1e-12)
    report.add("same_family_growth", "<psi(t)|psi(t)>_r = e^{2(n+1/2) omega t}",
               (ket * ket - scale * scale) / (scale * scale), 1e-12)

    # the one-level mixed density rho = |n>_r <n|_l has one entry, k(t) b(t),
    # the product of the two factors.  It is diagonal, so [rho, H] vanishes
    # whatever diagonal H is, and neither row below can tell a wrong H: a
    # known weak check (ROADMAP item 7) until a superposition reads H (item 5)
    report.add("mixed_density_invariant", "rho(t) = rho(0)", ket[:3] * bra[:3] - 1.0, 1e-14)
    report.add("density_equation", "i d rho/dt + [rho, H] = 0",
               (density[:, 1] - density[:, 0]) / (2.0 * dt), 1e-6)
    # the five-point stencil's truncation ((n+1/2) omega)^5 dt^4 / 30 and its
    # rounding eps / dt are each about 2e-13 omega at this step, so both stay
    # below 1e-10 over the whole region, far below the fixed 1e-6 budget
    report.add("schrodinger_factors", "i d psi/dt = E psi (centered difference)",
               [dynamics.schrodinger_residual(family, np.arange(2), omega, dt)
                for family in (KET, BRA)], 1e-6)
    return report


def correspondence_suite(cfg: RunConfig) -> SuiteReport:
    """Three routes to the classical orbit, plus Heisenberg operator identities."""
    report = SuiteReport("correspondence")
    omega = cfg.omega
    v = 1.0

    label = dynamics.integrate_alpha(v, omega, 2.0 / omega, 1e-3 / omega, check_tol=None)
    exact = dynamics.classical_orbit(v, omega, 1, label.times[1:])
    report.add("label_ode", "alpha(t) = (v/omega) sinh(omega t)",
               np.abs(label.values[1:].real - exact) / np.abs(exact), 1e-8)

    # the same horizon 1.5/omega at dt and dt/2: the coarse run is the
    # expectation check, and the pair measures the scheme's order; the
    # momentum is 0.5 in reduced units, so every omega runs one state; both
    # runs step in one call, sharing its FFT calls; the order reads the sup norm
    # of each run's relative error
    v_packet = 0.5 * math.sqrt(omega)
    try:
        packet = dynamics.gaussian_packet(v_packet, omega, t_final=1.5 / omega)
        diagnostics: list[dict] = [{}, {}]
        grids = dynamics.grid_split_step_runs(
            packet, [(5e-2 / omega, 30), (2.5e-2 / omega, 60)], diagnostics)
        errors = []
        for grid in grids:
            classical = dynamics.classical_orbit(v_packet, omega, 1, grid.times)
            window = grid.times * omega >= 0.1
            errors.append(np.abs(grid.values.real[window] - classical[window])
                          / np.abs(classical[window]))
        drifts = [diagnostic["norm_drift"] for diagnostic in diagnostics]
        order = _observed_order_residual(*(np.linalg.norm(e, np.inf) for e in errors), 4)
    except (dynamics.GridLeakError, dynamics.NormDriftError):
        # a run stopped by either guard fails every grid check
        errors, drifts, order = [math.inf], math.inf, math.inf
    report.add("grid_expectation", "<x>(t) = (v/omega) sinh(omega t)", errors[0], 1e-4)
    report.add("grid_norm", "norm(t) = norm(0)", drifts, 1e-8)
    report.add("grid_order", "log2(e(dt) / e(dt/2)) = 4", order, 0.05)

    _add_identities(report, heisenberg_identities(omega), cfg.nmax)
    return report


_SUITES = (
    algebra_suite,
    spectrum_suite,
    eigenfunction_suite,
    normalization_suite,
    nonlocalization_suite,
    coherent_suite,
    decay_suite,
    correspondence_suite,
)


def _dual_signs() -> np.ndarray:
    """r_n with bra_n = r_n conj(ket_n) for levels 0-8 on [-4, 4], read from one
    :func:`iwqm.eigenfunctions.evaluate_levels` pass per family, NaN where
    neither sign holds.  The bras of the +i phase are conj(ket), those of -i
    its parity image (-1)^n conj(ket)."""
    x = np.linspace(-4.0, 4.0, 81)
    kets = eigenfunctions.evaluate_levels(KET, 8, x)
    bras = eigenfunctions.evaluate_levels(BRA, 8, x)
    signs = np.full(9, math.nan)
    for sign in (1.0, -1.0):
        defect = np.max(np.abs(bras - sign * np.conj(kets)), axis=1)
        signs[defect <= 1e-12 * np.max(np.abs(kets), axis=1)] = sign
    return signs


def conventions() -> dict:
    """The sign/phase conventions in force, each determined: the adjoint sign,
    of ``ADJOINT_SIGN`` and its opposite, under which adj(x) = x and
    adj(p) = p (the opposite sign's adjoint is the parity image P adj(A) P,
    the word (j, k) times (-1)^(j+k)), the bra ladder step phase under which
    the bra coherent state at the probe label solves
    a+ |alpha>_l = alpha |alpha>_l, the bra coherent phase, and the bra
    eigenfunction phase read off the bras of levels 0-8 (``_dual_signs``),
    named only when those bras pair with the kets to the identity: the
    rule Gram pairs kets with conj(ket), so theirs is diag(r) G."""
    sign = expressions.ADJOINT_SIGN
    pairs = [(adjoint(a), a) for a in (position_expression(), momentum_expression())]
    signs = [f"{s:+d}" for s, parity in ((sign, 1), (-sign, -1)) if all(
        identity_residual({(j, k): c * parity ** (j + k) for (j, k), c in adj.items()}, a,
                          coherent.PROBE_DIM) <= 1e-12 for adj, a in pairs)]
    probe = coherent.PROBE_LABEL
    bra = coherent.build_coherent(BRA, probe, coherent.PROBE_DIM)
    ladder = coherent._passing_phases(
        algebra.BRA_LADDER_PHASE, lambda c: coherent.eigen_residual(
            coherent.CoherentState(BRA, probe, c)) <= coherent.STATE_TOLERANCE, bra.coeffs)
    r = _dual_signs()
    gram = r[:, None] * quadrature.gram_matrix(8)
    dual = (coherent._passing_phases(1j, lambda v: bool(np.all(v == 1.0)), r)
            if np.max(np.abs(gram - np.eye(9))) <= quadrature.GRAM_TOLERANCE else [])
    return {
        "adjoint_sigma": (signs or ["none"])[0],
        "bra_ladder_phase": (ladder or ["none"])[0],
        "bra_coherent_phase": determine_bra_phase(),
        "dual_eigenfunction_phase": (dual or ["none"])[0],
    }


def run_all(cfg: RunConfig) -> list[SuiteReport]:
    """Run every suite in fixed order, recording the wall time of each."""
    reports = []
    for suite in _SUITES:
        start = time.perf_counter()
        report = suite(cfg)
        report.seconds = time.perf_counter() - start
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

#: BLAS thread-count variables a report records, each as set or None.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(cfg: RunConfig) -> dict:
    """What the run ran on: versions, BLAS thread variables, seed and usable CPUs."""
    from . import __version__

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"iwqm": __version__, "numpy": np.__version__,
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
            "seed": cfg.seed, "cpu_count": cpus}


def report_dict(cfg: RunConfig, suites: list[SuiteReport]) -> dict:
    return {
        "config": {"nmax": cfg.nmax, "omega": cfg.omega, "seed": cfg.seed},
        "conventions": conventions(),
        "environment": environment(cfg),
        "suites": [
            {
                "suite": s.suite,
                "passed": s.passed,
                "seconds": s.seconds,
                "checks": [
                    {"name": c.name, "anchor": c.anchor, "residual": c.residual,
                     "tolerance": c.tolerance, "passed": c.passed}
                    for c in s.checks
                ],
            }
            for s in suites
        ],
        "passed": all(s.passed for s in suites),
    }


def report_csv_lines(suites: list[SuiteReport]) -> list[str]:
    lines = ["suite,check,anchor,residual,tolerance,passed"]
    for s in suites:
        for c in s.checks:
            anchor = c.anchor.replace('"', "'")
            lines.append(f'{s.suite},{c.name},"{anchor}",{c.residual!r},{c.tolerance!r},{c.passed}')
    lines.append(f"overall,,,,,{all(s.passed for s in suites)}")
    return lines
