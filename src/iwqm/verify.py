"""Verification suites over every subsystem, with machine-readable reports.

Each suite bundles named checks; a check records the mathematical
identity it probes (``anchor``), the measured residual, the tolerance it
was held to, and the verdict.  Tolerances are fixed here, not tuned at
run time; the only adjustment is the documented widening of
truncation-sensitive coherent-state checks when the Fock cutoff is too
small for the sampled labels (the widened tolerance is reported).

The operator identities (the algebra suite and the Heisenberg equations
of the correspondence suite) are tables of expression-tree pairs from
:mod:`iwqm.expressions`, each compared in normal order by
:func:`iwqm.expressions.identity_residual` on the leading nmax block.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import algebra, coherent, dynamics, eigenfunctions, quadrature
from .algebra import BRA, KET
from .expressions import (
    A_MINUS,
    A_PLUS,
    ADJOINT_SIGN,
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
)


@dataclass(frozen=True)
class RunConfig:
    """Knobs of the suites, as ``verify`` and ``op-check`` take them."""

    nmax: int = 64
    omega: float = 1.0
    tol: float = 1e-10
    sigma: int = ADJOINT_SIGN
    strict: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.nmax < 4:
            raise ValueError(f"nmax must be at least 4, got {self.nmax}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and positive, got {self.omega!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


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
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, anchor: str, residual: float, tolerance: float) -> CheckResult:
        """Record a check; a residual that is not a number is recorded as inf."""
        residual = math.inf if math.isnan(residual) else float(residual)
        check = CheckResult(name, anchor, residual, float(tolerance))
        self.checks.append(check)
        return check


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix)))


def _worst(residuals) -> float:
    """The largest of the residuals a generator yields, or inf where computing
    one overflows past an exp guard; np.max, unlike max, keeps a NaN."""
    try:
        return float(np.max(list(residuals)))
    except OverflowError:
        return math.inf


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

def algebra_identities(cfg: RunConfig) -> tuple:
    """The rows (name, anchor, lhs, rhs, tolerance) of :func:`algebra_suite`."""
    def adj(e):
        return adjoint(e, cfg.sigma)

    def neg(e):
        return scaled(-1.0, e)

    number = number_expression()
    ham = hamiltonian_expression(cfg.omega)
    su = su11_expressions()
    sz, s_plus, s_minus, sx, sy = (su[k] for k in ("Sz", "S+", "S-", "Sx", "Sy"))
    return (
        ("commutator_ladder", "[a-, a+] = I", commutator(A_MINUS, A_PLUS), IDENTITY, 1e-12),
        ("adjoint_number", "adj(n) = -(n + 1)",
         adj(number), neg(op_sum(number, IDENTITY)), 1e-12),
        ("adjoint_hamiltonian", "adj(H) = H", adj(ham), ham, 1e-12),
        ("adjoint_sz", "adj(Sz) = -Sz", adj(sz), neg(sz), 1e-12),
        ("adjoint_s_plus", "adj(S+) = -S+", adj(s_plus), neg(s_plus), 1e-12),
        ("adjoint_s_minus", "adj(S-) = -S-", adj(s_minus), neg(s_minus), 1e-12),
        ("adjoint_sx", "adj(Sx) = -Sx", adj(sx), neg(sx), 1e-12),
        ("adjoint_sy", "adj(Sy) = Sy", adj(sy), sy, 1e-12),
        ("commutator_sx_sy", "[Sx, Sy] = i Sz", commutator(sx, sy), scaled(1j, sz), 1e-12),
        ("commutator_sz_s_plus", "[Sz, S+] = S+", commutator(sz, s_plus), s_plus, 1e-12),
        ("commutator_sz_s_minus", "[Sz, S-] = -S-",
         commutator(sz, s_minus), neg(s_minus), 1e-12),
        ("commutator_s_plus_s_minus", "[S+, S-] = -2 Sz",
         commutator(s_plus, s_minus), scaled(-2.0, sz), 1e-12),
        ("hamiltonian_su11", "H = 2 i omega Sz", ham, scaled(2j * cfg.omega, sz), 0.0),
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
    _add_identities(report, algebra_identities(cfg), cfg.nmax)
    return report


def spectrum_suite(cfg: RunConfig) -> SuiteReport:
    """Eigen-decomposition of H: purely imaginary ladder spectrum."""
    report = SuiteReport("spectrum")
    dim = 32
    try:
        values = np.linalg.eigvals(algebra.build_hamiltonian(dim, cfg.omega))
    except np.linalg.LinAlgError:  # omega (n + 1/2) overflows: H has no eigenvalues
        values = np.full(dim, math.inf)
    values = values[np.argsort(values.imag)]
    expected = 1j * cfg.omega * (np.arange(dim) + 0.5)
    report.add("eigenvalues", "eig(H) = i omega (n + 1/2)",
               float(np.max(np.abs(values - expected))), 1e-12)
    report.add("real_parts", "Re eig(H) = 0", float(np.max(np.abs(values.real))), 1e-12)
    return report


def eigenfunction_suite(cfg: RunConfig) -> SuiteReport:
    """Annihilation of the generating functions and the pointwise ladder chain,
    differentiating the exact integer Hermite table against the recurrence."""
    report = SuiteReport("eigenfunctions")
    x = np.linspace(-10.0, 10.0, 1001)
    for family in (KET, BRA):
        lowered = eigenfunctions.lowering(
            eigenfunctions.exact_form(eigenfunctions.generating_function(family)))
        report.add(f"annihilation_{family}", "lowering(psi_0) = 0",
                   float(np.max(np.abs(lowered.values(x)))), 1e-12)
    # non-decaying eigenfunctions reach ~1e6 by |x| = 10, so the pointwise
    # ladder comparison samples the inner window where 1e-10 is meaningful
    x_inner = np.linspace(-5.0, 5.0, 1001)
    residual = 0.0
    for n in range(1, 9):
        psi_n = eigenfunctions.exact_form(eigenfunctions.eigenfunction(KET, n))
        lhs = eigenfunctions.lowering(psi_n).values(x_inner)
        rhs = np.sqrt(n) * eigenfunctions.evaluate(eigenfunctions.eigenfunction(KET, n - 1), x_inner)
        residual = max(residual, float(np.max(np.abs(lhs - rhs))))
    report.add("ladder_ket", "lowering(psi_n) = sqrt(n) psi_{n-1}", residual, 1e-10)
    return report


def normalization_suite(cfg: RunConfig) -> SuiteReport:
    """The oscillatory-measure normalization and the dual-family Gram identity."""
    report = SuiteReport("normalization")
    rule = quadrature.ContourQuadrature.build(32)
    measured = complex(np.sum(rule.weights))
    report.add("fresnel_gaussian", "int e^{-i x^2} dx = sqrt(pi) e^{-i pi/4}",
               abs(measured - quadrature.fresnel_gaussian()), 1e-13)

    gram = quadrature.gram_matrix(12, node_count=64)
    report.add("gram_identity", "G[m, n] = delta_mn",
               _max_abs(gram - np.eye(13)), 1e-8)
    oracle = quadrature.gram_matrix(12, use_moments=True)
    report.add("gram_oracle_crosscheck", "rule G = moment-oracle G",
               _max_abs(gram - oracle), 1e-10)
    return report


def nonlocalization_suite(cfg: RunConfig) -> SuiteReport:
    """Constant ground-state density and linear divergence of the restricted norm."""
    report = SuiteReport("nonlocalization")
    x = np.linspace(-10.0, 10.0, 1001)
    target = 1.0 / np.sqrt(np.pi)
    worst = 0.0
    for family in (KET, BRA):
        density = np.abs(eigenfunctions.evaluate(eigenfunctions.generating_function(family), x)) ** 2
        worst = max(worst, float(np.max(np.abs(density - target))))
    report.add("ground_density_constant", "|psi_0(x)|^2 = 1/sqrt(pi)", worst, 1e-14)

    psi0 = eigenfunctions.generating_function(KET)
    lengths = (1.0, 2.0, 5.0, 10.0, 20.0)
    masses = [quadrature.density_interval_integral(psi0, -L, L) for L in lengths]
    residual = max(abs(mass - 2.0 * L * target) for mass, L in zip(masses, lengths))
    report.add("interval_norm", "int_{-L}^{L} |psi_0|^2 = 2 L / sqrt(pi)", residual, 1e-10)
    doubling = max(abs(masses[lengths.index(2 * L)] / masses[lengths.index(L)] - 2.0)
                   for L in (1.0, 5.0, 10.0))
    report.add("linear_divergence", "mass(2L) = 2 mass(L)", doubling, 1e-9)
    return report


def _alpha_grid(cfg: RunConfig, count: int = 25, radius: float = 2.0) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * theta)


def coherent_suite(cfg: RunConfig) -> SuiteReport:
    """Mutual normalization, eigenvalue equations, variances, minimum uncertainty.

    Also determines which bra coefficient phase (+i or -i) is consistent:
    exactly one must satisfy the eigenvalue equation and the mutual
    normalization at once (the opposite of ``BRA_PHASE`` is tested on the
    parity image of the bra state), and the suite records it as a check.
    """
    report = SuiteReport("coherent")
    dim = max(cfg.nmax, 8)
    alphas = _alpha_grid(cfg)
    # truncation widens the residuals; the quadratic observables reach two
    # levels into the dropped tail with matrix elements of order dim, so the
    # widened tolerance follows the shifted tail bound |alpha|^(dim-2)/sqrt((dim-2)!)
    max_tail = max(coherent.tail_bound(a, dim - 2) for a in alphas)
    res_tol = max(cfg.tol, 3.0 * dim * max_tail)

    pairing_res = eig_res_ket = eig_res_bra = var_res = cross_res = product_res = 0.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", coherent.TruncationWarning)
            for a in alphas:
                ket = coherent.build_coherent(KET, a, dim, strict=cfg.strict)
                bra = coherent.build_coherent(BRA, a, dim, strict=cfg.strict)
                pairing_res = max(pairing_res, abs(coherent.mutual_pairing(bra, ket) - 1.0))
                eig_res_ket = max(eig_res_ket, coherent.eigen_residual(ket))
                eig_res_bra = max(eig_res_bra, coherent.eigen_residual(bra))
                moments = coherent.moments(bra, ket)
                for name, value in moments.items():
                    cross_res = max(cross_res,
                                    abs(value - coherent.expectation_closed_form(name, a)))
                unc = coherent.Uncertainty.from_moments(moments)
                var_res = max(var_res, abs(unc.dx2 + 0.5j), abs(unc.dp2 - 0.5j))
                product_res = max(product_res, abs(unc.dx * unc.dp - 0.5))
    except coherent.TruncationError:
        # strict mode refuses a label whose tail exceeds the budget: every
        # label check fails rather than the run
        pairing_res = eig_res_ket = eig_res_bra = var_res = cross_res = product_res = float("inf")

    report.add("mutual_normalization", "<alpha|alpha> = 1", pairing_res, res_tol)
    report.add("eigen_residual_ket", "a- |alpha>_r = alpha |alpha>_r", eig_res_ket, res_tol)
    report.add("eigen_residual_bra", "a+ |alpha>_l = alpha |alpha>_l", eig_res_bra, res_tol)
    report.add("closed_form_crosscheck", "Fock contraction = closed form", cross_res, res_tol)
    report.add("variances", "var(x) = -i/2, var(p) = +i/2", var_res, res_tol)
    report.add("uncertainty_product", "dx dp = 1/2", product_res, res_tol)

    report.add("bra_phase_unique", "exactly one bra phase satisfies both conditions",
               0.0 if len(_bra_coherent_phases(64)) == 1 else 1.0, 0.0)
    return report


def decay_suite(cfg: RunConfig) -> SuiteReport:
    """Exponential growth/decay factors and invariance of the mixed density."""
    report = SuiteReport("decay")
    omega = cfg.omega
    times = np.linspace(0.0, 1.0 / omega, 11)

    # where (n + 1/2) omega overflows, propagate_fock raises OverflowError past
    # its exp guard, and every check on the factors fails
    factor_res = product_res = growth_res = 0.0
    try:
        for n in range(9):
            for t in times:
                ket = dynamics.propagate_fock(KET, n, omega, t)
                bra = dynamics.propagate_fock(BRA, n, omega, t)
                scale = np.exp((n + 0.5) * omega * t)
                factor_res = max(factor_res, abs(ket - scale) / scale,
                                 abs(bra - 1.0 / scale) * scale)
                product_res = max(product_res, abs(ket * bra - 1.0))
                growth_res = max(growth_res, abs(ket * ket - scale * scale) / (scale * scale))
    except OverflowError:
        factor_res = product_res = growth_res = math.inf
    report.add("growth_factors", "factor = e^{+-(n+1/2) omega t}", factor_res, 1e-12)
    report.add("factor_product", "ket factor * bra factor = 1", product_res, 1e-12)
    report.add("same_family_growth", "<psi(t)|psi(t)>_r = e^{2(n+1/2) omega t}",
               growth_res, 1e-12)

    # at t = 0 no exponent passes propagate_fock's guard: only rho(t > 0) can overflow
    rho0 = [dynamics.mixed_density(n, omega, 0.0, n + 2) for n in range(3)]
    invariance_res = _worst(_max_abs(dynamics.mixed_density(n, omega, t, n + 2) - rho0[n])
                            for n in range(3) for t in times)
    report.add("mixed_density_invariant", "rho(t) = rho(0)", invariance_res, 1e-14)

    # both stencils step dt = 1e-3/omega, so every exponent (n+1/2) omega t
    # they reach is at most 3e-3 whatever omega; a step below the normal
    # range (omega above about 1e305) leaves difference quotients of inf - inf
    equation_res = _worst(dynamics.density_invariant_residual(n, omega, 1e-3 / omega)
                          for n in range(3))
    report.add("density_equation", "i d rho/dt + [rho, H] = 0", equation_res, 1e-6)
    # the five-point stencil's truncation is ((n+1/2) omega)^5 dt^4 / 30 and
    # its rounding ~ eps / dt, so this step keeps both far below the fixed
    # 1e-6 budget for the lowest levels from omega = 0.05 to 40
    schrodinger_res = _worst(dynamics.schrodinger_residual(family, n, omega, 1e-3 / omega)
                             for family in (KET, BRA) for n in range(2))
    report.add("schrodinger_factors", "i d psi/dt = E psi (centered difference)",
               schrodinger_res, 1e-6)
    return report


def correspondence_suite(cfg: RunConfig) -> SuiteReport:
    """Three routes to the classical orbit, plus Heisenberg operator identities."""
    report = SuiteReport("correspondence")
    omega = cfg.omega
    v = 1.0

    try:
        label = dynamics.integrate_alpha(v, omega, 2.0 / omega, 1e-3 / omega, check_tol=None)
        exact = dynamics.classical_orbit(v, omega, 1, label.times[1:])
        label_res = float(np.max(np.abs(label.values[1:].real - exact) / np.abs(exact)))
    except ValueError:  # a refused step count or a trajectory that is not finite
        label_res = math.inf
    report.add("label_ode", "alpha(t) = (v/omega) sinh(omega t)", label_res, 1e-8)

    # the same horizon 1.5/omega at dt and dt/2: the coarse run is the
    # expectation check, and the pair measures the scheme's order
    errors = []
    drift = 0.0
    try:
        packet = dynamics.gaussian_packet(0.5, omega, t_final=1.5 / omega)
        for dt, steps in ((5e-2, 30), (2.5e-2, 60)):
            diagnostics: dict = {}
            grid = dynamics.grid_split_step(packet, dt / omega, steps, diagnostics=diagnostics)
            classical = dynamics.classical_orbit(0.5, omega, 1, grid.times)
            window = grid.times * omega >= 0.1
            errors.append(float(np.max(np.abs(grid.values.real[window] - classical[window])
                                       / np.abs(classical[window]))))
            drift = max(drift, diagnostics["norm_drift"])
    except (ValueError, dynamics.GridLeakError, dynamics.NormDriftError):
        # a packet refused for its grid size (omega below about 1e-5 or above
        # about 1e154) or a run stopped by either guard fails every grid check
        errors = [math.inf, math.inf]
        drift = math.inf
    report.add("grid_expectation", "<x>(t) = (v/omega) sinh(omega t)", errors[0], 1e-4)
    report.add("grid_norm", "norm(t) = norm(0)", drift, 1e-8)
    report.add("grid_order", "log2(e(dt) / e(dt/2)) = 4",
               _observed_order_residual(*errors, 4), 0.05)

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


#: Well-truncated label at which the bra phases are determined.
_PROBE_LABEL = 1.0 + 0.5j


def _passing_phases(phase: complex, test, value) -> list[str]:
    """The names of ``phase`` and of ``-phase``, in that order, for which ``test``
    holds of ``value`` and of its parity image (-1)^n value[n], which the opposite
    bra phase builds in its place (and a ladder step of opposite phase sees)."""
    image = np.array(value)
    image[1::2] *= -1
    return ["+i" if p == 1j else "-i" for p, v in ((phase, value), (-phase, image)) if test(v)]


def _bra_coherent_phases(dim: int) -> list[str]:
    """The bra coherent phases, ``BRA_PHASE`` and then its opposite, that give
    <alpha|alpha> = 1 and solve the eigenvalue equation at the probe label."""
    ket = coherent.build_coherent(KET, _PROBE_LABEL, dim)
    bra = coherent.build_coherent(BRA, _PROBE_LABEL, dim)

    def test(coeffs: np.ndarray) -> bool:
        state = coherent.CoherentState(BRA, _PROBE_LABEL, coeffs)
        return (abs(coherent.mutual_pairing(state, ket) - 1.0) <= 1e-10
                and coherent.eigen_residual(state) <= 1e-10)
    return _passing_phases(algebra.BRA_PHASE, test, bra.coeffs)


def determine_bra_phase(dim: int = 64) -> str:
    """Name the bra coherent coefficient phase that passes both conditions."""
    return (_bra_coherent_phases(dim) or ["none"])[0]


def conventions(cfg: RunConfig) -> dict:
    """The sign/phase conventions in force, with the determined phases: the
    bra ladder step phase under which the bra coherent state at the probe
    label solves a+ |alpha>_l = alpha |alpha>_l, the bra coherent phase, and
    the bra phase under which the Gram matrix is the identity."""
    bra = coherent.build_coherent(BRA, _PROBE_LABEL, 64)
    ladder = _passing_phases(algebra.BRA_LADDER_PHASE, lambda c: coherent.eigen_residual(
        coherent.CoherentState(BRA, _PROBE_LABEL, c)) <= 1e-10, bra.coeffs)
    dual = _passing_phases(algebra.BRA_PHASE, lambda gram: _max_abs(gram - np.eye(9)) <= 1e-8,
                           quadrature.gram_matrix(8))
    return {
        "adjoint_sigma": f"{cfg.sigma:+d}",
        "bra_ladder_phase": (ladder or ["none"])[0],
        "bra_coherent_phase": determine_bra_phase(),
        "dual_eigenfunction_phase": (dual or ["none"])[0],
    }


def run_all(cfg: RunConfig) -> list[SuiteReport]:
    """Run every suite in fixed order.

    numpy's floating-point warnings are off: at an omega near either end of
    the float range a computation overflows, underflows or leaves inf - inf,
    and the check it feeds records inf and fails.
    """
    with np.errstate(all="ignore"):
        return [suite(cfg) for suite in _SUITES]


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
        "config": {"nmax": cfg.nmax, "omega": cfg.omega, "tol": cfg.tol,
                   "sigma": cfg.sigma, "strict": cfg.strict, "seed": cfg.seed},
        "conventions": conventions(cfg),
        "environment": environment(cfg),
        "suites": [
            {
                "suite": s.suite,
                "passed": s.passed,
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
