import math
import os
import warnings

import numpy as np
import pytest

import iwqm
from iwqm import algebra, coherent, verify
from iwqm.algebra import BRA
from iwqm.verify import (
    RunConfig,
    algebra_identities,
    conventions,
    determine_bra_phase,
    heisenberg_identities,
    report_csv_lines,
    report_dict,
    run_all,
)

SUITE_NAMES = ["algebra", "spectrum", "eigenfunctions", "normalization",
               "nonlocalization", "coherent", "decay", "correspondence"]


@pytest.fixture(scope="module")
def default_suites():
    return run_all(RunConfig())


def test_all_suites_pass(default_suites):
    for suite in default_suites:
        failing = [c.name for c in suite.checks if not c.passed]
        assert not failing, f"{suite.suite}: {failing}"


def test_suite_order_is_fixed(default_suites):
    assert [s.suite for s in default_suites] == SUITE_NAMES


def test_opposite_adjoint_sign_passes_everywhere():
    suites = run_all(RunConfig(sigma=1))
    assert all(s.passed for s in suites)


def test_report_dict_schema(default_suites):
    cfg = RunConfig()
    payload = report_dict(cfg, default_suites)
    assert payload["passed"] is True
    assert set(payload) == {"config", "conventions", "environment", "suites", "passed"}
    assert payload["config"]["nmax"] == 64
    env = payload["environment"]
    assert set(env) == {"iwqm", "numpy", "blas_threads", "seed", "cpu_count"}
    assert env["iwqm"] == iwqm.__version__ and env["numpy"] == np.__version__
    assert env["blas_threads"] == {name: os.environ.get(name)
                                   for name in verify.BLAS_THREAD_VARIABLES}
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    assert env["seed"] == cfg.seed
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    for suite in payload["suites"]:
        assert set(suite) == {"suite", "passed", "checks"}
        for check in suite["checks"]:
            assert set(check) == {"name", "anchor", "residual", "tolerance", "passed"}
            assert check["residual"] <= check["tolerance"]


def test_report_environment_records_the_blas_variables_as_set(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    env = verify.environment(RunConfig(seed=17))
    assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                   "MKL_NUM_THREADS": "2"}
    assert env["seed"] == 17
    assert verify.environment(RunConfig(seed=17)) == env  # deterministic on a host


def test_report_csv_shape(default_suites):
    lines = report_csv_lines(default_suites)
    assert lines[0] == "suite,check,anchor,residual,tolerance,passed"
    assert lines[-1].startswith("overall")
    total_checks = sum(len(s.checks) for s in default_suites)
    assert len(lines) == total_checks + 2


def test_conventions_report_names_the_passing_phase():
    payload = conventions(RunConfig())
    assert payload["bra_coherent_phase"] == "+i"
    assert payload["adjoint_sigma"] == "-1"
    assert determine_bra_phase() == "+i"


def _bra_ladder_phases() -> list[str]:
    """The bra ladder step phases, the one in force and its opposite, under
    which the bra coherent state built at the probe label solves
    a+ |alpha>_l = alpha |alpha>_l; the opposite one acts on its parity image."""
    bra = coherent.build_coherent(BRA, verify._PROBE_LABEL, 64)
    return list(verify._passing_phases(
        algebra.BRA_LADDER_PHASE,
        lambda c: coherent.eigen_residual(coherent.CoherentState(BRA, bra.alpha, c)) <= 1e-10,
        bra.coeffs))


def test_bra_ladder_phase_is_determined(monkeypatch):
    assert _bra_ladder_phases() == ["-i"]
    assert conventions(RunConfig())["bra_ladder_phase"] == "-i"
    # bra coefficients built with the opposite phase solve a+ |alpha>_l = alpha |alpha>_l
    # only under the opposite ladder phase, and the report names that one
    monkeypatch.setattr(coherent, "BRA_PHASE", -algebra.BRA_PHASE)
    assert _bra_ladder_phases() == ["+i"]
    assert conventions(RunConfig())["bra_ladder_phase"] == "+i"


def test_small_truncation_widens_coherent_tolerances():
    suites = run_all(RunConfig(nmax=8))
    by_name = {s.suite: s for s in suites}
    assert all(s.passed for s in suites)
    widened = {c.name: c.tolerance for c in by_name["coherent"].checks}
    assert widened["mutual_normalization"] > 1e-10
    assert widened["eigen_residual_ket"] > 1e-10


def test_moderate_truncation_keeps_stated_tolerances():
    suites = run_all(RunConfig(nmax=64))
    coherent = next(s for s in suites if s.suite == "coherent")
    for check in coherent.checks:
        if check.name != "bra_phase_unique":
            assert check.tolerance == pytest.approx(1e-10)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(nmax=2)
    with pytest.raises(ValueError):
        RunConfig(omega=-1.0)
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(sigma=0)
    for field in ("omega", "tol"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
                RunConfig(**{field: value})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        RunConfig(seed=-1)


def test_seed_changes_sampled_labels_but_not_the_verdict():
    assert all(s.passed for s in run_all(RunConfig(seed=12345)))


@pytest.mark.parametrize("omega", [0.05, 1.0, 40.0])
@pytest.mark.parametrize("nmax", [4, 96, 300])
def test_every_check_passes_on_the_corner_grid(nmax, omega):
    failing = [(c.name, c.residual) for s in run_all(RunConfig(nmax=nmax, omega=omega))
               for c in s.checks if not c.passed]
    assert not failing


def test_operator_identities_at_nmax_100000(run_capped):
    # a dense 100000 x 100000 operator needs 149 GiB; the diagonals need O(nmax)
    code = ("from iwqm.verify import RunConfig, algebra_suite, correspondence_suite; "
            "cfg = RunConfig(nmax=100000); "
            "[print(c.name, c.residual) for s in (algebra_suite(cfg), correspondence_suite(cfg)) "
            "for c in s.checks]")
    done = run_capped("-c", code)
    assert done.returncode == 0, done.stderr
    residuals = dict(line.split() for line in done.stdout.splitlines())
    names = [row[0] for row in algebra_identities(RunConfig()) + heisenberg_identities(1.0)]
    assert set(names) <= set(residuals)
    assert all(math.isfinite(float(residuals[name])) for name in names)


@pytest.mark.parametrize("omega", [0.05, 1.0, 10.0, 40.0])
def test_grid_checks_pass_across_omega(omega):
    report = verify.correspondence_suite(RunConfig(omega=omega))
    grid = {c.name: c for c in report.checks if c.name.startswith("grid_")}
    assert sorted(grid) == ["grid_expectation", "grid_norm", "grid_order"]
    assert all(c.passed for c in grid.values())
    # the fourth-order step at dt = 5e-2/omega leaves about 1e-8
    assert grid["grid_expectation"].residual <= 2e-8


#: Omegas that RunConfig accepts where a computation is refused or overflows:
#: the grid packet below about 1e-5 and above about 1e154, the density
#: equation's step 1e-3/omega below the normal range from about 1e305,
#: omega (n + 1/2) itself near the top of the float range, and 2/omega at a
#: subnormal omega, where the label equation's step count is refused.
EXTREME_OMEGAS = [5e-324, 1e-300, 1e-6, 1e155, 1e300, 5e306, 1.7e308]


@pytest.mark.parametrize("omega", EXTREME_OMEGAS)
def test_extreme_omega_fails_checks_with_finite_or_inf_residuals(omega, default_suites):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        suites = run_all(RunConfig(nmax=8, omega=omega))
    checks = [c for s in suites for c in s.checks]
    assert [c.name for c in checks] == [c.name for s in default_suites for c in s.checks]
    assert len(checks) == 43
    assert not any(math.isnan(c.residual) for c in checks)
    refused = {c.name for c in checks if c.residual == math.inf}
    assert {"grid_expectation", "grid_norm", "grid_order"} <= refused
    assert all(not c.passed for c in checks if c.name in refused)
    if omega < 1e-308:
        assert "label_ode" in refused
    if omega >= 1.7e308:  # omega (n + 1/2) and every decay exponent overflow
        assert {"eigenvalues", "real_parts", "growth_factors", "mixed_density_invariant",
                "density_equation", "schrodinger_factors"} <= refused
