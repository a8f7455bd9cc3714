import dataclasses
import json
import math
import os
import types
import warnings

import numpy as np
import pytest

import iwqm
from iwqm import algebra, cli, coherent, dynamics, eigenfunctions, expressions, quadrature, verify
from iwqm.algebra import BRA
from iwqm.verify import (
    MAX_OMEGA,
    MIN_OMEGA,
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


def test_opposite_adjoint_sign_fails_exactly_the_position_and_momentum_rows(monkeypatch):
    # every other adjoint row has even degree and cannot tell the signs apart
    monkeypatch.setattr(expressions, "ADJOINT_SIGN", -expressions.ADJOINT_SIGN)
    failing = [c.name for s in run_all(RunConfig()) for c in s.checks if not c.passed]
    assert failing == ["adjoint_position", "adjoint_momentum"]
    # the report names the sign under which x and p are self-adjoint, not the constant
    assert conventions()["adjoint_sigma"] == "-1"


def test_report_dict_schema(default_suites):
    cfg = RunConfig()
    payload = report_dict(cfg, default_suites, conventions())
    assert payload["passed"] is True
    assert set(payload) == {"config", "conventions", "environment", "suites", "passed"}
    assert payload["config"] == {"nmax": 64, "omega": 1.0, "seed": 0}
    # the config block is RunConfig, and each knob but the seed (IWQM_SEED)
    # is an option of verify, so no layer keeps a knob another one dropped
    fields = dataclasses.fields(RunConfig)
    assert list(payload["config"]) == [f.name for f in fields]
    parser = cli.build_parser()
    for f in fields:
        if f.name != "seed":
            args = parser.parse_args(["verify", f"--{f.name}", str(f.default)])
            assert getattr(args, f.name) == f.default, f.name
    env = payload["environment"]
    assert set(env) == {"iwqm", "numpy", "blas_threads", "seed", "cpu_count"}
    assert env["iwqm"] == iwqm.__version__ and env["numpy"] == np.__version__
    assert env["blas_threads"] == {name: os.environ.get(name)
                                   for name in verify.BLAS_THREAD_VARIABLES}
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    assert env["seed"] == cfg.seed
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    for suite, report in zip(payload["suites"], default_suites, strict=True):
        assert list(suite) == ["suite", "passed", "seconds", "checks"]
        assert type(suite["seconds"]) is float and suite["seconds"] == report.seconds > 0.0
        for check in suite["checks"]:
            assert set(check) == {"name", "anchor", "residual", "tolerance", "passed"}
            assert check["residual"] <= check["tolerance"]


def test_run_all_records_each_suite_wall_time(monkeypatch):
    clock = iter([10.0, 10.25, 11.0, 13.5])
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(verify, "_SUITES", (verify.spectrum_suite, verify.decay_suite))
    reports = run_all(RunConfig())
    assert [(r.suite, r.seconds) for r in reports] == [("spectrum", 0.25), ("decay", 2.5)]
    assert verify.SuiteReport("op-check").seconds == 0.0
    conv = conventions()
    assert [c["seconds"] for c in report_dict(RunConfig(), reports, conv)["suites"]] == [0.25, 2.5]
    assert report_csv_lines(reports, conv) == report_csv_lines(
        [dataclasses.replace(r, seconds=0.0) for r in reports], conv)


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
    lines = report_csv_lines(default_suites, conventions())
    assert lines[0] == "suite,check,anchor,residual,tolerance,passed"
    assert lines[-1] == "overall,,,,,True"
    total_checks = sum(len(s.checks) for s in default_suites)
    assert len(lines) == total_checks + 2


def test_a_convention_that_reads_none_fails_the_run(default_suites):
    conv = dict(conventions(), dual_eigenfunction_phase="none")
    assert all(s.passed for s in default_suites)
    assert verify.run_passed(default_suites, conventions())
    assert not verify.run_passed(default_suites, conv)
    assert report_dict(RunConfig(), default_suites, conv)["passed"] is False
    assert report_csv_lines(default_suites, conv)[-1] == "overall,,,,,False"


def test_conventions_report_names_the_passing_phase():
    payload = conventions()
    assert payload["bra_coherent_phase"] == "+i"
    assert payload["adjoint_sigma"] == "-1"
    assert determine_bra_phase() == "+i"


def _bra_ladder_phases() -> list[str]:
    """The bra ladder step phases, the one in force and its opposite, under
    which the bra coherent state built at the probe label solves
    a+ |alpha>_l = alpha |alpha>_l; the opposite one acts on its parity image."""
    bra = coherent.build_coherent(BRA, coherent.PROBE_LABEL, 64)
    return list(coherent._passing_phases(
        algebra.BRA_LADDER_PHASE,
        lambda c: coherent.eigen_residual(coherent.CoherentState(BRA, bra.alpha, c)) <= 1e-10,
        bra.coeffs))


def test_bra_ladder_phase_is_determined(monkeypatch):
    assert _bra_ladder_phases() == ["-i"]
    assert conventions()["bra_ladder_phase"] == "-i"
    # bra coefficients built with the opposite phase solve a+ |alpha>_l = alpha |alpha>_l
    # only under the opposite ladder phase, and the report names that one
    monkeypatch.setattr(coherent, "BRA_PHASE", -algebra.BRA_PHASE)
    assert _bra_ladder_phases() == ["+i"]
    assert conventions()["bra_ladder_phase"] == "+i"


def test_dual_eigenfunction_phase_is_read_off_the_bras(monkeypatch):
    signs = verify._dual_signs()
    np.testing.assert_array_equal(signs, np.ones(9))
    # the Gram of the bras as evaluated: the rule pairs kets with conj(ket)
    gram = np.diag(signs) @ quadrature.gram_matrix(8)
    assert np.max(np.abs(gram - np.eye(9))) <= quadrature.GRAM_TOLERANCE
    assert conventions()["dual_eigenfunction_phase"] == "+i"
    # evaluate reads no phase constant, so flipping it moves nothing measured
    monkeypatch.setattr(algebra, "BRA_PHASE", -algebra.BRA_PHASE)
    assert conventions()["dual_eigenfunction_phase"] == "+i"


def test_parity_image_bras_are_measured_and_fail_the_gram(monkeypatch):
    evaluate_levels = eigenfunctions.evaluate_levels

    def parity_bras(family, top, x):
        values = evaluate_levels(family, top, x)
        return values * (-1) ** np.arange(top + 1)[:, None] if family == BRA else values

    monkeypatch.setattr(eigenfunctions, "evaluate_levels", parity_bras)
    np.testing.assert_array_equal(verify._dual_signs(), (-1.0) ** np.arange(9))
    # their Gram with the kets is diag((-1)^n), so no phase is named
    assert conventions()["dual_eigenfunction_phase"] == "none"


@pytest.mark.parametrize("residual, recorded", [
    (0.5, 0.5), (-2, 2.0), (3 - 4j, 5.0), (np.float64(-0.25), 0.25),
    (np.array([[1.0, -3.0]]), 3.0), ([0.25, np.array([1j, -2.0])], 2.0),
    ((np.zeros(3), 4.0), 4.0), ([], 0.0),
    (math.nan, math.inf), ([1.0, math.nan], math.inf), ((np.array([math.nan]), 1.0), math.inf),
    ([np.ones(2), np.array([0.5, complex(0.0, math.nan)]), 3.0], math.inf),
])
def test_add_records_the_largest_entry_over_the_parts(residual, recorded):
    check = verify.SuiteReport("unit").add("row", "anchor", residual, 1.0)
    assert type(check.residual) is float and check.residual == recorded
    assert check.passed is (recorded <= 1.0)


def _nan_at(values, index):
    """A copy of ``values`` with a NaN at ``index``."""
    values = np.array(values)
    values[index] = math.nan
    return values


def _nan_dp2(monkeypatch):
    from_moments = coherent.Uncertainty.from_moments
    monkeypatch.setattr(coherent.Uncertainty, "from_moments", lambda m: dataclasses.replace(
        from_moments(m), dp2=_nan_at(from_moments(m).dp2, 3)))


def _nan_bra_factors(monkeypatch):
    propagate_fock = dynamics.propagate_fock
    monkeypatch.setattr(dynamics, "propagate_fock", lambda family, n, omega, t: (
        _nan_at(propagate_fock(family, n, omega, t), (-1, 0)) if family == BRA
        else propagate_fock(family, n, omega, t)))


def _nan_level_3(monkeypatch):
    evaluate_levels = eigenfunctions.evaluate_levels
    monkeypatch.setattr(eigenfunctions, "evaluate_levels", lambda family, top, x: _nan_at(
        evaluate_levels(family, top, x), (3, 500)))


def _nan_bra_ground(monkeypatch):
    evaluate = eigenfunctions.evaluate
    monkeypatch.setattr(eigenfunctions, "evaluate", lambda f, x: (
        _nan_at(evaluate(f, x), 500) if f.family == BRA else evaluate(f, x)))


def _nan_mass_at_5(monkeypatch):
    integral = quadrature.density_interval_integral
    monkeypatch.setattr(quadrature, "density_interval_integral", lambda f, lo, hi: (
        math.nan if hi == 5.0 else integral(f, lo, hi)))


def _nan_closed_form_p2(monkeypatch):
    closed_form = coherent.expectation_closed_form
    monkeypatch.setattr(coherent, "expectation_closed_form", lambda name, alpha: (
        _nan_at(closed_form(name, alpha), 3) if name == "p2" else closed_form(name, alpha)))


def _nan_bra_schrodinger(monkeypatch):
    residual = dynamics.schrodinger_residual
    monkeypatch.setattr(dynamics, "schrodinger_residual", lambda family, n, omega, dt: (
        _nan_at(residual(family, n, omega, dt), 1) if family == BRA
        else residual(family, n, omega, dt)))


def _nan_second_drift(monkeypatch):
    runs = dynamics.grid_split_step_runs

    def nan_drift(initial, steps, diagnostics):
        grids = runs(initial, steps, diagnostics)
        diagnostics[1]["norm_drift"] = math.nan
        return grids
    monkeypatch.setattr(dynamics, "grid_split_step_runs", nan_drift)


#: Each multi-part row, the suite that reports it and a patch that makes one
#: of its later parts NaN; Python's max(a, nan) returns a, so a row reduced
#: by it kept the earlier parts' residual and passed.
NAN_INJECTIONS = [
    ("variances", verify.coherent_suite, _nan_dp2),
    ("closed_form_crosscheck", verify.coherent_suite, _nan_closed_form_p2),
    ("growth_factors", verify.decay_suite, _nan_bra_factors),
    ("schrodinger_factors", verify.decay_suite, _nan_bra_schrodinger),
    ("ladder_ket", verify.eigenfunction_suite, _nan_level_3),
    ("ground_density_constant", verify.nonlocalization_suite, _nan_bra_ground),
    ("interval_norm", verify.nonlocalization_suite, _nan_mass_at_5),
    ("linear_divergence", verify.nonlocalization_suite, _nan_mass_at_5),
    ("grid_norm", verify.correspondence_suite, _nan_second_drift),
]


@pytest.mark.parametrize("row, suite, inject", NAN_INJECTIONS,
                         ids=[row for row, _, _ in NAN_INJECTIONS])
def test_a_nan_in_a_later_part_fails_the_row(monkeypatch, row, suite, inject):
    inject(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN comparisons in the patched parts
        checks = {c.name: c for c in suite(RunConfig()).checks}
    assert checks[row].residual == math.inf
    assert not checks[row].passed


COHERENT_ROWS = ["mutual_normalization", "eigen_residual_ket", "eigen_residual_bra",
                 "closed_form_crosscheck", "variances", "uncertainty_product"]


@pytest.mark.parametrize("nmax", [4, 8, 16, 64, 1000])
def test_coherent_rows_do_not_depend_on_nmax(nmax, default_suites):
    # every label is built at one truncation, so nmax (the operator block)
    # neither moves a residual nor widens a tolerance
    at_64 = {c.name: c for s in default_suites for c in s.checks}
    checks = {c.name: c for c in verify.coherent_suite(RunConfig(nmax=nmax)).checks}
    for name in COHERENT_ROWS:
        assert checks[name].tolerance == 1e-10, name
        assert checks[name].residual == at_64[name].residual, name
        assert checks[name].passed, name


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(nmax=2)
    for value in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="outside the region"):
            RunConfig(omega=value)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        RunConfig(seed=-1)


@pytest.mark.parametrize("value", [np.int64(7), np.uint8(7), True])
def test_run_config_stores_integer_knobs_as_python_ints(value):
    # a report copies nmax, omega and seed as stored, and json refuses numpy
    # integers and numpy's float32; omega is stored as a Python float
    for omega in (np.float32(0.5), np.float64(0.5), 2):
        cfg = RunConfig(nmax=np.int64(16), omega=omega, seed=value)
        assert (type(cfg.nmax), type(cfg.omega), type(cfg.seed)) == (int, float, int)
        payload = json.loads(json.dumps(report_dict(cfg, [], {})))
        assert payload["config"] == {"nmax": 16, "omega": float(omega), "seed": int(value)}
        assert payload["environment"]["seed"] == int(value)


def test_seed_changes_sampled_labels_but_not_the_verdict():
    labels = verify._alpha_grid(RunConfig(seed=7))
    assert labels.shape == (25,) and np.all(np.abs(labels) <= 2.0)
    np.testing.assert_array_equal(verify._alpha_grid(RunConfig(seed=7)), labels)
    np.testing.assert_array_equal(verify._alpha_grid(RunConfig(seed=np.int64(7))), labels)
    assert not np.any(verify._alpha_grid(RunConfig(seed=12345)) == labels)
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
    names = [row[0] for row in algebra_identities(1.0) + heisenberg_identities(1.0)]
    assert set(names) <= set(residuals)
    assert all(math.isfinite(float(residuals[name])) for name in names)


#: Log-spaced from 1e-100 to 1e-25, 1e-300 and round omegas up to the region's
#: 100: the packet's momentum 0.5 sqrt(omega) makes every omega the same state
#: in reduced units, on 512 points, and neither the packet nor the split-step
#: forms a power of omega (``dump evolve --grid`` runs it up to 1e100).
@pytest.mark.parametrize("omega", [0.05, 1.0, 10.0, 40.0, 100.0, 1e-6, 1e-300]
                         + [10.0 ** k for k in range(-100, 0, 25)])
def test_grid_checks_pass_across_omega(omega):
    report = verify.correspondence_suite(RunConfig(omega=omega))
    grid = {c.name: c for c in report.checks if c.name.startswith("grid_")}
    assert sorted(grid) == ["grid_expectation", "grid_norm", "grid_order"]
    assert all(c.passed for c in grid.values())
    # the fourth-order step at dt = 5e-2/omega leaves about 1e-8
    assert grid["grid_expectation"].residual <= 2e-8


def test_every_check_passes_across_the_region(region_points):
    # no suite needs numpy's floating-point warnings off inside the region
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega, nmax in region_points:
            failing = [(c.name, c.residual) for s in run_all(RunConfig(nmax=nmax, omega=omega))
                       for c in s.checks if not c.passed]
            assert not failing, (omega, nmax, failing)


#: The first points outside each edge of the region (below the smallest
#: normal omega, above omega 100, omega sqrt(nmax) just above 3e3 at nmax
#: 900 and 10000, and nmax above the cap at the smallest omega), and the
#: smallest subnormal omega; the overflowing omegas from 1e155 up are
#: refused in ``tests/test_cli.py``.
OUTSIDE = [(math.nextafter(MIN_OMEGA, 0.0), 4), (math.nextafter(MAX_OMEGA, math.inf), 4),
           (MAX_OMEGA, 901), (math.nextafter(30.0, math.inf), 10_000),
           (MIN_OMEGA, verify.MAX_NMAX + 1), (5e-324, 8)]


@pytest.mark.parametrize("omega, nmax", OUTSIDE)
def test_a_point_outside_the_region_is_refused(capsys, omega, nmax):
    with pytest.raises(ValueError, match="outside the region"):
        RunConfig(nmax=nmax, omega=omega)
    for argv in (["verify"], ["op-check", "comm(H, a+) == i*a+"]):
        code = cli.main([*argv, "--nmax", str(nmax), "--omega", repr(omega)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert f"nmax={nmax} " in err
        assert "2.2250738585072014e-308 <= omega <= 100" in err and "nmax <= 100000" in err
