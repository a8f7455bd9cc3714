import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from iwqm import cli, coherent, dynamics, eigenfunctions, quadrature
from iwqm.algebra import BRA, KET
from iwqm.cli import main
from iwqm.coherent import MAX_COEFFICIENT
from iwqm.expressions import MAX_DEGREE, MAX_NESTING
from iwqm.verify import REGION


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["conventions"]["bra_coherent_phase"] == "+i"


def test_verify_fails_when_a_determined_convention_reads_none(capsys, monkeypatch):
    # the parity-image bras: bra level n times (-1)^n.  No check fails, but the
    # dual eigenfunction phase reads "none", and that fails the run in both formats
    evaluate = eigenfunctions._evaluate

    def parity_image(family, levels, x):
        values = evaluate(family, levels, x)
        if family == BRA:
            signs = (-1.0) ** np.array(levels)
            values = values * signs.reshape(signs.shape + (1,) * (values.ndim - 1))
        return values

    monkeypatch.setattr(eigenfunctions, "_evaluate", parity_image)
    code, out, err = run_cli(capsys, "verify")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["conventions"]["dual_eigenfunction_phase"] == "none"
    assert [c["name"] for s in payload["suites"] for c in s["checks"] if not c["passed"]] == []
    assert payload["passed"] is False
    code, out, err = run_cli(capsys, "verify", "--format", "csv")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-1] == "overall,,,,,False"
    assert lines[-2] == ('conventions,dual_eigenfunction_phase,'
                         '"the one in force or its opposite passes",,,False')
    assert all(line.endswith(",True") for line in lines[1:-2])


def test_verify_json_records_the_seed_in_its_environment(capsys, monkeypatch):
    monkeypatch.setenv("IWQM_SEED", "5")
    code, out, _ = run_cli(capsys, "verify", "--nmax", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["environment"]["seed"] == payload["config"]["seed"] == 5


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "16", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,anchor,residual,tolerance,passed"
    assert lines[-1] == "overall,,,,,True"


def test_verify_both_sigma_signs(capsys):
    # the adjoint sign is a constant that verify determines, not an option
    for argv in (["verify"], ["op-check", "a- == a-"]):
        for sigma in ("-1", "1"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--sigma", sigma])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "Traceback" not in err
            assert err.splitlines()[-1] == f"iwqm: error: unrecognized arguments: --sigma {sigma}"


def test_verify_output_is_deterministic(capsys):
    # every byte but the eight suites' wall times
    timed = re.compile(r'"seconds": ([^,\n]+),')
    texts = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "verify", "--nmax", "16")
        seconds = [float(s) for s in timed.findall(out)]
        assert len(seconds) == 8 and all(0.0 < s < math.inf for s in seconds)
        texts.append(timed.sub('"seconds": S,', out))
    assert texts[0] == texts[1]
    _, first, _ = run_cli(capsys, "verify", "--nmax", "16", "--format", "csv")
    _, second, _ = run_cli(capsys, "verify", "--nmax", "16", "--format", "csv")
    assert first == second and "seconds" not in first


@pytest.mark.parametrize("expression", [
    "comm(a-, a+) == I",
    "adj(H) == H",
    "comm(S+, S-) == -2*Sz",
])
def test_op_check_passing_identities(capsys, expression):
    code, out, _ = run_cli(capsys, "op-check", expression, "--nmax", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["suites"][0]["checks"][0]["anchor"] == expression


def test_op_check_failing_identity(capsys):
    code, out, _ = run_cli(capsys, "op-check", "adj(n) == n", "--nmax", "16")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [s["suite"] for s in payload["suites"]] == ["op-check"]
    assert 0.0 < payload["suites"][0]["seconds"] < math.inf


def test_op_check_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "op-check", "comm(a-,")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("expression", ["1e400*I == I", "1e400i == I"])
def test_op_check_refuses_out_of_range_literal(capsys, expression):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "op-check", expression)
    assert code == 2
    assert out == ""
    assert err == "parse error: scalar literal '1e400' is out of range (at position 0)\n"


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--wrong-flag"])
    assert exc.value.code == 2


def test_invalid_config_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--nmax", "2")
    assert code == 2
    assert "usage error" in err


def test_dump_eigenfunction_csv(capsys):
    code, out, _ = run_cli(capsys, "dump", "eigenfunction", "--set", "ket", "--n", "2",
                           "--xmin", "-5", "--xmax", "5", "--samples", "101")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,re_psi,im_psi,abs2_psi"
    assert len(lines) == 102
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -5.0
    assert first[3] == pytest.approx(first[1] ** 2 + first[2] ** 2)


def test_dump_eigenfunction_ground_density_constant(capsys):
    code, out, _ = run_cli(capsys, "dump", "eigenfunction", "--n", "0", "--samples", "11")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    densities = [float(r[3]) for r in rows]
    np.testing.assert_allclose(densities, np.pi ** -0.5, atol=1e-14)


def test_dump_eigenfunction_invalid_range(capsys):
    code, _, err = run_cli(capsys, "dump", "eigenfunction", "--samples", "1")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("bounds", [("--xmin=-inf",), ("--xmax=inf",), ("--xmax=nan",),
                                    ("--xmin=nan",), ("--xmin=-1e308", "--xmax=1e308"),
                                    ("--xmin=-1e200", "--xmax=1e200")],
                         ids=["xmin-inf", "xmax-inf", "xmax-nan", "xmin-nan", "span-overflows",
                              "phase-overflows"])
def test_dump_eigenfunction_refuses_non_finite_range(capsys, bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dump", "eigenfunction", *bounds)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_dump_eigenfunction_refuses_overflowing_level(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dump", "eigenfunction", "--n", "5",
                                 "--xmin=-1e100", "--xmax=1e100")
    assert code == 2
    assert out == ""
    assert err == "usage error: level 5 overflows at |x| up to 1e+100\n"


@pytest.mark.parametrize("argv, message", [
    (["--n", "100001", "--xmin", "0", "--xmax", "1e-9", "--samples", "2"],
     "usage error: level 100001 exceeds the cap of 100000\n"),
    (["--n", "99999", "--samples", "1001"],
     "usage error: n * samples = 100098999 exceeds the cap of 100000000\n"),
    (["--n", "2000", "--samples", "50001"],
     "usage error: n * samples = 100002000 exceeds the cap of 100000000\n"),
], ids=["level", "level-times-default-samples", "level-times-samples"])
def test_dump_eigenfunction_refuses_levels_above_the_cap(capsys, argv, message):
    code, out, err = run_cli(capsys, "dump", "eigenfunction", *argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_dump_eigenfunction_runs_at_the_caps(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DUMP_LEVEL", 10)
    monkeypatch.setattr(cli, "MAX_DUMP_LEVEL_SAMPLES", 100)
    code, out, _ = run_cli(capsys, "dump", "eigenfunction", "--n", "10", "--samples", "10")
    assert code == 0
    assert len(out.splitlines()) == 11
    for argv in (["--n", "11", "--samples", "2"], ["--n", "10", "--samples", "11"]):
        code, out, _ = run_cli(capsys, "dump", "eigenfunction", *argv)
        assert (code, out) == (2, "")


def test_dump_gram(capsys):
    code, out, _ = run_cli(capsys, "dump", "gram", "--nmax", "8")
    assert code == 0
    lines = out.strip().splitlines()
    matrix_rows = lines[:-1]
    summary = json.loads(lines[-1])
    assert len(matrix_rows) == 9
    assert all(len(row.split(",")) == 18 for row in matrix_rows)
    assert summary["max_defect"] <= 1e-8
    assert summary["passed"] is True


def test_dump_gram_defaults(capsys):
    code, out, _ = run_cli(capsys, "dump", "gram")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["nmax"] == 64 and summary["nodes"] == 65
    assert summary["passed"] is True


def test_dump_gram_nmax_30_passes(capsys):
    code, out, _ = run_cli(capsys, "dump", "gram", "--nmax", "30")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["passed"] is True


def test_dump_gram_failed_check_exits_1(capsys, monkeypatch):
    def broken(nmax):
        return 1.5 * np.eye(nmax + 1, dtype=complex)

    monkeypatch.setattr(quadrature, "gram_matrix", broken)
    code, out, _ = run_cli(capsys, "dump", "gram", "--nmax", "8")
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["passed"] is False


def test_verify_large_nmax_reports_without_traceback(capsys):
    code, out, err = run_cli(capsys, "verify", "--nmax", "200")
    assert code in (0, 1)
    assert "Traceback" not in err
    assert json.loads(out)["config"]["nmax"] == 200


def test_dump_coherent_json(capsys):
    code, out, _ = run_cli(capsys, "dump", "coherent", "--alpha-re", "1.0",
                           "--alpha-im", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairing"][0] == pytest.approx(1.0, abs=1e-10)
    assert payload["pairing"][1] == pytest.approx(0.0, abs=1e-10)
    assert payload["eigen_residual"] <= 1e-10
    assert payload["dx2"] == pytest.approx([0.0, -0.5], abs=1e-10)
    assert payload["dp2"] == pytest.approx([0.0, 0.5], abs=1e-10)
    assert payload["product"] == pytest.approx(0.5, abs=1e-10)
    assert payload["bra_phase"] == "+i"
    assert payload["tail_bound"] <= 1e-12 and payload["passed"] is True


def test_dump_coherent_fails_a_nan_bra_residual(capsys, monkeypatch):
    # Python's max(finite, nan) keeps the finite ket residual and passed
    eigen_residual = coherent.eigen_residual

    def nan_for_the_bra(state):
        return math.nan if state.family == BRA else eigen_residual(state)

    monkeypatch.setattr(coherent, "eigen_residual", nan_for_the_bra)
    code, out, err = run_cli(capsys, "dump", "coherent")
    assert (code, err) == (1, "")
    assert '"eigen_residual": NaN,' in out
    assert json.loads(out)["passed"] is False


def test_dump_coherent_large_label_fails(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dump", "coherent", "--alpha-re", "6")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["tail_bound"] == pytest.approx(1.778e5, rel=1e-3)
    assert payload["passed"] is False
    # |alpha| = 2 at nmax 160 keeps every key and passes
    code, out, _ = run_cli(capsys, "dump", "coherent", "--alpha-re", "0", "--alpha-im", "2",
                           "--nmax", "160")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_dump_coherent_refuses_infinite_tail(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dump", "coherent", "--alpha-re", "1e200")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "coefficients above 1e+75" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("alpha, nmax, pairing", [("6", "300", [0.8125, 0.46875]),
                                                 ("8", "300", [309237645312.0, 515396075520.0])])
def test_dump_coherent_fails_a_label_its_fock_sums_cannot_hold(run_capped, alpha, nmax, pairing):
    # the tails are far below 1e-12, but the Fock sums cancel terms of size
    # e^{|alpha|^2}, so the pairing and the eigen residual miss 1e-10
    done = run_capped("-m", "iwqm.cli", "dump", "coherent", "--alpha-re", alpha, "--nmax", nmax)
    assert (done.returncode, done.stderr) == (1, "")
    payload = json.loads(done.stdout)
    assert payload["tail_bound"] <= 1e-12
    assert payload["pairing"] == pairing and payload["eigen_residual"] > 1e-10
    assert payload["passed"] is False


@pytest.mark.parametrize("nmax", ["300", "10000"])
def test_dump_coherent_refuses_a_label_whose_moments_overflow(run_capped, nmax):
    done = run_capped("-m", "iwqm.cli", "dump", "coherent", "--alpha-re", "40", "--nmax", nmax)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"usage error: label |alpha|=40 has coefficients above 1e+75 at "
                           f"dim={nmax}; its moments overflow\n")


def _edge_label(dim: int) -> float:
    """The |alpha| at which max_{n < dim} |alpha|^n / sqrt(n!) is MAX_COEFFICIENT."""
    n = np.arange(dim)
    half_log_factorials = 0.5 * np.array([math.lgamma(k + 1) for k in range(dim)])
    lo, hi = 1.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.max(n * math.log(mid) - half_log_factorials) <= math.log(MAX_COEFFICIENT):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("dim", [64, 300, 1000, 10000])
def test_dump_coherent_is_finite_up_to_the_coefficient_bound(capsys, dim):
    # at the edge the Fock sums have lost every digit, so the label fails,
    # but each number it prints is finite; just past it the label is refused
    edge = _edge_label(dim)
    for phase in (0.0, 0.25, 0.5, 0.75):
        for scale, expected in ((1 - 1e-9, 1), (1 + 1e-9, 2)):
            alpha = scale * edge * np.exp(1j * np.pi * phase)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, "dump", "coherent", "--nmax", str(dim),
                                         f"--alpha-re={float(alpha.real)!r}",
                                         f"--alpha-im={float(alpha.imag)!r}")
            assert not caught, [str(w.message) for w in caught]
            assert code == expected
            if expected == 1:
                assert err == "" and "nan" not in out.lower() and "inf" not in out.lower()
                assert json.loads(out)["passed"] is False
            else:
                assert out == "" and "coefficients above 1e+75" in err


@pytest.mark.parametrize("argv", [["--nmax", "25"], ["--nmax", "8", "--alpha-re", "0.01"]])
def test_dump_coherent_phase_probe_ignores_the_truncation(capsys, argv):
    # the bra phase is probed at its own label and truncation, so a label
    # held by a small truncation passes
    code, out, err = run_cli(capsys, "dump", "coherent", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["bra_phase"] == "+i" and payload["passed"] is True
    # the default label at nmax 8 fails on its own tail, not the probe's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dump", "coherent", "--nmax", "8")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["bra_phase"] == "+i" and payload["passed"] is False


def test_dump_coherent_short_truncation_fails(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dump", "coherent", "--alpha-re", "2", "--nmax", "8")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["tail_bound"] > 1e-12 and payload["passed"] is False


@pytest.mark.parametrize("argv", [["--nmax", "8"], ["--alpha-re", "5"],
                                  ["--alpha-re", "5", "--alpha-im", "1"]])
def test_dump_coherent_failing_tail_writes_no_stderr(run_capped, argv):
    # a fresh process sees what a user sees: pytest's own warning capture is
    # not in the way
    done = run_capped("-m", "iwqm.cli", "dump", "coherent", *argv)
    assert done.returncode == 1
    assert json.loads(done.stdout)["passed"] is False
    assert done.stderr == ""


def test_dump_evolve_label_route(capsys):
    code, out, _ = run_cli(capsys, "dump", "evolve", "--v", "0.5", "--tfinal", "0.2",
                           "--dt", "0.001")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re_x,im_x,classical_x,abs_error"
    assert len(lines) == 202
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.2)
    assert last[3] == pytest.approx(0.5 * np.sinh(0.2))
    assert last[4] <= 1e-8


def test_dump_evolve_grid_route(capsys):
    code, out, _ = run_cli(capsys, "dump", "evolve", "--v", "0.5", "--tfinal", "0.05",
                           "--dt", "0.001", "--grid")
    assert code == 0
    last = [float(v) for v in out.strip().splitlines()[-1].split(",")]
    assert last[4] <= 1e-4


@pytest.mark.parametrize("omega", ["40", "0.05"])
def test_verify_extreme_omega_grid_checks_pass(capsys, omega):
    code, out, err = run_cli(capsys, "verify", "--nmax", "16", "--omega", omega)
    assert code in (0, 1)
    assert err == ""
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert checks["grid_expectation"]["passed"] and checks["grid_norm"]["passed"]
    assert checks["grid_order"]["passed"] and checks["schrodinger_factors"]["passed"]


def leaking_split_step(*args, **kwargs):
    raise dynamics.GridLeakError("boundary amplitude 1e-3 exceeds 1e-10 at step 7")


def test_verify_grid_failure_is_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "grid_split_step_runs", leaking_split_step)
    code, out, err = run_cli(capsys, "verify", "--nmax", "16")
    assert code == 1
    assert err == ""
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert not checks["grid_expectation"]["passed"] and not checks["grid_norm"]["passed"]
    assert not checks["grid_order"]["passed"]
    assert checks["label_ode"]["passed"]


def overflowing_split_step(*args, **kwargs):
    raise OverflowError("exponent inf exceeds the overflow guard 700.0")


@pytest.mark.parametrize("step, message", [
    (leaking_split_step, "boundary amplitude 1e-3 exceeds 1e-10 at step 7"),
    (overflowing_split_step, "exponent inf exceeds the overflow guard 700.0")],
    ids=["leak", "overflow"])
def test_runtime_error_exits_1_with_one_line(capsys, monkeypatch, step, message):
    monkeypatch.setattr(dynamics, "grid_split_step", step)
    code, _, err = run_cli(capsys, "dump", "evolve", "--grid", "--tfinal", "0.05")
    assert code == 1
    assert err == f"runtime error: {message}\n"


@pytest.mark.parametrize("omega", ["1e20", "1e24", "1e80", "1e100"])
def test_dump_evolve_grid_at_huge_omega_runs_to_its_horizon(capsys, omega):
    # the kicks' phases stay finite, and the FFT's rounding at the edges,
    # which grows with the packet's peak, does not trip the leak guard
    code, out, err = run_cli(capsys, "dump", "evolve", "--grid", "--omega", omega,
                             "--tfinal", str(1.5 / float(omega)))
    assert code == 0, err
    assert err == ""
    rows = np.loadtxt(out.splitlines()[1:], delimiter=",")
    assert rows.shape == (1501, 5) and np.all(np.isfinite(rows))


def test_memory_error_exits_1_with_one_line(capsys, monkeypatch):
    # no accepted argument vector is known to run out of memory any more
    def allocate(*args):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr(coherent, "build_coherent", allocate)
    code, out, err = run_cli(capsys, "dump", "coherent")
    assert (code, out, err) == (1, "", "runtime error: Unable to allocate 14.9 GiB\n")


@pytest.mark.parametrize("nmax", ["100001", "1000000000", "9" * 401],
                         ids=["cap+1", "1e9", "401-digits"])
def test_dump_coherent_refuses_nmax_above_the_cap(run_capped, nmax):
    # uncapped, 10^9 stopped on "Unable to allocate 14.9 GiB" with exit 1, and
    # 401 digits on numpy's "Maximum allowed dimension exceeded", naming no option
    done = run_capped("-m", "iwqm.cli", "dump", "coherent", "--nmax", nmax)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"usage error: --nmax must be at most 100000, got {nmax}\n"


def test_dump_coherent_at_the_nmax_cap(capsys):
    code, out, err = run_cli(capsys, "dump", "coherent", "--nmax", "100000")
    assert (code, err) == (0, "")
    assert json.loads(out)["nmax"] == 100000


def test_dump_eigenfunction_caps_samples_at_level_0(run_capped):
    # level 0 counts as one level: a billion samples are refused before any
    # allocation, where they would need about 15 GiB
    done = run_capped("-m", "iwqm.cli", "dump", "eigenfunction", "--n", "0",
                      "--samples", "1000000000")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "usage error: samples = 1000000000 exceeds the cap of 100000000\n"


def test_op_check_at_nmax_100000(run_capped):
    done = run_capped("-m", "iwqm.cli", "op-check", "a- == a-", "--nmax", "100000")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True


@pytest.mark.parametrize("argv", [["verify"], ["op-check", "a- == a-"]])
@pytest.mark.parametrize("omega, nmax", [("1e-300", "10000000000000000000"),
                                         ("0.0123456", "50000000")])
def test_nmax_above_the_cap_is_refused(run_capped, argv, omega, nmax):
    # without the cap these ran into the O(nmax) diagonals and stopped with
    # numpy's "Maximum allowed size exceeded" and "Unable to allocate 381. MiB"
    done = run_capped("-m", "iwqm.cli", *argv, "--omega", omega, "--nmax", nmax)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage error:") and done.stderr.count("\n") == 1
    assert f"nmax={nmax}" in done.stderr and "nmax <= 100000" in done.stderr


@pytest.mark.parametrize("command", ["eigenfunction", "decay"])
def test_dump_refuses_a_negative_level(capsys, command):
    code, out, err = run_cli(capsys, "dump", command, "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "usage error: level must be nonnegative, got -1\n"


@pytest.mark.parametrize("sign", ["", "-"])
def test_dump_decay_refuses_a_level_no_float_holds(capsys, sign):
    # (n + 1/2) of a level beyond the largest float ended in "runtime error:
    # int too large to convert to float" with exit 1
    code, out, err = run_cli(capsys, "dump", "decay", "--n", sign + "9" * 401)
    assert (code, out) == (2, "")
    assert err == ("usage error: --n must be at most 1.798e+308 in magnitude, "
                   "got an integer of 401 digits\n")


def test_dump_evolve_grid_refuses_over_cap_horizon(capsys):
    code, out, err = run_cli(capsys, "dump", "evolve", "--grid", "--tfinal", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "grid points" in err
    code, out, _ = run_cli(capsys, "dump", "evolve", "--grid", "--tfinal", "3", "--dt", "0.01")
    assert code == 0
    last = [float(v) for v in out.strip().splitlines()[-1].split(",")]
    assert last[0] == pytest.approx(3.0)


def test_dump_decay_refuses_overflowing_horizon(capsys):
    code, out, err = run_cli(capsys, "dump", "decay", "--tfinal", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "overflow guard" in err
    # level n alone is propagated, so (n+1/2) omega tfinal = 500 stays in range
    code, out, _ = run_cli(capsys, "dump", "decay", "--tfinal", "1000", "--dt", "10")
    assert code == 0
    last = [float(v) for v in out.strip().splitlines()[-1].split(",")]
    assert last[1] == pytest.approx(np.exp(500.0))
    assert last[2] == pytest.approx(1.0, abs=1e-12)


def test_dump_decay_takes_an_omega_whose_level_product_alone_overflows(capsys):
    # (n + 1/2) omega = inf, but (n + 1/2) omega tfinal is about 1e-11, and
    # the row at t = 0 reads 1.0
    code, out, err = run_cli(capsys, "dump", "decay", "--n", "10", "--omega", "1e308",
                             "--tfinal", "1e-320", "--dt", "1e-321")
    assert (code, err) == (0, "")
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert rows[0] == [0.0, 1.0, 1.0] and len(rows) == 11
    assert rows[-1][1] == dynamics.propagate_fock(KET, 10, 1e308, 10 * 1e-321)
    code, out, err = run_cli(capsys, "dump", "decay", "--n", "10", "--omega", "1e308",
                             "--tfinal", "1e-300", "--dt", "1e-301")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: (n+1/2) omega tfinal = 1.05e+09 exceeds")


def test_dump_gram_refuses_non_finite_rule(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):  # the rule cache keeps no refusal
            code, out, err = run_cli(capsys, "dump", "gram", "--nmax", "400")
            assert code == 2
            assert out == ""
            assert err.startswith("usage error:")
    assert not caught


def test_dump_gram_refuses_the_nmax_of_an_all_zero_rule(capsys):
    # nmax 370 needs 371 nodes, where hermgauss's weights are all 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "dump", "gram", "--nmax", "370")
        assert (code, out) == (2, "")
        assert err == ("usage error: nmax must be at most 369 for the rule, got 370: "
                       "hermgauss gives zero weights from 371 nodes\n")
        code, out, err = run_cli(capsys, "dump", "gram", "--nmax", "369")
    assert not caught
    assert (code, err) == (0, "")
    summary = json.loads(out.splitlines()[-1])
    assert summary["nodes"] == 370 and summary["passed"] is True


def test_dump_decay(capsys):
    code, out, _ = run_cli(capsys, "dump", "decay", "--n", "1", "--tfinal", "0.5",
                           "--dt", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,factor,mixed_pairing"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert rows[-1][1] == pytest.approx(np.exp(1.5 * 0.5))
    for row in rows:
        assert row[2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", [KET, BRA])
def test_dump_decay_rows_are_the_full_vector_route(capsys, family):
    n, omega, dt, steps = 5, 1.3, 0.01, 100
    code, out, _ = run_cli(capsys, "dump", "decay", "--n", str(n), "--set", family,
                           "--omega", str(omega), "--tfinal", str(steps * dt), "--dt", str(dt))
    assert code == 0
    # the (n+1)-vector route: level n propagated among n zero levels
    base = np.zeros(n + 1, dtype=complex)
    base[n] = 1.0
    expected = ["t,factor,mixed_pairing"]
    for k in range(steps + 1):
        t = k * dt
        ket = base * [dynamics.propagate_fock(KET, m, omega, t) for m in range(n + 1)]
        bra = base * [dynamics.propagate_fock(BRA, m, omega, t) for m in range(n + 1)]
        factor = dynamics.propagate_fock(family, n, omega, t)
        expected.append(f"{t!r},{factor!r},{float(np.vdot(bra, ket).real)!r}")
    assert out.splitlines() == expected
    assert any(not line.endswith(",1.0") for line in expected[1:])


def test_dump_decay_at_level_1e9(run_capped):
    # an (n+1)-vector at this level needs 16 GB, above the child's address cap
    done = run_capped("-m", "iwqm.cli", "dump", "decay", "--n", "1000000000",
                      "--tfinal", "1e-7", "--dt", "1e-8")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 12
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(np.exp((1e9 + 0.5) * 1e-7))
    assert last[2] == pytest.approx(1.0, abs=1e-12)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--nmax", "16", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"] is True


def test_verify_short_truncation_passes_at_the_stated_tolerances(capsys):
    # nmax sizes the operator block only: the coherent labels keep their truncation
    code, out, err = run_cli(capsys, "verify", "--nmax", "8")
    assert (code, err) == (0, "")
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    for name in ("mutual_normalization", "eigen_residual_ket", "eigen_residual_bra",
                 "closed_form_crosscheck", "variances", "uncertainty_product"):
        assert checks[name]["tolerance"] == 1e-10 and checks[name]["passed"]


@pytest.mark.parametrize("argv", [
    ["evolve", "--tfinal", "1", "--dt", "1e-15"],
    ["evolve", "--grid", "--tfinal", "1", "--dt", "1e-15"],
    ["evolve", "--tfinal", "1", "--dt", "1e-320"],
    ["evolve", "--grid", "--dt", "0"],
    ["decay", "--tfinal", "1", "--dt", "1e-15"],
])
def test_dump_refuses_unbounded_step_count(capsys, argv):
    code, out, err = run_cli(capsys, "dump", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["evolve", "--tfinal", "1", "--dt", "5"],
    ["evolve", "--grid", "--tfinal", "1", "--dt", "5"],
    ["decay", "--tfinal", "1", "--dt", "5"],
])
def test_dump_refuses_zero_steps(capsys, argv):
    code, out, err = run_cli(capsys, "dump", *argv)
    assert code == 2
    assert out == ""
    assert err == ("usage error: t_final = 1.0 with dt = 5.0 gives 0 steps; "
                   "dt must be below 2 t_final\n")


@pytest.mark.parametrize("degree", [MAX_DEGREE, MAX_DEGREE + 1])
def test_op_check_refuses_a_product_over_the_degree_cap(capsys, degree):
    power = "*".join(["(a- + a+)"] * degree)
    code, out, err = run_cli(capsys, "op-check", f"{power} == {power}")
    if degree <= MAX_DEGREE:
        assert (code, err) == (0, "")
        assert json.loads(out)["suites"][0]["checks"][0]["residual"] == 0.0
    else:
        assert (code, out) == (2, "")
        assert err == (f"usage error: a product of degree {degree} exceeds the normal-order "
                       f"cap of {MAX_DEGREE}\n")


def test_verify_help_states_the_region(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert f"region {REGION}," in " ".join(capsys.readouterr().out.split())


def test_op_check_help_states_the_degree_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op-check", "--help"])
    assert exc.value.code == 0
    assert f"degree {MAX_DEGREE}" in " ".join(capsys.readouterr().out.split())


#: shape: (outer, operand, levels) nests ``operand`` inside ``outer`` at its
#: ``{}``, ``levels`` nesting levels per repetition ("-(" is a sign and a
#: parenthesis)
NESTING_SHAPES = {
    "comm": ("comm(n, {})", "a+", 1),
    "parentheses": ("({})", "a-", 1),
    "negated_parentheses": ("-({})", "a-", 2),
    "adj": ("adj({})", "a-", 1),
    "signs": ("-{}", "a-", 1),
}


@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_op_check_nesting_cap(capsys, shape):
    outer, text, levels = NESTING_SHAPES[shape]
    at_cap = MAX_NESTING // levels
    for _ in range(at_cap):
        text = outer.format(text)
    code, out, err = run_cli(capsys, "op-check", f"{text} == {text}")
    assert (code, err) == (0, "")
    assert json.loads(out)["suites"][0]["checks"][0]["residual"] == 0.0
    # one repetition more: the opening token of the level past the cap is named
    code, out, err = run_cli(capsys, "op-check", f"{outer.format(text)} == a-")
    assert (code, out) == (2, "")
    position = at_cap * len(outer.split("{}")[0])
    assert err == (f"parse error: nesting deeper than {MAX_NESTING} levels "
                   f"(at position {position})\n")


def test_op_check_help_states_the_nesting_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op-check", "--help"])
    assert exc.value.code == 0
    assert f"nest {MAX_NESTING} deep" in " ".join(capsys.readouterr().out.split())


def test_op_check_overflowing_scalars_fail_without_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "op-check", "1e200*1e200*I - 1e200*1e200*I == I",
                                 "--nmax", "8")
    assert code == 1
    assert err == ""
    check = json.loads(out)["suites"][0]["checks"][0]
    assert check["residual"] == float("inf") and not check["passed"]


@pytest.mark.parametrize("seed, argv", [
    (None, ["verify", "--omega", "nan"]),
    (None, ["verify", "--omega", "inf"]),
    (None, ["op-check", "a- == a-", "--tol", "nan"]),
    (None, ["op-check", "a- == a-", "--tol", "inf"]),
    (None, ["op-check", "a- == a-", "--omega", "nan"]),
    (None, ["dump", "decay", "--omega", "nan"]),
    (None, ["dump", "evolve", "--omega", "0"]),
    (None, ["dump", "evolve", "--omega", "nan"]),
    (None, ["dump", "evolve", "--omega", "inf", "--dt", "0.01"]),
    (None, ["dump", "evolve", "--v", "nan"]),
    (None, ["dump", "evolve", "--grid", "--v", "inf"]),
    ("-5", ["verify"]),
    ("abc", ["verify"]),
    ("abc", ["op-check", "a- == a-"]),
    (None, ["op-check", "a- == a-", "--tol", "0"]),
    (None, ["op-check", "a- == a-", "--tol", "-1"]),
])
def test_invalid_settings_are_refused_up_front(capsys, monkeypatch, seed, argv):
    if seed is not None:
        monkeypatch.setenv("IWQM_SEED", seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    if seed is not None:
        assert "IWQM_SEED" in err


def test_verify_at_extreme_omega_exits_without_traceback(capsys):
    # at 1e100, where the absolute 1e-12 of the spectrum and Heisenberg checks
    # fails on correct physics, and at the subnormal 1e-310, where the packet's
    # horizon 1.5/omega is inf, verify refuses the omega up front
    for omega in ("1e100", "1e-310"):
        code, out, err = run_cli(capsys, "verify", "--nmax", "8", "--omega", omega)
        assert (code, out) == (2, "")
        assert err.startswith("usage error:") and err.count("\n") == 1
    # the packet and the split-step form no power of omega, so at 1e-170 the
    # grid checks run like every other check and all of them pass
    code, out, err = run_cli(capsys, "verify", "--nmax", "8", "--omega", "1e-170")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("omega", ["1e155", "1e300", "5e306", "1.7e308"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_refuses_an_omega_outside_its_region(capsys, omega, fmt):
    # each of these ran every suite and reported failed checks: inf from a
    # refused grid packet, an eigensolver on non-finite entries or an
    # overflowing decay exponent, or ulps of omega over an absolute 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", "--nmax", "8", "--omega", omega,
                                 "--format", fmt)
    assert not caught, [str(w.message) for w in caught]
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "outside the region" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_passes_at_a_small_omega(capsys, fmt):
    # the grid packet runs the same reduced state at every omega and forms no
    # power of omega, so a small omega leaves neither its grid nor its spreads
    for omega in ("1e-6", "1e-300"):
        code, out, err = run_cli(capsys, "verify", "--nmax", "8", "--omega", omega,
                                 "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            checks = [c for s in json.loads(out)["suites"] for c in s["checks"]]
            assert len(checks) == 45 and all(c["passed"] for c in checks)
        else:
            assert len(out.strip().splitlines()) == 45 + 2
            assert out.strip().splitlines()[-1] == "overall,,,,,True"


def _assert_clean_evolve(capsys, argv):
    """Run ``dump evolve`` with warnings recorded: exit 0 with finite rows, or a
    one-line usage error; never a traceback or a warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "dump", "evolve", *argv)
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err == ""
        assert "nan" not in out.lower() and "inf" not in out.lower()
    else:
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
    return code, err


def test_dump_evolve_refuses_an_overflowing_label_orbit(capsys):
    # v/omega = -inf overflows the label trajectory
    code, err = _assert_clean_evolve(capsys, ["--omega", "1e-300", "--v=-1e300",
                                              "--tfinal", "0.01", "--dt", "1e-3"])
    assert code == 2 and "not finite" in err
    # at v = 0 the trajectory is 0, but sinh(omega t) overflows in the orbit
    code, err = _assert_clean_evolve(capsys, ["--v=0", "--tfinal", "1e5", "--dt", "1e5"])
    assert code == 2 and "classical orbit" in err


EXTREMES = ["1e-300", "1", "1e300"]


@pytest.mark.parametrize("route", [[], ["--grid"]], ids=["label", "grid"])
@pytest.mark.parametrize("omega, v, tfinal, dt", itertools.product(EXTREMES, repeat=4))
def test_dump_evolve_at_extreme_settings_prints_finite_rows_or_refuses(capsys, route, omega, v,
                                                                       tfinal, dt):
    _assert_clean_evolve(capsys, ["--omega", omega, f"--v={v}", "--tfinal", tfinal,
                                  "--dt", dt, *route])


#: The shared options besides --out, each with a valid value (None for a flag),
#: and --sigma, --strict and --nodes, which no command takes: the adjoint sign
#: is a constant, every truncation is built and the Gram's rule size follows
#: from nmax.
SHARED_OPTIONS = {"--nmax": "8", "--omega": "1.0", "--tol": "1e-10", "--format": "json",
                  "--sigma": "1", "--strict": None, "--nodes": "64"}
#: The shared options each command takes besides --out: those its handler reads.
COMMAND_OPTIONS = {
    ("verify",): {"--nmax", "--omega", "--format"},
    ("op-check", "a- == a-"): {"--nmax", "--omega", "--tol", "--format"},
    ("dump", "eigenfunction"): set(),
    ("dump", "gram"): {"--nmax"},
    ("dump", "coherent"): {"--nmax"},
    ("dump", "evolve"): {"--omega"},
    ("dump", "decay"): {"--omega"},
}
DROPPED_OPTIONS = [(command, option) for command, kept in COMMAND_OPTIONS.items()
                   for option in SHARED_OPTIONS if option not in kept]


def _option_argv(option: str) -> list[str]:
    value = SHARED_OPTIONS[option]
    return [option] if value is None else [option, value]


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS), ids=" ".join)
def test_each_command_takes_the_shared_options_it_reads(command):
    argv = [*command, "--out", "x.txt"]
    for option in sorted(COMMAND_OPTIONS[command]):
        argv += _option_argv(option)
    args = cli.build_parser().parse_args(argv)
    assert args.out == "x.txt"


@pytest.mark.parametrize("command, option", DROPPED_OPTIONS,
                         ids=[f"{' '.join(c)} {o}" for c, o in DROPPED_OPTIONS])
def test_options_a_command_does_not_read_are_usage_errors(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([*command, *_option_argv(option)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    # argparse's usage line, then one error line
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [err.splitlines()[-1]]
    assert errors[0].startswith(f"iwqm: error: unrecognized arguments: {option}")


@pytest.mark.parametrize("argv", [
    ["eigenfunction", "--n", "3", "--samples", "11"],
    ["gram", "--nmax", "4"],
    ["coherent", "--nmax", "32"],
    ["evolve", "--tfinal", "0.01"],
    ["decay", "--tfinal", "0.1", "--dt", "0.05"],
], ids=lambda argv: argv[0])
def test_dumps_ignore_the_seed(capsys, monkeypatch, argv):
    monkeypatch.delenv("IWQM_SEED", raising=False)
    expected = run_cli(capsys, "dump", *argv)
    assert expected[0] == 0
    monkeypatch.setenv("IWQM_SEED", "abc")
    assert run_cli(capsys, "dump", *argv) == expected


def test_dump_gram_takes_nmax_below_the_suites_floor(capsys):
    for nmax in (1, 2, 3):
        code, out, _ = run_cli(capsys, "dump", "gram", "--nmax", str(nmax))
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["nmax"] == nmax and summary["max_defect"] <= 1e-15


#: The child of ``test_random_argument_vectors_exit_cleanly``: draws argument
#: vectors over every command from each command's options, the shared options
#: it does not take and bogus flags, runs each through ``main`` in-process,
#: and fails on any exception but ``SystemExit``, on any warning, and on more
#: than one stderr line from a run that ``main`` returns from (argparse's
#: ``SystemExit`` prints its usage line too).  Values are bounded so that
#: no example does much work: nmax <= 300, samples <= 10^4, n <= 1000,
#: and no run of more than 10^4 steps.
CLI_PROPERTY_CHILD = r'''
import contextlib, io, math, os, sys, warnings
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from iwqm.cli import main
from iwqm.dynamics import MAX_STEPS

FLOATS = ["nan", "inf", "-inf", "0", "-1", "-1e300", "1e-300", "1e300", "1e-3", "0.05",
          "0.5", "1", "5", "40"]
INTS = ["-5", "0", "1", "3", "4", "8", "64", "abc"]
#: The edges of verify's region: omega 100 and the smallest normal double are
#: accepted, 100.5 and the subnormal 1e-308 refused.
VALUES = {"--nmax": INTS + ["300"],
          "--omega": FLOATS + ["100", "100.5", "2.2250738585072014e-308", "1e-308"],
          "--tol": FLOATS,
          "--format": ["json", "csv", "yaml"], "--sigma": ["1", "-1", "0"], "--strict": [None],
          "--out": [os.path.join(sys.argv[1], "out.txt")], "--set": ["ket", "bra", "up"],
          "--n": INTS + ["1000"], "--xmin": FLOATS, "--xmax": FLOATS,
          "--samples": INTS + ["2", "101", "10000"], "--nodes": INTS + ["13", "350", "400"],
          "--alpha-re": FLOATS, "--alpha-im": FLOATS, "--v": FLOATS, "--tfinal": FLOATS,
          "--dt": FLOATS, "--grid": [None], "--bogus": ["1"], "-q": [None], "--": [None]}
SHARED = ["--nmax", "--omega", "--tol", "--format", "--sigma", "--strict", "--nodes"]
BOGUS = ["--bogus", "-q", "--"]
COMMANDS = {
    "verify": (["verify"], ["--nmax", "--omega", "--format"]),
    "op-check": (["op-check"], ["--nmax", "--omega", "--tol", "--format"]),
    "eigenfunction": (["dump", "eigenfunction"], ["--set", "--n", "--xmin", "--xmax",
                                                  "--samples"]),
    "gram": (["dump", "gram"], ["--nmax"]),
    "coherent": (["dump", "coherent"], ["--nmax", "--alpha-re", "--alpha-im"]),
    "evolve": (["dump", "evolve"], ["--omega", "--v", "--tfinal", "--dt", "--grid"]),
    "decay": (["dump", "decay"], ["--omega", "--n", "--set", "--tfinal", "--dt"]),
}
EXPRESSIONS = ["a- == a-", "comm(a-, a+) == I", "adj(H) == H", "x == p", "1e400*I == I",
               "comm(a-,", ""]


def pairs(flags):
    return st.sampled_from([(flag, value) for flag in flags for value in VALUES[flag]])


#: Per command: (argv prefix, its own options with values, shared options it
#: does not take and bogus flags with values).
DRAWS = {name: (prefix, pairs(kept + ["--out"]),
                pairs([o for o in SHARED if o not in kept] + BOGUS))
         for name, (prefix, kept) in COMMANDS.items()}


def steps(name, opts):
    # tfinal/dt of a dump evolve or decay, from the given values or the defaults
    omega = float(opts.get("--omega", "1"))
    tfinal = float(opts.get("--tfinal", "1.5" if name == "evolve" else "1"))
    if "--dt" in opts:
        dt = float(opts["--dt"])
    else:
        dt = 1e-3 / omega if name == "evolve" else 0.01
    return tfinal / dt


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(st.data())
def check(data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    prefix, own, other = DRAWS[name]
    drawn = data.draw(st.lists(own, max_size=5, unique_by=lambda pair: pair[0]))
    drawn += data.draw(st.lists(other, max_size=1))
    argv = list(prefix)
    if name == "op-check":
        argv.append(data.draw(st.sampled_from(EXPRESSIONS)))
    argv += [flag if value is None else f"{flag}={value}" for flag, value in drawn]
    if name in ("evolve", "decay"):
        with contextlib.suppress(ValueError, ZeroDivisionError):
            assume(not 1e4 < steps(name, dict(drawn)) <= MAX_STEPS)
    seed = data.draw(st.sampled_from([None, "0", "7", "-5", "abc"]))
    os.environ.pop("IWQM_SEED", None)
    if seed is not None:
        os.environ["IWQM_SEED"] = seed
    out, err = io.StringIO(), io.StringIO()
    returned = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
            returned = True
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])
    if returned:
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


check()
'''


def test_random_argument_vectors_exit_cleanly(run_capped, tmp_path):
    done = run_capped("-c", CLI_PROPERTY_CHILD, str(tmp_path))
    assert done.returncode == 0, done.stderr[-4000:]
