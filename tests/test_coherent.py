import math
import warnings

import numpy as np
import pytest

from iwqm import coherent, verify
from iwqm.algebra import BRA, BRA_PHASE, KET
from iwqm.coherent import (
    CoherentState,
    TruncationError,
    TruncationWarning,
    Uncertainty,
    build_coherent,
    eigen_residual,
    expectation,
    expectation_closed_form,
    moments,
    mutual_pairing,
    tail_bound,
    uncertainty_product,
)

ALPHAS = [0.3, 1.0, 1 + 0.5j, -0.7 + 1.1j, 1.9j, -1.99]


def _parity_image(state: CoherentState) -> CoherentState:
    """The state with coefficients (-1)^n c_n: what the rejected bra phase builds."""
    return CoherentState(state.family, state.alpha, (-1.0) ** np.arange(state.dim) * state.coeffs)


def bra_in(phase: complex, alpha: complex, dim: int, **kwargs) -> CoherentState:
    """The bra coherent state built with the bra phase ``phase``: the opposite
    of ``BRA_PHASE`` builds the parity image of the default state."""
    state = build_coherent(BRA, alpha, dim, **kwargs)
    return state if phase == BRA_PHASE else _parity_image(state)


def test_vacuum_label_gives_ground_state():
    for family in (KET, BRA):
        state = build_coherent(family, 0.0, 16)
        np.testing.assert_array_equal(state.coeffs, np.eye(16)[0])


def test_ket_coefficients_at_unit_label():
    state = build_coherent(KET, 1.0, 64)
    assert state.coeffs[0] == pytest.approx(np.exp(0.5j))
    assert state.coeffs[1] == pytest.approx(np.exp(0.5j))


def test_ket_recurrence():
    alpha = 0.8 - 0.3j
    state = build_coherent(KET, alpha, 32)
    for n in range(1, 32):
        assert state.coeffs[n] == pytest.approx(alpha / math.sqrt(n) * state.coeffs[n - 1])


@pytest.mark.parametrize("phase", [1j, -1j])
def test_bra_recurrence_phase(phase):
    alpha = 1.2 + 0.1j
    state = bra_in(phase, alpha, 32)
    assert state.coeffs[1] / state.coeffs[0] == pytest.approx(phase * alpha)
    for n in range(1, 32):
        assert state.coeffs[n] == pytest.approx(phase * alpha / math.sqrt(n) * state.coeffs[n - 1])


def test_tail_bound_matches_last_coefficient():
    alpha = 1.5 + 0.5j
    state = build_coherent(KET, alpha, 48)
    assert abs(state.coeffs[-1]) == pytest.approx(tail_bound(alpha, 47), rel=1e-12)


def test_strict_truncation_raises():
    assert tail_bound(2.0, 8) > 1.0
    with pytest.raises(TruncationError):
        build_coherent(KET, 2.0, 8, strict=True)


def test_permissive_truncation_warns():
    with pytest.warns(TruncationWarning):
        state = build_coherent(KET, 2.0, 8, strict=False)
    assert eigen_residual(state) > 1e-3


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("alpha", [1e200, 1e10j, float("nan")])
def test_infinite_tail_is_refused_in_both_modes(alpha, strict):
    assert tail_bound(alpha, 64) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no finite truncation tail") as err:
            build_coherent(BRA, alpha, 64, strict=strict)
    assert not isinstance(err.value, TruncationError)


def test_coherent_state_coefficients_are_read_only():
    state = build_coherent(KET, 1.0, 64)
    with pytest.raises(ValueError):
        state.coeffs[0] = 1.0


def test_eigen_residual_vacuum_exact():
    assert eigen_residual(build_coherent(KET, 0.0, 16)) == 0.0
    assert eigen_residual(build_coherent(BRA, 0.0, 16)) == 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_eigen_residual_within_tail(alpha):
    assert eigen_residual(build_coherent(KET, alpha, 64)) <= 1e-10
    assert eigen_residual(build_coherent(BRA, alpha, 64)) <= 1e-10


@pytest.mark.parametrize("alpha", ALPHAS)
def test_mutual_normalization(alpha):
    ket = build_coherent(KET, alpha, 64)
    bra = build_coherent(BRA, alpha, 64)
    assert mutual_pairing(bra, ket) == pytest.approx(1.0, abs=1e-10)


def test_exactly_one_bra_phase_is_consistent():
    alpha = 1.1 - 0.4j
    ket = build_coherent(KET, alpha, 64)
    good = build_coherent(BRA, alpha, 64)
    assert abs(mutual_pairing(good, ket) - 1.0) <= 1e-10
    assert eigen_residual(good) <= 1e-10
    bad = _parity_image(good)
    assert abs(mutual_pairing(bad, ket) - 1.0) > 0.1
    assert eigen_residual(bad) > 0.1


def test_rejected_phase_pairing_value():
    # the inconsistent sign turns the normalization into a pure phase e^{2i|a|^2}
    alpha = 0.9 + 0.2j
    ket = build_coherent(KET, alpha, 64)
    bad = _parity_image(build_coherent(BRA, alpha, 64))
    assert mutual_pairing(bad, ket) == pytest.approx(np.exp(2j * abs(alpha) ** 2), abs=1e-9)


def test_expectations_at_zero_label():
    assert expectation("x", 0.0) == pytest.approx(0.0)
    assert expectation("p", 0.0) == pytest.approx(0.0)
    assert expectation("x2", 0.0) == pytest.approx(-0.5j)
    assert expectation("p2", 0.0) == pytest.approx(0.5j)


def test_position_expectation_at_unit_label():
    assert expectation("x", 1.0) == pytest.approx((1 - 1j) / np.sqrt(2j))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", ["x", "p", "x2", "p2"])
def test_contraction_matches_closed_form(alpha, name):
    assert expectation(name, alpha, 64) == pytest.approx(
        expectation_closed_form(name, alpha), abs=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_variances_and_minimum_uncertainty(alpha):
    unc = uncertainty_product(alpha, 64)
    assert unc.dx2 == pytest.approx(-0.5j, abs=1e-10)
    assert unc.dp2 == pytest.approx(0.5j, abs=1e-10)
    assert unc.product == pytest.approx(0.5, abs=1e-10)
    assert abs((unc.dx * unc.dp).imag) <= 1e-10


def test_uncertainty_roots_are_principal():
    unc = uncertainty_product(0.5 + 0.5j, 64)
    assert unc.dx == pytest.approx(np.sqrt(-0.5j), abs=1e-10)
    assert unc.dp == pytest.approx(np.sqrt(0.5j), abs=1e-10)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_coherent("middle", 1.0, 16)
    with pytest.raises(ValueError):
        build_coherent(KET, 1.0, 4)
    with pytest.raises(ValueError):
        expectation("x3", 1.0)
    with pytest.raises(ValueError):
        expectation_closed_form("x3", 1.0)


@pytest.mark.parametrize("phase", [1j, -1j])
@pytest.mark.parametrize("dim", [8, 64, 160])
def test_moments_match_dense_contraction(dim, phase, dense_ladder):
    low, rai = dense_ladder(dim)
    pos, mom = (low + rai) / np.sqrt(2j), (low - rai) / np.sqrt(2j)
    dense = {"x": pos, "p": mom, "x2": pos @ pos, "p2": mom @ mom}
    for alpha in ALPHAS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            ket = build_coherent(KET, alpha, dim, strict=False)
            bra = bra_in(phase, alpha, dim, strict=False)
        measured = moments(bra, ket)
        assert list(measured) == ["x", "p", "x2", "p2"]
        for name, matrix in dense.items():
            expected = np.vdot(bra.coeffs, matrix @ ket.coeffs)
            assert abs(measured[name] - expected) <= 1e-12 * (1 + abs(alpha) ** 2)


def test_expectation_is_bitwise_the_moments_entry():
    # expectation applies only its own observable, with the operations moments
    # uses for it, so the two agree bit for bit
    for dim, alphas in ((8, (0.0,)), (64, ALPHAS), (160, ALPHAS)):
        for alpha in alphas:
            measured = moments(build_coherent(BRA, alpha, dim), build_coherent(KET, alpha, dim))
            for name in ("x", "p", "x2", "p2"):
                assert expectation(name, alpha, dim) == measured[name], (dim, alpha, name)


def test_moments_arguments():
    ket = build_coherent(KET, 0.5, 32)
    bra = build_coherent(BRA, 0.5, 32)
    with pytest.raises(ValueError):
        moments(ket, bra)
    with pytest.raises(ValueError):
        moments(build_coherent(BRA, 0.5, 64), ket)


def _count_builds(monkeypatch) -> list:
    calls = []
    build = coherent.build_coherent

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(coherent, "build_coherent", counting)
    return calls


@pytest.mark.parametrize("name, actions", [("x", 2), ("p", 2), ("x2", 4), ("p2", 4)])
def test_expectation_applies_only_its_observable(monkeypatch, name, actions):
    calls = []
    action = coherent.ladder_action

    def counting(*args, **kwargs):
        calls.append(args[0])
        return action(*args, **kwargs)

    monkeypatch.setattr(coherent, "ladder_action", counting)
    expectation(name, 1 + 0.5j, 64)
    assert calls == ["a-", "a+"] * (actions // 2)
    calls.clear()
    moments(build_coherent(BRA, 0.5, 64), build_coherent(KET, 0.5, 64))
    assert len(calls) == 6


def test_permissive_expectation_warns_on_every_call():
    # a permissive pair is built by build_coherent and handed to moments
    for _ in range(2):
        with pytest.warns(TruncationWarning) as record:
            ket = build_coherent(KET, 2.0, 8, strict=False)
            bra = build_coherent(BRA, 2.0, 8, strict=False)
        assert len(record) == 2  # one per built family
        assert math.isfinite(abs(moments(bra, ket)["x2"]))


def test_uncertainty_product_builds_one_pair(monkeypatch):
    calls = _count_builds(monkeypatch)
    uncertainty_product(1 + 0.5j, 64)
    assert len(calls) == 2
    expectation("p2", 1 + 0.5j, 64)
    assert len(calls) == 4


def test_coherent_suite_builds_one_pair_per_label(monkeypatch):
    calls = _count_builds(monkeypatch)
    cfg = verify.RunConfig()
    report = verify.coherent_suite(cfg)
    assert report.passed
    labels = len(verify._alpha_grid(cfg))
    # one pair at the probe label: the rejected bra phase is its parity image
    assert len(calls) == 2 * labels + 2


def test_single_pair_strict_raises_and_permissive_warns():
    with pytest.raises(TruncationError):
        uncertainty_product(2.0, 8)
    with pytest.raises(TruncationError):
        expectation("x", 2.0, 8)
    with pytest.warns(TruncationWarning) as record:
        ket = build_coherent(KET, 2.0, 8, strict=False)
        bra = build_coherent(BRA, 2.0, 8, strict=False)
    assert len(record) == 2
    assert math.isfinite(Uncertainty.from_moments(moments(bra, ket)).product)
