import math
import warnings

import numpy as np
import pytest

from iwqm import coherent, verify
from iwqm.algebra import BRA, BRA_PHASE, KET, ladder_action
from iwqm.coherent import (
    TAIL_TOLERANCE,
    CoherentState,
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


def bra_in(phase: complex, alpha: complex, dim: int) -> CoherentState:
    """The bra coherent state built with the bra phase ``phase``: the opposite
    of ``BRA_PHASE`` builds the parity image of the default state."""
    state = build_coherent(BRA, alpha, dim)
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


@pytest.mark.parametrize("family, base, sign", [(KET, 1, 1), (BRA, BRA_PHASE, -1)])
def test_short_truncation_builds_the_closed_form(family, base, sign):
    # a tail far above TAIL_TOLERANCE is a number to report, not a refusal:
    # the built coefficients are still the leading closed-form ones
    alpha = 2.0
    assert tail_bound(alpha, 8) > 1.0 > TAIL_TOLERANCE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = build_coherent(family, alpha, 8)
    expected = [np.exp(sign * 0.5j * abs(alpha) ** 2) * (base * alpha) ** n
                / math.sqrt(math.factorial(n)) for n in range(8)]
    np.testing.assert_allclose(state.coeffs, expected, rtol=1e-14, atol=0)
    assert eigen_residual(state) > 1e-3


@pytest.mark.parametrize("alpha", [1e200, 1e10j])
def test_infinite_tail_is_refused(alpha):
    assert tail_bound(alpha, 64) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coefficients above 1e\\+75"):
            build_coherent(BRA, alpha, 64)


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


def test_tail_bound_takes_the_label_axis():
    labels = np.array([[0.0, 1.5 + 0.5j, 1e200], [np.nan, -0.7 + 1.1j, 2.0]])
    bounds = tail_bound(labels, 47)
    assert bounds.shape == labels.shape
    # each entry is the bound of its label alone, bit for bit
    assert bounds.tolist() == [[tail_bound(complex(a), 47) for a in row] for row in labels]
    assert bounds[0, 0] == 0.0 and bounds[0, 2] == bounds[1, 0] == math.inf
    assert type(tail_bound(1.5 + 0.5j, 47)) is float
    assert tail_bound(np.array(1.5 + 0.5j), 47) == tail_bound(1.5 + 0.5j, 47)


def test_uncertainty_product_takes_a_label_array():
    # the label axis that moments takes: each entry is its label's product alone
    labels = np.array([[0.5, 1j, 0.0], [1 + 0.5j, -0.7 + 1.1j, -1.99]])
    batch = uncertainty_product(labels, 16)
    for name in ("dx2", "dp2", "dx", "dp", "product"):
        values = getattr(batch, name)
        assert values.shape == labels.shape
        for index in np.ndindex(labels.shape):
            alone = getattr(uncertainty_product(complex(labels[index]), 16), name)
            assert type(alone) is (float if name == "product" else complex)
            assert values[index] == alone, (name, index)


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
        ket = build_coherent(KET, alpha, dim)
        bra = bra_in(phase, alpha, dim)
        measured = moments(bra, ket)
        assert list(measured) == ["x", "p", "x2", "p2"]
        for name, matrix in dense.items():
            expected = np.vdot(bra.coeffs, matrix @ ket.coeffs)
            assert abs(measured[name] - expected) <= 1e-12 * (1 + abs(alpha) ** 2)


def test_expectation_is_bitwise_the_moments_entry():
    # expectation applies only its own observable, with the operations moments
    # uses for it, so the two agree bit for bit, and uncertainty_product is
    # read from the same pair; at dim 8 the labels 2 and 1.5 - 1.5i have
    # tails far above TAIL_TOLERANCE and are built all the same
    for dim, alphas in ((8, (0.0, 2.0, 1.5 - 1.5j)), (64, ALPHAS), (160, ALPHAS)):
        for alpha in alphas:
            measured = moments(build_coherent(BRA, alpha, dim), build_coherent(KET, alpha, dim))
            for name in ("x", "p", "x2", "p2"):
                assert expectation(name, alpha, dim) == measured[name], (dim, alpha, name)
            assert uncertainty_product(alpha, dim) == Uncertainty.from_moments(measured)


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
    # the band kernel, called on the checked arrays: two band applications per
    # quadrature, and moments applies x, p, x^2 and p^2 with six
    calls = []
    kernel = coherent._ladder

    def counting(generator, family, c, out):
        calls.append(generator)
        return kernel(generator, family, c, out)

    monkeypatch.setattr(coherent, "_ladder", counting)
    expectation(name, 1 + 0.5j, 64)
    assert calls == ["a-", "a+"] * (actions // 2)
    calls.clear()
    moments(build_coherent(BRA, 0.5, 64), build_coherent(KET, 0.5, 64))
    assert len(calls) == 6


def test_uncertainty_product_builds_one_pair(monkeypatch):
    # one check of the label and one coefficient pass per family, on bare
    # arrays: the kernels build no CoherentState
    calls = []
    for name in ("_labels", "_coefficients", "CoherentState"):
        original = getattr(coherent, name)

        def counting(*args, original=original, name=name):
            calls.append(args[0] if name == "_coefficients" else name)
            return original(*args)

        monkeypatch.setattr(coherent, name, counting)
    uncertainty_product(1 + 0.5j, 64)
    assert calls == ["_labels", BRA, KET]
    expectation("p2", 1 + 0.5j, 64)
    assert calls == ["_labels", BRA, KET] * 2
    build_coherent(KET, 1 + 0.5j, 64)
    assert calls[6:] == ["_labels", KET, "CoherentState"]
    bra, ket = coherent._pair(1 + 0.5j, 64)
    assert type(bra) is type(ket) is np.ndarray and bra.shape == ket.shape == (64,)


def test_coherent_suite_builds_one_batch_pair(monkeypatch):
    calls = _count_builds(monkeypatch)
    cfg = verify.RunConfig()
    report = verify.coherent_suite(cfg)
    assert report.passed
    # one (labels, dim) pair for the grid; the probe pair at the probe label is
    # one two-row batch built apart from build_coherent (tests/test_verify.py,
    # test_each_determination_builds_the_probe_once)
    assert [(family, np.shape(alpha), dim) for family, alpha, dim in calls] == [
        (KET, (25,), 64), (BRA, (25,), 64)]
    np.testing.assert_array_equal(calls[0][1], verify._alpha_grid(cfg))


@pytest.mark.parametrize("family", [KET, BRA])
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), complex(0.5, float("inf")),
                                   complex(float("nan"), 1.0)])
def test_non_finite_label_is_refused(family, alpha):
    assert tail_bound(alpha, 16) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^label alpha=\(.*\) is not finite$"):
            build_coherent(family, alpha, 16)


def test_a_refused_label_in_a_batch_is_named_by_its_index():
    nan, big = float("nan"), 1e200
    with pytest.raises(ValueError, match=r"alpha=\(nan\+0j\) at index 2 is not finite"):
        build_coherent(KET, [0.5, 1j, nan, big], 16)
    with pytest.raises(ValueError, match=r"\|alpha\|=1e\+200 at index 1 has coefficients"):
        build_coherent(BRA, [0.5, big, nan], 16)
    with pytest.raises(ValueError, match=r"at index \(1, 0\) is not finite"):
        build_coherent(KET, [[0.5, 1.0], [nan, 0.0]], 16)


def _batch_rows_match_alone(alphas, dim: int) -> None:
    ket, bra = build_coherent(KET, alphas, dim), build_coherent(BRA, alphas, dim)
    assert ket.coeffs.shape == bra.coeffs.shape == (*np.shape(alphas), dim)
    pairing, batch_moments = mutual_pairing(bra, ket), moments(bra, ket)
    residuals = {KET: eigen_residual(ket), BRA: eigen_residual(bra)}
    for index in np.ndindex(np.shape(alphas)):
        alpha = complex(np.asarray(alphas)[index])
        ket_1, bra_1 = build_coherent(KET, alpha, dim), build_coherent(BRA, alpha, dim)
        assert ket_1.alpha == ket.alpha[index] and isinstance(ket_1.alpha, complex)
        assert ket.coeffs[index].tobytes() == ket_1.coeffs.tobytes()
        assert bra.coeffs[index].tobytes() == bra_1.coeffs.tobytes()
        pairing_1 = mutual_pairing(bra_1, ket_1)
        assert type(pairing_1) is complex and pairing[index] == pairing_1
        for family, state in ((KET, ket_1), (BRA, bra_1)):
            residual = eigen_residual(state)
            assert type(residual) is float and residuals[family][index] == residual
        moments_1 = moments(bra_1, ket_1)
        for name, value in moments_1.items():
            assert type(value) is complex and batch_moments[name][index] == value


def test_closed_forms_and_variances_take_the_label_axis():
    # row by row the values of one label, bit for bit: numpy's scalar arithmetic
    # rounds differently from its array loops, so one label runs the loops too
    alphas = np.concatenate([verify._alpha_grid(verify.RunConfig(seed=seed)) for seed in range(8)])
    batch_moments = moments(build_coherent(BRA, alphas, 64), build_coherent(KET, alphas, 64))
    batch = Uncertainty.from_moments(batch_moments)
    for name in ("x", "p", "x2", "p2"):
        closed = expectation_closed_form(name, alphas)
        assert closed.shape == alphas.shape
        assert closed.tolist() == [expectation_closed_form(name, a) for a in alphas.tolist()]
        assert np.array_equal(expectation_closed_form(name, alphas.reshape(4, 50)),
                              closed.reshape(4, 50))
    for i, alpha in enumerate(alphas.tolist()):
        alone = Uncertainty.from_moments(moments(build_coherent(BRA, alpha, 64),
                                                 build_coherent(KET, alpha, 64)))
        assert alone == uncertainty_product(alpha, 64)
        assert [getattr(batch, name)[i] for name in ("dx2", "dp2", "dx", "dp", "product")] == [
            alone.dx2, alone.dp2, alone.dx, alone.dp, alone.product]


@pytest.mark.parametrize("dim", [64, 160])
def test_label_batch_rows_equal_the_labels_built_alone(dim):
    # the 25-label grid of the coherent suite, and a 2-d batch with the vacuum
    for seed in range(4):
        _batch_rows_match_alone(verify._alpha_grid(verify.RunConfig(seed=seed)), dim)
    _batch_rows_match_alone(np.array([ALPHAS[:3], ALPHAS[3:]]) * np.array([[1], [0]]), dim)


@pytest.mark.parametrize("dim", [8, 64, 160, 400])
def test_uncertainty_product_and_eigen_residual_rows_equal_their_labels_alone(dim):
    # by repr, so a signed zero counts: a batch row runs the same kernels as its
    # label alone
    alphas = np.concatenate([verify._alpha_grid(verify.RunConfig(seed=seed))
                             for seed in range(2)]).reshape(2, 25)
    alphas[0, :4] = [0.0, -1.5, 0.5j, complex(-0.0, -0.75)]
    batch = uncertainty_product(alphas, dim)
    residuals = {family: eigen_residual(build_coherent(family, alphas, dim))
                 for family in (KET, BRA)}
    for index in np.ndindex(alphas.shape):
        alpha = complex(alphas[index])
        alone = uncertainty_product(alpha, dim)
        for name in ("dx2", "dp2", "dx", "dp", "product"):
            assert repr(getattr(batch, name)[index].item()) == repr(getattr(alone, name))
        for family, values in residuals.items():
            residual = eigen_residual(build_coherent(family, alpha, dim))
            assert type(residual) is float and repr(values[index].item()) == repr(residual)


def test_eigen_residual_is_the_norm_of_each_defect():
    # the batched norm spells out np.linalg.norm's own formula for one vector
    alphas = verify._alpha_grid(verify.RunConfig(seed=3))
    for family, gen in ((KET, "a-"), (BRA, "a+")):
        batch = build_coherent(family, alphas, 64)
        for i, alpha in enumerate(alphas):
            state = build_coherent(family, alpha, 64)
            defect = ladder_action(gen, family, state.coeffs) - state.alpha * state.coeffs
            assert eigen_residual(batch)[i] == float(np.linalg.norm(defect))


def test_pairing_and_moments_refuse_unequal_label_shapes():
    ket = build_coherent(KET, [0.5, 1.0], 16)
    bra = build_coherent(BRA, [0.5, 1.0, 1.5], 16)
    with pytest.raises(ValueError, match="label shape mismatch"):
        mutual_pairing(bra, ket)
    with pytest.raises(ValueError, match="label shape mismatch"):
        moments(bra, ket)
    with pytest.raises(ValueError, match="one vector per label"):
        CoherentState(KET, [0.5, 1.0], np.ones(16))
