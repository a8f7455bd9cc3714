import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from iwqm.algebra import KET
from iwqm.eigenfunctions import eigenfunction, generating_function, hermite_coefficients
from iwqm import quadrature
from iwqm.quadrature import (
    MAX_HERMITE_NODES,
    MAX_MASS_LEVEL,
    ROTATION,
    _moment_pairings,
    _rule_pairings,
    ContourQuadrature,
    default_node_count,
    density_interval_integral,
    fresnel_gaussian,
    gram_matrix,
)


def test_fresnel_value():
    value = fresnel_gaussian()
    assert value == pytest.approx(np.sqrt(np.pi) * (1 - 1j) / np.sqrt(2))
    assert value.imag == pytest.approx(-value.real)


def test_quadrature_reproduces_fresnel():
    # the rule integrates the constant 1: its weights sum to int e^{-i x^2} dx
    rule = ContourQuadrature.build(32)
    assert abs(complex(np.sum(rule.weights)) - fresnel_gaussian()) <= 1e-13


def test_rule_structure():
    rule = ContourQuadrature.build(16)
    assert rule.nodes.shape == rule.weights.shape == (16,)
    unrotated_nodes = rule.nodes / ROTATION
    np.testing.assert_allclose(np.sort(unrotated_nodes.real),
                               np.sort(-unrotated_nodes.real), atol=1e-14)
    np.testing.assert_allclose(unrotated_nodes.imag, 0.0, atol=1e-14)
    unrotated_weights = rule.weights / ROTATION
    assert np.all(unrotated_weights.real > 0)
    np.testing.assert_allclose(unrotated_weights.imag, 0.0, atol=1e-16)


def test_rule_rejects_empty():
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError):
            ContourQuadrature.build(0)


def test_rule_refuses_non_finite_weights():
    assert np.all(np.isfinite(ContourQuadrature.build(350).weights))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ValueError, match="non-finite"):
                ContourQuadrature.build(400)
    assert not caught


def test_rule_refuses_all_zero_weights_above_the_cap():
    # hermgauss gives 371 weights that are all exactly 0.0: finite, but no rule
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ValueError, match="zero or non-finite weights from 371"):
                ContourQuadrature.build(371)
    assert not caught


def test_rule_refuses_zero_weights_below_the_cap(monkeypatch):
    # a numpy build whose hermgauss underflows below MAX_HERMITE_NODES
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                        lambda n: (np.linspace(-1.0, 1.0, n), np.zeros(n)))
    quadrature._gauss_hermite.cache_clear()
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match="at 16 nodes, or a weight that is not positive"):
            ContourQuadrature.build(16)


def test_rule_refuses_non_finite_weights_below_the_cap(monkeypatch):
    # a numpy build whose hermgauss overflows below MAX_HERMITE_NODES
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                        lambda n: (np.zeros(n), np.full(n, np.inf)))
    quadrature._gauss_hermite.cache_clear()
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match="non-finite nodes or weights at 16 nodes"):
            ContourQuadrature.build(16)


def test_rule_builds_are_equal_and_read_only():
    first, second = ContourQuadrature.build(64), ContourQuadrature.build(64)
    for name in ("nodes", "weights"):
        a, b = getattr(first, name), getattr(second, name)
        assert np.array_equal(a, b)
        for arr in (a, b):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


@pytest.mark.parametrize("nmax", [8, 20, 64])
def test_gram_is_bitwise_the_allocating_recurrence(nmax, reference_levels):
    s, w = np.polynomial.hermite.hermgauss(default_node_count(nmax))
    levels = reference_levels(s, np.ones_like(s), nmax + 1)
    expected = np.einsum("in,jn->ij", levels * w, levels) / np.sqrt(np.pi)
    gram = gram_matrix(nmax)
    assert gram.dtype == complex and not np.any(gram.imag)
    assert np.array_equal(gram.real, expected)


def _dense_moment_pairings(rows: list[int], cols: list[int]) -> np.ndarray:
    """The moment pairings as one dense contraction over every power.

    integral(z^(2r) exp(-i x^2)) = sqrt(pi/i) (2r-1)!!/2^r, and sqrt(pi/i)
    cancels sqrt(i/pi); the sums are exact integers scaled by 2^top, and
    each entry takes one division.
    """
    top = max(rows + cols)
    padded = [c + [0] * (top + 1 - len(c)) for c in hermite_coefficients(top)]
    table = np.array(padded, dtype=object)
    scaled = [0] * (2 * top + 1)  # 2^top (2r-1)!!/2^r at index 2r
    for r in range(top + 1):
        scaled[2 * r] = math.prod(range(1, 2 * r, 2)) << (top - r)
    hankel = np.array([scaled[j:j + top + 1] for j in range(top + 1)], dtype=object)
    numer = table[rows] @ hankel @ table[cols].T
    out = np.empty(numer.shape)
    for (i, k), v in np.ndenumerate(numer):
        m, n = rows[i], cols[k]
        denom = 4 ** top * 2 ** (m + n) * math.factorial(m) * math.factorial(n)
        out[i, k] = math.copysign(math.sqrt(v * v / denom), v)
    return out


@pytest.mark.parametrize("top", [1, 2, 7, 8, 12, 20, 64])
def test_parity_blocked_moments_are_bitwise_the_dense_contraction(top):
    levels = list(range(top + 1))
    expected = _dense_moment_pairings(levels, levels)
    actual = _moment_pairings(top)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def test_ground_state_pairing_is_one():
    for use_moments in (False, True):
        assert gram_matrix(1, use_moments=use_moments)[0, 0] == pytest.approx(1.0, abs=1e-13)


def test_cross_level_pairing_vanishes():
    for use_moments in (False, True):
        gram = gram_matrix(1, use_moments=use_moments)
        assert abs(gram[0, 1]) <= 1e-13 and abs(gram[1, 0]) <= 1e-13


def test_gram_identity_and_oracle_crosscheck():
    gram = gram_matrix(12)
    assert default_node_count(12) == 64
    assert np.max(np.abs(gram - np.eye(13))) <= 1e-8
    oracle = gram_matrix(12, use_moments=True)
    assert np.max(np.abs(gram - oracle)) <= 1e-10


@pytest.mark.parametrize("nmax", [1, 4, 12, 32])
def test_rule_at_its_degree_bound_matches_the_moment_gram(nmax):
    # nmax + 1 nodes integrate degree 2 nmax + 1 exactly, and the Gram's
    # integrands reach degree 2 nmax
    rule = _rule_pairings(nmax + 1, nmax)
    oracle = gram_matrix(nmax, use_moments=True)
    assert np.max(np.abs(rule - oracle)) <= 1e-10


@pytest.mark.parametrize("nmax", [24, 32, 64])
@pytest.mark.parametrize("use_moments", [False, True])
def test_gram_identity_at_high_levels(nmax, use_moments):
    gram = gram_matrix(nmax, use_moments=use_moments)
    assert np.max(np.abs(gram - np.eye(nmax + 1))) <= 1e-8


def test_gram_trivial_case():
    np.testing.assert_allclose(gram_matrix(1)[0, 0], 1.0, atol=1e-12)


def test_gram_alternative_phase_alternates_signs():
    # the alternative bra phase multiplies bra level m by (-1)^m: P G = diag((-1)^m)
    signs = (-1.0) ** np.arange(7)
    gram = signs[:, None] * gram_matrix(6)
    assert np.max(np.abs(gram - np.diag(signs))) <= 1e-9


def test_gram_defect_stays_at_floor_as_nodes_grow():
    counts = (13, 16, 24, 40, 64)
    defects = [np.max(np.abs(_rule_pairings(c, 12) - np.eye(13))) for c in counts]
    assert defects[-1] <= 1e-8
    assert max(defects) <= 10 * min(defects) + 1e-12


def test_gram_rejects_rule_below_exactness():
    with pytest.raises(ValueError):
        gram_matrix(0)


def test_gram_refuses_nmax_above_the_rule_cap_before_any_rule(monkeypatch):
    # nmax 370 needs 371 nodes, whose weights are all 0.0
    monkeypatch.setattr(quadrature, "_gauss_hermite", None)  # a rule build would raise TypeError
    for nmax in (MAX_HERMITE_NODES, 400):
        with pytest.raises(ValueError, match=f"nmax must be at most {MAX_HERMITE_NODES - 1} "
                                             f"for the rule, got {nmax}"):
            gram_matrix(nmax)


@pytest.mark.parametrize("length", [1.0, 2.0, 5.0, 10.0, 20.0])
def test_restricted_norm_grows_linearly(length):
    mass = density_interval_integral(generating_function(KET), -length, length)
    assert mass == pytest.approx(2.0 * length / np.sqrt(np.pi), abs=1e-10)


def test_restricted_norm_doubles_with_interval():
    psi = generating_function(KET)
    small = density_interval_integral(psi, -3.0, 3.0)
    large = density_interval_integral(psi, -6.0, 6.0)
    assert large / small == pytest.approx(2.0, abs=1e-9)


def _exact_interval_mass(n: int, half_width: Fraction) -> float:
    """int_{-L}^{L} |psi_n|^2 from the integer Hermite table, in exact rationals.

    |H_n(e^{i pi/4} x)|^2 = sum_jk h_j h_k Re(i^((k-j)/2)) x^(j+k), and every
    j + k is even, so each term integrates to 2 L^(j+k+1) / (j+k+1).
    """
    h = hermite_coefficients(n)[n]
    total = Fraction(0)
    for j, hj in enumerate(h):
        for k, hk in enumerate(h):
            real_part = (1, 0, -1, 0)[((k - j) // 2) % 4] if hj and hk else 0
            if real_part:
                m = j + k
                total += real_part * hj * hk * 2 * half_width ** (m + 1) / (m + 1)
    return float(total / (2 ** n * math.factorial(n))) / math.sqrt(math.pi)


@pytest.mark.parametrize("half_width", [Fraction(1, 2), Fraction(5, 2), Fraction(4)])
def test_interval_mass_is_exact_through_level_32(half_width):
    for n in range(33):
        mass = density_interval_integral(eigenfunction(KET, n), -float(half_width),
                                         float(half_width))
        assert mass == pytest.approx(_exact_interval_mass(n, half_width), rel=1e-12)


@pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0),
                                    (np.float64(-1e308), np.float64(1e308))])
def test_interval_mass_refuses_bad_bounds_before_any_rule(lo, hi, monkeypatch):
    monkeypatch.setattr(quadrature, "_gauss_legendre", None)  # a rule build would raise TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite bounds lo <= hi"):
            density_interval_integral(eigenfunction(KET, 2), lo, hi)


def test_interval_mass_refuses_levels_above_the_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "_gauss_legendre", None)
    for n in (MAX_MASS_LEVEL + 1, 100000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"up to level {MAX_MASS_LEVEL}, got {n}"):
                density_interval_integral(eigenfunction(KET, n), -1.0, 1.0)


def test_interval_mass_refuses_an_overflowing_mass():
    # |psi_512|^2 passes 1e308 inside [-20, 20]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mass of level 512 on \\[-20.0, 20.0\\] overflows"):
            density_interval_integral(eigenfunction(KET, 512), -20.0, 20.0)


def test_interval_mass_takes_an_empty_interval():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert density_interval_integral(eigenfunction(KET, 3), 1.5, 1.5) == 0.0
