import math

import numpy as np
import pytest

from iwqm import algebra
from iwqm.algebra import BRA, KET
from iwqm.coherent import CoherentState, mutual_pairing
from iwqm.expressions import (
    A_MINUS,
    A_PLUS,
    IDENTITY,
    commutator,
    hamiltonian_expression,
    identity_residual,
    momentum_expression,
    number_expression,
    position_expression,
    scaled,
    su11_expressions,
    to_matrix,
)


def unit(n: int, dim: int) -> np.ndarray:
    """The n-th Fock basis state as a unit coefficient vector."""
    return np.eye(dim, dtype=complex)[n]


def ladder_in(phase: complex, generator: str, family: str, coeffs: np.ndarray) -> np.ndarray:
    """``ladder_action`` under the bra ladder phase ``phase``.  The opposite of
    ``BRA_LADDER_PHASE`` acts on bra vectors as the parity conjugate P L P,
    P c = (-1)^n c; kets carry no phase."""
    if family == KET or phase == algebra.BRA_LADDER_PHASE:
        return algebra.ladder_action(generator, family, coeffs)
    signs = (-1.0) ** np.arange(len(coeffs))
    return signs * algebra.ladder_action(generator, family, signs * coeffs)


def test_lowering_entries_dim3():
    low = to_matrix(A_MINUS, 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2)
    np.testing.assert_array_equal(low, expected)


def test_raising_entries_dim3():
    rai = to_matrix(A_PLUS, 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = 1.0
    expected[2, 1] = math.sqrt(2)
    np.testing.assert_array_equal(rai, expected)


def test_lowering_action_dim2():
    np.testing.assert_array_equal(algebra.ladder_action("a-", KET, unit(1, 2)), unit(0, 2))
    np.testing.assert_array_equal(algebra.ladder_action("a-", KET, unit(0, 2)), np.zeros(2))


def test_raising_clips_top_level():
    np.testing.assert_array_equal(algebra.ladder_action("a+", KET, unit(4, 5)), np.zeros(5))


@pytest.mark.parametrize("dim", [0, 1, -3])
def test_invalid_dimension(dim):
    with pytest.raises(ValueError):
        to_matrix(A_MINUS, dim)
    with pytest.raises(ValueError):
        to_matrix(A_PLUS, dim)


@pytest.mark.parametrize("n", range(6))
def test_ladder_chain_generates_levels(n):
    dim = 8
    state = unit(0, dim)
    for _ in range(n):
        state = algebra.ladder_action("a+", KET, state)
    np.testing.assert_allclose(state / math.sqrt(math.factorial(n)), unit(n, dim), atol=1e-15)


@pytest.mark.parametrize("phase,expected_sign", [(-1j, lambda n: 1.0), (1j, lambda n: (-1.0) ** n)])
def test_bra_chain_phase(phase, expected_sign):
    # a- raises the bra family; dividing the n-fold chain by (-i)^n sqrt(n!)
    # leaves phase 1 under the -i convention and (-1)^n under +i
    dim = 8
    for n in range(1, 6):
        state = unit(0, dim)
        for _ in range(n):
            state = ladder_in(phase, "a-", BRA, state)
        state = state / ((-1j) ** n * math.sqrt(math.factorial(n)))
        np.testing.assert_allclose(state, expected_sign(n) * unit(n, dim), atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16, 32, 64, 128, 256])
def test_commutator_identity_leading_block(dim):
    ladder = commutator(A_MINUS, A_PLUS)
    defect = to_matrix(ladder, dim) - np.eye(dim)
    assert np.max(np.abs(defect)) <= 1e-12
    assert identity_residual(ladder, IDENTITY, dim) <= 1e-12


def test_number_is_diagonal_levels():
    np.testing.assert_allclose(to_matrix(number_expression(), 6), np.diag(np.arange(6.0)),
                               atol=1e-14)


def test_hamiltonian_diagonal():
    ham = algebra.build_hamiltonian(3, 1.0)
    np.testing.assert_allclose(ham, np.diag([0.5j, 1.5j, 2.5j]), atol=1e-15)
    ground = unit(0, 3)
    np.testing.assert_allclose(ham @ ground, 0.5j * ground, atol=1e-15)


def test_hamiltonian_rejects_bad_omega():
    with pytest.raises(ValueError):
        algebra.build_hamiltonian(4, 0.0)
    with pytest.raises(ValueError):
        algebra.build_hamiltonian(4, -1.0)


def test_hamiltonian_pairing_expectation():
    ham = algebra.build_hamiltonian(4, 2.0)
    value = np.vdot(unit(2, 4), ham @ unit(2, 4))
    assert value == pytest.approx(5j)


def test_su11_commutators():
    su = su11_expressions()
    sz, s_plus, s_minus, sx, sy = (su[k] for k in ("Sz", "S+", "S-", "Sx", "Sy"))
    for lhs, rhs in ((commutator(sx, sy), scaled(1j, sz)),
                     (commutator(sz, s_plus), s_plus),
                     (commutator(sz, s_minus), scaled(-1.0, s_minus)),
                     (commutator(s_plus, s_minus), scaled(-2.0, sz))):
        assert identity_residual(lhs, rhs, 16) <= 1e-12


def test_su11_hamiltonian_identity_exact():
    sz = su11_expressions()["Sz"]
    for omega in (1.0, 0.7, 3.25):
        residual = identity_residual(hamiltonian_expression(omega), scaled(2j * omega, sz), 8)
        assert residual == 0.0
        np.testing.assert_array_equal(algebra.build_hamiltonian(8, omega),
                                      to_matrix(scaled(2j * omega, sz), 8))


def test_heisenberg_commutators():
    dim, omega = 32, 1.3
    ham = hamiltonian_expression(omega)
    pos, mom = position_expression(), momentum_expression()
    assert identity_residual(commutator(pos, ham), scaled(1j * omega, mom), dim) <= 1e-12
    assert identity_residual(commutator(mom, ham), scaled(1j * omega, pos), dim) <= 1e-12


# the dual pairing sum conj(bra_n) ket_n of two coefficient vectors is
# coherent.mutual_pairing, whatever the vectors hold

def pair(bra: np.ndarray, ket: np.ndarray) -> complex:
    return mutual_pairing(CoherentState(BRA, 0.0, bra), CoherentState(KET, 0.0, ket))


def test_dual_pairing_orthonormal():
    dim = 6
    for n in range(dim):
        for m in range(dim):
            value = pair(unit(n, dim), unit(m, dim))
            assert value == pytest.approx(1.0 if n == m else 0.0)


def test_dual_pairing_zero_vector():
    assert pair(np.zeros(4), unit(1, 4)) == 0.0


def test_dual_pairing_family_contract():
    ket = CoherentState(KET, 0.0, unit(0, 4))
    bra = CoherentState(BRA, 0.0, unit(0, 4))
    with pytest.raises(ValueError):
        mutual_pairing(ket, ket)
    with pytest.raises(ValueError):
        mutual_pairing(bra, bra)
    with pytest.raises(ValueError):
        mutual_pairing(ket, bra)


def test_dual_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pair(unit(0, 4), unit(0, 5))


@pytest.mark.parametrize("phase", [1j, -1j])
@pytest.mark.parametrize("family", [KET, BRA])
@pytest.mark.parametrize("generator", ["a-", "a+"])
@pytest.mark.parametrize("dim", [2, 5, 64])
def test_ladder_action_matches_matrix(dim, generator, family, phase, dense_ladder):
    rng = np.random.default_rng(dim)
    coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    # on bra coefficients the generators swap roles and each step carries the phase
    low, rai = dense_ladder(dim)
    if family == KET:
        matrix = low if generator == "a-" else rai
    else:
        matrix = phase * (rai if generator == "a-" else low)
    np.testing.assert_array_equal(ladder_in(phase, generator, family, coeffs),
                                  matrix @ coeffs)


def test_ladder_action_arguments():
    with pytest.raises(ValueError):
        algebra.ladder_action("a", KET, np.ones(4))
    with pytest.raises(ValueError):
        algebra.ladder_action("a-", "middle", np.ones(4))
    with pytest.raises(ValueError):
        algebra.ladder_action("a-", KET, np.ones((2, 4)))
    with pytest.raises(ValueError):
        algebra.ladder_action("a-", KET, np.ones(1))
