"""Acceptance gate: every criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in the failure report) and asserts the underlying residuals.  Criteria
1-8 reuse the named suites from :mod:`iwqm.verify`, whose tolerances are
pinned to the contract; criterion 9 reruns everything under the opposite
adjoint sign, which must break exactly the self-adjointness of x and p,
and pins down the unique consistent coherent-state phase.
"""

import numpy as np

from iwqm import coherent, expressions
from iwqm.algebra import BRA, KET
from iwqm.verify import (
    RunConfig,
    algebra_suite,
    coherent_suite,
    correspondence_suite,
    decay_suite,
    determine_bra_phase,
    eigenfunction_suite,
    nonlocalization_suite,
    normalization_suite,
    run_all,
    spectrum_suite,
)

CFG = RunConfig()


def _gate(number: int, description: str, suites) -> None:
    if not isinstance(suites, list):
        suites = [suites]
    failing = [(s.suite, c.name, c.residual, c.tolerance)
               for s in suites for c in s.checks if not c.passed]
    verdict = "PASS" if not failing else "FAIL"
    print(f"[{verdict}] criterion {number}: {description}")
    assert not failing, failing


def test_criterion_1_algebra_identities():
    _gate(1, "ladder commutator, adjoint identities, hyperbolic algebra, H = 2 i omega Sz",
          algebra_suite(CFG))


def test_criterion_2_spectrum():
    _gate(2, "H spectrum equals i omega (n + 1/2) with zero real part", spectrum_suite(CFG))


def test_criterion_3_eigenfunction_ladder():
    _gate(3, "generating functions annihilated; pointwise ladder identity to n = 8",
          eigenfunction_suite(CFG))


def test_criterion_4_oscillatory_normalization():
    _gate(4, "Fresnel value to 1e-13; Gram = identity to 1e-8 with moment-oracle crosscheck",
          normalization_suite(CFG))


def test_criterion_5_nonlocalization():
    _gate(5, "constant ground density 1/sqrt(pi); restricted norm 2L/sqrt(pi), linear in L",
          nonlocalization_suite(CFG))


def test_criterion_6_coherent_states():
    _gate(6, "25-label grid: normalization, eigen-residuals, variances -i/2 and +i/2, dx dp = 1/2",
          coherent_suite(CFG))


def test_criterion_7_decay_and_invariance():
    _gate(7, "growth factors e^{+-(n+1/2) omega t}; invariant mixed density; equation residual",
          decay_suite(CFG))


def test_criterion_8_correspondence():
    _gate(8, "label ODE vs sinh to 1e-8; grid <x> vs classical to 1e-4; norm drift below 1e-8; "
             "observed split-step order 4 within 0.05",
          correspondence_suite(CFG))


def test_criterion_9_convention_robustness(monkeypatch):
    # the adjoint sign is no free choice: under the opposite one x and p are
    # not self-adjoint, and every other check still holds
    with monkeypatch.context() as patch:
        patch.setattr(expressions, "ADJOINT_SIGN", -expressions.ADJOINT_SIGN)
        failing = [(s.suite, c.name) for s in run_all(CFG) for c in s.checks if not c.passed]
    assert failing == [("algebra", "adjoint_position"), ("algebra", "adjoint_momentum")]

    # exactly one bra coherent phase satisfies the eigenvalue equation and
    # the mutual normalization together; the report must name it.  The
    # rejected phase builds the parity image (-1)^n c_n of the bra state
    winner = determine_bra_phase()
    assert winner == "+i"
    ket = coherent.build_coherent(KET, 1.0 + 0.5j, 64)
    bra = coherent.build_coherent(BRA, 1.0 + 0.5j, 64)
    rejected = coherent.CoherentState(BRA, bra.alpha, (-1.0) ** np.arange(64) * bra.coeffs)
    assert abs(coherent.mutual_pairing(rejected, ket) - 1.0) > 0.1
    assert coherent.eigen_residual(rejected) > 0.1
    print(f"[PASS] criterion 9: the opposite adjoint sign fails exactly adj(x) = x and "
          f"adj(p) = p; bra coherent phase {winner!r} is the unique consistent convention")


def test_acceptance_summary_runs_fast():
    # the whole gate is desk scale; a wall-clock sanity bound keeps it honest
    import time

    start = time.time()
    suites = run_all(CFG)
    elapsed = time.time() - start
    assert all(s.passed for s in suites)
    assert elapsed < 10.0
