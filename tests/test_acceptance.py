"""End-to-end acceptance: every numbered criterion at its stated tolerance."""
import pytest

from rrshift.parallel import parallel_map
from rrshift.verify import FULL_IDS, run_criterion


@pytest.fixture(scope="module")
def results():
    """Run all nine criteria once, in parallel, at full resolution."""
    out = parallel_map(lambda cid: run_criterion(cid, full=True), FULL_IDS)
    return dict(zip(FULL_IDS, out))


def _check(results, cid):
    res = results[cid]
    print(res.line())
    assert res.passed, res.line()


def test_criterion_1_route_agreement(results):
    """All four shift routes agree pairwise on the collinear, oblique, spatial
    and weak scenarios."""
    _check(results, 1)


def test_criterion_2_closed_angular_forms(results):
    """Closed-form angular integrals match explicit sphere quadrature."""
    _check(results, 2)


def test_criterion_3_symplectic_identities(results):
    """Symplectic products of Jacobi fields are constant and swap-symmetric."""
    _check(results, 3)


def test_criterion_4_kick_response_vs_finite_differences(results):
    """Jacobi kick response matches finite differences of rebuilt paths."""
    _check(results, 4)


def test_criterion_5_self_force_consistency(results):
    """Coordinate self-force matches the four-force and its rest limit."""
    _check(results, 5)


def test_criterion_6_radiated_energy_balance(results):
    """Radiated energy agrees with the relativistic Larmor integral."""
    _check(results, 6)


def test_criterion_7_hbar_convergence(results):
    """Finite-hbar emission amplitudes converge to the classical amplitudes
    at first order as hbar shrinks."""
    _check(results, 7)


def test_criterion_8_cutoff_robustness(results):
    """Amplitude-route shift is insensitive to doubling the cutoff taper."""
    _check(results, 8)


def test_criterion_9_emission_probability(results):
    """Reduced emission probability satisfies the Parseval identity."""
    _check(results, 9)
