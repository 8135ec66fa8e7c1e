import math

import numpy as np
import pytest

from latticeqm import (
    build_propagator,
    cayley,
    check_hermitian,
    checks,
    evolution_operator,
    evolution_operator_residual,
    evolve_state,
    evolve_trajectory,
    heisenberg_evolve,
    heisenberg_scheme_residuals,
    involution_identities,
)
from latticeqm.checks import SIGMA_X, SIGMA_Z, random_hermitian, random_involution


def test_frozen_two_level_example():
    prop = build_propagator(np.diag([1.0, -1.0]), 2.0)
    assert np.abs(prop.factor - np.diag([-1.0j, 1.0j])).max() < 1e-14
    psi = evolve_state(prop, [1.0, 0.0], 1)
    assert np.abs(psi - np.array([-1.0j, 0.0])).max() < 1e-14


def test_zero_hamiltonian_gives_identity():
    prop = build_propagator(np.zeros((3, 3)), 0.7)
    assert np.array_equal(prop.factor, np.eye(3))
    psi = evolve_state(prop, [1.0, 2.0, 3.0], 5)
    assert np.allclose(psi, [1.0, 2.0, 3.0])


def test_rejects_degenerate_step_and_non_finite_hamiltonian():
    for H, tau in (
        (SIGMA_Z, 0.0),
        (SIGMA_Z, math.nan),
        (SIGMA_Z, math.inf),
        (np.diag([math.nan, 1.0]), 0.1),
        (np.diag([math.inf, 1.0]), 0.1),
    ):
        with pytest.raises(ValueError):
            build_propagator(H, tau)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        build_propagator([[0.0, 1.0], [0.0, 0.0]], 0.1)
    with pytest.raises(ValueError):
        check_hermitian([[0.0, 1.0, 2.0]])
    # the tolerance is fixed: a tol of nan accepted any matrix as Hermitian
    with pytest.raises(TypeError):
        check_hermitian([[0.0, 1.0], [2.0, 0.0]], tol=math.nan)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian([[0.0, 1.0], [2.0, 0.0]])


def test_rejects_an_empty_hamiltonian_by_its_shape():
    # a 0 x 0 matrix failed on numpy's "zero-size array to reduction operation"
    for call in (check_hermitian, lambda H: build_propagator(H, 0.1),
                 lambda H: involution_identities(H, H, 0.1)):
        with pytest.raises(ValueError, match=r"^Hamiltonian must be a non-empty square matrix, got shape \(0, 0\)$"):
            call(np.zeros((0, 0)))


def test_step_is_unitary_long_run():
    rng = np.random.default_rng(31)
    H = random_hermitian(rng, 7)
    prop = build_propagator(H, 0.3)
    psi0 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    psi0 /= np.linalg.norm(psi0)
    traj = evolve_trajectory(prop, psi0, 1000)
    for psi in traj[1:]:
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
    # the spectral power agrees with the stepped solve-built factor
    assert np.abs(evolve_state(prop, psi0, 1000) - traj[-1]).max() < 1e-11


def test_group_law():
    # spectral C^n against |n| products of the solve-built step, inverted for n < 0
    rng = np.random.default_rng(32)
    prop = build_propagator(random_hermitian(rng, 5), 0.2)
    for n in (-17, 0, 1, 7, 17):
        stepped = np.eye(5, dtype=complex)
        for _ in range(abs(n)):
            stepped = prop.factor @ stepped
        if n < 0:
            stepped = stepped.conj().T
        assert np.abs(evolution_operator(prop, n) - stepped).max() < 1e-11


def test_half_step_squares_to_full_step():
    rng = np.random.default_rng(33)
    for d, tau in ((2, 2.0), (5, 0.1), (8, 1.5)):
        prop = build_propagator(random_hermitian(rng, d), tau)
        assert np.abs(prop.half_factor @ prop.half_factor - prop.factor).max() < 1e-12
        # half step is itself unitary
        hh = prop.half_factor.conj().T @ prop.half_factor
        assert np.abs(hh - np.eye(d)).max() < 1e-12


def test_eigenphases_stay_in_principal_range():
    rng = np.random.default_rng(34)
    prop = build_propagator(random_hermitian(rng, 6) * 50.0, 1.0)
    phases = np.angle(np.linalg.eigvals(prop.factor))
    assert np.all(np.abs(phases) < np.pi)


def test_difference_equation_residuals():
    rng = np.random.default_rng(35)
    H = random_hermitian(rng, 6)
    prop = build_propagator(H, 0.25)
    for n in (0, 1, 5, 20):
        assert evolution_operator_residual(prop, n) < 1e-10
    # the stepped trajectory ends where the spectral power lands
    traj = evolve_trajectory(prop, np.eye(6)[0], 10)
    assert np.abs(traj[-1] - evolve_state(prop, np.eye(6)[0], 10)).max() < 1e-12


def test_second_order_continuum_convergence():
    # C^n at n tau = 1 for tau = 0.1, 0.05, 0.025; each halving quarters the error
    rng = np.random.default_rng(36)
    (order,) = checks.propagator_order(random_hermitian(rng, 5), (0.1, 0.05, 0.025))
    assert order.residual < 0.5  # every ratio within 3.5..4.5


def test_heisenberg_evolution_matches_stepwise_conjugation():
    rng = np.random.default_rng(37)
    H = random_hermitian(rng, 6)
    A = random_hermitian(rng, 6)
    prop = build_propagator(H, 0.15)
    stepped = A.copy()
    for n in range(8):
        assert np.abs(heisenberg_evolve(prop, A, n) - stepped).max() < 1e-11
        stepped = prop.factor.conj().T @ stepped @ prop.factor
    # the Hamiltonian itself is conserved
    assert np.abs(heisenberg_evolve(prop, H, 13) - H).max() < 1e-11


def test_scheme_residuals_vanish_for_exact_identities():
    rng = np.random.default_rng(38)
    for d, tau, n in ((2, 0.5, 0), (6, 0.1, 3), (8, 1.0, 7)):
        H = random_hermitian(rng, d)
        for row in checks.heisenberg(rng, H, tau, n, ("forward", "backward", "symmetric", "central")):
            assert row.residual < 1e-10, row


def test_commuting_observable_is_static():
    rng = np.random.default_rng(39)
    H = random_hermitian(rng, 4)
    prop = build_propagator(H, 0.4)
    res = heisenberg_scheme_residuals(prop, H @ H, 2)
    assert res.forward < 1e-12
    assert res.symmetric < 1e-12
    assert res.central < 1e-12


def test_scalar_central_form_fails_for_generic_hamiltonian():
    # the scalar-factor central formula is exact only for involutions;
    # on a generic Hamiltonian it must NOT look satisfied
    rng = np.random.default_rng(40)
    H = random_hermitian(rng, 5)
    A = random_hermitian(rng, 5)
    res = heisenberg_scheme_residuals(build_propagator(H, 0.5), A, 1)
    assert res.central < 1e-10
    assert res.central_involution_form > 1e-3


def test_involution_identities_pass_with_expected_exponents():
    rng = np.random.default_rng(41)
    pairs = [
        (SIGMA_Z, SIGMA_X, "z x"),
        (SIGMA_X, SIGMA_Z, "x z"),
        (random_involution(rng, 4), random_hermitian(rng, 4), "random"),
    ]
    expected = {
        "involution-forward": 1.0,
        "involution-backward": 1.0,
        "involution-forward-backward": 2.0,
        "involution-half-step": 1.0,
        "involution-central": 2.0,
    }
    rows = checks.involution(pairs, (0.2, 0.05), 2)
    assert [row.check for row in rows] == list(expected) * 6
    for row in rows:
        assert row.residual < 1e-10, row
        assert row.fitted_exponent == pytest.approx(expected[row.check], abs=1e-6)


def test_involution_identities_with_commuting_observable():
    # zero commutator: both sides vanish, the exponent fit is undefined
    for c in involution_identities(SIGMA_Z, SIGMA_Z, 0.3):
        assert c.residual < 1e-14
        assert math.isnan(c.fitted_exponent)


def _spectral_exponents(H, A, tau, n):
    # the exponent e with u**e * ||lhs|| = ||base|| in spectral norm, for the
    # five identities in the order involution_identities reports them
    prop = build_propagator(H, tau)
    comm, _, _, lhs = cayley._differences(prop, A, n)
    C = prop.factor
    cases = [
        (lhs["forward"], comm @ C),
        (lhs["backward"], comm @ C.conj().T),
        (lhs["forward-backward"], comm @ H - H @ comm),
        (lhs["half-step"], comm),
        (lhs["central"], 2.0 * (1.0 - 0.25 * tau * tau) * comm),
    ]
    log_u = math.log(1.0 + 0.25 * tau * tau)
    return [math.log(np.linalg.norm(base, 2) / np.linalg.norm(lhs, 2)) / log_u for lhs, base in cases]


@pytest.mark.parametrize("dim", [2, 4, 64])
@pytest.mark.parametrize("tau", [0.05, 0.2])
@pytest.mark.parametrize("n", [0, 3])
def test_fitted_exponent_matches_spectral_norm_fit(dim, tau, n):
    # any unitarily invariant norm gives the same power when lhs = base / u**e
    rng = np.random.default_rng(dim)
    H, A = random_involution(rng, dim), random_hermitian(rng, dim)
    fitted = [c.fitted_exponent for c in involution_identities(H, A, tau, n)]
    assert fitted == pytest.approx(_spectral_exponents(H, A, tau, n), abs=1e-9)


def test_one_spectral_norm_per_gated_residual(monkeypatch):
    # an SVD runs only where a tolerance reads its result
    calls = []
    norm = cayley._norm
    monkeypatch.setattr(cayley, "_norm", lambda X: calls.append(1) or norm(X))
    rng = np.random.default_rng(3)
    H, A = random_involution(rng, 6), random_hermitian(rng, 6)
    involution_identities(H, A, 0.2, 1)
    assert len(calls) == 5
    calls.clear()
    heisenberg_scheme_residuals(build_propagator(H, 0.2), A, 1)
    assert len(calls) == 5


def test_involution_identities_reject_non_involution():
    with pytest.raises(ValueError, match="involution"):
        involution_identities(np.diag([1.0, 2.0]), SIGMA_X, 0.1)


def test_state_shape_validation():
    prop = build_propagator(SIGMA_Z, 0.1)
    with pytest.raises(ValueError):
        evolve_state(prop, [1.0, 0.0, 0.0], 1)
    with pytest.raises(ValueError):
        heisenberg_evolve(prop, np.eye(3), 1)
    with pytest.raises(ValueError):
        evolve_trajectory(prop, [1.0, 0.0, 0.0], 1)
    for evolve in (evolve_state, evolve_trajectory):
        with pytest.raises(ValueError):
            evolve(prop, [1.0, 0.0], -1)
        # a matrix in place of a state is refused, never broadcast
        with pytest.raises(ValueError, match="state shape"):
            evolve(prop, np.eye(2), 1)
        # a fractional step count is refused, not truncated to 2 steps
        with pytest.raises(ValueError, match="n must be an integer"):
            evolve(prop, [1.0, 0.0], 2.5)
    with pytest.raises(ValueError, match="n must be an integer"):
        evolution_operator(prop, 2.5)
    assert evolve_state(prop, [1.0, 0.0], np.int64(2)).shape == (2,)
    for bad in (math.nan, math.inf):
        for evolve in (evolve_state, evolve_trajectory):
            with pytest.raises(ValueError, match="state has non-finite entries"):
                evolve(prop, [bad, 0.0], 1)
        # the schemes and the involution identities evolve through heisenberg_evolve
        for evolve in (heisenberg_evolve, heisenberg_scheme_residuals,
                       lambda prop, A, n: involution_identities(SIGMA_Z, A, 0.1, n)):
            with pytest.raises(ValueError, match="observable has non-finite entries"):
                evolve(prop, [[bad, 0.0], [0.0, 1.0]], 1)


@pytest.mark.parametrize("n", [10**309, -10**309, 2**1023, -2**1023],
                         ids=["10^309", "-10^309", "2^1023", "-2^1023"])
def test_oversized_step_count_is_one_value_error(n):
    # 10**309 raised an OverflowError from the float conversion, and 2**1023
    # gave a phase of inf * arctan, so C^n came back as NaN
    prop = build_propagator(SIGMA_Z, 0.1)
    calls = [lambda: evolution_operator(prop, n), lambda: heisenberg_evolve(prop, SIGMA_X, n)]
    if n > 0:
        calls.append(lambda: evolve_state(prop, [1.0, 0.0], n))
    for call in calls:
        with pytest.raises(ValueError, match="n is too large"):
            call()
