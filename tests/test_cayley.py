import math

import numpy as np
import pytest

from latticeqm import (
    build_propagator,
    check_hermitian,
    evolution_operator,
    evolution_operator_residual,
    evolve_state,
    evolve_trajectory,
    heisenberg_evolve,
    heisenberg_scheme_residuals,
    involution_identities,
    state_residual,
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


def test_step_is_unitary_long_run():
    rng = np.random.default_rng(31)
    H = random_hermitian(rng, 7)
    prop = build_propagator(H, 0.3)
    psi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    psi /= np.linalg.norm(psi)
    for _ in range(1000):
        psi = prop.factor @ psi
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_group_law():
    rng = np.random.default_rng(32)
    prop = build_propagator(random_hermitian(rng, 5), 0.2)
    for n, m in ((1, 1), (3, 4), (10, 17), (0, 6)):
        lhs = evolution_operator(prop, n) @ evolution_operator(prop, m)
        rhs = evolution_operator(prop, n + m)
        assert np.abs(lhs - rhs).max() < 1e-11


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
    traj = evolve_trajectory(prop, np.eye(6)[0], 10)
    for i in range(10):
        assert state_residual(prop, traj[i], traj[i + 1]) < 1e-12


def test_second_order_continuum_convergence():
    rng = np.random.default_rng(36)
    H = random_hermitian(rng, 5)
    lam, V = np.linalg.eigh(H)
    exact = (V * np.exp(-1j * lam)) @ V.conj().T
    err = []
    for tau, n in ((0.1, 10), (0.05, 20), (0.025, 40)):
        U = evolution_operator(build_propagator(H, tau), n)
        err.append(np.abs(U - exact).max())
    for a, b in zip(err, err[1:]):
        assert 3.5 < a / b < 4.5


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
        A = random_hermitian(rng, d)
        res = heisenberg_scheme_residuals(build_propagator(H, tau), A, n)
        assert res.forward < 1e-10
        assert res.backward < 1e-10
        assert res.symmetric < 1e-10
        assert res.central < 1e-10


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
    cases = [
        (SIGMA_Z, SIGMA_X),
        (SIGMA_X, SIGMA_Z),
        (random_involution(rng, 4), random_hermitian(rng, 4)),
    ]
    expected = {
        "forward": 1.0,
        "backward": 1.0,
        "forward-backward": 2.0,
        "half-step": 1.0,
        "central": 2.0,
    }
    for H, A in cases:
        for tau in (0.2, 0.05):
            checks = involution_identities(H, A, tau, n=2)
            assert [c.name for c in checks] == list(expected)
            for c in checks:
                assert c.passed and c.residual < 1e-10
                assert c.fitted_exponent == pytest.approx(expected[c.name], abs=1e-6)


def test_involution_identities_with_commuting_observable():
    # zero commutator: both sides vanish, the exponent fit is undefined
    checks = involution_identities(SIGMA_Z, SIGMA_Z, 0.3)
    for c in checks:
        assert c.passed and c.residual < 1e-14
        assert math.isnan(c.fitted_exponent)


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
