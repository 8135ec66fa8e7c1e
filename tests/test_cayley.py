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

    def evolved(A, n):
        U = evolution_operator(prop, n)
        return U.conj().T @ A @ U

    stepped = A.copy()
    for n in range(8):
        assert np.abs(evolved(A, n) - stepped).max() < 1e-11
        stepped = prop.factor.conj().T @ stepped @ prop.factor
    # the Hamiltonian itself is conserved
    assert np.abs(evolved(H, 13) - H).max() < 1e-11


@pytest.mark.parametrize("d, tau, n", [(2, 0.5, 0), (6, 0.1, 3), (64, 0.2, -2)])
def test_eigenbasis_differences_match_steps_of_the_solve_built_factor(d, tau, n):
    # A_{n+-1} stepped with C in the original basis, then rotated by V, against
    # the phase factors that _differences applies in H's eigenbasis
    rng = np.random.default_rng(d)
    H, A = random_hermitian(rng, d), random_hermitian(rng, d)
    prop = build_propagator(H, tau)
    U = evolution_operator(prop, n)
    A_n = U.conj().T @ A @ U
    C, half = prop.factor, prop.half_factor
    A_next, A_prev = C.conj().T @ A_n @ C, C @ A_n @ C.conj().T
    stepped = {
        "forward": (1j / tau) * (A_next - A_n),
        "backward": (1j / tau) * (A_n - A_prev),
        "forward-backward": (-1.0 / tau**2) * (A_next - 2.0 * A_n + A_prev),
        "half-step": (1j / tau) * (half.conj().T @ A_n @ half - half @ A_n @ half.conj().T),
        "central": (1j / tau) * (A_next - A_prev),
    }
    _, _, _, lhs = cayley._differences(prop, A, n)
    V = prop.eigenvectors
    for name, X in stepped.items():
        assert np.linalg.norm(V.conj().T @ X @ V - lhs[name]) <= 1e-12 * np.linalg.norm(lhs[name]), name


def test_eigendecomposition_runs_once_on_first_read(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    rng = np.random.default_rng(5)
    H, A = random_hermitian(rng, 5), random_hermitian(rng, 5)
    prop = build_propagator(H, 0.2)
    evolve_trajectory(prop, np.eye(5)[0], 10)
    assert calls == []  # stepping reads C only
    evolve_state(prop, np.eye(5)[0], 10)
    heisenberg_scheme_residuals(prop, A, 2)
    evolution_operator_residual(prop, 7)
    assert len(calls) == 1


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
    prop = build_propagator(H, 0.5)
    assert heisenberg_scheme_residuals(prop, A, 1).central < 1e-10
    _, comm, u, lhs = cayley._differences(prop, A, 1)
    central_form = 2.0 * (1.0 - 0.25 * prop.tau**2) * comm
    assert cayley._norm(lhs["central"] - central_form / u**2) > 1e-3


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
    # (all in H's eigenbasis V, where the spectral norm is the same)
    prop = build_propagator(H, tau)
    H, comm, _, lhs = cayley._differences(prop, A, n)
    V = prop.eigenvectors
    C = V.conj().T @ prop.factor @ V
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


def test_one_norm_per_gated_residual(monkeypatch):
    # one norm per residual a tolerance reads, and none of them an SVD
    calls, svds = [], []
    norm, svd = cayley._norm, np.linalg.svd
    monkeypatch.setattr(cayley, "_norm", lambda X: calls.append(1) or norm(X))
    # np.linalg.norm(X, 2) reaches the SVD through the private module's name
    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    rng = np.random.default_rng(3)
    H, A = random_involution(rng, 6), random_hermitian(rng, 6)
    involution_identities(H, A, 0.2, 1)
    assert len(calls) == 5 + 2 * 5  # the residuals, then both sides of each exponent fit
    calls.clear()
    prop = build_propagator(H, 0.2)
    heisenberg_scheme_residuals(prop, A, 1)
    assert len(calls) == 4
    calls.clear()
    evolution_operator_residual(prop, 7)
    assert len(calls) == 1
    assert svds == []


@pytest.mark.parametrize("dim", [1, 2, 6, 64])
@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e160])
def test_norm_bounds_the_spectral_norm_at_every_scale(dim, scale):
    # the plain sum of squares reads 0.0 at 1e-170 and inf at 1e160
    rng = np.random.default_rng(dim)
    Y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    frobenius = cayley._norm(scale * Y)
    assert 0.0 < frobenius < math.inf
    assert frobenius >= np.linalg.norm(scale * Y, 2)
    assert frobenius == pytest.approx(scale * np.linalg.norm(Y), rel=1e-14)


@pytest.mark.parametrize("X, expected", [
    (np.array([[1.72484972e-309j]]), 1.72484972e-309),
    (np.array([[3e-309, 4e-309j], [0.0, 0.0]]), 5e-309),
])
def test_norm_of_a_subnormal_matrix(X, expected):
    # complex division by a subnormal max |x| overflowed in its reciprocal
    assert cayley._norm(X) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("tau", [0.1, 10.0, 1e4])
def test_norm_still_rejects_the_backward_factor_on_the_forward_scheme(tau):
    # heisenberg-check --dim 4 --seed 0 at n = 3, its forward right-hand side
    # P^(-dagger) [A_n, H] P^(-1) swapped for the backward one; in H's
    # eigenbasis P^(-1) is the diagonal p below
    rng = np.random.default_rng(0)
    H, A = random_hermitian(rng, 4), random_hermitian(rng, 4)
    prop = build_propagator(H, tau)
    _, comm, _, lhs = cayley._differences(prop, A, 3)
    p = 1.0 / (1.0 + 0.5j * tau * prop.eigenvalues)
    assert cayley._norm(lhs["forward"] - p.conj()[:, None] * comm * p) < 1e-10
    mutant = lhs["forward"] - p[:, None] * comm * p.conj()
    assert cayley._norm(mutant) >= np.linalg.norm(mutant, 2) > 1e-10


def test_involution_identities_reject_non_involution():
    with pytest.raises(ValueError, match="involution"):
        involution_identities(np.diag([1.0, 2.0]), SIGMA_X, 0.1)


def test_state_shape_validation():
    prop = build_propagator(SIGMA_Z, 0.1)
    with pytest.raises(ValueError):
        evolve_state(prop, [1.0, 0.0, 0.0], 1)
    with pytest.raises(ValueError, match="observable shape"):
        heisenberg_scheme_residuals(prop, np.eye(3), 1)
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
        # the schemes and the involution identities validate the observable in one place
        for evolve in (heisenberg_scheme_residuals,
                       lambda prop, A, n: involution_identities(SIGMA_Z, A, 0.1, n)):
            with pytest.raises(ValueError, match="observable has non-finite entries"):
                evolve(prop, [[bad, 0.0], [0.0, 1.0]], 1)


@pytest.mark.parametrize("n", [10**309, -10**309, 2**1023, -2**1023],
                         ids=["10^309", "-10^309", "2^1023", "-2^1023"])
def test_oversized_step_count_is_one_value_error(n):
    # 10**309 raised an OverflowError from the float conversion, and 2**1023
    # gave a phase of inf * arctan, so C^n came back as NaN
    prop = build_propagator(SIGMA_Z, 0.1)
    calls = [lambda: evolution_operator(prop, n), lambda: heisenberg_scheme_residuals(prop, SIGMA_X, n)]
    if n > 0:
        calls.append(lambda: evolve_state(prop, [1.0, 0.0], n))
    for call in calls:
        with pytest.raises(ValueError, match="n is too large"):
            call()


@pytest.mark.parametrize("tau", [1e-8, -1e-8, 2e-8])
def test_step_below_the_resolution_of_u_gives_a_nan_exponent(tau):
    # u = 1 + tau^2/4 rounds to 1.0 here, and the fit divided by log(u) = 0
    rng = np.random.default_rng(4)
    H, A = random_involution(rng, 4), random_hermitian(rng, 4)
    assert 1.0 + 0.25 * tau * tau == 1.0
    for c in involution_identities(H, A, tau, 1):
        assert math.isnan(c.fitted_exponent)


@pytest.mark.parametrize("tau", [3e77, 1e300, 1e-300, 1e-155, 1e-161, 1e-162])
def test_step_out_of_float_range_is_one_value_error(tau):
    # 3e77 and 1e300 overflowed the float powers tau**2 and u**2, 1e-300 and
    # 1e-162 divided by tau**2 = 0, and from 1e-155 to 1e-161 1/tau^2 was inf
    # and the involution SVD did not converge
    rng = np.random.default_rng(4)
    H, A = random_involution(rng, 4), random_hermitian(rng, 4)
    for t in (tau, -tau):
        with pytest.raises(ValueError, match=r"^tau = .* is out of range"):
            heisenberg_scheme_residuals(build_propagator(H, t), A, 1)
        with pytest.raises(ValueError, match=r"^tau = .* is out of range"):
            involution_identities(H, A, t, 1)


def test_steps_at_the_edges_of_the_float_range_are_admitted():
    # u^2 is finite at 2e77 and 1/tau^2 at 1e-154
    rng = np.random.default_rng(4)
    H, A = random_involution(rng, 4), random_hermitian(rng, 4)
    for t in (2e77, -2e77, 1e-154, -1e-154):
        res = heisenberg_scheme_residuals(build_propagator(H, t), A, 1)
        assert all(math.isfinite(getattr(res, name)) for name in ("forward", "backward", "symmetric", "central"))
        identities = involution_identities(H, A, t, 1)
        assert len(identities) == 5 and all(math.isfinite(c.residual) for c in identities)
