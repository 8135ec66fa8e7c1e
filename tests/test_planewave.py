import numpy as np
import pytest

from latticeqm import (
    LatticeState,
    build_basis,
    checks,
    forward_transform,
    inverse_transform,
    momentum_apply,
    momentum_eigenvalues,
)


def test_momenta_frozen_n4():
    basis = build_basis(4, 1.0)
    assert basis.momenta[0] == 0.0
    assert basis.momenta[1] == pytest.approx(2.0, abs=1e-14)
    assert np.isinf(basis.momenta[2])
    assert basis.momenta[3] == pytest.approx(-2.0, abs=1e-14)
    assert np.allclose(basis.table[:, 0], 0.5)


def test_columns_frozen_n2():
    basis = build_basis(2, 1.0)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(basis.table[:, 0], [r, r])
    assert np.allclose(basis.table[:, 1], [r, -r])
    assert basis.singular_column == 1
    assert build_basis(3, 1.0).singular_column is None


def test_singular_column_alternates():
    for N in (2, 4, 8, 10):
        basis = build_basis(N, 0.5)
        col = basis.table[:, N // 2]
        expected = np.where(np.arange(N) % 2 == 0, 1.0, -1.0) / np.sqrt(N)
        assert np.abs(col - expected).max() < 1e-13


def test_table_equals_dft_matrix():
    _, dft = checks.basis((2, 3, 7, 16, 33, 64), (0.1, 1.0, 10.0))
    assert dft.residual < 1e-12


def test_columns_orthonormal():
    orthonormal, _ = checks.basis((2, 5, 17, 64), (3.0,))
    assert orthonormal.residual < 1e-12


def test_transform_frozen_examples():
    # point state spreads evenly; flat coefficients rebuild a point
    basis = build_basis(5, 1.0)
    point = np.zeros(5, dtype=complex)
    point[0] = 1.0
    a = forward_transform(basis, LatticeState(point, 1.0))
    assert np.abs(a - 1.0 / np.sqrt(5.0)).max() < 1e-14

    coeff = np.zeros(5, dtype=complex)
    coeff[0] = 1.0
    f = inverse_transform(basis, coeff)
    assert np.abs(f.amplitudes - 1.0 / np.sqrt(5.0)).max() < 1e-14

    basis2 = build_basis(2, 1.0)
    a2 = forward_transform(basis2, LatticeState([1.0, 1.0], 1.0))
    assert np.allclose(a2, [np.sqrt(2.0), 0.0], atol=1e-14)


def test_round_trip_and_parseval():
    rng = np.random.default_rng(21)
    for N in (2, 6, 31, 64):
        basis = build_basis(N, 0.8)
        for _ in range(10):
            f = LatticeState(rng.standard_normal(N) + 1j * rng.standard_normal(N), 0.8)
            a = forward_transform(basis, f)
            g = inverse_transform(basis, a)
            assert np.abs(g.amplitudes - f.amplitudes).max() < 1e-12
            assert np.linalg.norm(a) == pytest.approx(f.norm(), abs=1e-12)


def test_momentum_eigenvalue_frozen_m1():
    basis = build_basis(4, 1.0)
    lam = momentum_eigenvalues(basis)
    # 2 / (1 - i) = 1 + i
    assert lam[1] == pytest.approx(1.0 + 1.0j, abs=1e-14)
    assert lam[0] == 0.0
    assert lam[2] == pytest.approx(2.0j, abs=1e-14)


def test_momentum_eigenvalues_match_per_column_formula():
    # the vectorised form is bitwise the scalar formula, with 2i/eps at the pole
    for N in range(1, 40):
        for eps in (1e-3, 0.5, 1.7, 1e3):
            basis = build_basis(N, eps)
            loop = [2j / eps if 2 * m == N else k / (1.0 - 0.5j * eps * k)
                    for m, k in enumerate(basis.momenta)]
            assert momentum_eigenvalues(basis).tolist() == loop


def test_momentum_eigenrelation_all_columns():
    for N in (3, 4, 9, 16):
        basis = build_basis(N, 1.7)
        lam = momentum_eigenvalues(basis)
        for m in range(N):
            col = LatticeState(basis.table[:, m], basis.epsilon)
            out = momentum_apply(basis, col)
            assert np.abs(out.amplitudes - lam[m] * col.amplitudes).max() < 1e-10


def test_momentum_annihilates_constants():
    basis = build_basis(6, 0.5)
    f = LatticeState(np.ones(6), 0.5)
    assert np.abs(momentum_apply(basis, f).amplitudes).max() == 0.0


def test_eigenvalue_flows_to_momentum_in_continuum():
    # at fixed mode number the eigenvalue approaches k as eps*k shrinks
    deviations = []
    for N in (8, 32, 128, 512):
        basis = build_basis(N, 1.0 / N)
        lam = momentum_eigenvalues(basis)
        k = basis.momenta[1]
        deviations.append(abs(lam[1] - k) / abs(k))
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 1e-2


def test_input_validation():
    with pytest.raises(ValueError):
        build_basis(0, 1.0)
    with pytest.raises(ValueError):
        build_basis(4, -1.0)
    # a fractional order was truncated: build_basis(3.9, 1.0).n_sites read 3
    with pytest.raises(ValueError, match="N must be an integer"):
        build_basis(3.9, 1.0)
    assert build_basis(np.int64(4), 1.0).n_sites == 4
    # eps = inf gave momenta [nan, inf, inf, -inf], eps = 1e-310 overflowed
    # 2/eps and gave [0, 0, inf, -0]; at eps = 1.2e-308, 2/eps is finite but
    # the momenta next to the pole of the tangent are not
    for N, eps in ((4, float("inf")), (4, 1e-310), (4, float("nan")), (8, 1.2e-308)):
        with pytest.raises(ValueError, match="epsilon"):
            build_basis(N, eps)
    assert np.isfinite(build_basis(4, 1e-300).momenta[:2]).all()
    basis = build_basis(4, 1.0)
    with pytest.raises(ValueError):
        forward_transform(basis, LatticeState([1.0, 2.0], 1.0))
    with pytest.raises(ValueError):
        forward_transform(basis, LatticeState([1.0, 2.0, 3.0, 4.0], 2.0))
    with pytest.raises(ValueError):
        inverse_transform(basis, np.ones(3))
