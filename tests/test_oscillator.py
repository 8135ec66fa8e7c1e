import math

import numpy as np
import pytest

from latticeqm import (
    annihilation_matrix,
    build_oscillator,
    checks,
    commutator_spectrum,
    continuum_convergence,
    energy_spectrum,
    eval_psi,
    hamiltonian_matrix,
    limit_recurrence_check,
    position_matrix,
    position_spectrum,
    s_grid,
)


def test_frozen_two_site_coefficients():
    model = build_oscillator(2)
    assert model.lower_coeff[0] == 0.0
    assert model.lower_coeff[1] == pytest.approx(1.0)
    assert model.raise_coeff[0] == pytest.approx(1.0)
    assert model.j == pytest.approx(1.0)


def test_ladder_matrices_annihilate_the_ends():
    model = build_oscillator(7)
    A = annihilation_matrix(model)
    e0 = np.eye(8)[0]
    eN = np.eye(8)[7]
    assert np.abs(A @ e0).max() == 0.0
    assert np.abs(A.T @ eN).max() == 0.0


def test_commutator_spectrum_formula_and_trace():
    commutator, _, trace = checks.ladder_spectra((2, 5, 50, 200))
    assert commutator.residual < 1e-12
    assert trace.residual < 1e-12
    for N in (2, 5, 50, 200):
        # matrix route agrees
        model = build_oscillator(N)
        A = annihilation_matrix(model)
        comm = A @ A.T - A.T @ A
        spec = commutator_spectrum(model)
        assert np.abs(np.diag(comm) - spec).max() < 1e-12
        assert abs(spec.sum()) < 1e-12
    assert np.abs(commutator_spectrum(build_oscillator(2)) - [1.0, 0.0, -1.0]).max() < 1e-14


def test_energy_spectrum_formula():
    _, energies, _ = checks.ladder_spectra((2, 5, 50, 200))
    assert energies.residual < 1e-10
    assert np.abs(energy_spectrum(build_oscillator(2)) - [1.0, 2.0, 1.0]).max() < 1e-14


def test_hamiltonian_matrix_is_diagonal_with_spectrum():
    # the spectrum is quoted in half-quantum units, the matrix in whole quanta
    model = build_oscillator(12)
    H = hamiltonian_matrix(model)
    off = H - np.diag(np.diag(H))
    assert np.abs(off).max() < 1e-12
    assert np.abs(np.diag(H) - 0.5 * energy_spectrum(model)).max() < 1e-12
    # the energy scale knob is gone: a stray keyword is an error, not a NaN matrix
    with pytest.raises(TypeError):
        build_oscillator(12, energy_scale=3.0)


def test_position_spectrum_is_uniform_grid():
    grid, _ = checks.position((2, 20, 60))
    assert grid.residual < 1e-9
    two = position_spectrum(build_oscillator(2))
    assert np.abs(np.sort(two.eigenvalues) - [-1.0, 0.0, 1.0]).max() < 1e-12


def test_rotation_columns_diagonalize_position():
    _, eigenvectors = checks.position((6, 24, 60))
    assert eigenvectors.residual < 1e-9


def test_position_matrix_is_p_independent():
    Xa = position_matrix(build_oscillator(16, p=0.5))
    Xb = position_matrix(build_oscillator(16, p=0.2))
    assert np.abs(Xa - Xb).max() == 0.0


def test_dimensionless_grid_spacing():
    s, ds = s_grid(50, 0.5)
    assert ds == pytest.approx(math.sqrt(2.0 / 50.0), rel=1e-12)
    assert np.abs(np.diff(s) - ds).max() < 1e-12
    assert s[0] == pytest.approx(-25 * ds)
    s3, ds3 = s_grid(40, 0.3)
    assert ds3 == pytest.approx(1.0 / math.sqrt(2 * 40 * 0.3 * 0.7), rel=1e-12)


def test_continuum_convergence_orders():
    # scaled-down sweep; the acceptance run uses the full ladder
    table = continuum_convergence(2, [16, 32, 64, 128])
    for n in (0, 1, 2):
        errs = table.max_errors[:, n]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert table.fitted_orders[n] > 0.9


@pytest.mark.parametrize("p", [0.5, 0.2])
def test_continuum_columns_do_not_depend_on_n_max(p):
    sizes = [8, 16, 32]
    low, high = continuum_convergence(1, sizes, p), continuum_convergence(4, sizes, p)
    assert np.array_equal(low.sizes, high.sizes)
    for name in ("max_errors", "lower_errors", "raise_errors"):
        assert np.array_equal(getattr(low, name), getattr(high, name)[:, :2])
    assert np.array_equal(low.fitted_orders, high.fitted_orders[:2])


def test_continuum_builds_one_kravchuk_table_per_size(monkeypatch):
    from latticeqm import oscillator

    built = []
    build = oscillator.build_kravchuk
    monkeypatch.setattr(oscillator, "build_kravchuk",
                        lambda N, p, n_max: built.append((N, n_max)) or build(N, p, n_max=n_max))
    # verify-all's sweep: levels 0..2 and ladder level 1 share rows 0..3
    checks.continuum((0, 1, 2), (1,), (16, 32, 64))
    assert built == [(16, 3), (32, 3), (64, 3)]


def test_ground_level_shape():
    from latticeqm.oscillator import _aligned_level_rows

    s, g, psi = _aligned_level_rows(64, 0.5, 1)
    assert np.all(g[0] > 0.0)  # nodeless after sign alignment
    # level one crosses zero once; skip the exact zero at the center site
    row = g[1][np.abs(g[1]) > 1e-12]
    flips = np.count_nonzero(np.diff(np.sign(row)) != 0)
    assert flips == 1


def test_ladder_limit_errors_decrease():
    # the worst ratio of successive raise and lower errors stays below 1
    _, _, monotone = checks.continuum((1, 2), (1, 2), (16, 32, 64, 128))
    assert monotone.residual < 1.0
    zero = continuum_convergence(0, [8, 16])
    assert all(e == 0.0 for e in zero.lower_errors[:, 0])
    # the unit end coefficients raise_coeff[0] = lower_coeff[1] = 1 make two
    # ladder columns copies of profile columns, at every p
    for p in (0.5, 0.2, 0.35, 0.8):
        table = continuum_convergence(1, [16, 32, 64], p)
        assert np.array_equal(table.raise_errors[:, 0], table.max_errors[:, 1])
        assert np.array_equal(table.lower_errors[:, 1], table.max_errors[:, 0])


def test_limit_recurrences_are_exact_rearrangements():
    for N, p in ((12, 0.5), (200, 0.5), (200, 0.3)):
        model = build_oscillator(N, p=p)
        for n in (0, 1, 3):
            res = limit_recurrence_check(model, n)
            assert res.three_term < 1e-9
            assert res.shift < 1e-9


@pytest.mark.parametrize("N, p, n", [(50, 0.5, 3), (200, 0.3, 2), (256, 0.2, 128), (7, 0.9, 6)])
def test_limit_recurrence_checkerboard_is_bit_identical_to_the_power_form(N, p, n):
    from latticeqm.kravchuk import _relations, build_kravchuk, orthonormal_functions

    phi = orthonormal_functions(build_kravchuk(N, p, n_max=n + 1))
    rows = (-1.0) ** np.add.outer(np.arange(n + 2), np.arange(N + 1)) * phi
    three_term, shift = _relations(rows, N, p, 1.0 - p, math.sqrt(p * (1.0 - p)))
    scale = math.sqrt(2.0 / N)
    expected = np.array([scale * float(three_term[n]), scale * float(shift[n])])
    res = limit_recurrence_check(build_oscillator(N, p=p), n)
    got = np.array([res.three_term, res.shift])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_difference_identity_approaches_derivative():
    # the weighted shift combination tends to 2 psi' as N grows
    from latticeqm.oscillator import _aligned_level_rows

    n = 2
    errors = []
    for N in (32, 128, 512):
        s, g, psi = _aligned_level_rows(N, 0.5, n + 1)
        x = np.arange(N + 1)
        up = np.zeros(N + 1)
        dn = np.zeros(N + 1)
        up[:-1] = np.sqrt((1 - x[:-1] / N) * (x[:-1] + 1) / (N / 2)) * g[n][1:]
        dn[1:] = np.sqrt((x[1:] / (N / 2)) * (1 - (x[1:] - 1) / N)) * g[n][:-1]
        lhs = math.sqrt(2 * N * 0.5) * (up - dn)
        window = np.abs(s) < 2.0
        # compare against the continuum image of the same rearranged recurrence
        rhs = (
            math.sqrt(2 * n) * eval_psi(n - 1, s)
            - math.sqrt(2 * (n + 1)) * eval_psi(n + 1, s)
        )
        errors.append(np.abs(lhs - rhs)[window].max())
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("size", [10**309, -10**309, 2**63], ids=["10^309", "-10^309", "2^63"])
def test_oversized_size_is_one_value_error(size):
    # 10**309 raised an OverflowError from the int64 conversion of the sizes
    with pytest.raises(ValueError, match="each size must fit a 64-bit integer"):
        continuum_convergence(1, [16, size])


def test_validation():
    with pytest.raises(ValueError):
        build_oscillator(0)
    with pytest.raises(ValueError):
        build_oscillator(10, p=0.0)
    # a fractional order was truncated: build_oscillator(3.9).N read 3
    with pytest.raises(ValueError, match="N must be an integer"):
        build_oscillator(3.9)
    assert build_oscillator(np.int64(4)).N == 4
    # these raised ZeroDivisionError, ZeroDivisionError and "math domain error"
    with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
        s_grid(4, 0.0)
    with pytest.raises(ValueError, match="N must be a positive integer"):
        s_grid(0, 0.5)
    with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
        s_grid(4, 2.0)
    model = build_oscillator(6)
    with pytest.raises(ValueError):
        limit_recurrence_check(model, 6)
    with pytest.raises(ValueError):
        continuum_convergence(0, [16])
    # every size must exceed n_max, so the ladder's row n_max + 1 exists
    with pytest.raises(ValueError, match="exceed n_max = 3"):
        continuum_convergence(3, [3, 8])
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        continuum_convergence(-1, [8, 16])
    # a repeated size fitted a degenerate order, an empty list raised an
    # IndexError and the ladder check took a single size
    for sizes in ([], [32], [16, 16]):
        with pytest.raises(ValueError, match="two distinct sizes"):
            continuum_convergence(1, sizes)
