import math

import numpy as np
import pytest

from latticeqm import (
    WignerDMatrix,
    binomial_weights,
    build_kravchuk,
    build_wigner_d,
    checks,
    cli,
    orthonormal_functions,
    recurrence_residuals,
    wigner_d_direct,
)
from latticeqm.kravchuk import _chiral, _derivative


def test_weights_sum_to_one_and_stay_positive():
    for N, p in ((1, 0.5), (10, 0.3), (64, 0.07), (200, 0.5)):
        w = binomial_weights(N, p)
        assert w.shape == (N + 1,)
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_weights_frozen_small_case():
    w = binomial_weights(2, 0.5)
    assert np.abs(w - [0.25, 0.5, 0.25]).max() < 1e-15


def test_weight_validation():
    with pytest.raises(ValueError):
        binomial_weights(0, 0.5)
    with pytest.raises(ValueError):
        binomial_weights(5, 0.0)
    with pytest.raises(ValueError):
        binomial_weights(5, 1.0)
    # a fractional order was truncated: build_kravchuk(3.9, 0.5).N read 3
    for build in (binomial_weights, build_kravchuk):
        with pytest.raises(ValueError, match="N must be an integer"):
            build(3.9, 0.5)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        build_kravchuk(5, 0.5, n_max=2.5)
    assert build_kravchuk(np.int64(5), 0.5, n_max=np.int32(2)).values.shape == (3, 6)


def test_frozen_single_site_family():
    fam = build_kravchuk(1, 0.5)
    assert np.abs(fam.values[0] - [1.0, 1.0]).max() < 1e-15
    assert np.abs(fam.values[1] - [-0.5, 0.5]).max() < 1e-15
    assert abs(fam.norms[0] - 1.0) < 1e-15
    assert abs(fam.norms[1] - 0.5) < 1e-15


def test_norms_match_closed_form():
    for N, p in ((6, 0.5), (20, 0.3), (40, 0.5)):
        fam = build_kravchuk(N, p)
        q = 1.0 - p
        for n in range(N + 1):
            closed = math.sqrt(math.comb(N, n) * (p * q) ** n)
            assert fam.norms[n] == pytest.approx(closed, rel=1e-12)


def test_orthonormality_in_stable_regime():
    fam = build_kravchuk(20, 0.3)
    phi = orthonormal_functions(fam)
    gram = phi @ phi.T
    assert np.abs(gram - np.eye(21)).max() < 1e-10


def test_truncated_family():
    fam = build_kravchuk(30, 0.5, n_max=4)
    assert fam.values.shape == (5, 31)
    full = build_kravchuk(30, 0.5)
    assert np.abs(fam.values - full.values[:5]).max() == 0.0


def test_wigner_single_site_rotation():
    # N=1 table is the half-angle rotation acting on two sites
    D = build_wigner_d(1, 0.4)
    ch, sh = math.cos(0.2), math.sin(0.2)
    assert np.abs(D.table - np.array([[ch, -sh], [sh, ch]])).max() < 1e-14


def test_wigner_corner_is_positive_cosine_power():
    for N, beta in ((3, 0.9), (12, 2.0), (25, 0.3)):
        D = build_wigner_d(N, beta)
        assert D.table[0, 0] == pytest.approx(math.cos(beta / 2) ** N, rel=1e-10)
        assert D.table[0, 0] > 0.0


def test_exact_entry_matches_half_angle_formulas():
    for beta in (0.3, 1.2, 2.8):
        assert wigner_d_direct(2, beta)[1, 1] == pytest.approx(math.cos(beta), abs=1e-13)
        assert wigner_d_direct(1, beta)[0, 1] == pytest.approx(-math.sin(beta / 2), abs=1e-14)
        assert wigner_d_direct(1, beta)[1, 0] == pytest.approx(math.sin(beta / 2), abs=1e-14)


def test_table_matches_exact_summation():
    (oracle,) = checks.wigner((1, 2, 5, 10, 24), (0.3, math.pi / 2, 2.5), ("oracle",))
    assert oracle.residual < 1e-10
    # next to pi the weight piles onto the far corner
    (oracle,) = checks.wigner((32,), (math.pi - 1e-6,), ("oracle",))
    assert oracle.residual < 1e-10


def test_smallest_orders_of_both_parities_match_exact_summation():
    # odd N has a square even-odd block; even N adds the zero mode
    (oracle,) = checks.wigner((1, 2, 3, 4), (1e-6, 0.7, 2.9, math.pi - 1e-6), ("oracle",))
    assert oracle.residual < 1e-13


def test_one_decomposition_per_order(capsys):
    _chiral.cache_clear()
    assert cli.main(["wigner", "--N", "12", "--beta", "0.7", "--check", "all"]) == 0
    capsys.readouterr()
    assert _chiral.cache_info().misses == 1
    _chiral.cache_clear()
    checks.wigner((12,), (0.3, 0.7, 2.9), tuple(checks.WIGNER))
    assert _chiral.cache_info().misses == 1


def test_cached_factors_are_read_only():
    for factor in _chiral(5):
        with pytest.raises(ValueError):
            factor[0] = 1.0


def test_table_matches_weighted_recurrence_in_stable_regime():
    # moderate sizes where the literal recurrence is still trustworthy
    for N, beta in ((8, math.pi / 2), (16, 2.0)):
        p = math.sin(beta / 2) ** 2
        fam = build_kravchuk(N, p)
        phi = orthonormal_functions(fam)
        parity = np.array([(-1.0) ** i for i in range(N + 1)])
        literal = parity[:, None] * phi * parity[None, :]
        D = build_wigner_d(N, beta)
        assert np.abs(D.table - literal).max() < 1e-10


def test_symmetry_and_orthogonality():
    for N, beta in ((5, 0.9), (20, 1.7), (40, 0.3), (8, math.pi - 1e-8), (33, 2.9)):
        D = build_wigner_d(N, beta)
        signs = np.array([(-1.0) ** i for i in range(N + 1)])
        # transpose picks up the parity of both indices
        checker = signs[:, None] * signs[None, :]
        assert np.abs(D.table.T - checker * D.table).max() < 1e-11
        # reflecting the angle reverses the row index, column parity fixes signs
        flipped = build_wigner_d(N, math.pi - beta)
        assert np.abs(D.table - signs[None, :] * flipped.table[::-1, :]).max() < 1e-11
        gram = D.table @ D.table.T
        assert np.abs(gram - np.eye(N + 1)).max() < 1e-12


def test_orthogonality_where_naive_recurrence_fails():
    # N=40 and N=800 at a small angle: the literal recurrence loses all
    # accuracy here, the spectral construction must not
    D = build_wigner_d(40, 0.3)
    gram = D.table @ D.table.T
    assert np.abs(gram - np.eye(41)).max() < 1e-12
    assert np.abs(D.table - wigner_d_direct(40, 0.3)).max() < 1e-10
    D = build_wigner_d(800, 0.3)
    gram = D.table @ D.table.T
    assert np.abs(gram - np.eye(801)).max() < 1e-13


def test_recurrence_residuals():
    for N, beta, bound in ((1, 1.1, 1e-12), (30, 0.7, 1e-10)):
        for row in checks.wigner((N,), (beta,), ("recurrence",)):
            assert row.residual < bound, row


def test_recurrence_residuals_mirror_under_angle_reflection():
    # beta -> pi - beta swaps p and q; the exact table scores alike at both
    # ends only when q is not taken as 1 - p next to pi
    def oracle_three_term(beta):
        return recurrence_residuals(WignerDMatrix(16, beta, wigner_d_direct(16, beta))).three_term

    near_zero = oracle_three_term(1e-6)
    assert oracle_three_term(math.pi - 1e-6) <= 10.0 * near_zero


def _central_difference(N, beta, h):
    return (build_wigner_d(N, beta + h).table - build_wigner_d(N, beta - h).table) / (2.0 * h)


def test_differential_relation():
    for N, beta in ((1, 0.8), (10, 1.3), (20, 0.7)):
        for row in checks.wigner((N,), (beta,), ("differential",)):
            assert row.residual < 1e-12, row
    # the spectral derivative is the beta-derivative of the built table:
    # a central difference of build_wigner_d meets it up to its O(h^2) floor
    gap = np.abs(_derivative(20, 0.7) - _central_difference(20, 0.7, 1e-5)).max()
    assert gap < 1e-7
    # and that floor is quadratic in the step
    exact = _derivative(10, 1.3)
    r1 = np.abs(_central_difference(10, 1.3, 2e-4) - exact).max()
    r2 = np.abs(_central_difference(10, 1.3, 1e-4) - exact).max()
    assert 3.0 < r1 / r2 < 5.0


def test_differential_rows_hold_at_large_N():
    # a central difference in beta left an O(h^2) floor that grew with N:
    # 4.55e-6 here, above the rows' own 1e-6 tolerance
    for row in checks.wigner((256,), (0.3,), ("differential",)):
        assert row.residual <= 1e-6, row


def test_differential_rows_hold_near_the_poles():
    # dividing by sin(beta) amplified rounding: 5.9e-6 here, above the
    # rows' 1e-6 tolerance, on a correct table
    for row in checks.wigner((32,), (1e-9,), ("differential",)):
        assert row.residual <= 1e-6, row


def test_angle_and_argument_validation():
    with pytest.raises(ValueError):
        build_wigner_d(4, 0.0)
    with pytest.raises(ValueError):
        build_wigner_d(4, math.pi)


def test_sign_resolution_metadata():
    # no column sign is chosen after the eigendecomposition: each eigenvector
    # enters the table twice, so the signs already agree with the exact sum
    D = build_wigner_d(33, 2.9)
    gram = D.table @ D.table.T
    assert np.abs(gram - np.eye(34)).max() < 1e-12
    assert np.abs(D.table - wigner_d_direct(33, 2.9)).max() < 1e-10


def test_table_order_validation():
    # a fractional order was truncated, N = 0 built a 1x1 table in the
    # oracle only, and a negative order failed inside numpy
    for N in (3.9, 2.7, 0, -2):
        for build in (build_wigner_d, wigner_d_direct):
            with pytest.raises(ValueError, match="N must be"):
                build(N, 1.0)
    for build in (build_wigner_d, wigner_d_direct):
        with pytest.raises(ValueError, match="beta"):
            build(3, math.pi)
    # numpy integers are orders like any other
    assert np.array_equal(wigner_d_direct(np.int64(5), 0.7), wigner_d_direct(5, 0.7))
    assert np.array_equal(build_wigner_d(np.int32(5), 0.7).table, build_wigner_d(5, 0.7).table)


def test_direct_table_matches_textbook_sum_at_sixty_digits():
    mpmath = pytest.importorskip("mpmath")
    for N, beta in ((40, 0.3), (32, math.pi - 1e-6), (24, 1.1), (12, 2.5)):
        table = wigner_d_direct(N, beta)
        with mpmath.workdps(60):
            worst = _textbook_gap(mpmath, table, N, beta)
        assert worst < 1e-12, (N, beta, worst)


def _textbook_gap(mpmath, table, N, beta):
    """Worst |table - d| against the textbook sum for d[n, x], j = N/2,
    m = j - n, m' = j - x, summed in the working precision of ``mpmath``."""
    # the same float half-angle cosine and sine the oracle starts from
    c, s = mpmath.mpf(math.cos(0.5 * beta)), mpmath.mpf(math.sin(0.5 * beta))
    cpow = [c**k for k in range(N + 1)]
    spow = [s**k for k in range(N + 1)]
    f = [math.factorial(k) for k in range(N + 1)]
    worst = 0.0
    for n in range(N + 1):
        for x in range(N + 1):
            total = mpmath.mpf(0)
            for k in range(max(0, n - x), min(N - x, n) + 1):
                term = cpow[N - (x - n) - 2 * k] * spow[(x - n) + 2 * k]
                term /= f[N - x - k] * f[k] * f[x - n + k] * f[n - k]
                total += -term if (x - n + k) % 2 else term
            exact = mpmath.sqrt(f[n] * f[N - n] * f[x] * f[N - x]) * total
            worst = max(worst, float(abs(float(table[n, x]) - exact)))
    return worst
