import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from latticeqm import (
    WignerDMatrix,
    build_kravchuk,
    build_wigner_d,
    checks,
    cli,
    differential_residuals,
    recurrence_residuals,
    wigner_d_direct,
)
from latticeqm.kravchuk import _chiral, _derivative, _direct_entries, _rotation


def _degree_recurrence(N: int, p: float):
    """Reference values k_n(x) by the three-term recurrence in the degree,

        (n+1) k_{n+1}(x) = ((x - N p) - n (q - p)) k_n(x) - p q (N - n + 1) k_{n-1}(x),

    with the binomial weights rho(x) and the weighted norms ||k_n||.  It
    cancels on high degrees when p is far from 1/2, so it is a reference at
    moderate p only."""
    q = 1.0 - p
    x = np.arange(N + 1, dtype=float)
    values = np.empty((N + 1, N + 1))
    values[0], values[1] = 1.0, x - N * p
    for n in range(1, N):
        values[n + 1] = (((x - N * p) - n * (q - p)) * values[n] - p * q * (N - n + 1) * values[n - 1]) / (n + 1)
    weights = np.array([math.comb(N, v) * p**v * q ** (N - v) for v in range(N + 1)])
    return values, weights, np.sqrt(np.sum(weights * values**2, axis=1))


def test_weight_validation():
    with pytest.raises(ValueError):
        build_kravchuk(0, 0.5)
    with pytest.raises(ValueError):
        build_kravchuk(5, 0.0)
    with pytest.raises(ValueError):
        build_kravchuk(5, 1.0)
    # a fractional order was truncated: build_kravchuk(3.9, 0.5).N read 3
    with pytest.raises(ValueError, match="N must be an integer"):
        build_kravchuk(3.9, 0.5)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        build_kravchuk(5, 0.5, n_max=2.5)
    with pytest.raises(ValueError, match=r"n_max must lie in 0\.\.5, got 6"):
        build_kravchuk(5, 0.5, n_max=6)
    assert build_kravchuk(np.int64(5), 0.5, n_max=np.int32(2)).shape == (3, 6)


# the smallest positive float to the largest below one; the degree recurrence
# read 1.2e-6 in the shift relation at (40, 1e-12) and refused (16, 1e-300)
@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-12, 0.2, 0.5, 0.9, 1.0 - 2.0**-53])
@pytest.mark.parametrize("N", [16, 40])
def test_level_rows_are_orthonormal_at_every_p(N, p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = build_kravchuk(N, p)
    assert rows.shape == (N + 1, N + 1) and np.isfinite(rows).all()
    assert np.abs(rows @ rows.T - np.eye(N + 1)).max() < 1e-13


def test_level_rows_are_signed_d_table_rows():
    for N, p in ((1, 0.5), (12, 0.3), (25, 1e-12)):
        beta = 2.0 * math.atan2(math.sqrt(p), math.sqrt(1.0 - p))
        rows = build_kravchuk(N, p, n_max=N // 2)
        checker = (-1.0) ** np.add.outer(np.arange(N // 2 + 1), np.arange(N + 1))
        assert np.array_equal(checker * rows, build_wigner_d(N, beta).table[: N // 2 + 1])
        assert math.sin(0.5 * beta) ** 2 == pytest.approx(p, rel=1e-15)


def test_frozen_single_site_family():
    # phi_0 = sqrt(rho), phi_1 = sqrt(rho) (x - 1/2) / (1/2) on two sites of weight 1/2
    r = math.sqrt(0.5)
    assert np.abs(build_kravchuk(1, 0.5) - [[r, r], [-r, r]]).max() < 1e-15


def test_norms_match_closed_form():
    for N, p in ((6, 0.5), (20, 0.3), (40, 0.5)):
        values, weights, norms = _degree_recurrence(N, p)
        q = 1.0 - p
        for n in range(N + 1):
            closed = math.sqrt(math.comb(N, n) * (p * q) ** n)
            assert norms[n] == pytest.approx(closed, rel=1e-12)
        # the production rows are the reference's, weighted and normalized
        phi = np.sqrt(weights) * values / norms[:, None]
        assert np.abs(build_kravchuk(N, p) - phi).max() < 1e-10


def test_orthonormality_in_stable_regime():
    phi = build_kravchuk(20, 0.3)
    gram = phi @ phi.T
    assert np.abs(gram - np.eye(21)).max() < 1e-10
    values, weights, norms = _degree_recurrence(20, 0.3)
    reference = np.sqrt(weights) * values / norms[:, None]
    assert np.abs(reference @ reference.T - np.eye(21)).max() < 1e-10


def test_truncated_family():
    rows = build_kravchuk(30, 0.5, n_max=4)
    assert rows.shape == (5, 31)
    full = build_kravchuk(30, 0.5)
    assert np.abs(rows - full[:5]).max() == 0.0
    values, weights, norms = _degree_recurrence(30, 0.5)
    assert np.abs(rows - np.sqrt(weights) * values[:5] / norms[:5, None]).max() < 1e-12


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


def test_exact_entry_is_the_rounded_half_angle_difference():
    # the log-space recombination of the exact sum with its prefactor was off
    # by 1.08e-14 here at beta = 0.7; the entry is c^2 - s^2 of the same floats
    for beta in (0.3, 0.7, 2.8):
        c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
        exact = float(Fraction(c) ** 2 - Fraction(s) ** 2)
        assert abs(wigner_d_direct(2, beta)[1, 1] - exact) <= math.ulp(exact), beta


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
        values, weights, norms = _degree_recurrence(N, p)
        phi = np.sqrt(weights) * values / norms[:, None]
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
    # beta -> pi - beta swaps p and q; the exact table scores alike at both ends
    def oracle_three_term(beta):
        return recurrence_residuals(WignerDMatrix(16, beta, wigner_d_direct(16, beta))).three_term

    near_zero = oracle_three_term(1e-6)
    assert oracle_three_term(math.pi - 1e-6) <= 10.0 * near_zero


@pytest.mark.parametrize("N", [2, 64])
@pytest.mark.parametrize("beta", [5e-324, 1e-9, math.pi - 1e-9])
def test_three_term_relation_holds_next_to_the_poles(N, beta):
    # held multiplied through by sin(beta) / 2, the relation divides by nothing
    assert recurrence_residuals(build_wigner_d(N, beta)).three_term <= 1e-12


def test_three_term_relation_rejects_a_flipped_cos_term():
    # the (m' - m cos beta) term with the sign of cos beta flipped fails by far:
    # at pi - beta the table keeps sin beta and flips cos beta
    D = build_wigner_d(30, 0.7)
    assert recurrence_residuals(D).three_term <= 1e-12
    assert recurrence_residuals(dataclasses.replace(D, beta=math.pi - D.beta)).three_term > 1.0


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
    # 4.55e-6 here, above the 1e-6 tolerance the rows then had
    for row in checks.wigner((256,), (0.3,), ("differential",)):
        assert row.residual <= 1e-6, row


def test_differential_rows_hold_near_the_poles():
    # dividing by sin(beta) amplified rounding: 5.9e-6 here, above the
    # 1e-6 tolerance the rows then had, on a correct table
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


def test_direct_table_is_within_a_rounding_of_the_textbook_sum():
    # one quarter of the table is summed, the rest filled by exact symmetries;
    # the quarter's bounds differ between odd and even N
    mpmath = pytest.importorskip("mpmath")
    for N, beta in ((5, 2.5), (33, 2.9), (24, 1e-6), (40, 0.3), (32, math.pi - 1e-6)):
        table = wigner_d_direct(N, beta)
        with mpmath.workdps(60):
            worst = _textbook_gap(mpmath, table, N, beta)
        assert worst <= 2.3e-16, (N, beta, worst)


def test_direct_entry_stays_in_range_at_large_order():
    # C(N, x) / C(N, n) overflows a float from N ~ 1030, and c^550 s^550
    # underflows at beta = 0.3 although the entry does not
    N, x = 1100, 550
    for beta in (0.3, 0.5 * math.pi):
        value = _direct_entries(N, beta)(0, x)
        c, s = Fraction(math.cos(0.5 * beta)), Fraction(math.sin(0.5 * beta))
        # d[0, x] = sqrt(C(N, x)) c^(N-x) s^x, compared through its exact square
        square = math.comb(N, x) * c ** (2 * (N - x)) * s ** (2 * x)
        assert value > 0.0, beta
        lo, hi = Fraction(value - 2 * math.ulp(value)), Fraction(value + 2 * math.ulp(value))
        assert lo * lo <= square <= hi * hi, beta


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


# The d-table kernels before they wrote into reused buffers: padded copies,
# a transposed copy, fresh temporaries.  The kernels must agree with them bit
# for bit.
def _padded_couplings(T, N):
    n = np.arange(T.shape[0], dtype=float)
    zero = np.zeros((1, T.shape[1]))
    up = np.sqrt(n * (N - n + 1.0))[:, None] * np.vstack([zero, T[:-1]])
    down = np.sqrt((N - n) * (n + 1.0))[:, None] * np.vstack([T[1:], zero])
    return up, down


def _padded_relations(T, N, cos, sin):
    m = 0.5 * N - np.arange(N + 1, dtype=float)
    up, down = _padded_couplings(T, N)
    coeff = m[None, :] - m[: T.shape[0], None] * cos
    three_term = np.abs(coeff * T - 0.5 * sin * (up + down)).max(axis=1)
    prev_col, next_col = _padded_couplings(T.T, N)
    shift = np.abs((next_col - prev_col).T - (up - down)).max(axis=1)
    return three_term, shift


def _fresh_rotation(N, even, odd):
    U, V, sigma = _chiral(N)
    r = V.shape[0]
    out = np.empty((N + 1, N + 1))
    out[0::2, 0::2] = (U * even(sigma)) @ U.T
    out[1::2, 1::2] = (V * even(sigma[:r])) @ V.T
    S = (U[:, :r] * odd(sigma[:r])) @ V.T
    out[0::2, 1::2] = -S
    out[1::2, 0::2] = S.T
    return out


def _padded_differential(D):
    N, beta = D.N, D.beta
    sin = math.sin(beta)
    derivative = sin * _fresh_rotation(N, lambda s: -s * np.sin(beta * s), lambda s: s * np.cos(beta * s))
    m = 0.5 * N - np.arange(N + 1, dtype=float)
    rest = (m[None, :] - m[:, None] * math.cos(beta)) * D.table
    up, down = _padded_couplings(D.table, N)
    return (float(np.abs(derivative + rest - sin * up).max()),
            float(np.abs(-derivative + rest - sin * down).max()))


def test_kernels_match_the_copying_formulation_bit_for_bit():
    rng = np.random.default_rng(21)
    for N in (*range(1, 41), 127, 128, 256):
        # a random table as well: residuals of order one, so a misplaced entry shows
        tables = [build_wigner_d(N, beta) for beta in (1e-9, 0.3, 1.7, math.pi - 1e-9)]
        tables.append(WignerDMatrix(N, 1.1, rng.standard_normal((N + 1, N + 1))))
        assert np.array_equal(_rotation(N, np.cos, np.sin), _fresh_rotation(N, np.cos, np.sin))
        for D in tables:
            beta = D.beta
            if D is not tables[-1]:
                assert np.array_equal(D.table, _fresh_rotation(N, lambda s: np.cos(beta * s),
                                                               lambda s: np.sin(beta * s)))
            assert tuple(differential_residuals(D)) == _padded_differential(D)
            want = _padded_relations(D.table, N, math.cos(beta), math.sin(beta))
            assert tuple(recurrence_residuals(D)) == tuple(float(r.max()) for r in want)


# peak traced memory of each kernel, in (N+1)^2 float tables at N = 256; the
# copying kernels peaked at 1.5 (build), 8.0, 6.0, 3.0 and 2.0 tables
_CEILINGS = {"build": 1.6, "recurrence": 3.5, "differential": 3.25, "symmetry": 1.5, "orthogonality": 1.1}


@pytest.mark.parametrize("kernel", _CEILINGS)
def test_kernel_allocations_stay_under_their_ceiling(kernel):
    N, beta = 256, 0.9
    D = build_wigner_d(N, beta)  # caches the order's factors
    run = {
        "build": lambda: build_wigner_d(N, beta),
        "recurrence": lambda: recurrence_residuals(D),
        "differential": lambda: differential_residuals(D),
        "symmetry": lambda: checks.WIGNER["symmetry"][0](D),
        "orthogonality": lambda: checks.WIGNER["orthogonality"][0](D),
    }[kernel]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / ((N + 1) ** 2 * 8) < _CEILINGS[kernel]
