import math

import numpy as np
import pytest

from latticeqm import (
    checks,
    eval_psi,
    gram_matrix,
    hermite,
    ladder_apply,
    psi_table,
    recurrence_residual,
    schrodinger_residual,
)


def hermite_poly(n, s):
    # plain polynomial route, independent of the normalized recurrence
    coeffs = {
        0: [1],
        1: [2, 0],
        2: [4, 0, -2],
        3: [8, 0, -12, 0],
        4: [16, 0, -48, 0, 12],
        5: [32, 0, -160, 0, 120, 0],
    }[n]
    return np.polyval(coeffs, s)


def psi_reference(n, s):
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return norm * np.exp(-np.asarray(s, dtype=float) ** 2 / 2.0) * hermite_poly(n, s)


def test_frozen_values_at_origin():
    assert eval_psi(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)
    assert eval_psi(1, 0.0) == 0.0
    assert eval_psi(2, 0.0) == pytest.approx(-0.5311259660135984, rel=1e-14)


def test_a_zero_dimensional_argument_stays_scalar():
    # np.isscalar is False for a 0-d array, which came back with shape (1,)
    value = eval_psi(2, np.array(1.0))
    assert isinstance(value, float)
    assert value == eval_psi(2, 1.0)
    assert eval_psi(2, np.array([1.0])).shape == (1,)


def test_matches_polynomial_route():
    s = np.linspace(-4.0, 4.0, 81)
    table = psi_table(5, s)
    for n in range(6):
        assert np.abs(table[n] - psi_reference(n, s)).max() < 1e-12


def test_parity_and_node_count():
    s = np.linspace(-6.0, 6.0, 1201)
    table = psi_table(6, s)
    for n in range(7):
        sign = (-1.0) ** n
        assert np.abs(table[n] - sign * table[n][::-1]).max() < 1e-13
        interior = table[n][np.abs(table[n]) > 1e-9]
        flips = np.count_nonzero(np.diff(np.sign(interior)) != 0)
        assert flips == n


def test_gram_matrix_is_identity():
    gram = gram_matrix(8)
    assert np.abs(gram - np.eye(9)).max() < 1e-8


@pytest.mark.parametrize("n_max", [0, 1, 6, 20])
def test_gram_matrix_matches_the_per_row_trapezoid(n_max):
    # the matrix was once one np.trapezoid call per row of the table
    half_width = math.sqrt(2.0 * n_max + 1.0) + 10.0
    s = np.linspace(-half_width, half_width, 4001)
    table = psi_table(n_max, s)
    per_row = np.array([np.trapezoid(row * table, s, axis=1) for row in table])
    assert np.abs(gram_matrix(n_max) - per_row).max() <= 1e-15


def test_gram_matrix_runs_without_trapezoid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Gram matrix is one product with the trapezoid weights")
    monkeypatch.setattr(np, "trapezoid", refuse)
    assert np.abs(gram_matrix(6) - np.eye(7)).max() < 1e-8


def test_algebraic_recurrence_is_tight():
    s = np.linspace(-5.0, 5.0, 101)
    assert recurrence_residual(9, s).algebraic.max() < 1e-12


def test_derivative_recurrence_floor_scales_quadratically(monkeypatch):
    s = np.linspace(-3.0, 3.0, 61)
    r2 = recurrence_residual(3, s).derivative[3]
    monkeypatch.setattr(hermite, "_STEP", 2e-5)
    r1 = recurrence_residual(3, s).derivative[3]
    assert r1 < 1e-8
    assert 3.0 < r1 / r2 < 5.0


def test_recurrence_residual_rejects_a_bad_step():
    # h = 0 returned derivative = nan; nan and inf failed on "grid points s".
    # No caller passed a step, and the step is now fixed: any step is refused
    for h in (0.0, -1e-5, math.nan, math.inf, 1e-5):
        with pytest.raises(TypeError):
            recurrence_residual(2, [0.0, 1.0], h=h)


def test_schrodinger_equation():
    s = np.linspace(-6.0, 6.0, 121)
    assert schrodinger_residual(10, s).max() < 1e-10


def test_analytic_derivative_matches_central_difference():
    s = np.linspace(-4.0, 4.0, 41)
    h = 1e-6
    numeric = (psi_table(5, s + h) - psi_table(5, s - h)) / (2 * h)
    # (s + d/ds) psi - (s - d/ds) psi = 2 psi'
    raised, lowered = ladder_apply(5, s)
    assert np.abs((lowered - raised) / math.sqrt(2.0) - numeric).max() < 1e-8


def test_ladder_actions():
    s = np.linspace(-4.0, 4.0, 41)
    raised, lowered = ladder_apply(6, s)
    psi = psi_table(7, s)
    n = np.arange(7.0)[:, None]
    assert np.abs(raised - np.sqrt(n + 1.0) * psi[1:]).max() < 1e-12
    assert np.abs(lowered[1:] - np.sqrt(n[1:]) * psi[:-2]).max() < 1e-12
    assert np.abs(lowered[0]).max() < 1e-12


def test_argument_validation():
    with pytest.raises(ValueError):
        psi_table(-1, 0.0)
    with pytest.raises(ValueError):
        eval_psi(-2, 0.0)
    # a negative level failed inside math.sqrt with a bare "math domain error"
    table_fns = (schrodinger_residual, recurrence_residual, ladder_apply)
    for table_fn in table_fns:
        with pytest.raises(ValueError, match="n_max must be at least 0, got -1"):
            table_fn(-1, 0.0)
    with pytest.raises(ValueError, match="n_max must be at least 0, got -1"):
        gram_matrix(-1)
    # samples=1 gave an all-zero Gram matrix, half_width=-1 a negative diagonal
    with pytest.raises(TypeError):
        gram_matrix(3, samples=1)
    with pytest.raises(TypeError):
        gram_matrix(3, half_width=-1.0)
    # a fractional level was truncated: eval_psi(2.5, s) returned psi_2(s)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        psi_table(2.5, 0.0)
    with pytest.raises(ValueError, match="n must be an integer"):
        eval_psi(2.5, 0.0)
    assert eval_psi(np.int64(2), 0.0) == eval_psi(2, 0.0)
    # an infinite or NaN grid point gave NaN rows instead of an error
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            psi_table(3, [0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            eval_psi(1, bad)
    # a (2, 3) grid failed on numpy's "could not broadcast"; an empty one gave
    # empty rows, or "zero-size array to reduction operation" in the residuals
    for bad, shape in (([], r"\(0,\)"), (np.zeros((2, 3)), r"\(2, 3\)")):
        for fn in (psi_table, eval_psi) + table_fns:
            with pytest.raises(ValueError, match=rf"^s shape {shape} does not match \(>=1,\)$"):
                fn(2, bad)


def test_high_level_keeps_its_norm_beyond_the_seed_underflow():
    # the pi^(-1/4) exp(-s^2/2) seed underflowed beyond s = 38.6, inside the
    # allowed region of psi_1100 (turning point 46.9): psi_1100(40) and
    # psi_1100(45) read exactly 0 and the trapezoid norm below read 0.617
    s = np.linspace(-60.0, 60.0, 24001)
    psi = np.concatenate([psi_table(1100, part)[-1] for part in np.array_split(s, 12)])
    assert abs(np.trapezoid(psi * psi, s) - 1.0) < 1e-6


def test_high_level_matches_the_textbook_sum_past_the_seed_underflow():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for s in (40.0, 45.0, 47.5):
            exact = (mpmath.hermite(1100, s) * mpmath.exp(-mpmath.mpf(s) ** 2 / 2)
                     / mpmath.sqrt(2 ** 1100 * mpmath.factorial(1100) * mpmath.sqrt(mpmath.pi)))
            assert eval_psi(1100, s) == pytest.approx(float(exact), rel=1e-10), s


@pytest.mark.filterwarnings("error")
def test_far_tail_is_zero_without_an_overflow_warning():
    # -s^2/2 overflowed with a RuntimeWarning for |s| > 1.3e154, rows still 0
    assert np.array_equal(psi_table(4, [-1e200, 1e200]), np.zeros((5, 2)))
    assert eval_psi(3, 1e200) == 0.0
    assert eval_psi(2, -1e200) == 0.0
    # past 9e307, 2 s overflowed to inf, and inf times the zero seed read NaN from level 1 or 2 on
    far = [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]
    assert np.array_equal(psi_table(4, far), np.zeros((5, 4)))
    assert np.array_equal(psi_table(4, [0.5] + far)[:, 0], psi_table(4, [0.5])[:, 0])


@pytest.mark.filterwarnings("error")
def test_far_tail_residuals_are_zero_without_an_overflow_warning():
    # s^2 psi overflowed past |s| = 1.3e154 and 2 s psi past 9e307, each times a zero row: NaN rows
    assert np.array_equal(schrodinger_residual(2, [1e200, -1e308]), np.zeros(3))
    for residual in recurrence_residual(2, [1e308, -np.finfo(float).max]):
        assert np.array_equal(residual, np.zeros(3))
    near = [0.5, 1.5]
    assert np.array_equal(schrodinger_residual(4, near + [1e200]), schrodinger_residual(4, near))
    for far, plain in zip(recurrence_residual(4, near + [1e308]), recurrence_residual(4, near)):
        assert np.array_equal(far, plain)
    rows = checks.hermite_oracle([0.0, 1e308], 2, 2, 2, 2)
    assert all(row.passed for row in rows)
    assert rows[0].params == "n<=2 |s|<=1e+308"  # the label reads the caller's grid
