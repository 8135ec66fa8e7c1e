"""The fold rule of ``latticeqm.checks``: a NaN residual anywhere in a sweep
makes its row read NaN and fail, never pass as the worst of the rest, and a
row with nothing to fold is an error, not a pass."""

import math

import numpy as np
import pytest

from latticeqm import checks, hermite, kravchuk, oscillator


def _row(rows, name):
    (row,) = [r for r in rows if r.check == name]
    return row


def test_nan_differential_residual_fails_its_row(monkeypatch):
    monkeypatch.setattr(kravchuk, "differential_residuals", lambda D: (math.nan, 0.0))
    rows = checks.wigner((10,), (1.0,), ("differential",))
    plus, minus = _row(rows, "wigner-differential-plus"), _row(rows, "wigner-differential-minus")
    assert math.isnan(plus.residual) and not plus.passed
    assert minus.residual == 0.0 and minus.passed


def test_nan_at_one_sweep_point_fails_the_row(monkeypatch):
    residual = hermite.schrodinger_residual
    monkeypatch.setattr(hermite, "schrodinger_residual",
                        lambda n, s: math.nan if n == 3 else residual(n, s))
    rows = checks.hermite_oracle(np.linspace(-6.0, 6.0, 241), range(11), range(9), 6, range(7))
    row = _row(rows, "hermite-schrodinger")
    assert math.isnan(row.residual) and not row.passed
    assert all(r.passed for r in rows if r is not row)


def test_nan_skewed_difference_fails_the_skewed_row(monkeypatch):
    check = oscillator.limit_recurrence_check

    def patched(model, n):
        res = check(model, n)
        return res._replace(difference=math.nan) if model.p == 0.3 else res

    monkeypatch.setattr(oscillator, "limit_recurrence_check", patched)
    rows = checks.limit_recurrence((50, 0.5, 3), (200, 0.3, 2))
    skewed = _row(rows, "limit-recurrence-skewed")
    assert math.isnan(skewed.residual) and not skewed.passed
    assert all(r.passed for r in rows if r is not skewed)


def test_order_row_needs_a_halving_ratio():
    # with one step size there is no ratio, and an empty fold would read 0
    with pytest.raises(ValueError, match="at least two step sizes"):
        checks.propagator_order(np.eye(2), (0.1,))
