"""The fold rule of ``latticeqm.checks``: a NaN residual anywhere in a sweep
makes its row read NaN and fail, never pass as the worst of the rest, and a
row with nothing to fold (an empty sweep, a single step size) is an error,
not a pass.  A check the unit tests share is not vacuous: a result off by
ten times the tolerance fails its row, and a Hermite table that is not the
oscillator's fails the rows that tie it to the oscillator."""

import dataclasses
import math

import numpy as np
import pytest

from latticeqm import checks, hermite, kravchuk, oscillator, planewave


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

    def patched(n_max, s):
        levels = residual(n_max, s)
        levels[3] = math.nan
        return levels

    monkeypatch.setattr(hermite, "schrodinger_residual", patched)
    rows = checks.hermite_oracle(np.linspace(-6.0, 6.0, 241), 10, 8, 6, 6)
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


_H = np.eye(2)
_SIZES = (16, 32)


@pytest.mark.parametrize("run", [
    lambda rng: checks.wigner((), (1.0,), ("oracle",)),
    lambda rng: checks.wigner((4,), (), ("oracle",)),
    lambda rng: checks.basis((4,), ()),
    lambda rng: checks.basis((), (0.5,)),
    lambda rng: checks.fourier(rng, (), 3),
    lambda rng: checks.fourier(rng, (4,), 0),
    lambda rng: checks.momentum(()),
    lambda rng: checks.propagator(rng, _H, (), 5, (3,)),
    lambda rng: checks.propagator(rng, _H, (0.1,), 5, ()),
    lambda rng: checks.ladder_spectra(()),
    lambda rng: checks.position(()),
    lambda rng: checks.continuum((0,), (), _SIZES),
    lambda rng: checks.continuum((), (1,), _SIZES),
    lambda rng: checks.continuum((), (), _SIZES),
    lambda rng: checks.state_round_trip(rng, (), 0.5),
], ids=["wigner-sizes", "wigner-angles", "basis-spacings", "basis-sizes", "fourier-sizes",
        "fourier-states", "momentum", "propagator-taus", "propagator-residual-steps", "ladder-spectra",
        "position", "continuum-ladder-levels", "continuum-levels", "continuum-both-levels",
        "state-round-trip"])
def test_an_empty_sweep_is_an_error(run):
    # folded from 0, a sweep with no point would read 0.0 and pass
    with pytest.raises(ValueError, match="empty sweep"):
        run(np.random.default_rng(0))


def test_order_row_needs_a_halving_ratio():
    # with one step size there is no ratio, and an empty fold would read 0
    with pytest.raises(ValueError, match="at least two step sizes"):
        checks.propagator_order(np.eye(2), (0.1,))


@pytest.mark.parametrize("module, name, shift, run, check", [
    (planewave, "build_basis", lambda b, e: dataclasses.replace(b, table=b.table + e),
     lambda: checks.basis((2, 7), (0.7,)), "basis-dft-identity"),
    (oscillator, "commutator_spectrum", lambda spec, e: spec + e,
     lambda: checks.ladder_spectra((2, 9)), "oscillator-commutator"),
    (oscillator, "build_oscillator",
     lambda model, e: dataclasses.replace(model, raise_coeff=model.raise_coeff + e),
     lambda: checks.ladder_spectra((2, 9)), "oscillator-commutator-trace"),
    (oscillator, "position_spectrum",
     lambda spec, e: dataclasses.replace(spec, eigenvalues=spec.eigenvalues + e),
     lambda: checks.position((2, 9)), "position-grid"),
    (kravchuk, "wigner_d_direct", lambda table, e: table + e,
     lambda: checks.wigner((3, 8), (0.7,), ("oracle",)), "wigner-vs-oracle"),
])
def test_a_result_off_by_ten_tolerances_fails_its_row(monkeypatch, module, name, shift, run, check):
    row = _row(run(), check)
    assert row.passed, row
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: shift(original(*args), 10.0 * row.tolerance))
    row = _row(run(), check)
    assert not row.passed, row


def test_a_table_off_the_oscillator_fails_the_derivative_and_gram_rows(monkeypatch):
    # rows times exp(0.2 s^2) keep the generating recurrence, so the
    # Schrodinger, algebraic and ladder rows, which rearrange it, cannot
    # see them; only the derivative and Gram rows tie a table to psi_n
    table = hermite.psi_table
    monkeypatch.setattr(hermite, "psi_table", lambda n_max, s: table(n_max, s) * np.exp(0.2 * np.square(s)))
    rows = checks.hermite_oracle(np.linspace(-6.0, 6.0, 241), 10, 8, 6, 6)
    for name in ("hermite-recurrence-derivative", "hermite-gram"):
        assert not _row(rows, name).passed, _row(rows, name)
