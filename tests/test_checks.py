"""The fold rule of ``latticeqm.checks``: a NaN residual anywhere in a sweep
makes its row read NaN and fail, never pass as the worst of the rest, and a
row with nothing to fold (an empty sweep, a single step size) is an error,
not a pass.  A check the unit tests share is not vacuous: a result off by
ten times the tolerance fails its row, and a Hermite table that is not the
oscillator's fails the rows that tie it to the oscillator."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from latticeqm import cayley, checks, hermite, kravchuk, oscillator, planewave


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

    def patched(N, p, n):
        res = check(N, p, n)
        return res._replace(shift=math.nan) if p == 0.3 else res

    monkeypatch.setattr(oscillator, "limit_recurrence_check", patched)
    rows = checks.limit_recurrence((50, 0.5, 3), (200, 0.3, 2))
    skewed = _row(rows, "limit-recurrence-skewed")
    assert math.isnan(skewed.residual) and not skewed.passed
    assert all(r.passed for r in rows if r is not skewed)


@pytest.mark.parametrize("N, entry", [(1, (0, 1)), (12, (0, 0)), (12, (5, 12)), (256, (100, 37))])
def test_a_nan_entry_fails_every_table_relation(monkeypatch, N, entry):
    # in-place abs and max(initial=0) keep a NaN; fmax or nanmax would drop it
    build = kravchuk.build_wigner_d

    def patched(N, beta):
        table = build(N, beta).table.copy()
        table[entry] = math.nan
        return kravchuk.WignerDMatrix(N, beta, table)

    monkeypatch.setattr(kravchuk, "build_wigner_d", patched)
    rows = checks.wigner((N,), (0.9,), ("symmetry", "orthogonality", "recurrence", "differential"))
    assert len(rows) == 6
    for row in rows:
        assert math.isnan(row.residual) and not row.passed, row


def test_symmetry_and_orthogonality_match_the_copying_formulation_bit_for_bit():
    def parity_matrix_symmetry(D):
        parity = np.where((np.add.outer(np.arange(D.N + 1), np.arange(D.N + 1))) % 2 == 0, 1.0, -1.0)
        return (float(np.abs(D.table - parity * D.table.T).max(initial=0.0)),)

    def identity_matrix_orthogonality(D):
        return (float(np.abs(D.table.T @ D.table - np.eye(D.N + 1)).max(initial=0.0)),)

    rng = np.random.default_rng(21)
    for N in (*range(1, 41), 127, 128, 256):
        tables = [kravchuk.build_wigner_d(N, beta) for beta in (1e-9, 0.3, 1.7, math.pi - 1e-9)]
        # a random table as well: residuals of order one, so a misplaced entry shows
        tables.append(kravchuk.WignerDMatrix(N, 1.1, rng.standard_normal((N + 1, N + 1))))
        for D in tables:
            assert checks.WIGNER["symmetry"][0](D) == parity_matrix_symmetry(D)
            assert checks.WIGNER["orthogonality"][0](D) == identity_matrix_orthogonality(D)


def test_position_residual_matches_the_column_loop():
    # the check once formed X @ col - lam * col for one column at a time
    for N in range(1, 65):
        X, j = oscillator.position_matrix(N), 0.5 * N
        table = kravchuk.build_wigner_d(N, 0.5 * math.pi).table
        columns = max(float(np.abs(X @ table[:, x] - (j - x) / math.sqrt(j) * table[:, x]).max())
                      for x in range(N + 1))
        assert abs(_row(checks.position((N,)), "position-eigenvectors").residual - columns) <= 1e-15, N


@pytest.mark.parametrize("d", [1, 6, 64])
def test_trajectory_norms_match_the_per_row_norms(d):
    # the check once took one np.linalg.norm per row of the trajectory; a
    # copy of its generator draws the same unit state here
    rng = np.random.default_rng(d)
    H = checks.random_hermitian(rng, d)
    twin = copy.deepcopy(rng)
    row = _row(checks.propagator(rng, H, (0.1,), 200, (7,)), "cayley-unitarity")
    psi = twin.standard_normal(d) + 1j * twin.standard_normal(d)
    psi /= np.linalg.norm(psi)
    traj = cayley.evolve_trajectory(cayley.build_propagator(H, 0.1), psi, 200)[1:]
    per_row = np.array([np.linalg.norm(state) for state in traj])
    assert np.all(np.abs(np.linalg.norm(traj, axis=1) - per_row) <= 4.5e-16 * per_row)
    assert abs(row.residual - float(np.abs(per_row - 1.0).max())) <= 4.5e-16


def test_norm_calls_do_not_grow_with_the_trajectory(monkeypatch):
    # one norm call per tau covers every state of the trajectory
    calls, norm = [], np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: calls.append(1) or norm(*args, **kwargs))
    counts = []
    for steps in (5, 50):
        calls.clear()
        checks.propagator(np.random.default_rng(0), np.diag([1.0, -2.0]), (0.1, 0.2), steps, (3,))
        counts.append(len(calls))
    assert counts[0] == counts[1]


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
    lambda rng: checks.wigner((4,), (1.0,), ()),
    lambda rng: checks.involution([], (0.1,), 1),
    lambda rng: checks.involution([(checks.SIGMA_Z, checks.SIGMA_X, "z x")], (), 1),
    lambda rng: checks.hermite_oracle(np.array([]), 3, 3, 3, 3),
], ids=["wigner-sizes", "wigner-angles", "basis-spacings", "basis-sizes", "fourier-sizes",
        "fourier-states", "momentum", "propagator-taus", "propagator-residual-steps", "ladder-spectra",
        "position", "continuum-ladder-levels", "continuum-levels", "continuum-both-levels",
        "state-round-trip", "wigner-groups", "involution-pairs",
        "involution-taus", "hermite-oracle-grid"])
def test_an_empty_sweep_is_an_error(run):
    # folded from 0, a sweep with no point would read 0.0 and pass
    with pytest.raises(ValueError, match="^empty sweep: [^\\n]*$"):
        run(np.random.default_rng(0))


@pytest.mark.parametrize("dim", [1, 0])
def test_a_random_involution_has_room_for_both_signs(dim):
    # dim 1 returned [[1]], the identity, on which every involution row passed
    # vacuously with NaN exponents; dim 0 raised an IndexError
    with pytest.raises(ValueError, match=f"^dim must be at least 2, got {dim}$"):
        checks.random_involution(np.random.default_rng(0), dim)


def test_order_row_needs_a_halving_ratio():
    # with one step size there is no ratio, and an empty fold would read 0
    with pytest.raises(ValueError, match="at least two step sizes"):
        checks.propagator_order(np.eye(2), (0.1,))


@pytest.mark.parametrize("module, name, shift, run, check", [
    (planewave, "build_basis", lambda b, e: dataclasses.replace(b, table=b.table + e),
     lambda: checks.basis((2, 7), (0.7,)), "basis-dft-identity"),
    (oscillator, "commutator_spectrum", lambda spec, e: spec + e,
     lambda: checks.ladder_spectra((2, 9)), "oscillator-commutator"),
    # a ladder that does not terminate: c_{N+1}^2 = e, so the trace reads e
    (oscillator, "_ladder", lambda c, e: np.append(c[:-1], math.sqrt(e)),
     lambda: checks.ladder_spectra((2, 9)), "oscillator-commutator-trace"),
    (oscillator, "position_spectrum", lambda eigenvalues, e: eigenvalues + e,
     lambda: checks.position((2, 9)), "position-grid"),
    (kravchuk, "wigner_d_direct", lambda table, e: table + e,
     lambda: checks.wigner((3, 8), (0.7,), ("oracle",)), "wigner-vs-oracle"),
    *((kravchuk, "build_wigner_d", lambda D, e: dataclasses.replace(D, table=D.table + e),
       lambda: checks.limit_recurrence((50, 0.5, 3), (200, 0.3, 2)), check)
      for check in ("limit-recurrence-three-term", "limit-recurrence-difference", "limit-recurrence-skewed")),
])
def test_a_result_off_by_ten_tolerances_fails_its_row(monkeypatch, module, name, shift, run, check):
    row = _row(run(), check)
    assert row.passed, row
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: shift(original(*args, **kwargs), 10.0 * row.tolerance))
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
