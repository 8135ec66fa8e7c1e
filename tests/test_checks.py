"""The fold rule of ``latticeqm.checks``: a NaN residual anywhere in a sweep
makes its row read NaN and fail, never pass as the worst of the rest, and a
row with nothing to fold (an empty sweep, a single step size) is an error,
not a pass.  No verify-all row is vacuous: each has a wrong formula in
production code that fails it, and the table of those mutants names every
other row each one fails, so a row that only checks itself shows up."""

import collections
import copy
import dataclasses
import functools
import json
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from latticeqm import LatticeState, cayley, checks, cli, hermite, kravchuk, oscillator, planewave


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
    lambda rng: checks.propagator(rng, np.diag([1.0, -2.0]), (0.1,), 0, (3,)),
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
        "fourier-states", "momentum", "propagator-taus", "propagator-residual-steps", "propagator-steps",
        "ladder-spectra", "position", "continuum-ladder-levels", "continuum-levels", "continuum-both-levels",
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


class Mutant(NamedTuple):
    """A wrong formula in production code: ``make`` takes ``target.name`` and returns what replaces it."""

    what: str
    target: object
    name: str
    make: Callable


def _basis_table(transform):
    return lambda build: lambda N, eps: (lambda b: dataclasses.replace(b, table=transform(b.table)))(build(N, eps))


def _d_table(transform):
    return lambda build: lambda N, beta: (lambda D: dataclasses.replace(D, table=transform(D.table)))(build(N, beta))


def _formed_as(pairs):
    """``_differences`` or ``_projector_differences`` forming the time difference a as b, for each a: b of pairs."""
    def make(differences):
        def mutant(*args):
            *rest, left = differences(*args)
            return (*rest, lambda name: left(pairs.get(name, name)))
        return mutant
    return make


def _half_coefficient_once(build):
    def mutant(H, tau):
        prop = build(H, tau)
        eye, H = np.eye(prop.dim), prop.hamiltonian
        return dataclasses.replace(prop, factor=np.linalg.solve(eye + 1j * prop.tau * H, eye - 0.5j * prop.tau * H))
    return mutant


def _midpoint_sign(_):
    def mutant(prop, n):  # evolution_operator_residual with +2/tau for -2/tau
        lam, V = prop.eigenvalues, prop.eigenvectors
        h, c_n = cayley._cayley_phase(prop.tau, lam, 0.5), cayley._cayley_phase(prop.tau, lam, n)
        residual = (V.conj().T @ prop.hamiltonian @ V) * (h.real * h * c_n)
        residual[np.diag_indices(prop.dim)] -= (2.0 / prop.tau) * h.imag * h * c_n
        return cayley._norm(residual)
    return mutant


def _odd_even_block_sign(T):
    T = T.copy()
    T[1::2, 0::2] *= -1.0
    return T


def _product_rule_sign(_):
    def mutant(n_max, s):  # schrodinger_residual with + psi for - psi
        s = hermite._grid(s)
        psi = hermite.psi_table(n_max, s)
        second = hermite._derivative(hermite._derivative(psi, s), s) + psi
        return np.abs(-second + s * s * psi - (2.0 * hermite._levels(psi) + 1.0) * psi).max(axis=1)
    return mutant


def _lower_neighbour_sign(residual):
    def mutant(n_max, s):  # the algebraic column of recurrence_residual with + sqrt(2n) psi_{n-1}
        s = hermite._grid(s)
        psi = hermite.psi_table(n_max + 1, s)
        below, here, above = hermite._below(psi)[:-1], psi[:-1], psi[1:]
        n = hermite._levels(here)
        algebraic = 2.0 * s * here - np.sqrt(2.0 * (n + 1.0)) * above + np.sqrt(2.0 * n) * below
        return hermite.HermiteRecurrenceResiduals(np.abs(algebraic).max(axis=1), residual(n_max, s).derivative)
    return mutant


def _unweighted_gram(_):
    def mutant(n_max):  # gram_matrix without the trapezoidal weights
        half_width = math.sqrt(2.0 * n_max + 1.0) + 10.0
        table = hermite.psi_table(n_max, np.linspace(-half_width, half_width, 4001))
        return table @ table.T
    return mutant


def _imaginary_sign(_):
    def mutant(self):  # LatticeState.to_json writing -im
        return json.dumps({"epsilon": self.epsilon, "re": self.amplitudes.real.tolist(),
                           "im": (-self.amplitudes.imag).tolist()})
    return mutant


_INVOLUTION = {
    "forward": Mutant("the forward row forms the backward difference", cayley, "_projector_differences",
                      _formed_as({"forward": "backward"})),
    "backward": Mutant("the backward row forms the forward difference", cayley, "_projector_differences",
                       _formed_as({"backward": "forward"})),
    "forward-backward": Mutant("the second difference formed as the central one", cayley, "_projector_differences",
                               _formed_as({"forward-backward": "central"})),
    "half-step": Mutant("the half-step difference formed as the central one", cayley, "_projector_differences",
                        _formed_as({"half-step": "central"})),
    "central": Mutant("the central difference formed as the half-step one", cayley, "_projector_differences",
                      _formed_as({"central": "half-step"})),
}
_THREE_TERM = Mutant("the three-term relation read with -sin beta", kravchuk, "recurrence_residuals",
                     lambda residuals: lambda D: residuals(dataclasses.replace(D, beta=-D.beta)))
_SHIFT = Mutant("the shift relation read on columns signed (-1)^x", kravchuk, "recurrence_residuals",
                lambda residuals: lambda D: residuals(dataclasses.replace(
                    D, table=D.table * np.where(np.arange(D.N + 1) % 2, -1.0, 1.0))))
_DERIVATIVE = Mutant("the beta-derivative of the table with its sign flipped", kravchuk, "_derivative",
                     lambda derivative: lambda N, beta: -derivative(N, beta))
_RECURRENCE = {(f"wigner-recurrence-{name}", k) for name in ("three-term", "shift") for k in range(3)}
# rows that read a d-table outside the symmetry and orthogonality sweep
_TABLE_READERS = _RECURRENCE | {("wigner-vs-oracle", 0), ("wigner-differential-plus", 0),
                                ("wigner-differential-minus", 0), ("position-eigenvectors", 0),
                                ("continuum-order", 0)}


def _siblings(name, k):
    """The other two occurrences of a row that verify-all runs at three sweep points."""
    return {(name, i) for i in range(3) if i != k}


# Each row of verify-all --seed 7, keyed by (check, occurrence), with a wrong
# formula in production code that fails it and the exact set of other rows
# the same mutant fails.  Keys are not params: a mutant moves some labels.
ROW_MUTANTS = {
    ("basis-orthonormality", 0): (
        Mutant("plane waves normalized by 1/N, not 1/sqrt(N)", planewave, "build_basis",
               _basis_table(lambda T: T / math.sqrt(T.shape[0]))),
        {("basis-dft-identity", 0), ("fourier-round-trip", 0), ("fourier-parseval", 0)}),
    ("basis-dft-identity", 0): (
        Mutant("the cumulative product starts at the step ratio, not at 1", planewave, "build_basis",
               _basis_table(lambda T: T * (T[1] / T[0]))), set()),
    ("fourier-round-trip", 0): (
        Mutant("the inverse sums against the conjugate columns", planewave, "inverse_transform",
               lambda inverse: lambda b, a: inverse(dataclasses.replace(b, table=b.table.conj()), a)), set()),
    ("fourier-parseval", 0): (
        Mutant("the forward sum without its 1/sqrt(N)", planewave, "forward_transform",
               lambda forward: lambda b, f: forward(b, f) * math.sqrt(b.n_sites)), {("fourier-round-trip", 0)}),
    ("momentum-eigenrelation", 0): (
        Mutant("k / (1 + i eps k / 2), the sign of i flipped", planewave, "momentum_eigenvalues",
               lambda eigenvalues: lambda b: eigenvalues(b).conj()), set()),
    ("cayley-unitarity", 0): (
        Mutant("C = (1 - i tau H/2)(1 + i tau H)^-1, one half dropped", cayley, "build_propagator",
               _half_coefficient_once), {("cayley-group-law", 0)}),
    ("cayley-residual", 0): (
        Mutant("the midpoint residual with the sign of 2/tau flipped", cayley, "evolution_operator_residual",
               _midpoint_sign), set()),
    ("cayley-group-law", 0): (
        Mutant("evolve_trajectory steps C^dagger", cayley, "evolve_trajectory",
               lambda trajectory: lambda prop, psi, n: trajectory(
                   dataclasses.replace(prop, factor=prop.factor.conj().T), psi, n)), set()),
    ("cayley-order", 0): (
        Mutant("evolution_operator builds C^-n", cayley, "evolution_operator",
               lambda operator: lambda prop, n: operator(prop, -n)), {("cayley-group-law", 0)}),
    **{(f"heisenberg-{row}", 0): (
        Mutant(f"the {row} scheme forms the {formed} difference", cayley, "_differences",
               _formed_as({name: formed})), set())
       for row, name, formed in (("forward", "forward", "backward"), ("backward", "backward", "forward"),
                                 ("symmetric", "half-step", "central"), ("central", "central", "half-step"))},
    **{(f"involution-{name}", k): (mutant, _siblings(f"involution-{name}", k))
       for name, mutant in _INVOLUTION.items() for k in range(3)},
    ("wigner-vs-oracle", 0): (
        Mutant("the oracle's entry (n, x) read at (x, n)", kravchuk, "wigner_d_direct",
               lambda direct: lambda N, beta: direct(N, beta).T), set()),
    ("wigner-symmetry", 0): (
        Mutant("the (odd, even) block of the d-table written -S^T", kravchuk, "build_wigner_d",
               _d_table(_odd_even_block_sign)),
        _TABLE_READERS | {("wigner-orthogonality", 0), ("continuum-monotone", 0)}),
    ("wigner-orthogonality", 0): (
        Mutant("the zero mode weighted 0, not cos 0", kravchuk, "_rotation",
               lambda rotation: lambda N, even, odd: rotation(N, lambda s: np.where(s == 0, 0.0, even(s)), odd)),
        _TABLE_READERS - {("wigner-recurrence-shift", k) for k in range(3)}),
    **{("wigner-recurrence-three-term", k): (_THREE_TERM, _siblings("wigner-recurrence-three-term", k))
       for k in range(3)},
    **{("wigner-recurrence-shift", k): (_SHIFT, _siblings("wigner-recurrence-shift", k)) for k in range(3)},
    ("wigner-differential-plus", 0): (_DERIVATIVE, {("wigner-differential-minus", 0)}),
    ("wigner-differential-minus", 0): (_DERIVATIVE, {("wigner-differential-plus", 0)}),
    ("oscillator-commutator", 0): (
        Mutant("the commutator diagonal c_n^2 - c_{n+1}^2", oscillator, "commutator_spectrum",
               lambda spectrum: lambda N: -spectrum(N)), set()),
    ("oscillator-energies", 0): (
        Mutant("the energies c_{n+1}^2 - c_n^2, a minus for the plus", oscillator, "energy_spectrum",
               lambda spectrum: oscillator.commutator_spectrum), set()),
    ("position-grid", 0): (
        Mutant("the position eigenvalues descending", oscillator, "position_spectrum",
               lambda spectrum: lambda N: spectrum(N)[::-1]), set()),
    ("position-eigenvectors", 0): (
        # eigh reads the lower triangle, -A^T / sqrt(2), whose spectrum is the same grid
        Mutant("X = (A - A^dagger)/sqrt(2)", oscillator, "position_matrix",
               lambda matrix: lambda N: (lambda A: (A - A.T) / math.sqrt(2.0))(oscillator.annihilation_matrix(N))),
        set()),
    ("continuum-monotone", 0): (
        Mutant("the s grid spacing 1/sqrt(N p q), its 2 dropped", oscillator, "s_grid",
               lambda grid: lambda N, p: (lambda s, h: (s * math.sqrt(2.0), h * math.sqrt(2.0)))(*grid(N, p))),
        {("continuum-order", 0), ("ladder-monotone", 0)}),
    ("continuum-order", 0): (
        Mutant("s_x = (x + 1 - N p) / sqrt(2 N p q), the site off by one", oscillator, "s_grid",
               lambda grid: lambda N, p: (lambda s, h: (s + h, h))(*grid(N, p))), set()),
    ("ladder-monotone", 0): (
        Mutant("c_n the negative root of n (N - n + 1) / N", oscillator, "_ladder",
               lambda ladder: lambda N: -ladder(N)), {("position-eigenvectors", 0)}),
    ("hermite-schrodinger", 0): (
        Mutant("psi'' with + psi for the product rule's - psi", hermite, "schrodinger_residual", _product_rule_sign),
        set()),
    ("hermite-recurrence-algebraic", 0): (
        Mutant("2 s psi_n = sqrt(2(n+1)) psi_{n+1} - sqrt(2n) psi_{n-1}", hermite, "recurrence_residual",
               _lower_neighbour_sign), set()),
    ("hermite-recurrence-derivative", 0): (
        Mutant("the seed exp(-s^2), not exp(-s^2/2)", hermite, "psi_table",
               lambda table: lambda n_max, s: table(n_max, s) * np.exp(-0.5 * np.square(s))),
        {("hermite-gram", 0), ("continuum-monotone", 0), ("continuum-order", 0), ("ladder-monotone", 0)}),
    ("hermite-gram", 0): (Mutant("the Gram sum without its trapezoidal weights", hermite, "gram_matrix",
                                 _unweighted_gram), set()),
    ("hermite-ladder", 0): (
        Mutant("psi_n' = s psi_n - sqrt(2n) psi_{n-1}, its sign flipped", hermite, "_derivative",
               lambda derivative: lambda table, s: -derivative(table, s)), set()),
    ("state-json-round-trip", 0): (
        Mutant("the JSON writer negates the imaginary parts", LatticeState, "to_json", _imaginary_sign), set()),
}

# Rows whose mutant fails other rows too.  Each stays: it holds a property of
# code that other callers read (the basis table, the transforms, the
# trajectory, C^n, the d-table and its derivative, the continuum table, the
# Hermite table), which the rows its mutant also fails hold in a stronger form.
SHARED = {"basis-orthonormality", "fourier-parseval", "cayley-unitarity", "cayley-order", "wigner-symmetry",
          "wigner-orthogonality", "wigner-differential-plus", "wigner-differential-minus", "continuum-monotone",
          "ladder-monotone", "hermite-recurrence-derivative"}


def _keyed(rows):
    seen = collections.Counter()
    for row in rows:
        yield (row.check, seen[row.check]), row
        seen[row.check] += 1


@functools.cache  # one report per distinct mutant: the rows it serves share it
def _failing_under(mutant):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mutant.target, mutant.name, mutant.make(getattr(mutant.target, mutant.name)))
        return {key for key, row in _keyed(cli.build_verification_report(7)) if not row.passed}


def test_every_verify_all_row_has_a_mutant():
    # a new row must bring its own entry, and an entry must name a live row
    rows = dict(_keyed(cli.build_verification_report(7)))
    assert set(ROW_MUTANTS) == set(rows)
    assert all(row.passed for row in rows.values())
    assert SHARED == {key[0] for key, (_, also) in ROW_MUTANTS.items() if {name for name, _ in also} - {key[0]}}


@pytest.mark.parametrize("key", ROW_MUTANTS, ids=[f"{check}#{k}" for check, k in ROW_MUTANTS])
def test_a_mutant_fails_its_row_and_exactly_the_rows_named(key):
    mutant, also = ROW_MUTANTS[key]
    assert key not in also
    assert _failing_under(mutant) == {key} | also, mutant.what


def test_a_table_off_the_oscillator_fails_the_derivative_and_gram_rows(monkeypatch):
    # rows times exp(0.2 s^2) keep the generating recurrence, so the
    # Schrodinger, algebraic and ladder rows, which rearrange it, cannot
    # see them; only the derivative and Gram rows tie a table to psi_n
    table = hermite.psi_table
    monkeypatch.setattr(hermite, "psi_table", lambda n_max, s: table(n_max, s) * np.exp(0.2 * np.square(s)))
    rows = checks.hermite_oracle(np.linspace(-6.0, 6.0, 241), 10, 8, 6, 6)
    for name in ("hermite-recurrence-derivative", "hermite-gram"):
        assert not _row(rows, name).passed, _row(rows, name)
