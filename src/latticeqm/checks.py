"""The package's invariants, each written once.

Every function checks one group of identities over the sweep its caller
passes and returns ``CheckRow``s: the worst residual over the sweep, the
tolerance it is held to, and a params label built from the sweep.  The
d-table relations are one sweep: ``wigner`` builds each table once and
applies to it the relation groups its caller names from ``WIGNER``
(symmetry, orthogonality, recurrence, oracle, differential).
``verify-all`` calls them with small sweeps, the ``wigner`` and
``heisenberg-check`` subcommands at one point, and the acceptance tests with
wider sweeps.  Functions that draw random input take the caller's
generator, so one seed fixes every draw in call order.
"""

from __future__ import annotations

import math

import numpy as np

from . import cayley, hermite, kravchuk, oscillator, planewave
from .lattice import LatticeState
from .report import CheckRow

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])


def random_hermitian(rng, dim: int) -> np.ndarray:
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (M + M.conj().T)


def random_involution(rng, dim: int) -> np.ndarray:
    # unitary conjugate of a +-1 signature, Hermitian with H^2 = 1
    Q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    signs = np.where(rng.integers(0, 2, size=dim) == 0, -1.0, 1.0)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]  # keep it a genuine reflection
    return Q @ np.diag(signs) @ Q.conj().T


def _values(xs) -> str:
    """A sweep in a label: one value bare, several as {a;b;c}."""
    names = ["pi/2" if x == 0.5 * math.pi else str(x) for x in xs]
    return names[0] if len(names) == 1 else "{" + ";".join(names) + "}"


def _max_abs(X) -> float:
    return float(np.abs(X).max())


def basis(sizes, spacings) -> list:
    """Plane-wave tables are orthonormal and equal the DFT matrix at every spacing."""
    worst_gram = worst_dft = 0.0
    for N in sizes:
        j = np.arange(N)
        dft = np.exp(2j * np.pi * np.outer(j, j) / N) / math.sqrt(N)
        eye = np.eye(N)
        for eps in spacings:
            table = planewave.build_basis(N, eps).table
            worst_gram = max(worst_gram, _max_abs(table.conj().T @ table - eye))
            worst_dft = max(worst_dft, _max_abs(table - dft))
    label = f"N<={max(sizes)} eps in {_values(spacings)}"
    return [
        CheckRow("basis-orthonormality", label, worst_gram, 1e-12),
        CheckRow("basis-dft-identity", label, worst_dft, 1e-12),
    ]


def fourier(rng, sizes, states: int) -> list:
    """Forward then inverse transform of random states is the identity and keeps the norm."""
    worst_rt = worst_parseval = 0.0
    for N in sizes:
        b = planewave.build_basis(N, 0.7)
        for _ in range(states):
            f = LatticeState(rng.standard_normal(N) + 1j * rng.standard_normal(N), 0.7)
            a = planewave.forward_transform(b, f)
            g = planewave.inverse_transform(b, a)
            worst_rt = max(worst_rt, _max_abs(g.amplitudes - f.amplitudes))
            worst_parseval = max(worst_parseval, abs(float(np.linalg.norm(a)) - f.norm()))
    label = f"{states} random states per N"
    return [
        CheckRow("fourier-round-trip", label, worst_rt, 1e-12),
        CheckRow("fourier-parseval", label, worst_parseval, 1e-12),
    ]


def momentum(sizes) -> list:
    """Every basis column is an eigenvector of the forward-difference momentum."""
    worst = 0.0
    for N in sizes:
        b = planewave.build_basis(N, 1.3)
        lam = planewave.momentum_eigenvalues(b)
        for m in range(N):
            col = LatticeState(b.table[:, m], b.epsilon)
            out = planewave.momentum_apply(b, col)
            worst = max(worst, _max_abs(out.amplitudes - lam[m] * col.amplitudes))
    return [CheckRow("momentum-eigenrelation", f"N in {_values(sizes)} all columns", worst, 1e-10)]


def propagator(rng, H, taus, steps: int, residual_steps) -> list:
    """Norm drift of a random unit state stepped by hand, the midpoint residual
    of C^n, the half step, and spectral C^13 against 13 solve-built steps, for
    the Cayley step of H at each tau."""
    d = H.shape[0]
    drift = residual = half = group = 0.0
    for tau in taus:
        prop = cayley.build_propagator(H, tau)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        for _ in range(steps):
            psi = prop.factor @ psi
            drift = max(drift, abs(float(np.linalg.norm(psi)) - 1.0))
        for n in residual_steps:
            residual = max(residual, cayley.evolution_operator_residual(prop, n))
        half = max(half, _max_abs(prop.half_factor @ prop.half_factor - prop.factor))
        stepped = np.linalg.multi_dot([prop.factor] * 13)
        group = max(group, _max_abs(cayley.evolution_operator(prop, 13) - stepped))
    return [
        CheckRow("cayley-unitarity", f"dim {d} tau {_values(taus)} {steps} steps", drift, 1e-10),
        CheckRow("cayley-residual", f"dim {d} tau {_values(taus)} n {_values(residual_steps)}",
                 residual, 1e-10),
        CheckRow("cayley-half-step", "half step squares to one step", half, 1e-12),
        CheckRow("cayley-group-law", "spectral C^13 = 13 solve-built steps", group, 1e-11),
    ]


def propagator_order(H, taus) -> list:
    """C^n at n tau = 1 against exp(-iH): each halving of tau cuts the error fourfold."""
    props = [cayley.build_propagator(H, tau) for tau in taus]
    exact = props[0].spectral_function(lambda lam: np.exp(-1j * lam))
    errors = [_max_abs(cayley.evolution_operator(p, round(1.0 / p.tau)) - exact) for p in props]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    label = "halving ratio " + " ".join(f"{r:.3f}" for r in ratios)
    return [CheckRow("cayley-order", label, max(abs(r - 4.0) for r in ratios), 0.5)]


def heisenberg(rng, H, tau: float, n: int, schemes) -> list:
    """The named difference schemes of ``SchemeResiduals`` for a random observable."""
    A = random_hermitian(rng, H.shape[0])
    res = cayley.heisenberg_scheme_residuals(cayley.build_propagator(H, tau), A, n)
    label = f"dim {H.shape[0]} tau {tau} n {n}"
    return [CheckRow(f"heisenberg-{name.replace('_', '-')}", label, getattr(res, name), 1e-10)
            for name in schemes]


def involution(pairs, taus, n: int) -> list:
    """The five involution identities for each (H, A, label) pair at each tau."""
    rows = []
    for H, A, label in pairs:
        for tau in taus:
            for check in cayley.involution_identities(H, A, tau, n):
                e = check.fitted_exponent
                fitted = "nan" if math.isnan(e) else f"{e:.6f}"
                rows.append(CheckRow(f"involution-{check.name}", f"{label} tau {tau} exponent {fitted}",
                                     check.residual, 1e-10, e))
    return rows


def _symmetry(D) -> tuple:
    parity = np.where((np.add.outer(np.arange(D.N + 1), np.arange(D.N + 1))) % 2 == 0, 1.0, -1.0)
    return (_max_abs(D.table - parity * D.table.T),)


# each relation group: the residuals of one d-table, then its (row, tolerance)
# pairs; the lambdas look kravchuk's functions up when called, so a patched
# module attribute (a tracer, a test double) is the one that runs
WIGNER = {
    "symmetry": (_symmetry, (("wigner-symmetry", 1e-12),)),
    "orthogonality": (lambda D: (_max_abs(D.table.T @ D.table - np.eye(D.N + 1)),),
                      (("wigner-orthogonality", 1e-12),)),
    "recurrence": (lambda D: kravchuk.recurrence_residuals(D),
                   (("wigner-recurrence-three-term", 1e-10), ("wigner-recurrence-shift", 1e-10))),
    "oracle": (lambda D: (_max_abs(D.table - kravchuk.wigner_d_direct(D.N, D.beta)),),
               (("wigner-vs-oracle", 1e-10),)),
    "differential": (lambda D: kravchuk.differential_residuals(D),
                     (("wigner-differential-plus", 1e-6), ("wigner-differential-minus", 1e-6))),
}


def wigner(sizes, angles, groups) -> list:
    """The named relation groups of ``WIGNER``, in the order given, over one
    d-table built per (N, beta) of the sweep."""
    worst = {name: [0.0] * len(WIGNER[name][1]) for name in groups}
    for N in sizes:
        for beta in angles:
            D = kravchuk.build_wigner_d(N, beta)
            for name, values in worst.items():
                values[:] = map(max, values, WIGNER[name][0](D))
    label = f"N {_values(sizes)} beta {_values(angles)}"
    return [CheckRow(check, label, value, tol)
            for name, values in worst.items()
            for (check, tol), value in zip(WIGNER[name][1], values)]


def ladder_spectra(sizes) -> list:
    """Commutator and anticommutator spectra in closed form; the commutator is traceless."""
    worst_comm = worst_energy = worst_trace = 0.0
    for N in sizes:
        model = oscillator.build_oscillator(N)
        n = np.arange(N + 1, dtype=float)
        worst_comm = max(worst_comm, _max_abs(oscillator.commutator_spectrum(model) - (1.0 - n / model.j)))
        worst_energy = max(worst_energy, _max_abs(
            oscillator.energy_spectrum(model) - ((2.0 * n + 1.0) - n * n / model.j)))
        A = oscillator.annihilation_matrix(model)
        worst_trace = max(worst_trace, abs(float(np.trace(A @ A.T - A.T @ A))))
    label = f"N in {_values(sizes)}"
    return [
        CheckRow("oscillator-commutator", label, worst_comm, 1e-10),
        CheckRow("oscillator-energies", label, worst_energy, 1e-10),
        CheckRow("oscillator-commutator-trace", label, worst_trace, 1e-12),
    ]


def position(sizes) -> list:
    """Position eigenvalues sit on the grid m'/sqrt(j); quarter-turn d-table columns are the eigenvectors."""
    worst_grid = worst_vec = 0.0
    for N in sizes:
        model = oscillator.build_oscillator(N)
        spec = oscillator.position_spectrum(model)
        worst_grid = max(worst_grid, _max_abs(spec.eigenvalues - spec.m_prime / math.sqrt(model.j)))
        X = oscillator.position_matrix(model)
        D = kravchuk.build_wigner_d(N, 0.5 * math.pi)
        for x in range(N + 1):
            col = D.table[:, x]
            lam = (model.j - x) / math.sqrt(model.j)
            worst_vec = max(worst_vec, _max_abs(X @ col - lam * col))
    return [
        CheckRow("position-grid", f"N in {_values(sizes)}", worst_grid, 1e-9),
        CheckRow("position-eigenvectors", f"d-table columns N in {_values(sizes)}", worst_vec, 1e-9),
    ]


def continuum(levels, sizes) -> list:
    """Errors against the Hermite levels shrink at each size step, at fitted order >= 0.9."""
    worst_ratio = 0.0
    orders = []
    for n in levels:
        table = oscillator.continuum_convergence(n, sizes)
        worst_ratio = max(worst_ratio, float((table.max_errors[1:] / table.max_errors[:-1]).max()))
        orders.append(table.fitted_order)
    return [
        CheckRow("continuum-monotone", f"n<={max(levels)} N in {_values(sizes)}", worst_ratio, 0.99),
        CheckRow("continuum-order", "orders " + " ".join(f"{o:.2f}" for o in orders),
                 max(0.0, 0.9 - min(orders)), 0.0),
    ]


def ladder(levels, sizes) -> list:
    """Ladder actions approach sqrt(n) and sqrt(n+1) times the neighbouring levels."""
    worst = 0.0
    for n in levels:
        table = oscillator.ladder_limit_check(n, sizes)
        worst = max(worst, float((table.raise_errors[1:] / table.raise_errors[:-1]).max()))
        if n > 0:  # the lowering error of level 0 is identically zero
            worst = max(worst, float((table.lower_errors[1:] / table.lower_errors[:-1]).max()))
    return [CheckRow("ladder-monotone", f"n {_values(levels)} N in {_values(sizes)}", worst, 0.99)]


def limit_recurrence(centred, skewed) -> list:
    """The 1/N-corrected recurrences at (N, p, n) = centred, and their worst at skewed."""
    N, p, n = centred
    res = oscillator.limit_recurrence_check(oscillator.build_oscillator(N, p), n)
    rows = [
        CheckRow("limit-recurrence-three-term", f"N {N} p {p} n {n}", res.three_term, 1e-9),
        CheckRow("limit-recurrence-difference", f"N {N} p {p} n {n}", res.difference, 1e-9),
    ]
    N, p, n = skewed
    res = oscillator.limit_recurrence_check(oscillator.build_oscillator(N, p), n)
    rows.append(CheckRow("limit-recurrence-skewed", f"N {N} p {p} n {n}",
                         max(res.three_term, res.difference), 1e-9))
    return rows


def hermite_oracle(s, schrodinger_levels, recurrence_levels, gram_max: int, ladder_levels) -> list:
    """Schrodinger residual, recurrences, Gram matrix and ladder of the Hermite functions on grid s."""
    bound = f"|s|<={float(np.abs(s).max()):g}"
    schrod = max(hermite.schrodinger_residual(n, s) for n in schrodinger_levels)
    algebraic = derivative = 0.0
    for n in recurrence_levels:
        res = hermite.recurrence_residual(n, s)
        algebraic, derivative = max(algebraic, res.algebraic), max(derivative, res.derivative)
    gram = _max_abs(hermite.gram_matrix(gram_max) - np.eye(gram_max + 1))
    worst_ladder = 0.0
    for n in ladder_levels:
        up = hermite.ladder_apply("raise", n, s) - math.sqrt(n + 1.0) * hermite.eval_psi(n + 1, s)
        worst_ladder = max(worst_ladder, _max_abs(up))
        if n >= 1:
            dn = hermite.ladder_apply("lower", n, s) - math.sqrt(float(n)) * hermite.eval_psi(n - 1, s)
            worst_ladder = max(worst_ladder, _max_abs(dn))
    return [
        CheckRow("hermite-schrodinger", f"n<={max(schrodinger_levels)} {bound}", schrod, 1e-10),
        CheckRow("hermite-recurrence-algebraic", f"n<={max(recurrence_levels)} {bound}", algebraic, 1e-12),
        CheckRow("hermite-recurrence-derivative", f"n<={max(recurrence_levels)} central difference h 1e-5",
                 derivative, 1e-8),
        CheckRow("hermite-gram", f"n<={gram_max} trapezoidal", gram, 1e-8),
        CheckRow("hermite-ladder", f"n<={max(ladder_levels)} analytic derivative", worst_ladder, 1e-12),
    ]


def state_round_trip(rng, sizes, epsilon: float) -> list:
    """JSON write then read of random states is exact, spacing included."""
    worst = 0.0
    for N in sizes:
        f = LatticeState(rng.standard_normal(N) + 1j * rng.standard_normal(N), epsilon)
        g = LatticeState.from_json(f.to_json())
        worst = max(worst, _max_abs(g.amplitudes - f.amplitudes) + abs(g.epsilon - f.epsilon))
    return [CheckRow("state-json-round-trip", f"{_values(sizes)} sites", worst, 0.0)]
