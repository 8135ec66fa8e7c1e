"""The package's invariants, each written once.

Every function checks one group of identities over the sweep its caller
passes and returns ``CheckRow``s: the worst residual over the sweep, the
tolerance it is held to, and a params label built from the sweep.  One
fold, ``_worst``, takes that worst for every sweep; a NaN residual at any
sweep point makes its row NaN, so the row fails, and an empty sweep raises.
The d-table relations are one sweep: ``wigner`` builds each table once and
applies to it the relation groups its caller names from ``WIGNER``
(``_symmetry``, ``_orthogonality``, recurrence, oracle, differential).  ``verify-all``
calls them with small sweeps, ``heisenberg-check`` with verify-all's names and
``wigner`` at one point, the demos at the points they print, the
acceptance tests with wider sweeps, and the unit tests at their own sweeps,
holding each row's residual to the test's own bound.  Random draws come
from the caller's generator, so one seed fixes every draw in call order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import cayley, hermite, kravchuk, oscillator, planewave
from .lattice import LatticeState, _array, _count
from .report import CheckRow

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])


def random_hermitian(rng, dim: int) -> np.ndarray:
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (M + M.conj().T)


def _involution_dim(dim) -> int:
    """The dimension of a random involution: a genuine reflection needs room for both signs."""
    return _count(dim, "dim", 2)


def random_involution(rng, dim: int) -> np.ndarray:
    # unitary conjugate of a +-1 signature, Hermitian with H^2 = 1
    dim = _involution_dim(dim)
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
    return float(np.abs(X).max(initial=0.0))


def _worst_ratio(errors) -> float:
    """The largest ratio of successive errors; below 1 means strictly shrinking."""
    return float((errors[1:] / errors[:-1]).max())


def _worst(rows, points) -> list:
    """One ``CheckRow`` per (check, params, tolerance) of ``rows``, holding
    the worst of its column over ``points``, which yields one tuple of
    residuals per sweep point.  ``np.maximum`` from 0 keeps a NaN.  No point
    or no row raises; ``rows`` is read after the fold, so a label may take ``max``."""
    worst = ()
    for i, residuals in enumerate(points):
        worst = np.maximum(worst if i else 0.0, residuals)
    return _nonempty([CheckRow(check, params, value, tol) for value, (check, params, tol) in zip(worst, rows)])


def _nonempty(rows: list) -> list:
    """``rows``, unless there are none: a caller's ``all(row.passed ...)`` would pass them."""
    if not len(rows):
        raise ValueError("empty sweep: no point to check")
    return rows


def basis(sizes, spacings) -> list:
    """Plane-wave tables are orthonormal and equal the DFT matrix at every spacing."""
    def points():
        for N in sizes:
            j = np.arange(N)
            dft = np.exp(2j * np.pi * np.outer(j, j) / N) / math.sqrt(N)
            eye = np.eye(N)
            for eps in spacings:
                table = planewave.build_basis(N, eps).table
                yield _max_abs(table.conj().T @ table - eye), _max_abs(table - dft)
    return _worst(((check, f"N<={max(sizes)} eps in {_values(spacings)}", 1e-12)
                   for check in ("basis-orthonormality", "basis-dft-identity")), points())


def fourier(rng, sizes, states: int) -> list:
    """Forward then inverse transform of a block of random states, one per column,
    is the identity and keeps each column's norm."""
    _nonempty(range(states))  # no state is an empty sweep, not an empty block

    def points():
        for N in sizes:
            b = planewave.build_basis(N, 0.7)
            draws = rng.standard_normal((states, 2, N))  # per state, its real then its imaginary part
            f = (draws[:, 0] + 1j * draws[:, 1]).T
            a = planewave.forward_transform(b, f)
            yield (_max_abs(planewave.inverse_transform(b, a) - f),
                   _max_abs(np.linalg.norm(a, axis=0) - np.linalg.norm(f, axis=0)))
    label = f"{states} random states per N"
    return _worst((("fourier-round-trip", label, 1e-12), ("fourier-parseval", label, 1e-12)), points())


def momentum(sizes) -> list:
    """Every basis column is an eigenvector of the forward-difference momentum."""
    def points():
        for N in sizes:
            b = planewave.build_basis(N, 1.3)
            yield (_max_abs(planewave.momentum_apply(b, b.table) - b.table * planewave.momentum_eigenvalues(b)),)
    return _worst((("momentum-eigenrelation", f"N in {_values(sizes)} all columns", 1e-10),), points())


def propagator(rng, H, taus, steps: int, residual_steps) -> list:
    """Norm drift of every state along a random unit state's ``evolve_trajectory``
    in one norm call, the midpoint residual of C^n, and the group law: spectral
    C^13 against 13 solve-built steps, and ``evolve_state`` against the
    trajectory's last state, for the Cayley step of H at each tau."""
    d = H.shape[0]
    if steps < 1:  # the trajectory would hold no state, so its norm row would read 0
        raise ValueError("empty sweep: no step along the trajectory")
    if not len(residual_steps):
        raise ValueError("empty sweep: no step count for the midpoint residual")

    def points():
        for tau in taus:
            prop = cayley.build_propagator(H, tau)
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            traj = cayley.evolve_trajectory(prop, psi, steps)
            norms = np.linalg.norm(traj[1:], axis=1)
            stepped = prop.factor
            for _ in range(12):  # equal factors: every order costs the same, so no chain-order search
                stepped = stepped @ prop.factor
            yield (_max_abs(norms - 1.0),
                   _max_abs([cayley.evolution_operator_residual(prop, n) for n in residual_steps]),
                   max(_max_abs(cayley.evolution_operator(prop, 13) - stepped),
                       _max_abs(cayley.evolve_state(prop, psi, steps) - traj[-1])))
    return _worst((
        ("cayley-unitarity", f"dim {d} tau {_values(taus)} {steps} steps", 1e-10),
        ("cayley-residual", f"dim {d} tau {_values(taus)} n {_values(residual_steps)}", 1e-10),
        ("cayley-group-law", f"spectral C^13 and C^{steps} psi = solve-built steps", 1e-11),
    ), points())


def propagator_order(H, taus) -> list:
    """C^n at n tau = 1 against exp(-iH): each halving of tau cuts the error fourfold."""
    if len(taus) < 2:
        raise ValueError(f"need at least two step sizes for a halving ratio, got {len(taus)}")
    props = [cayley.build_propagator(H, tau) for tau in taus]
    exact = props[0].spectral_function(lambda lam: np.exp(-1j * lam))
    errors = [_max_abs(cayley.evolution_operator(p, round(1.0 / p.tau)) - exact) for p in props]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    label = "halving ratio " + " ".join(f"{r:.3f}" for r in ratios)
    return _worst((("cayley-order", label, 0.5),), ((abs(r - 4.0),) for r in ratios))


def heisenberg(rng, H, tau: float, n: int) -> list:
    """The difference schemes of ``SchemeResiduals``, in field order, for a random observable."""
    A = random_hermitian(rng, H.shape[0])
    res = cayley.heisenberg_scheme_residuals(cayley.build_propagator(H, tau), A, n)
    label = f"dim {H.shape[0]} tau {tau} n {n}"
    return [CheckRow(f"heisenberg-{name}", label, residual, 1e-10)
            for name, residual in dataclasses.asdict(res).items()]


def _exponent(value: float) -> str:
    """A fitted exponent in a label; a NaN or infinite fit says that it had no signal."""
    return f"{value:.6f}" if math.isfinite(value) else "n/a (no signal)"


def involution(pairs, taus, n: int) -> list:
    """The five involution identities for each (H, A, label) pair at each tau."""
    return _nonempty([
        CheckRow(f"involution-{c.name}", f"{label} tau {tau} exponent {_exponent(c.fitted_exponent)}", c.residual, 1e-10)
        for H, A, label in pairs for tau in taus for c in cayley.involution_identities(H, A, tau, n)])


def _symmetry(D) -> tuple:
    """d - (-1)^(n+x) d^T in one scratch table: T + T^T, exactly T - (-1) T^T, where n + x is odd."""
    T, work = D.table, np.empty_like(D.table)
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        (np.add if a != b else np.subtract)(T[a::2, b::2], T.T[a::2, b::2], out=work[a::2, b::2])
    return (float(np.abs(work, out=work).max(initial=0.0)),)


def _orthogonality(D) -> tuple:
    gram = D.table.T @ D.table
    gram.reshape(-1)[:: D.N + 2] -= 1.0  # T^T T - 1 in the product's own table
    return (float(np.abs(gram, out=gram).max(initial=0.0)),)


# each relation group: the residuals of one d-table, then its (row, tolerance)
# pairs; the lambdas look kravchuk's functions up when called, so a patched
# module attribute (a tracer, a test double) is the one that runs
WIGNER = {
    "symmetry": (_symmetry, (("wigner-symmetry", 1e-12),)),
    "orthogonality": (_orthogonality, (("wigner-orthogonality", 1e-12),)),
    "recurrence": (lambda D: kravchuk.recurrence_residuals(D),
                   (("wigner-recurrence-three-term", 1e-10), ("wigner-recurrence-shift", 1e-10))),
    "oracle": (lambda D: (_max_abs(D.table - kravchuk.wigner_d_direct(D.N, D.beta)),),
               (("wigner-vs-oracle", 1e-10),)),
    "differential": (lambda D: kravchuk.differential_residuals(D),
                     (("wigner-differential-plus", 1e-10), ("wigner-differential-minus", 1e-10))),
}


def wigner(sizes, angles, groups) -> list:
    """The named relation groups of ``WIGNER``, in the order given, over one
    d-table built per (N, beta) of the sweep."""
    label = f"N {_values(sizes)} beta {_values(angles)}"
    tables = (kravchuk.build_wigner_d(N, beta) for N in sizes for beta in angles)
    return _worst([(check, label, tol) for name in groups for check, tol in WIGNER[name][1]],
                  ([r for name in groups for r in WIGNER[name][0](D)] for D in tables))


def ladder_spectra(sizes) -> list:
    """Commutator and anticommutator spectra in closed form.  Both rows see a ladder that
    does not terminate: a nonzero c_0 or c_{N+1} moves the first or last entry of each spectrum."""
    def points():
        for N in sizes:
            j = 0.5 * N
            n = np.arange(N + 1, dtype=float)
            yield (_max_abs(oscillator.commutator_spectrum(N) - (1.0 - n / j)),
                   _max_abs(oscillator.energy_spectrum(N) - ((2.0 * n + 1.0) - n * n / j)))
    label = f"N in {_values(sizes)}"
    return _worst((("oscillator-commutator", label, 1e-10), ("oscillator-energies", label, 1e-10)), points())


def position(sizes) -> list:
    """Position eigenvalues sit on the grid m'/sqrt(j); quarter-turn d-table columns are the eigenvectors,
    column x of eigenvalue (j - x)/sqrt(j), all held by one product X @ table per N."""
    def points():
        for N in sizes:
            X, j = oscillator.position_matrix(N), 0.5 * N
            D = kravchuk.build_wigner_d(N, 0.5 * math.pi)
            lam = (j - np.arange(N + 1)) / math.sqrt(j)
            m_prime = np.arange(N + 1.0) - j
            yield (_max_abs(oscillator.position_spectrum(N) - m_prime / math.sqrt(j)),
                   _max_abs(X @ D.table - D.table * lam))
    return _worst((("position-grid", f"N in {_values(sizes)}", 1e-9),
                   ("position-eigenvectors", f"d-table columns N in {_values(sizes)}", 1e-9)), points())


def continuum(levels, ladder_levels, sizes) -> list:
    """Profile errors against the Hermite levels shrink at each size step, at
    fitted order >= 0.9, and so do the ladder actions' errors against sqrt(n)
    and sqrt(n+1) times the neighbouring levels; one table holds every level."""
    table = oscillator.continuum_convergence(max((*levels, *ladder_levels), default=0), sizes)
    orders = [table.fitted_orders[n] for n in levels]
    # the lowering error of level 0 is identically zero
    ladder = [table.raise_errors[:, n] for n in ladder_levels] + [
        table.lower_errors[:, n] for n in ladder_levels if n > 0]

    # folded from 0, the order column reads max(0, 0.9 - lowest order)
    def profile_rows():
        yield "continuum-monotone", f"n<={max(levels)} N in {_values(sizes)}", 0.99
        yield "continuum-order", "orders " + " ".join(f"{order:.2f}" for order in orders), 0.0
    return [
        *_worst(profile_rows(),
                ((_worst_ratio(table.max_errors[:, n]), 0.9 - order) for n, order in zip(levels, orders))),
        *_worst((("ladder-monotone", f"n {_values(ladder_levels)} N in {_values(sizes)}", 0.99),),
                ((_worst_ratio(errors),) for errors in ladder)),
    ]


def hermite_oracle(s, schrodinger_max: int, recurrence_max: int, gram_max: int, ladder_max: int) -> list:
    """Schrodinger, recurrence, Gram and ladder relations of the Hermite levels up to each bound on grid s."""
    s = _nonempty(_array(s, "s", None, scalar=True))  # no point is an empty sweep; the label reads s as given
    bound = f"|s|<={_max_abs(s):g}"
    raised, lowered = hermite.ladder_apply(ladder_max, s)
    psi = hermite.psi_table(ladder_max + 1, s)
    n = np.arange(1.0, ladder_max + 2.0)[:, None]
    # the lowering of level 0 is not compared: its target sqrt(0) psi_{-1} is 0
    ladder = np.concatenate([raised - np.sqrt(n) * psi[1:], lowered[1:] - np.sqrt(n[:-1]) * psi[:-2]])
    return [
        *_worst((("hermite-schrodinger", f"n<={schrodinger_max} {bound}", 1e-10),),
                zip(hermite.schrodinger_residual(schrodinger_max, s))),
        *_worst((("hermite-recurrence-algebraic", f"n<={recurrence_max} {bound}", 1e-12),
                 ("hermite-recurrence-derivative", f"n<={recurrence_max} central difference h 1e-5", 1e-8)),
                zip(*hermite.recurrence_residual(recurrence_max, s))),
        CheckRow("hermite-gram", f"n<={gram_max} trapezoidal",
                 _max_abs(hermite.gram_matrix(gram_max) - np.eye(gram_max + 1)), 1e-8),
        *_worst((("hermite-ladder", f"n<={ladder_max} analytic derivative", 1e-12),),
                zip(np.abs(ladder).max(axis=1))),
    ]


def state_round_trip(rng, sizes, epsilon: float) -> list:
    """JSON write then read of random states is exact, spacing included."""
    def points():
        for N in sizes:
            f = LatticeState(rng.standard_normal(N) + 1j * rng.standard_normal(N), epsilon)
            g = LatticeState.from_json(f.to_json())
            yield (_max_abs(g.amplitudes - f.amplitudes) + abs(g.epsilon - f.epsilon),)
    return _worst((("state-json-round-trip", f"{_values(sizes)} sites", 0.0),), points())
