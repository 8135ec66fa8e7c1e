"""Finite oscillator on N+1 levels and its continuum limit.

The ladder coefficients

    lower_n = sqrt(n (N - n + 1) / N),   raise_n = sqrt((N - n)(n + 1) / N)

act on the level basis v_0 .. v_N; both chains terminate, so the whole
algebra lives on (N+1) x (N+1) matrices.  The commutator [A, A^dagger] is
diagonal with entries 1 - n/j (j = N/2) instead of the constant 1, and the
anticommutator gives energies (2n+1) - n^2/j in units of half a quantum.
Everything distorted by 1/j flows back to the continuum oscillator as N
grows; the checks in this module quantify that convergence on the rescaled
coordinate s_x = (x - N p) / sqrt(2 N p q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hermite
from .kravchuk import RecurrenceResiduals, _relations, build_kravchuk, orthonormal_functions
from .lattice import _integer, _order, _probability


@dataclass(frozen=True)
class OscillatorModel:
    """Ladder coefficient tables for one finite oscillator."""

    N: int
    p: float
    lower_coeff: np.ndarray  # lower_coeff[n] multiplies v_{n-1} in A v_n
    raise_coeff: np.ndarray  # raise_coeff[n] multiplies v_{n+1} in A^dagger v_n

    @property
    def j(self) -> float:
        return 0.5 * self.N


def build_oscillator(N: int, p: float = 0.5) -> OscillatorModel:
    N, p = _order(N), _probability(p)
    n = np.arange(N + 1, dtype=float)
    lower = np.sqrt(n * (N - n + 1.0) / N)
    raise_ = np.sqrt((N - n) * (n + 1.0) / N)
    return OscillatorModel(N=N, p=p, lower_coeff=lower, raise_coeff=raise_)


def annihilation_matrix(model: OscillatorModel) -> np.ndarray:
    """A in the level basis: superdiagonal of lowering coefficients."""
    return np.diag(model.lower_coeff[1:], k=1)


def position_matrix(model: OscillatorModel) -> np.ndarray:
    """X = (A + A^dagger)/sqrt(2), a real symmetric tridiagonal matrix."""
    A = annihilation_matrix(model)
    return (A + A.T) / math.sqrt(2.0)


def hamiltonian_matrix(model: OscillatorModel) -> np.ndarray:
    """H = (A A^dagger + A^dagger A) / 2, in units of hbar*omega."""
    A = annihilation_matrix(model)
    return 0.5 * (A @ A.T + A.T @ A)


def commutator_spectrum(model: OscillatorModel) -> np.ndarray:
    """Diagonal of [A, A^dagger], computed from the matrices.

    The exact values are 1 - n/j; the deformation vanishes only as j grows.
    """
    A = annihilation_matrix(model)
    return np.diagonal(A @ A.T - A.T @ A).copy()


def energy_spectrum(model: OscillatorModel) -> np.ndarray:
    """Diagonal of 2H = A A^dagger + A^dagger A, the energies in units of hbar*omega/2.

    The exact values are (2n + 1) - n^2/j: equally spaced at the bottom,
    folded symmetrically around the middle level.
    """
    return 2.0 * np.diagonal(hamiltonian_matrix(model))


@dataclass(frozen=True)
class PositionSpectrum:
    """Eigenvalues of the position matrix.

    ``eigenvalues`` ascend and land on the uniform grid m'/sqrt(j) for
    m' = -j .. j, listed in ``m_prime``.  The eigenvectors are the
    quarter-turn d-table columns, which ``checks.position`` compares.
    """

    eigenvalues: np.ndarray
    m_prime: np.ndarray


def position_spectrum(model: OscillatorModel) -> PositionSpectrum:
    # eigh, not eigvalsh: their eigenvalues differ in the last bits, and position-grid keeps eigh's
    lam = np.linalg.eigh(position_matrix(model)).eigenvalues
    m_prime = np.arange(model.N + 1, dtype=float) - model.j
    return PositionSpectrum(eigenvalues=lam, m_prime=m_prime)


def s_grid(N: int, p: float) -> tuple[np.ndarray, float]:
    """Rescaled coordinate s_x = (x - N p)/sqrt(2 N p q) and its spacing."""
    N, p = _order(N), _probability(p)
    q = 1.0 - p
    spacing = 1.0 / math.sqrt(2.0 * N * p * q)
    x = np.arange(N + 1, dtype=float)
    return (x - N * p) * spacing, spacing


def _aligned_level_rows(N: int, p: float, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal level rows rescaled to the s grid, signs matched to psi.

    Returns (s, g, psi) where g[n] = phi_n / sqrt(spacing) with the overall
    sign fixed at the grid point where psi_n is largest in magnitude.  Low
    rows of the recurrence stay accurate even at N in the hundreds, which is
    all the continuum checks ever ask for.
    """
    family = build_kravchuk(N, p, n_max=n_max)
    phi = orthonormal_functions(family)
    s, spacing = s_grid(N, p)
    psi = hermite.psi_table(n_max, s)
    g = phi / math.sqrt(spacing)
    levels, anchor = np.arange(n_max + 1), np.argmax(np.abs(psi), axis=1)
    flip = g[levels, anchor] * psi[levels, anchor] < 0
    g[flip] = -g[flip]
    return s, g, psi


@dataclass(frozen=True)
class ConvergenceTable:
    """Continuum-limit errors of levels 0..n_max: row i is sizes[i], column n is level n.

    ``max_errors`` is the max deviation of the rescaled level profile from
    psi_n; ``lower_errors`` and ``raise_errors`` compare the rescaled A v_n
    and A^dagger v_n with sqrt(n) psi_{n-1} and sqrt(n+1) psi_{n+1}.  The
    lowering error of level 0 is exactly 0 because the chain terminates.
    ``raise_coeff[0]`` and ``lower_coeff[1]`` are exactly 1.0 for every N,
    so ``raise_errors[:, 0]`` equals ``max_errors[:, 1]`` and
    ``lower_errors[:, 1]`` equals ``max_errors[:, 0]`` bitwise: a profile
    row and a ladder row over those levels read the same residual.
    """

    sizes: np.ndarray
    max_errors: np.ndarray
    lower_errors: np.ndarray
    raise_errors: np.ndarray
    fitted_orders: np.ndarray  # per level, from max_errors


def continuum_convergence(n_max: int, N_list, p: float = 0.5) -> ConvergenceTable:
    """Measure how fast levels 0..n_max and their ladder actions approach the continuum.

    For each N one aligned table of levels 0..n_max+1 is rescaled by
    1/sqrt(spacing) onto the s grid and compared pointwise with psi_n; A v_n
    is lower_n times the level n-1 profile, A^dagger v_n raise_n times the
    level n+1 profile.  The fitted order of a level is the least squares
    slope of log(error) against log(N), negated, so first order convergence
    reports a value near one.
    """
    n_max = hermite._level(n_max, "n_max")
    try:
        sizes = np.asarray(sorted(_integer(N, "each size") for N in N_list), dtype=int)
    except OverflowError:
        raise ValueError("each size must fit a 64-bit integer") from None
    if sizes.size == 0 or sizes[0] == sizes[-1]:
        raise ValueError(f"need at least two distinct sizes, got {sizes.tolist()}")
    if sizes[0] <= n_max:
        raise ValueError(f"all sizes must exceed n_max = {n_max}, got N={sizes[0]}")
    errors, lower, raise_ = (np.zeros((sizes.size, n_max + 1)) for _ in range(3))
    root = np.sqrt(np.arange(1.0, n_max + 2.0))[:, None]  # root[n] = sqrt(n + 1)
    for i, N in enumerate(sizes):
        model = build_oscillator(int(N), p)
        _, g, psi = _aligned_level_rows(int(N), p, n_max + 1)
        errors[i] = np.abs(g[:-1] - psi[:-1]).max(axis=1)
        lower[i, 1:] = np.abs(model.lower_coeff[1:n_max + 1, None] * g[:-2] - root[:-1] * psi[:-2]).max(axis=1)
        raise_[i] = np.abs(model.raise_coeff[:n_max + 1, None] * g[1:] - root * psi[1:]).max(axis=1)
    log_sizes = np.log(sizes.astype(float))
    orders = np.array([-np.polyfit(log_sizes, np.log(errors[:, n]), 1)[0] for n in range(n_max + 1)])
    return ConvergenceTable(sizes=sizes, max_errors=errors, lower_errors=lower,
                            raise_errors=raise_, fitted_orders=orders)


def limit_recurrence_check(model: OscillatorModel, n: int) -> RecurrenceResiduals:
    """Residuals at level n of the d-table contiguity relations, rescaled by sqrt(2/N).

    The recurrence rows phi_0 .. phi_{n+1}, signed by the checkerboard
    (-1)^(k+x) on row k, are rows of the d-table at p = sin^2(beta/2), so the
    relations of ``kravchuk.recurrence_residuals`` hold on them.  Times
    sqrt(2/N) and written on the grid s_x, they read

    three_term:
        2 (s_x + (2p-1) n / sqrt(2 N p q)) phi_n
            = sqrt(2(n+1)) sqrt(1 - n/N) phi_{n+1}
            + sqrt(2n) sqrt(1 - (n-1)/N) phi_{n-1}

    shift:
        sqrt(2 N p) ( sqrt((1 - x/N)(x+1)/(N p)) phi_n(x+1)
                      - sqrt((x/(N p))(1 - (x-1)/N)) phi_n(x-1) )
            = sqrt(2n (1 - (n-1)/N)) phi_{n-1}
            - sqrt(2(n+1)(1 - n/N)) phi_{n+1}

    Both are exact, so the residuals sit at roundoff level for any N; as N
    grows the coefficients visibly flow to the continuum relations for
    2 s psi_n and 2 psi_n'.
    """
    n = _integer(n, "n")
    N, p = model.N, model.p
    if not 0 <= n < N:
        raise ValueError(f"need 0 <= n < N for the neighbour rows, got n={n}, N={N}")
    # a fresh array, so the checkerboard signs it in place and touches no cached table
    rows = orthonormal_functions(build_kravchuk(N, p, n_max=n + 1))
    rows[0::2, 1::2] *= -1.0
    rows[1::2, 0::2] *= -1.0
    three_term, shift = _relations(rows, N, p, 1.0 - p, math.sqrt(p * (1.0 - p)))
    scale = math.sqrt(2.0 / N)
    return RecurrenceResiduals(three_term=scale * float(three_term[n]), shift=scale * float(shift[n]))
