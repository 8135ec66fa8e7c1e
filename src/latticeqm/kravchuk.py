"""Kravchuk polynomials on the binomial weight and the orthogonal d-tables.

The polynomials k_n(x) for n = 0..N are orthogonal on the sites x = 0..N with
weight rho(x) = binom(N,x) p^x q^(N-x), q = 1 - p.  Attaching sqrt(rho) and
dividing by the norm gives an orthonormal (N+1) x (N+1) table; with the
checkerboard sign (-1)^(n+x) it becomes the rotation d-table of order j = N/2
at angle beta, where p = sin^2(beta/2).

Three construction routes are kept deliberately separate:

* ``build_kravchuk`` runs the defining three-term recurrence in the degree.
  That route is definitional and accurate for low degrees and for moderate p,
  but loses digits on full tables at large N when p is far from 1/2.
* ``build_wigner_d`` forms the rotation exp(-i beta J_y) from J_x, a real
  symmetric tridiagonal matrix with zero diagonal that does not depend on
  beta.  J_x only couples even sites to odd ones, so one singular value
  decomposition of its half-size even-odd block gives its whole spectrum;
  that decomposition is cached per N (the last 8 orders).  Every singular
  pair enters the table twice, so the signs the solver leaves free cancel,
  and the table stays orthogonal to machine precision for every N and every
  beta in (0, pi).  The same factors give the exact beta-derivative of the
  table, so the first-order differential relations hold to rounding at
  every N.
* ``wigner_d_direct`` evaluates the classical finite sum for each entry
  exactly, in Python integers: with tan^2(beta/2) = A/B taken exactly from
  the floats cos(beta/2) and sin(beta/2), each entry's alternating sum is one
  integer numerator over one common denominator, reduced once.  The powers of
  B and the factorials are formed once per table.  It shares nothing with the
  other two routes and serves as the oracle they are both tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import _integer, _order, _probability


def binomial_weights(N: int, p: float) -> np.ndarray:
    """Binomial weights rho(x) = binom(N,x) p^x q^(N-x), x = 0..N.

    Evaluated in log space so large N stays finite; the weights sum to one.
    """
    N, p = _order(N), _probability(p)
    x = np.arange(N + 1)
    log_binom = (
        math.lgamma(N + 1)
        - np.array([math.lgamma(v + 1) + math.lgamma(N - v + 1) for v in x])
    )
    return np.exp(log_binom + x * math.log(p) + (N - x) * math.log(1.0 - p))


@dataclass(frozen=True)
class KravchukFamily:
    """Kravchuk values, weights and norms for one (N, p).

    ``values[n, x]`` is k_n(x) for n = 0..n_max, x = 0..N, generated by the
    three-term recurrence with k_0 = 1.  ``norms[n]`` is the weighted norm
    sqrt(sum_x rho(x) k_n(x)^2).
    """

    N: int
    p: float
    values: np.ndarray
    weights: np.ndarray
    norms: np.ndarray


def build_kravchuk(N: int, p: float, n_max: int | None = None) -> KravchukFamily:
    """Generate Kravchuk polynomial values by the degree recurrence.

    (n+1) k_{n+1}(x) = ((x - N p) - n (q - p)) k_n(x) - p q (N - n + 1) k_{n-1}(x)

    starting from k_0 = 1 and k_1 = x - N p.  ``n_max`` defaults to N (the
    full square table).  The recurrence is exact as written but accumulates
    cancellation on high degrees at large N when p is far from 1/2; callers
    needing full tables in that regime should use ``build_wigner_d``.
    """
    N, p = _order(N), _probability(p)
    weights = binomial_weights(N, p)
    q = 1.0 - p
    n_max = N if n_max is None else _integer(n_max, "n_max")
    if not 0 <= n_max <= N:
        raise ValueError(f"n_max must lie in 0..{N}, got {n_max}")

    x = np.arange(N + 1, dtype=float)
    values = np.empty((n_max + 1, N + 1))
    values[0] = 1.0
    if n_max >= 1:
        values[1] = x - N * p
    for n in range(1, n_max):
        values[n + 1] = (
            ((x - N * p) - n * (q - p)) * values[n]
            - p * q * (N - n + 1) * values[n - 1]
        ) / (n + 1)

    norms = np.sqrt(np.sum(weights * values**2, axis=1))
    return KravchukFamily(N=N, p=p, values=values, weights=weights, norms=norms)


def orthonormal_functions(family: KravchukFamily) -> np.ndarray:
    """Rows phi_n(x) = sqrt(rho(x)) k_n(x) / ||k_n||, orthonormal over x."""
    return np.sqrt(family.weights) * family.values / family.norms[:, None]


# ----------------------------------------------------------------------
# d-tables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WignerDMatrix:
    """Orthogonal rotation table of order j = N/2 at angle beta.

    ``table[n, x]`` corresponds to row index m = j - n and column index
    m' = j - x, so the (0, 0) corner carries cos(beta/2)^N.
    """

    N: int
    beta: float
    table: np.ndarray

    @property
    def p(self) -> float:
        return math.sin(0.5 * self.beta) ** 2

    @property
    def q(self) -> float:
        # taken directly: 1 - p keeps no digits of q next to beta = pi
        return math.cos(0.5 * self.beta) ** 2


def _validate_table(N: int, beta: float) -> tuple[int, float]:
    """The order N >= 1 (Python or numpy integer) and angle beta in (0, pi)."""
    N, beta = _order(N), float(beta)
    if not 0.0 < beta < math.pi:
        raise ValueError(f"beta must lie strictly between 0 and pi, got {beta}")
    return N, beta


@functools.lru_cache(maxsize=8)
def _chiral(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, V, sigma) of J_x's even-odd block B = U diag(sigma) V^T, phase folded in.

    B[i, k] couples site 2i to site 2k+1: B[i, i] = c_2i and B[i+1, i] =
    c_(2i+1), with c_n = sqrt((n+1)(N-n))/2.  U is square; when N is even its
    last column is the zero mode and sigma ends in 0.  sigma is the exact grid
    N/2 - k.  Rows of U and V carry the sign (-1)^i of P = diag(i^n).  The
    arrays are shared by every table of order N and are read-only.
    """
    n = np.arange(N)  # c_n couples sites n and n + 1
    B = np.zeros((N // 2 + 1, (N + 1) // 2))
    B[(n + 1) // 2, n // 2] = 0.5 * np.sqrt((n + 1.0) * (N - n))
    U, _, Vt = np.linalg.svd(B)
    sign = np.where(np.arange(B.shape[0]) % 2 == 0, 1.0, -1.0)[:, None]
    U *= sign
    V = Vt.T * sign[: B.shape[1]]
    sigma = 0.5 * N - np.arange(B.shape[0], dtype=float)
    for a in (U, V, sigma):
        a.flags.writeable = False
    return U, V, sigma


def _rotation(N: int, even, odd) -> np.ndarray:
    """P^-1 (even + i odd)(J_x) P, assembled block by block as
    ``build_wigner_d`` describes; ``even(0)`` weights the zero mode."""
    U, V, sigma = _chiral(N)
    r = V.shape[0]
    out = np.empty((N + 1, N + 1))
    out[0::2, 0::2] = (U * even(sigma)) @ U.T
    out[1::2, 1::2] = (V * even(sigma[:r])) @ V.T
    S = (U[:, :r] * odd(sigma[:r])) @ V.T
    out[0::2, 1::2] = -S
    out[1::2, 0::2] = S.T
    return out


def build_wigner_d(N: int, beta: float) -> WignerDMatrix:
    """Assemble the full d-table as exp(-i beta J_y) from the even-odd block of J_x.

    In the basis m = j - n, J_x is real, symmetric and tridiagonal with
    off-diagonal c_n = sqrt((n+1)(N-n))/2, and it does not depend on beta.
    The phase P = diag(i^n) carries J_y to -J_x, so that
    d(beta) = P^-1 exp(i beta J_x) P.  J_x couples only even sites to odd
    ones: sorted by parity it is [[0, B], [B^T, 0]], and with the singular
    value decomposition B = U diag(sigma) V^T (Golub & Kahan 1965) its
    eigenvalues are +-sigma, on the exact grid N/2 - k, plus one zero mode z
    when N is even.  Hence the cosine part of exp(i beta J_x) lives on the
    same-parity blocks and the sine part on the mixed ones:

        d[even, even] = U cos(beta sigma) U^T + z z^T,
        d[odd, odd]   = V cos(beta sigma) V^T,
        d[even, odd]  = -U sin(beta sigma) V^T,   d[odd, even] = its negative transpose,

    with the signs of P folded into the rows of U and V.  Each singular pair
    enters these products twice, so the sign the solver leaves free on it
    cancels and no column sign has to be resolved.  The factors are computed
    once per N and kept for the last 8 orders, so a sweep over angles at one
    N decomposes once.
    """
    N, beta = _validate_table(N, beta)
    table = _rotation(N, lambda sigma: np.cos(beta * sigma), lambda sigma: np.sin(beta * sigma))
    return WignerDMatrix(N=N, beta=beta, table=table)


def _derivative(N: int, beta: float) -> np.ndarray:
    """The exact d/dbeta of ``build_wigner_d(N, beta).table``: its blocks with
    cos(beta sigma) and sin(beta sigma) replaced by -sigma sin(beta sigma) and
    sigma cos(beta sigma), on the same cached factors; the zero mode drops out."""
    return _rotation(N, lambda sigma: -sigma * np.sin(beta * sigma),
                     lambda sigma: sigma * np.cos(beta * sigma))


def wigner_d_direct(N: int, beta: float) -> np.ndarray:
    """Full d-table from the classical finite sum, cancellation-free, entry by entry.

    Entry (n, x), written with i = idx - s_min, is

        sum_i (-1)^i t^i / ((N-x-idx)! idx! (x-n+idx)! (n-idx)!),  t = tan^2(beta/2),

    times cos^a0 sin^b0 (beta/2) and the square-root prefactor.  t = A/B is
    taken exactly from the floats cos(beta/2) and sin(beta/2).  Since
    1/((N-x-idx)! idx!) = C(N-x, idx)/(N-x)! and likewise for x, the sum is
    the integer sum_i (-1)^i C(N-x, idx) C(x, n-idx) A^i B^(M-i), evaluated
    by Horner's rule in -A, over B^M (N-x)! x!, reduced once, so it is exact;
    the reduced quotient is then recombined with the positive prefactor in
    log space.  The powers of B and the factorials are formed once for the
    table.  Accuracy is limited by the rounding of the inputs and of that
    recombination, not by the (often catastrophic) cancellation between terms.
    """
    N, beta = _validate_table(N, beta)
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    A, B = (Fraction(s) ** 2 / Fraction(c) ** 2).as_integer_ratio()
    B_pow = [1]
    for _ in range(N):
        B_pow.append(B_pow[-1] * B)
    fact = [math.factorial(k) for k in range(N + 1)]
    log_fact = [math.lgamma(k + 1) for k in range(N + 1)]
    log_c = math.log(c)
    log_s = math.log(s)
    out = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        for x in range(N + 1):
            s_min = max(0, n - x)
            M = min(N - x, n) - s_min
            num = 0
            for i in range(M, -1, -1):
                idx = s_min + i
                num = num * -A + math.comb(N - x, idx) * math.comb(x, n - idx) * B_pow[M - i]
            if num == 0:
                continue
            num, den = Fraction(num, B_pow[M] * fact[N - x] * fact[x]).as_integer_ratio()
            lead = -1.0 if (x - n + s_min) % 2 == 1 else 1.0
            sign = lead * (1.0 if num > 0 else -1.0)
            log_pref = 0.5 * (log_fact[n] + log_fact[N - n] + log_fact[x] + log_fact[N - x])
            a0 = N - (x - n) - 2 * s_min  # power of cos(beta/2)
            b0 = (x - n) + 2 * s_min      # power of sin(beta/2)
            log_mag = log_pref + a0 * log_c + b0 * log_s + math.log(abs(num)) - math.log(den)
            out[n, x] = sign * math.exp(log_mag)
    return out


def _couplings(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(n (N-n+1)) d[n-1,x] and sqrt((N-n)(n+1)) d[n+1,x], zero off the table."""
    N = T.shape[0] - 1
    n = np.arange(N + 1, dtype=float)
    zero = np.zeros((1, N + 1))
    up = np.sqrt(n * (N - n + 1.0))[:, None] * np.vstack([zero, T[:-1]])
    down = np.sqrt((N - n) * (n + 1.0))[:, None] * np.vstack([T[1:], zero])
    return up, down


class RecurrenceResiduals(NamedTuple):
    three_term: float
    shift: float


def recurrence_residuals(D: WignerDMatrix) -> RecurrenceResiduals:
    """Max-norm residuals of the two exact contiguity relations of the table.

    ``three_term`` couples rows n-1, n, n+1 within one column:

        ((N p - x) + n (q - p)) / sqrt(p q) d[n,x]
            = sqrt(n (N-n+1)) d[n-1,x] + sqrt((N-n)(n+1)) d[n+1,x]

    ``shift`` moves along a row and trades it against the same row couple:

        sqrt((N-x)(x+1)) d[n,x+1] - sqrt(x(N-x+1)) d[n,x-1]
            = sqrt(n (N-n+1)) d[n-1,x] - sqrt((N-n)(n+1)) d[n+1,x]

    Out-of-range neighbours carry zero coefficients, so both relations are
    checked on the whole table at once.
    """
    N, p, q = D.N, D.p, D.q
    spq = 0.5 * math.sin(D.beta)
    T = D.table
    n = np.arange(N + 1, dtype=float)
    x = np.arange(N + 1, dtype=float)
    up, down = _couplings(T)

    coeff = ((N * p - x)[None, :] + (n * (q - p))[:, None]) / spq
    three_term = float(np.abs(coeff * T - (up + down)).max())

    a = np.sqrt((N - x) * (x + 1.0))         # couples to column x+1
    b = np.sqrt(x * (N - x + 1.0))           # couples to column x-1
    col_next = np.hstack([T[:, 1:], np.zeros((N + 1, 1))])
    col_prev = np.hstack([np.zeros((N + 1, 1)), T[:, :-1]])
    lhs = a[None, :] * col_next - b[None, :] * col_prev
    shift = float(np.abs(lhs - (up - down)).max())
    return RecurrenceResiduals(three_term=three_term, shift=shift)


class DifferentialResiduals(NamedTuple):
    plus: float
    minus: float


def differential_residuals(D: WignerDMatrix) -> DifferentialResiduals:
    """Max-norm residuals of the two first-order angular relations of the table.

    With m = j - n and m' = j - x the table satisfies, multiplied through by
    sin beta,

        +- sin beta d/dbeta d[n,x] + (m' - m cos beta) d[n,x]
            = sin beta sqrt(n (N-n+1)) d[n-1,x]          for ``plus``
            = sin beta sqrt((N-n)(n+1)) d[n+1,x]         for ``minus``

    No division by sin beta amplifies rounding next to beta = 0 or pi; in
    turn a residual held to tol bounds an error of the derivative by
    tol / sin beta.  The derivative is the exact beta-derivative of the table
    built at D.beta: exp(i beta J_x) differentiated on the same spectrum of
    J_x, so the residuals take no step and sit at rounding for every N.
    """
    N, beta = D.N, D.beta
    sin = math.sin(beta)
    derivative = sin * _derivative(N, beta)
    m = 0.5 * N - np.arange(N + 1, dtype=float)
    rest = (m[None, :] - m[:, None] * math.cos(beta)) * D.table
    up, down = _couplings(D.table)
    return DifferentialResiduals(
        plus=float(np.abs(derivative + rest - sin * up).max()),
        minus=float(np.abs(-derivative + rest - sin * down).max()),
    )
