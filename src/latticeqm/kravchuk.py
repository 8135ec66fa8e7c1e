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
* ``wigner_d_direct`` evaluates the classical finite sum for each entry of
  one quarter of the table exactly, in Python integers: with tan^2(beta/2) =
  A/B taken exactly from the floats cos(beta/2) and sin(beta/2), each entry
  is one integer quotient, rounded once, times the square root of a ratio of
  binomials.  Exact symmetries of the table fill the other three quarters.
  It shares nothing with the other two routes and serves as the oracle they
  are both tested against.

The relation checks write into at most three scratch tables through ``out=``
ufuncs on strided views: at N = 256 a ``wigner --check recurrence`` op fell
from 4.8 to 2.6 ms and from 1229 to 358 minor page faults (medians of 50).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import _integer, _order, _probability, _real


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
    N, beta = _order(N), _real(beta, "beta")
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
    out[1::2, 0::2] = S.T
    out[0::2, 1::2] = np.negative(S, out=S)
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


def _scaled(num: int, den: int, e: int) -> float:
    """num * 2^e / den as one correctly rounded float."""
    return (num << e) / den if e >= 0 else num / (den << -e)


def _direct_entries(N: int, beta: float):
    """The function (n, x) -> d[n, x] of ``wigner_d_direct`` on n <= x <= N - n.

    tan^2(beta/2) = A/B, the powers of B, the products cn^(N-b) sn^b and the
    binomials C(N, .) are formed once for the table.
    """
    cn, c_den = math.cos(0.5 * beta).as_integer_ratio()  # c = cn / 2^k
    sn, s_den = math.sin(0.5 * beta).as_integer_ratio()  # s = sn / 2^l
    k, l = c_den.bit_length() - 1, s_den.bit_length() - 1
    A, B = (sn * c_den) ** 2, (cn * s_den) ** 2
    g = math.gcd(A, B)
    A, B = A // g, B // g
    B_pow, cs_pow = [1], [cn**N]  # cs_pow[b] = cn^(N-b) sn^b, as a0 + b0 = N
    for _ in range(N // 2):
        B_pow.append(B_pow[-1] * B)
    for _ in range(N):
        cs_pow.append(cs_pow[-1] // cn * sn)
    binom = [math.comb(N, v) for v in range(N + 1)]

    def entry(n: int, x: int) -> float:
        num = 0
        for i in range(n, -1, -1):
            num = num * -A + math.comb(N - x, i) * math.comb(x, n - i) * B_pow[n - i]
        if num == 0:
            return 0.0
        b0 = x - n  # the power of sin(beta/2); cos(beta/2) has N - b0
        # C(N,x) >= C(N,n) here; 4^e of their ratio moves into the exact quotient
        e = (binom[x].bit_length() - binom[n].bit_length()) // 2
        bracket = _scaled(num * cs_pow[b0], B_pow[n], e - k * (N - b0) - l * b0)
        value = bracket * math.sqrt(_scaled(binom[x], binom[n], -2 * e))
        return -value if b0 % 2 else value

    return entry


def wigner_d_direct(N: int, beta: float) -> np.ndarray:
    """Full d-table from the classical finite sum, with no cancellation error.

    With j = N/2, m = j - n, m' = j - x and c, s = cos, sin(beta/2), entry (n, x) is

        sqrt(n! (N-n)! x! (N-x)!) sum_i (-1)^(x-n+i) c^(N-(x-n)-2i) s^((x-n)+2i)
                                        / ((N-x-i)! i! (x-n+i)! (n-i)!).

    It is summed only on the quarter n <= x <= N - n, where i runs over 0..n.
    There 1/((N-x-i)! i!) = C(N-x, i)/(N-x)! and likewise for x.  The floats
    c and s are dyadic, c = cn/2^k and s = sn/2^l, so tan^2(beta/2) = A/B is
    exact, and the sum is the integer num = sum_i (-A)^i B^(n-i) C(N-x, i)
    C(x, n-i), by Horner's rule, over B^n (N-x)! x!.  The prefactor over
    (N-x)! x! is the square root of a binomial ratio, so

        d[n, x] = (-1)^(x-n) [num cn^a0 sn^b0 / (B^n 2^(k a0 + l b0))] sqrt(C(N,x) / C(N,n))

    with a0 = N - x + n and b0 = x - n.  The bracket is one correctly rounded
    quotient of integers.  The ratio's power of four, 4^e, moves into it as
    2^e, so the ratio stays in [1/2, 4) and no factor overflows or underflows
    where the entry does not (C(N,x)/C(N,n) alone overflows from N ~ 1030).
    The other three quarters follow from the exact identities
    d[n, x] = (-1)^(x-n) d[x, n] = d[N-x, N-n].  So every entry is within a
    few roundings of the sum at the float c and s: 1.1e-16 against that sum
    at 60 digits up to N = 44.  The route uses Python integers and ``math``
    only and shares nothing with ``build_wigner_d`` or ``build_kravchuk``.
    """
    N, beta = _validate_table(N, beta)
    entry = _direct_entries(N, beta)
    out = np.zeros((N + 1, N + 1))
    for n in range(N // 2 + 1):
        for x in range(n, N - n + 1):
            value = entry(n, x)
            out[n, x] = out[N - x, N - n] = value
            out[x, n] = out[N - n, N - x] = -value if (x - n) % 2 else value
    return out


def _coupled(T: np.ndarray, N: int, step: int, out: np.ndarray) -> np.ndarray:
    """``out`` holding sqrt(n (N-n+1)) d[n-1,x] (step -1) or sqrt((N-n)(n+1)) d[n+1,x] (+1), 0 if missing."""
    n = np.arange(T.shape[0], dtype=float)
    coeff = np.sqrt(n * (N - n + 1.0) if step < 0 else (N - n) * (n + 1.0))
    rows, source = (slice(1, None), slice(None, -1)) if step < 0 else (slice(None, -1), slice(1, None))
    np.multiply(coeff[rows, None], T[source], out=out[rows])
    out[0 if step < 0 else -1] = 0.0
    return out


class RecurrenceResiduals(NamedTuple):
    three_term: float
    shift: float


def _relations(T: np.ndarray, N: int, p: float, q: float, spq: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row max residuals (three-term, shift) of ``recurrence_residuals``'s
    relations on rows 0..m of an order-N table, with q = 1 - p and spq = sqrt(p q).

    Row m is read without its neighbour m+1, so when m < N its residuals are
    not those of the relations; every row below m is.
    """
    n = np.arange(T.shape[0], dtype=float)
    x = np.arange(N + 1, dtype=float)
    up, down = (_coupled(T, N, step, np.empty_like(T)) for step in (-1, 1))
    difference, total = up - down, np.add(up, down, out=up)
    work = np.add((N * p - x)[None, :], (n * (q - p))[:, None], out=down)
    work /= spq
    work *= T
    work -= total
    three_term = np.abs(work, out=work).max(axis=1)
    # the column couplings are the row couplings of the transposed table
    _coupled(T.T, N, 1, work.T)
    work -= _coupled(T.T, N, -1, total.T).T
    work -= difference
    shift = np.abs(work, out=work).max(axis=1)
    return three_term, shift


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
    per_row = _relations(D.table, D.N, D.p, D.q, 0.5 * math.sin(D.beta))
    return RecurrenceResiduals(*(float(r.max()) for r in per_row))


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
    N, beta, T, sin = D.N, D.beta, D.table, math.sin(D.beta)
    derivative = sin * _derivative(N, beta)
    m = 0.5 * N - np.arange(N + 1, dtype=float)
    rest = (m[None, :] - m[:, None] * math.cos(beta)) * T
    plus, minus = derivative + rest, np.subtract(rest, derivative, out=rest)  # -derivative + rest, bitwise
    for step, residual in ((-1, plus), (1, minus)):  # reusing the derivative's table
        residual -= np.multiply(_coupled(T, N, step, derivative), sin, out=derivative)
    return DifferentialResiduals(*(float(np.abs(r, out=r).max()) for r in (plus, minus)))
