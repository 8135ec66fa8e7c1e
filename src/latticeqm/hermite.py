"""Continuum harmonic oscillator eigenfunctions, used as the limit oracle.

psi_n(s) = (2^n n! sqrt(pi))^(-1/2) H_n(s) exp(-s^2/2), generated directly in
normalized form:

    psi_{n+1} = (2 s psi_n - sqrt(2n) psi_{n-1}) / sqrt(2(n+1))

so every intermediate stays of order one and no factorial ever appears.
Derivatives are taken analytically through psi_n' = sqrt(2n) psi_{n-1} - s psi_n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lattice import _integer


def _level(n, name: str = "n") -> int:
    """A level or level bound as a non-negative int."""
    n = _integer(n, name)
    if n < 0:
        raise ValueError(f"{name} must be non-negative")
    return n


def psi_table(n_max: int, s) -> np.ndarray:
    """Rows psi_0(s) .. psi_{n_max}(s) on the given grid of finite points."""
    n_max = _level(n_max, "n_max")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.isfinite(s).all():
        raise ValueError("grid points s must be finite")
    out = np.empty((n_max + 1, s.size))
    # The seed exp(-s^2/2) leaves the normal range at s^2/2 = 708 and is 0
    # past 745, though higher levels are of order one there.  Points past
    # s^2/2 = 700 carry it as exp(q log 2 - s^2/2) times 2^-q, and the two
    # live rows as mantissas times a running exponent 2^scale, renormalized
    # by an exact power of two at every level; where q = 0 every row keeps
    # the bits of the plain recurrence.
    log_seed = -0.5 * s * s
    scaled = s.size > 0 and log_seed.min() < -700.0
    if scaled:
        q = np.where(log_seed > -700.0, 0.0, np.minimum(np.rint(-log_seed / math.log(2.0)), 2.0**30))
        scale = -q.astype(np.int32)  # ldexp takes a C int exponent
        log_seed += q * math.log(2.0)
    prev, cur = None, math.pi ** -0.25 * np.exp(log_seed)
    for n in range(n_max + 1):
        if n == 1:
            prev, cur = cur, math.sqrt(2.0) * s * cur
        elif n > 1:
            prev, cur = cur, (2.0 * s * cur - math.sqrt(2.0 * (n - 1)) * prev) / math.sqrt(2.0 * n)
        if scaled and n:
            cur, e = np.frexp(cur)
            prev = np.ldexp(prev, -e)
            scale += e
        out[n] = np.ldexp(cur, scale) if scaled else cur
    return out


def eval_psi(n: int, s):
    """psi_n evaluated at a scalar or array argument."""
    n = _level(n)
    scalar = np.isscalar(s)
    values = psi_table(n, s)[n]
    return float(values[0]) if scalar else values


def psi_derivative(n: int, s):
    """Analytic first derivative sqrt(2n) psi_{n-1} - s psi_n."""
    n = _level(n)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    table = psi_table(max(n, 1), s_arr)
    lower = table[n - 1] if n >= 1 else np.zeros_like(s_arr)
    values = math.sqrt(2.0 * n) * lower - s_arr * table[n]
    return float(values[0]) if np.isscalar(s) else values


def schrodinger_residual(n: int, s) -> float:
    """Max residual of -psi'' + s^2 psi - (2n+1) psi on the grid.

    The second derivative is assembled analytically from lower rows, so the
    residual probes the recurrence algebra rather than a finite difference.
    """
    n = _level(n)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    table = psi_table(max(n, 2), s_arr)
    psi = table[n]
    below1 = table[n - 1] if n >= 1 else np.zeros_like(s_arr)
    below2 = table[n - 2] if n >= 2 else np.zeros_like(s_arr)
    second = (
        math.sqrt(4.0 * n * (n - 1)) * below2
        - 2.0 * s_arr * math.sqrt(2.0 * n) * below1
        + (s_arr * s_arr - 1.0) * psi
    )
    return float(np.abs(-second + s_arr * s_arr * psi - (2 * n + 1) * psi).max())


class HermiteRecurrenceResiduals(NamedTuple):
    algebraic: float
    derivative: float


def recurrence_residual(n: int, s_grid, h: float = 1e-5) -> HermiteRecurrenceResiduals:
    """Residuals of the two defining relations on a grid.

    ``algebraic`` checks 2 s psi_n = sqrt(2(n+1)) psi_{n+1} + sqrt(2n) psi_{n-1}
    exactly (up to roundoff).  ``derivative`` checks
    2 psi_n' = sqrt(2n) psi_{n-1} - sqrt(2(n+1)) psi_{n+1} with the derivative
    taken by a central difference of step h, so it carries an O(h^2) floor.
    """
    n = _level(n)
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    table = psi_table(n + 1, s)
    below = table[n - 1] if n >= 1 else np.zeros_like(s)
    above = table[n + 1]
    algebraic = float(
        np.abs(
            2.0 * s * table[n]
            - math.sqrt(2.0 * (n + 1)) * above
            - math.sqrt(2.0 * n) * below
        ).max()
    )
    centered = (eval_psi(n, s + h) - eval_psi(n, s - h)) / (2.0 * h)
    derivative = float(
        np.abs(
            2.0 * centered - (math.sqrt(2.0 * n) * below - math.sqrt(2.0 * (n + 1)) * above)
        ).max()
    )
    return HermiteRecurrenceResiduals(algebraic=algebraic, derivative=derivative)


def ladder_apply(which: str, n: int, s):
    """Apply the continuum ladder operator (s -+ d/ds)/sqrt(2) to psi_n.

    ``which`` is "raise" or "lower"; the result equals sqrt(n+1) psi_{n+1}
    or sqrt(n) psi_{n-1} respectively, and is evaluated from the analytic
    derivative so no step size enters.
    """
    n = _level(n)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    psi = eval_psi(n, s_arr)
    dpsi = psi_derivative(n, s_arr)
    if which == "raise":
        values = (s_arr * psi - dpsi) / math.sqrt(2.0)
    elif which == "lower":
        values = (s_arr * psi + dpsi) / math.sqrt(2.0)
    else:
        raise ValueError(f'which must be "raise" or "lower", got {which!r}')
    return float(values[0]) if np.isscalar(s) else values


def gram_matrix(n_max: int) -> np.ndarray:
    """Trapezoidal Gram matrix of psi_0 .. psi_{n_max} on 4001 points.

    The window extends ten units beyond the classical turning point of the
    highest level, where the integrand has long since collapsed, so the
    quadrature error is dominated by the trapezoidal rule itself.
    """
    n_max = _level(n_max, "n_max")
    half_width = math.sqrt(2.0 * n_max + 1.0) + 10.0
    s = np.linspace(-half_width, half_width, 4001)
    table = psi_table(n_max, s)
    return np.trapezoid(table[:, None, :] * table[None, :, :], s, axis=2)
