"""Continuum harmonic oscillator eigenfunctions, used as the limit oracle.

psi_n(s) = (2^n n! sqrt(pi))^(-1/2) H_n(s) exp(-s^2/2), generated directly in
normalized form:

    psi_{n+1} = (2 s psi_n - sqrt(2n) psi_{n-1}) / sqrt(2(n+1))

so every intermediate stays of order one and no factorial ever appears.
Derivatives are taken analytically through psi_n' = sqrt(2n) psi_{n-1} - s psi_n.

Every relation returns rows or residuals for levels 0 .. n_max from one
table.  The Schrodinger, algebraic recurrence and ladder relations are that
recurrence rearranged, so rows from a wrong seed still satisfy them; the
central-difference derivative and the Gram matrix tie a table to psi_n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lattice import _array, _count, _spacing


def _grid(s) -> np.ndarray:
    """The grid s as a non-empty one-dimensional array of finite real points; a number is a one-point grid.

    A point past |s| = 1e154 reads as +-1e154: every psi_n reads 0 at both, and
    there s^2 and 2 s stay finite, so neither multiplies a zero row to NaN.
    """
    return np.clip(_array(s, "s", (None,), scalar=True), -1e154, 1e154)


def psi_table(n_max: int, s) -> np.ndarray:
    """Rows psi_0(s) .. psi_{n_max}(s) on the given grid of finite points."""
    n_max = _count(n_max, "n_max")
    s = _grid(s)
    out = np.empty((n_max + 1, s.size))
    # The seed exp(-s^2/2) leaves the normal range at s^2/2 = 708 and is 0
    # past 745, though higher levels are of order one there.  Points past
    # s^2/2 = 700 carry it as exp(q log 2 - s^2/2) times 2^-q, and the two
    # live rows as mantissas times a running exponent 2^scale, renormalized
    # by an exact power of two at every level; where q = 0 every row keeps
    # the bits of the plain recurrence.
    log_seed = -0.5 * s * s
    scaled = log_seed.min() < -700.0
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
    values = psi_table(_count(n, "n"), s)[n]
    return float(values[0]) if np.ndim(s) == 0 else values  # s has passed the grid rule


def _below(table: np.ndarray) -> np.ndarray:
    """Rows psi_{n-1} aligned with the rows psi_n of a table, psi_{-1} = 0."""
    return np.concatenate([np.zeros_like(table[:1]), table[:-1]])


def _levels(table: np.ndarray) -> np.ndarray:
    """The level n of each row of a table, as a column."""
    return np.arange(len(table), dtype=float)[:, None]


def _derivative(table: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * _levels(table)) * _below(table) - s * table


def schrodinger_residual(n_max: int, s) -> np.ndarray:
    """Max residual of -psi_n'' + s^2 psi_n - (2n+1) psi_n on the grid, per level n <= n_max.

    The second derivative differentiates psi_n' = sqrt(2n) psi_{n-1} - s psi_n
    by the same rule, psi_n'' = sqrt(2n) psi_{n-1}' - s psi_n' - psi_n, so the
    residual probes the recurrence algebra rather than a finite difference.
    """
    s = _grid(s)
    psi = psi_table(n_max, s)
    second = _derivative(_derivative(psi, s), s) - psi
    return np.abs(-second + s * s * psi - (2.0 * _levels(psi) + 1.0) * psi).max(axis=1)


class HermiteRecurrenceResiduals(NamedTuple):
    algebraic: np.ndarray
    derivative: np.ndarray


def recurrence_residual(n_max: int, s, h: float = 1e-5) -> HermiteRecurrenceResiduals:
    """Residuals of the two defining relations on a grid, per level n <= n_max.

    ``algebraic`` checks 2 s psi_n = sqrt(2(n+1)) psi_{n+1} + sqrt(2n) psi_{n-1}
    exactly (up to roundoff).  ``derivative`` checks
    2 psi_n' = sqrt(2n) psi_{n-1} - sqrt(2(n+1)) psi_{n+1} with the derivative
    taken by a central difference of step h, so it carries an O(h^2) floor.
    One table holds the rows on s, s + h and s - h side by side.
    """
    n_max = _count(n_max, "n_max")
    h = _spacing(h, "h")
    s = _grid(s)
    table, plus, minus = np.split(psi_table(n_max + 1, np.concatenate([s, s + h, s - h])), 3, axis=1)
    below, here, above = _below(table)[:-1], table[:-1], table[1:]
    n = _levels(here)
    algebraic = 2.0 * s * here - np.sqrt(2.0 * (n + 1.0)) * above - np.sqrt(2.0 * n) * below
    centered = (plus - minus)[:-1] / (2.0 * h)
    derivative = 2.0 * centered - (np.sqrt(2.0 * n) * below - np.sqrt(2.0 * (n + 1.0)) * above)
    return HermiteRecurrenceResiduals(np.abs(algebraic).max(axis=1), np.abs(derivative).max(axis=1))


def ladder_apply(n_max: int, s) -> tuple[np.ndarray, np.ndarray]:
    """The continuum ladder operators (s -+ d/ds)/sqrt(2) applied to psi_0 .. psi_{n_max}.

    Returns (raised, lowered), whose rows n equal sqrt(n+1) psi_{n+1} and
    sqrt(n) psi_{n-1}; both use the analytic derivative, so no step size enters.
    """
    s = _grid(s)
    psi = psi_table(n_max, s)
    dpsi = _derivative(psi, s)
    return (s * psi - dpsi) / math.sqrt(2.0), (s * psi + dpsi) / math.sqrt(2.0)


def gram_matrix(n_max: int) -> np.ndarray:
    """Trapezoidal Gram matrix of psi_0 .. psi_{n_max} on 4001 points.

    The window extends ten units beyond the classical turning point of the
    highest level, where the integrand has long since collapsed, so the
    quadrature error is dominated by the trapezoidal rule itself, taken as one
    product with the rule's weights: half a step at the ends, the mean step inside.
    """
    n_max = _count(n_max, "n_max")
    half_width = math.sqrt(2.0 * n_max + 1.0) + 10.0
    s = np.linspace(-half_width, half_width, 4001)
    table, step = psi_table(n_max, s), np.diff(s)
    w = 0.5 * (np.pad(step, (1, 0)) + np.pad(step, (0, 1)))
    return (table * w) @ table.T
