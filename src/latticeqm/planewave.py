"""Plane waves on the tangent momentum grid.

The admissible momenta on an N-site lattice with spacing epsilon are

    k_m = (2/epsilon) * tan(pi*m/N),   m = 0 .. N-1,

and the matching normalized plane waves are geometric sequences in the
unimodular Cayley ratio (1 + i*eps*k/2) / (1 - i*eps*k/2), which collapses to
exp(2*pi*i*m/N) per step.  The basis is therefore exactly the discrete Fourier
basis, but the momentum labels are tangents rather than equally spaced values.
For even N the slot m = N/2 sits at the pole of the tangent; its column is the
alternating sequence (-1)^j and the momentum is recorded as an infinity marker.

Transforms are computed by direct summation against the stored table.  Sizes
of interest stay well below the point where an FFT would matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeState, _order, _spacing


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Momentum grid and orthonormal plane-wave table for one lattice.

    ``table[:, m]`` holds the normalized plane wave for momentum ``momenta[m]``.
    ``momenta`` contains ``inf`` at the singular slot when N is even.
    """

    n_sites: int
    epsilon: float
    momenta: np.ndarray
    table: np.ndarray

    @property
    def singular_column(self) -> int | None:
        """Index of the tangent-pole column, or None when N is odd."""
        return self.n_sites // 2 if self.n_sites % 2 == 0 else None


def build_basis(N: int, epsilon: float) -> PlaneWaveBasis:
    """Construct momenta and basis table for an N-site lattice.

    Columns are built by cumulative products of the Cayley ratio, never by
    calling a transcendental power, so each column is a true geometric
    sequence in floating point.
    """
    N, eps = _order(N), _spacing(epsilon)

    m = np.arange(N)
    pole = 2 * m == N  # the tangent pole, present for even N only
    with np.errstate(over="ignore", invalid="ignore"):
        k = (2.0 / eps) * np.tan(np.pi * m / N)
        ratio = (1.0 + 0.5j * eps * k) / (1.0 - 0.5j * eps * k)
    if not np.isfinite(k[~pole]).all():
        raise ValueError(f"epsilon={eps!r} is too small: the momenta (2/epsilon) tan(pi m/N) overflow")
    # mark the momentum at the pole; the step ratio there is exactly -1
    k[pole] = np.inf
    ratio[pole] = -1.0

    steps = np.ones((N, N), dtype=complex)
    steps[1:, :] = np.broadcast_to(ratio, (N - 1, N))
    table = np.cumprod(steps, axis=0) / np.sqrt(N)
    return PlaneWaveBasis(n_sites=N, epsilon=eps, momenta=k, table=table)


def _check_state(basis: PlaneWaveBasis, f: LatticeState) -> None:
    if f.n_sites != basis.n_sites:
        raise ValueError(f"state has {f.n_sites} sites, basis expects {basis.n_sites}")
    if f.epsilon != basis.epsilon:
        raise ValueError(f"state spacing {f.epsilon} differs from basis spacing {basis.epsilon}")


def forward_transform(basis: PlaneWaveBasis, f: LatticeState) -> np.ndarray:
    """Coefficients a_m = <plane wave m, f> in the summation inner product."""
    _check_state(basis, f)
    return basis.table.conj().T @ f.amplitudes


def inverse_transform(basis: PlaneWaveBasis, coefficients: np.ndarray) -> LatticeState:
    """Reassemble the state sum_m a_m * (column m)."""
    a = np.asarray(coefficients, dtype=complex)
    if a.shape != (basis.n_sites,):
        raise ValueError(f"expected {basis.n_sites} coefficients, got shape {a.shape}")
    return LatticeState(basis.table @ a, basis.epsilon)


def momentum_apply(basis: PlaneWaveBasis, f: LatticeState) -> LatticeState:
    """Forward-difference momentum operator P = -(i/epsilon) * Delta, periodic."""
    _check_state(basis, f)
    v = f.amplitudes
    return LatticeState(-1j / basis.epsilon * (np.roll(v, -1) - v), basis.epsilon)


def momentum_eigenvalues(basis: PlaneWaveBasis) -> np.ndarray:
    """Eigenvalue of P on each basis column: k_m / (1 - i*eps*k_m/2).

    Complex for k_m != 0 because the forward difference is not self-adjoint.
    The singular column is an eigenvector too, with eigenvalue 2i/epsilon
    (the pole limit), which is what this returns at that slot.
    """
    eps, k = basis.epsilon, basis.momenta
    with np.errstate(invalid="ignore"):
        lam = k / (1.0 - 0.5j * eps * k)
    lam[np.isinf(k)] = 2j / eps
    return lam
