"""Plane waves on the tangent momentum grid.

The admissible momenta on an N-site lattice with spacing epsilon are

    k_m = (2/epsilon) * tan(pi*m/N),   m = 0 .. N-1,

and the matching normalized plane waves are geometric sequences in the
unimodular Cayley ratio (1 + i*eps*k/2) / (1 - i*eps*k/2), which collapses to
exp(2*pi*i*m/N) per step.  The basis is therefore exactly the discrete Fourier
basis, but the momentum labels are tangents rather than equally spaced values.
For even N the slot m = N/2 sits at the pole of the tangent; its column is the
alternating sequence (-1)^j and the momentum is recorded as an infinity marker.

The transforms and the momentum operator work on plain arrays: one state of
shape (N,), or a block of shape (N, k) holding one state per column, and
return the same shape.  Transforms are computed by direct summation against
the stored table, one product for a whole block.  Sizes of interest stay well
below the point where an FFT would matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import _array, _order, _spacing


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


def _columns(basis: PlaneWaveBasis, value, name: str) -> np.ndarray:
    """``value`` as one column of N entries, shape (N,), or a block of k >= 1 columns, shape (N, k)."""
    X = _array(value, name, None, complex)  # the entries first: a ragged list has no shape to compare
    if X.shape[:1] != (basis.n_sites,) or X.ndim > 2 or X.size == 0:
        raise ValueError(f"{name} shape {X.shape} does not match ({basis.n_sites},) or ({basis.n_sites}, >=1)")
    return X


def forward_transform(basis: PlaneWaveBasis, f) -> np.ndarray:
    """Coefficients a_m = <plane wave m, f> in the summation inner product, per column of f."""
    return basis.table.conj().T @ _columns(basis, f, "state")


def inverse_transform(basis: PlaneWaveBasis, coefficients) -> np.ndarray:
    """Reassemble the state sum_m a_m * (column m), per column of the coefficients."""
    return basis.table @ _columns(basis, coefficients, "coefficients")


def momentum_apply(basis: PlaneWaveBasis, f) -> np.ndarray:
    """Forward-difference momentum operator P = -(i/epsilon) * Delta, periodic, on each column of f."""
    v = _columns(basis, f, "state")
    return -1j / basis.epsilon * (np.roll(v, -1, axis=0) - v)


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
