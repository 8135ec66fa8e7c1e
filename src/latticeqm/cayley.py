"""Cayley propagation for the difference Schrodinger equation.

One time step of size tau is the Cayley transform

    C = (1 - i*tau*H/2) (1 + i*tau*H/2)^(-1),

the unique unitary for which psi_{n+1} = C psi_n solves the implicit midpoint
difference equation (i/tau)(psi_{n+1} - psi_n) = H (psi_{n+1} + psi_n)/2
exactly.  The module also provides residual checks for the forward,
backward, symmetric and central difference schemes an evolved observable
satisfies.

C comes from one linear solve, and trajectories step it.  Every other
function of H (C^n, the phases of C's root, P^(-1), R^(-1)) is diagonal in
the eigenbasis V of H, computed on first read.  The scheme residuals work there:
each time difference of A_n is an entrywise factor, formed in its own row,
and so is the central row's sandwich H X H, which scales entry (j, k) of X
by lambda_j lambda_k.

The exact operator identities verified here, with P = 1 + i*tau*H/2 and
R^2 = P P^dagger = 1 + tau^2 H^2 / 4, A' = C^dagger A C:

    forward    (i/tau)(A_{n+1} - A_n)     = P^(-dagger) [A_n, H] P^(-1)
    backward   (i/tau)(A_n - A_{n-1})     = P^(-1) [A_n, H] P^(-dagger)
    symmetric  (i/tau)(A_{n+1/2} - A_{n-1/2}) = R^(-1) [A_n, H] R^(-1)
    central    (i/tau)(A_{n+1} - A_{n-1}) = 2 R^(-2) ([A_n,H] + (tau^2/4) H [A_n,H] H) R^(-2)

For involutions (H^2 = 1) every R is the scalar sqrt(1 + tau^2/4) and the
identities collapse to commutator formulas with powers of (1 + tau^2/4);
``involution_identities`` checks those and reports the measured power, with
no eigenbasis and no solve: the spectral projector (1 + H)/2 and the Cayley
step ((1 - tau^2/4) - i tau H)/(1 + tau^2/4) are polynomials in H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import _array, _count, _integer, _step


def check_hermitian(H) -> np.ndarray:
    """Validate and return a Hermitian matrix as a complex ndarray.

    Its entries follow the array rule of ``lattice._array``; it must be square, and
    its defect max |H - H^dagger| may reach 1e-12 times max(1, max |H|).
    """
    H = _array(H, "Hamiltonian", (None, None), complex)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"Hamiltonian must be a square matrix, got shape {H.shape}")
    scale = max(1.0, float(np.abs(H).max()))
    defect = float(np.abs(H - H.conj().T).max())
    if defect > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dagger| = {defect:.3e}")
    return H


@dataclass(frozen=True)
class CayleyPropagator:
    """One-step unitary C; the spectral data of H are computed on first read."""

    hamiltonian: np.ndarray
    tau: float
    factor: np.ndarray        # C itself

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @functools.cached_property
    def _eigh(self):
        return np.linalg.eigh(self.hamiltonian)

    eigenvalues = property(lambda self: self._eigh.eigenvalues)    # of H, ascending
    eigenvectors = property(lambda self: self._eigh.eigenvectors)  # unitary, columns match eigenvalues

    def spectral_function(self, fn) -> np.ndarray:
        """Assemble fn(H) from the stored eigendecomposition."""
        V = self.eigenvectors
        return (V * fn(self.eigenvalues)) @ V.conj().T


def _norm(X) -> float:
    """Frobenius norm: an upper bound of the spectral norm at O(d^2), no SVD.

    The plain sum of squares is rescaled by max |x| only when it leaves
    [1e-140, 1e140], so a finite nonzero X never reads 0 or inf.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(X))
    if 1e-140 <= norm <= 1e140:
        return norm
    size = np.abs(X)  # real, so a subnormal scale divides without a reciprocal
    scale = float(size.max())
    return scale * float(np.linalg.norm(size / scale)) if scale else 0.0


def _cayley_phase(tau: float, lam: np.ndarray, n) -> np.ndarray:
    """Eigenvalues of C^n: exp(-2 i n arctan(tau lambda / 2)) for eigenvalues lambda of H.

    n enters float arithmetic here, so a step count past the float range, or
    one whose phase overflows to inf and NaN, is a ValueError.
    """
    try:
        n = float(n)
    except OverflowError:
        n = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-2j * n * np.arctan(0.5 * tau * lam))
    if not np.isfinite(phase).all():
        raise ValueError("n is too large: the phase 2 n arctan(tau lambda / 2) of C^n overflows a float")
    return phase


def build_propagator(H, tau: float) -> CayleyPropagator:
    """Build the Cayley step C for Hamiltonian H and time step tau.

    C is computed from a single linear solve and is what trajectories step.
    The eigendecomposition of H, from which every other function of H is
    assembled, waits for its first reader.
    """
    H, tau = check_hermitian(H), _step(tau)
    d = H.shape[0]
    eye = np.eye(d, dtype=complex)
    plus = eye + 0.5j * tau * H
    minus = eye - 0.5j * tau * H
    # the two factors commute, so solve(plus, minus) is both orderings at once
    return CayleyPropagator(hamiltonian=H, tau=tau, factor=np.linalg.solve(plus, minus))


def evolve_state(prop: CayleyPropagator, psi0, n: int) -> np.ndarray:
    """The state after n Cayley steps, C^n psi0 from the eigendecomposition."""
    psi, n = _array(psi0, "state", (prop.dim,), complex), _count(n, "n")
    V = prop.eigenvectors
    return V @ (_cayley_phase(prop.tau, prop.eigenvalues, n) * (V.conj().T @ psi))


def evolve_trajectory(prop: CayleyPropagator, psi0, n: int) -> np.ndarray:
    """Stack of states psi_0 .. psi_n, one row per step of the solve-built C."""
    psi, n = _array(psi0, "state", (prop.dim,), complex), _count(n, "n")
    out = np.empty((n + 1, prop.dim), dtype=complex)
    out[0] = psi
    for i in range(1, n + 1):
        out[i] = prop.factor @ out[i - 1]
    return out


def evolution_operator(prop: CayleyPropagator, n: int) -> np.ndarray:
    """The n-step unitary C^n (negative n gives the inverse evolution)."""
    n = _integer(n, "n")
    return prop.spectral_function(lambda lam: _cayley_phase(prop.tau, lam, n))


def evolution_operator_residual(prop: CayleyPropagator, n: int) -> float:
    """Frobenius norm of the midpoint difference equation applied to C^n.

    Zero in exact arithmetic for every n: the step operator itself satisfies
    the same implicit midpoint equation as the states it propagates.  In H's
    eigenbasis V, C^n is the phases c^n, and both sides come from the phases h
    of C's root, (i/tau)(c - 1) = (-2/tau) Im(h) h and (c + 1)/2 = Re(h) h, so
    no two unitaries are subtracted as tau shrinks; H enters as V^dagger H V.
    """
    n = _integer(n, "n")
    lam, V = prop.eigenvalues, prop.eigenvectors
    h, c_n = _cayley_phase(prop.tau, lam, 0.5), _cayley_phase(prop.tau, lam, n)
    residual = (V.conj().T @ prop.hamiltonian @ V) * (h.real * h * c_n)
    residual[np.diag_indices(prop.dim)] -= (-2.0 / prop.tau) * h.imag * h * c_n
    return _norm(residual)


def _u(tau: float) -> float:
    """u = 1 + tau^2/4; a tau for which 1/tau^2 or u^2 is not a finite nonzero float is a ValueError."""
    u = 1.0 + 0.25 * tau * tau
    # products round to inf or 0 where the float powers of the checks would raise
    if not (tau * tau and math.isfinite(1.0 / (tau * tau)) and math.isfinite(u * u)):
        raise ValueError(f"tau = {tau} is out of range: 1/tau^2 or u^2 is not a finite nonzero float")
    return u


def _difference_factor(name: str, tau: float, lam):
    """The entrywise factor on A_n in H's eigenbasis (eigenvalues lam) that gives its time difference ``name``.

    A step scales entry (j, k) of A_n by e^(i phi) = conj(c_j) c_k, c the phases on lam of C.  phi shrinks with
    tau, so 1 or 2 subtracted from that ratio would cancel every digit.  The forward, backward and second
    differences come from the half angle instead: on the phases h of C's root, e^(i phi/2) = conj(h_j) h_k has
    imaginary part sin(phi/2), and

        e^(i phi) - 1 = 2i sin(phi/2) e^(i phi/2),   e^(i phi) - 2 + e^(-i phi) = -4 sin^2(phi/2),

    with 1 - e^(-i phi) = -conj(e^(i phi) - 1).  "central" takes e^(i phi) - e^(-i phi), which cancels nothing,
    and "half-step" the same on the root's ratio.
    """
    c = _cayley_phase(tau, lam, 1 if name == "central" else 0.5)  # the phases of C, or of its root
    if name in ("central", "half-step"):
        ratio = np.outer(c.conj(), c)
        return (1j / tau) * (ratio - ratio.conj())
    half = np.outer(c, c.conj()) if name == "backward" else np.outer(c.conj(), c)  # e^(-i phi/2) or e^(i phi/2)
    # scaled by 2/tau before the square, so a tau near 1e-154 does not overflow it
    sine = ((2.0 if name == "backward" else -2.0) / tau) * half.imag
    if name == "forward-backward":
        return np.square(sine, out=half)
    return np.multiply(half, sine, out=half)


def _differences(prop: CayleyPropagator, A0, n: int):
    """What ``heisenberg_scheme_residuals`` compares, for one observable at step n.

    Returns, in H's eigenbasis V: [A_n, V^dagger H V] and left(name), the time difference ``name`` of
    A_n = C^(-n) A_0 C^n formed when called.  A_0 and H are rotated once, so the commutator carries
    the eigendecomposition's own error into every row.
    """
    tau = prop.tau
    _u(tau)  # the tau guard
    A = _array(A0, "observable", (prop.dim, prop.dim), complex)
    lam, V = prop.eigenvalues, prop.eigenvectors
    phase = _cayley_phase(tau, lam, _integer(n, "n"))
    A_n = phase.conj()[:, None] * (V.conj().T @ A @ V) * phase
    H = V.conj().T @ prop.hamiltonian @ V

    def left(name):
        f = _difference_factor(name, tau, lam)
        return np.multiply(f, A_n, out=f)  # the factor becomes its difference in place

    return A_n @ H - H @ A_n, left


def _projector_differences(H, tau: float, A0, n: int):
    """What ``involution_identities`` compares, for H^2 = 1: [A_n, H], u and left(name), in H's own basis.

    C^n leaves the diagonal blocks of A_0 under P = (1 + H)/2 alone and scales
    X = P A (1-P) and Y = (1-P) A P by the (1, 2) and (2, 1) entries of the
    phase ratios at the eigenvalues (1, -1), as every time shift does.
    """
    lam, dim = np.array([1.0, -1.0]), H.shape[0]
    u = _u(tau)
    A = _array(A0, "observable", (dim, dim), complex)
    phase = _cayley_phase(tau, lam, _integer(n, "n"))
    shift = np.outer(phase.conj(), phase)  # A_0 to A_n
    P = 0.5 * (np.eye(dim) + H)
    PA = P @ A
    X, Y = PA - PA @ P, (A - PA) @ P
    A_n = A + (shift[0, 1] - 1.0) * X + (shift[1, 0] - 1.0) * Y

    def left(name):
        f = _difference_factor(name, tau, lam) * shift  # A_0 to the difference of A_n
        return f[0, 1] * X + f[1, 0] * Y

    return A_n @ H - H @ A_n, u, left


@dataclass(frozen=True)
class SchemeResiduals:
    """Frobenius-norm residuals of the difference schemes at step n."""

    forward: float
    backward: float
    symmetric: float
    central: float


def heisenberg_scheme_residuals(prop: CayleyPropagator, A0, n: int = 0) -> SchemeResiduals:
    """Residuals of the four difference schemes for an evolved observable."""
    tau, lam = prop.tau, prop.eigenvalues
    comm, left = _differences(prop, A0, n)
    # diagonal in H's eigenbasis: P^(-1) X R^(-1) scales the rows of X by P^(-1), its columns by R^(-1),
    # and X + (tau^2/4) H X H scales entry (j, k) of X by 1 + tau^2 lam_j lam_k / 4
    p_inv = 1.0 / (1.0 + 0.5j * tau * lam)
    r_inv = 1.0 / np.sqrt(1.0 + 0.25 * tau * tau * lam * lam)
    r2_inv = 1.0 / (1.0 + 0.25 * tau * tau * lam * lam)
    return SchemeResiduals(
        forward=_norm(left("forward") - p_inv.conj()[:, None] * comm * p_inv),
        backward=_norm(left("backward") - p_inv[:, None] * comm * p_inv.conj()),
        symmetric=_norm(left("half-step") - r_inv[:, None] * comm * r_inv),
        central=_norm(left("central")
                      - r2_inv[:, None] * (2.0 * (1.0 + 0.25 * tau * tau * np.outer(lam, lam)) * comm) * r2_inv),
    )


@dataclass(frozen=True)
class IdentityCheck:
    """One involution identity: its residual and the measured power of (1 + tau^2/4)."""

    name: str
    residual: float
    fitted_exponent: float


def involution_identities(H, A0, tau: float, n: int = 0):
    """Check the five closed-form difference identities that hold when H^2 = 1.

    With u = 1 + tau^2/4 and C the Cayley step, an evolved observable obeys

        forward           (i/tau) (A_{n+1} - A_n)       = [A_n, H] C / u
        backward          (i/tau) (A_n - A_{n-1})       = [A_n, H] C^dagger / u
        forward-backward  (i/tau)^2 (A_{n+1} - 2 A_n + A_{n-1}) = [[A_n,H],H] / u^2
        half-step         (i/tau) (A_{n+1/2} - A_{n-1/2}) = [A_n, H] / u
        central           (i/tau) (A_{n+1} - A_{n-1})   = 2 (1 - tau^2/4) [A_n, H] / u^2

    The Cayley factor multiplies the commutator from the right in the first
    two; with it on the left the relations fail for non-commuting A and H.
    Residuals and the fit both take ``_norm``; the exponent e that makes
    ``u**e * lhs`` match the commutator part is fitted from the norm ratio
    (any unitarily invariant norm gives the same e).  It is NaN when [A_n, H]
    vanishes, or when u rounds to 1 (|tau| below about 2e-8): both sides are
    then zero, or log u is, and the residual alone decides.

    The left-hand sides come from the projector blocks of A_0, with no
    eigendecomposition.  The right-hand sides are polynomials in the verified
    involution: there C = ((1 - tau^2/4) - i tau H) / u, so [A_n, H] C and
    [A_n, H] C^dagger combine [A_n, H] and [A_n, H] H, the product the
    forward-backward row reads, and no linear solve runs.

    Returns a list of five IdentityCheck records in the order above.
    """
    H, tau = check_hermitian(H), _step(tau)
    invol_defect = float(np.abs(H @ H - np.eye(H.shape[0])).max())
    if invol_defect > 1e-12 * max(1.0, float(np.abs(H).max()) ** 2):
        raise ValueError(f"H is not an involution: max |H^2 - 1| = {invol_defect:.3e}")
    comm, u, left = _projector_differences(H, tau, A0, n)
    comm_H = comm @ H

    def check(name, base, power):
        lhs = left(name)  # formed for its row alone
        nb, nl = _norm(base), _norm(lhs)
        fitted = math.log(nb / nl) / math.log(u) if min(nb, nl) >= 1e-300 and u > 1.0 else math.nan
        return IdentityCheck(name=name, residual=_norm(lhs - base / u**power), fitted_exponent=fitted)

    # one right-hand side at a time, each dropped once its row is made
    return [
        check("forward", ((1.0 - 0.25 * tau * tau) * comm - 1j * tau * comm_H) / u, 1),
        check("backward", ((1.0 - 0.25 * tau * tau) * comm + 1j * tau * comm_H) / u, 1),
        check("forward-backward", comm_H - H @ comm, 2),
        check("half-step", comm, 1),
        check("central", 2.0 * (1.0 - 0.25 * tau * tau) * comm, 2),
    ]
