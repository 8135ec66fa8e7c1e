"""Cayley propagation for the difference Schrodinger equation.

One time step of size tau is the Cayley transform

    C = (1 - i*tau*H/2) (1 + i*tau*H/2)^(-1),

the unique unitary for which psi_{n+1} = C psi_n solves the implicit midpoint
difference equation (i/tau)(psi_{n+1} - psi_n) = H (psi_{n+1} + psi_n)/2
exactly.  The module also provides the principal unitary square root of C for
half-step quantities, and residual checks for the forward, backward,
symmetric and central difference schemes an evolved observable satisfies.

C comes from one linear solve, and trajectories step it.  Every other
function of H (C^n, the half step, P^(-1), R^(-1)) is diagonal in the
eigenbasis V of H, computed on first read, and the checks work there: they
read C only once, as V^dagger C V, in the involution right-hand sides.

The exact operator identities verified here, with P = 1 + i*tau*H/2 and
R^2 = P P^dagger = 1 + tau^2 H^2 / 4, A' = C^dagger A C:

    forward    (i/tau)(A_{n+1} - A_n)     = P^(-dagger) [A_n, H] P^(-1)
    backward   (i/tau)(A_n - A_{n-1})     = P^(-1) [A_n, H] P^(-dagger)
    symmetric  (i/tau)(A_{n+1/2} - A_{n-1/2}) = R^(-1) [A_n, H] R^(-1)
    central    (i/tau)(A_{n+1} - A_{n-1}) = 2 R^(-2) ([A_n,H] + (tau^2/4) H [A_n,H] H) R^(-2)

For involutions (H^2 = 1) every R is the scalar sqrt(1 + tau^2/4) and the
identities collapse to commutator formulas with powers of (1 + tau^2/4);
``involution_identities`` checks those and reports the measured power.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import _integer, _real


def check_hermitian(H) -> np.ndarray:
    """Validate and return a Hermitian matrix as a complex ndarray.

    The defect max |H - H^dagger| may reach 1e-12 times max(1, max |H|).
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.size == 0:
        raise ValueError(f"Hamiltonian must be a non-empty square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("Hamiltonian has non-finite entries")
    scale = max(1.0, float(np.abs(H).max()))
    defect = float(np.abs(H - H.conj().T).max())
    if defect > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dagger| = {defect:.3e}")
    return H


@dataclass(frozen=True)
class CayleyPropagator:
    """One-step unitary C; the spectral data of H and the half step are computed on first read."""

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

    @functools.cached_property
    def half_factor(self) -> np.ndarray:  # the principal root: half_factor @ half_factor = factor
        return self.spectral_function(lambda lam: _cayley_phase(self.tau, lam, 0.5))

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
    H = check_hermitian(H)
    tau = _real(tau, "tau")
    if tau == 0.0 or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonzero, got {tau}")
    d = H.shape[0]
    eye = np.eye(d, dtype=complex)
    plus = eye + 0.5j * tau * H
    minus = eye - 0.5j * tau * H
    # the two factors commute, so solve(plus, minus) is both orderings at once
    return CayleyPropagator(hamiltonian=H, tau=tau, factor=np.linalg.solve(plus, minus))


def _checked_state(prop: CayleyPropagator, psi0, n: int) -> tuple[np.ndarray, int]:
    """psi0 as a finite complex vector of the propagator's dimension, n as a step count."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (prop.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dimension {prop.dim}")
    if not np.isfinite(psi).all():
        raise ValueError("state has non-finite entries")
    n = _integer(n, "n")
    if n < 0:
        raise ValueError("step count must be non-negative")
    return psi, n


def evolve_state(prop: CayleyPropagator, psi0, n: int) -> np.ndarray:
    """The state after n Cayley steps, C^n psi0 from the eigendecomposition."""
    psi, n = _checked_state(prop, psi0, n)
    V = prop.eigenvectors
    return V @ (_cayley_phase(prop.tau, prop.eigenvalues, n) * (V.conj().T @ psi))


def evolve_trajectory(prop: CayleyPropagator, psi0, n: int) -> np.ndarray:
    """Stack of states psi_0 .. psi_n, one row per step of the solve-built C."""
    psi, n = _checked_state(prop, psi0, n)
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
    the same implicit midpoint equation as the states it propagates.
    """
    U_n = evolution_operator(prop, n)
    U_next = prop.factor @ U_n
    lhs = (1j / prop.tau) * (U_next - U_n)
    rhs = prop.hamiltonian @ (0.5 * (U_next + U_n))
    return _norm(lhs - rhs)


def _differences(prop: CayleyPropagator, A0, n: int):
    """What both Heisenberg checks compare, for one observable at step n.

    Returns, in H's eigenbasis V: V^dagger H V, [A_n, H], u = 1 + tau^2/4,
    and the five time differences of A_n = C^(-n) A_0 C^n keyed by the names
    of ``involution_identities``, whose left-hand sides they are.  A_0 and H
    are rotated once; a time shift of A_n is an entrywise phase factor.  A
    tau for which 1/tau^2 or u^2 is not a finite nonzero float is a
    ValueError, raised before any difference is formed.
    """
    tau = prop.tau
    u = 1.0 + 0.25 * tau * tau
    # products round to inf or 0 where the float powers below would raise
    if not (tau * tau and math.isfinite(1.0 / (tau * tau)) and math.isfinite(u * u)):
        raise ValueError(f"tau = {tau} is out of range: 1/tau^2 or u^2 is not a finite nonzero float")
    A = np.asarray(A0, dtype=complex)
    if A.shape != (prop.dim, prop.dim):
        raise ValueError(f"observable shape {A.shape} does not match dimension {prop.dim}")
    if not np.isfinite(A).all():
        raise ValueError("observable has non-finite entries")
    lam, V = prop.eigenvalues, prop.eigenvectors
    phase = _cayley_phase(tau, lam, _integer(n, "n"))
    A_n = phase.conj()[:, None] * (V.conj().T @ A @ V) * phase
    H = V.conj().T @ prop.hamiltonian @ V
    comm = A_n @ H - H @ A_n
    # A_{n+1} = conj(c_j) c_k A_n and A_{n-1} = c_j conj(c_k) A_n entrywise, c the phase of C
    c = _cayley_phase(tau, lam, 1)
    step = np.outer(c.conj(), c)
    lhs = {
        "forward": (1j / tau) * (step - 1.0) * A_n,
        "backward": (1j / tau) * (1.0 - step.conj()) * A_n,
        "forward-backward": (-1.0 / tau**2) * (step - 2.0 + step.conj()) * A_n,
        "central": (1j / tau) * (step - step.conj()) * A_n,
    }
    del step  # one d x d factor alive at a time
    h = _cayley_phase(tau, lam, 0.5)
    half = np.outer(h.conj(), h)
    lhs["half-step"] = (1j / tau) * (half - half.conj()) * A_n
    return H, comm, u, lhs


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
    H, comm, _, lhs = _differences(prop, A0, n)
    # diagonal in H's eigenbasis: P^(-1) X R^(-1) scales the rows of X by P^(-1), its columns by R^(-1)
    p_inv = 1.0 / (1.0 + 0.5j * tau * lam)
    r_inv = 1.0 / np.sqrt(1.0 + 0.25 * tau * tau * lam * lam)
    r2_inv = 1.0 / (1.0 + 0.25 * tau * tau * lam * lam)
    return SchemeResiduals(
        forward=_norm(lhs["forward"] - p_inv.conj()[:, None] * comm * p_inv),
        backward=_norm(lhs["backward"] - p_inv[:, None] * comm * p_inv.conj()),
        symmetric=_norm(lhs["half-step"] - r_inv[:, None] * comm * r_inv),
        central=_norm(lhs["central"] - 2.0 * r2_inv[:, None] * (comm + 0.25 * tau * tau * (H @ comm @ H)) * r2_inv),
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

    Returns a list of five IdentityCheck records in the order above.
    """
    H = check_hermitian(H)
    invol_defect = float(np.abs(H @ H - np.eye(H.shape[0])).max())
    if invol_defect > 1e-12 * max(1.0, float(np.abs(H).max()) ** 2):
        raise ValueError(f"H is not an involution: max |H^2 - 1| = {invol_defect:.3e}")

    prop = build_propagator(H, tau)
    H, comm, u, lhs = _differences(prop, A0, n)
    V = prop.eigenvectors
    C = V.conj().T @ prop.factor @ V

    def check(name, base, power):
        left = lhs[name]
        nb, nl = _norm(base), _norm(left)
        fitted = math.log(nb / nl) / math.log(u) if min(nb, nl) >= 1e-300 and u > 1.0 else math.nan
        return IdentityCheck(name=name, residual=_norm(left - base / u**power), fitted_exponent=fitted)

    # one right-hand side at a time, each dropped once its row is made
    return [
        check("forward", comm @ C, 1),
        check("backward", comm @ C.conj().T, 1),
        check("forward-backward", comm @ H - H @ comm, 2),
        check("half-step", comm, 1),
        check("central", 2.0 * (1.0 - 0.25 * prop.tau * prop.tau) * comm, 2),
    ]
