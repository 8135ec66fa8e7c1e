"""Cayley propagation for the difference Schrodinger equation.

One time step of size tau is the Cayley transform

    C = (1 - i*tau*H/2) (1 + i*tau*H/2)^(-1),

the unique unitary for which psi_{n+1} = C psi_n solves the implicit midpoint
difference equation (i/tau)(psi_{n+1} - psi_n) = H (psi_{n+1} + psi_n)/2
exactly.  The module also provides the principal unitary square root of C for
half-step quantities, Heisenberg-picture evolution of observables, and
residual checks for the forward, backward, symmetric and central difference
schemes an evolved observable satisfies.

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

import math
from dataclasses import dataclass

import numpy as np


def check_hermitian(H, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a Hermitian matrix as a complex ndarray."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Hamiltonian must be a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("Hamiltonian has non-finite entries")
    scale = max(1.0, float(np.abs(H).max()))
    defect = float(np.abs(H - H.conj().T).max())
    if defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dagger| = {defect:.3e}")
    return H


@dataclass(frozen=True)
class CayleyPropagator:
    """One-step unitary C, its principal square root, and the spectral data of H."""

    hamiltonian: np.ndarray
    tau: float
    factor: np.ndarray        # C itself
    half_factor: np.ndarray   # unitary with half_factor @ half_factor = factor
    eigenvalues: np.ndarray   # of H, ascending
    eigenvectors: np.ndarray  # unitary, columns match eigenvalues

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def spectral_function(self, fn) -> np.ndarray:
        """Assemble fn(H) from the stored eigendecomposition."""
        V = self.eigenvectors
        return (V * fn(self.eigenvalues)) @ V.conj().T


def build_propagator(H, tau: float) -> CayleyPropagator:
    """Build the Cayley step C for Hamiltonian H and time step tau.

    C is computed from a single linear solve; the half step comes from the
    eigendecomposition of H, taking the principal phase
    exp(-i*arctan(tau*lambda/2)) on each eigenvector so that the square of the
    half step reproduces C exactly.
    """
    H = check_hermitian(H)
    tau = float(tau)
    if tau == 0.0 or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonzero, got {tau}")
    d = H.shape[0]
    eye = np.eye(d, dtype=complex)
    plus = eye + 0.5j * tau * H
    minus = eye - 0.5j * tau * H
    # the two factors commute, so solve(plus, minus) is both orderings at once
    C = np.linalg.solve(plus, minus)

    lam, V = np.linalg.eigh(H)
    half_phase = np.exp(-1j * np.arctan(0.5 * tau * lam))
    half = (V * half_phase) @ V.conj().T
    return CayleyPropagator(
        hamiltonian=H,
        tau=tau,
        factor=C,
        half_factor=half,
        eigenvalues=lam,
        eigenvectors=V,
    )


def _checked_state(prop: CayleyPropagator, psi0, n: int) -> tuple[np.ndarray, int]:
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (prop.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dimension {prop.dim}")
    n = int(n)
    if n < 0:
        raise ValueError("step count must be non-negative")
    return psi, n


def evolve_state(prop: CayleyPropagator, psi0, n: int) -> np.ndarray:
    """Apply n Cayley steps to a state vector."""
    psi, n = _checked_state(prop, psi0, n)
    for _ in range(n):
        psi = prop.factor @ psi
    return psi


def evolve_trajectory(prop: CayleyPropagator, psi0, n: int) -> np.ndarray:
    """Stack of states psi_0 .. psi_n, one row per step."""
    psi, n = _checked_state(prop, psi0, n)
    out = np.empty((n + 1, prop.dim), dtype=complex)
    out[0] = psi
    for i in range(1, n + 1):
        out[i] = prop.factor @ out[i - 1]
    return out


def evolution_operator(prop: CayleyPropagator, n: int) -> np.ndarray:
    """The n-step unitary C^n (negative n gives the inverse evolution)."""
    return np.linalg.matrix_power(prop.factor, int(n))


def state_residual(prop: CayleyPropagator, psi_n, psi_next) -> float:
    """Norm of the midpoint difference equation residual for one step."""
    psi_n = np.asarray(psi_n, dtype=complex)
    psi_next = np.asarray(psi_next, dtype=complex)
    lhs = (1j / prop.tau) * (psi_next - psi_n)
    rhs = prop.hamiltonian @ (0.5 * (psi_next + psi_n))
    return float(np.linalg.norm(lhs - rhs))


def evolution_operator_residual(prop: CayleyPropagator, n: int) -> float:
    """Spectral norm of the midpoint difference equation applied to C^n.

    Zero in exact arithmetic for every n: the step operator itself satisfies
    the same implicit midpoint equation as the states it propagates.
    """
    U_n = evolution_operator(prop, n)
    U_next = prop.factor @ U_n
    lhs = (1j / prop.tau) * (U_next - U_n)
    rhs = prop.hamiltonian @ (0.5 * (U_next + U_n))
    return float(np.linalg.norm(lhs - rhs, 2))


def heisenberg_evolve(prop: CayleyPropagator, A0, n: int) -> np.ndarray:
    """Observable after n steps: A_n = C^(-n) A_0 C^n."""
    A = np.asarray(A0, dtype=complex)
    if A.shape != (prop.dim, prop.dim):
        raise ValueError(f"observable shape {A.shape} does not match dimension {prop.dim}")
    U = evolution_operator(prop, n)
    return U.conj().T @ A @ U


def _evolved(prop: CayleyPropagator, A0, n: int):
    """A_n, A_{n+1}, A_{n-1}, A_{n+1/2}, A_{n-1/2} and [A_n, H] for one observable."""
    H = prop.hamiltonian
    C = prop.factor
    Ch = prop.half_factor
    A_n = heisenberg_evolve(prop, A0, n)
    A_next = C.conj().T @ A_n @ C
    A_prev = C @ A_n @ C.conj().T
    A_half_up = Ch.conj().T @ A_n @ Ch
    A_half_dn = Ch @ A_n @ Ch.conj().T
    comm = A_n @ H - H @ A_n
    return A_n, A_next, A_prev, A_half_up, A_half_dn, comm


def _rsolve(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X @ inv(M) without forming the inverse."""
    return np.linalg.solve(M.T, X.T).T


@dataclass(frozen=True)
class SchemeResiduals:
    """Spectral-norm residuals of the difference schemes at step n.

    ``central_involution_form`` checks the scalar-factor central formula
    2 (1 - tau^2/4) / (1 + tau^2/4)^2 [A_n, H].  That shortcut is exact only
    when H^2 = 1; for generic H it fails and the reported number shows by
    how much, while ``central`` always checks the full operator identity.
    """

    forward: float
    backward: float
    symmetric: float
    central: float
    central_involution_form: float


def heisenberg_scheme_residuals(prop: CayleyPropagator, A0, n: int = 0) -> SchemeResiduals:
    """Residuals of the four difference schemes for an evolved observable."""
    H = prop.hamiltonian
    tau = prop.tau
    d = prop.dim
    eye = np.eye(d, dtype=complex)
    plus = eye + 0.5j * tau * H
    minus = eye - 0.5j * tau * H

    A_n, A_next, A_prev, A_half_up, A_half_dn, comm = _evolved(prop, A0, n)
    spec = prop.spectral_function
    r_inv = spec(lambda lam: 1.0 / np.sqrt(1.0 + 0.25 * tau * tau * lam * lam))
    r2_inv = spec(lambda lam: 1.0 / (1.0 + 0.25 * tau * tau * lam * lam))

    def norm(X):
        return float(np.linalg.norm(X, 2))

    forward = norm(
        (1j / tau) * (A_next - A_n) - _rsolve(np.linalg.solve(minus, comm), plus)
    )
    backward = norm(
        (1j / tau) * (A_n - A_prev) - _rsolve(np.linalg.solve(plus, comm), minus)
    )
    symmetric = norm(
        (1j / tau) * (A_half_up - A_half_dn) - r_inv @ comm @ r_inv
    )
    central_lhs = (1j / tau) * (A_next - A_prev)
    central = norm(
        central_lhs
        - 2.0 * r2_inv @ (comm + 0.25 * tau * tau * (H @ comm @ H)) @ r2_inv
    )
    u = 1.0 + 0.25 * tau * tau
    central_scalar = norm(central_lhs - (2.0 * (1.0 - 0.25 * tau * tau) / u**2) * comm)
    return SchemeResiduals(
        forward=forward,
        backward=backward,
        symmetric=symmetric,
        central=central,
        central_involution_form=central_scalar,
    )


@dataclass(frozen=True)
class IdentityCheck:
    """One involution identity: its residual and the measured power of (1 + tau^2/4)."""

    name: str
    residual: float
    fitted_exponent: float
    passed: bool


def involution_identities(H, A0, tau: float, n: int = 0, tol: float = 1e-10):
    """Check the five closed-form difference identities that hold when H^2 = 1.

    With u = 1 + tau^2/4 and C the Cayley step, an evolved observable obeys

        forward           (i/tau) (A_{n+1} - A_n)       = [A_n, H] C / u
        backward          (i/tau) (A_n - A_{n-1})       = [A_n, H] C^dagger / u
        forward-backward  (i/tau)^2 (A_{n+1} - 2 A_n + A_{n-1}) = [[A_n,H],H] / u^2
        half-step         (i/tau) (A_{n+1/2} - A_{n-1/2}) = [A_n, H] / u
        central           (i/tau) (A_{n+1} - A_{n-1})   = 2 (1 - tau^2/4) [A_n, H] / u^2

    The Cayley factor multiplies the commutator from the right in the first
    two; with it on the left the relations fail for non-commuting A and H.
    Each check also fits the exponent e that makes ``u**e * lhs`` match the
    commutator part in spectral norm.  The fit is NaN when [A_n, H] vanishes,
    in which case both sides are zero and the residual alone decides.

    Returns a list of five IdentityCheck records in the order above.
    """
    H = check_hermitian(H)
    d = H.shape[0]
    eye = np.eye(d)
    invol_defect = float(np.abs(H @ H - eye).max())
    if invol_defect > 1e-12 * max(1.0, float(np.abs(H).max()) ** 2):
        raise ValueError(f"H is not an involution: max |H^2 - 1| = {invol_defect:.3e}")

    prop = build_propagator(H, tau)
    tau = float(tau)
    u = 1.0 + 0.25 * tau * tau
    C = prop.factor

    A_n, A_next, A_prev, A_half_up, A_half_dn, comm = _evolved(prop, A0, n)
    comm2 = comm @ H - H @ comm

    def norm(X):
        return float(np.linalg.norm(X, 2))

    def fit_exponent(lhs, base):
        nb, nl = norm(base), norm(lhs)
        if nb < 1e-300 or nl < 1e-300:
            return float("nan")
        return math.log(nb / nl) / math.log(u)

    cases = [
        ("forward", (1j / tau) * (A_next - A_n), comm @ C, 1),
        ("backward", (1j / tau) * (A_n - A_prev), comm @ C.conj().T, 1),
        ("forward-backward", (-1.0 / tau**2) * (A_next - 2.0 * A_n + A_prev), comm2, 2),
        ("half-step", (1j / tau) * (A_half_up - A_half_dn), comm, 1),
        ("central", (1j / tau) * (A_next - A_prev), 2.0 * (1.0 - 0.25 * tau * tau) * comm, 2),
    ]
    checks = []
    for name, lhs, base, power in cases:
        residual = norm(lhs - base / u**power)
        checks.append(
            IdentityCheck(
                name=name,
                residual=residual,
                fitted_exponent=fit_exponent(lhs, base),
                passed=residual < tol,
            )
        )
    return checks
