#!/usr/bin/env python3
"""Difference-scheme equations of motion in the Heisenberg picture.

For a generic Hamiltonian the forward, backward, symmetric, and central
schemes hold with matrix-valued correction factors.  When H squares to
the identity every factor collapses to a power of (1 + tau^2/4), and the
suite below fits that power from the measured norms.
"""

import numpy as np

from latticeqm import build_propagator, heisenberg_scheme_residuals, involution_identities
from latticeqm.checks import random_hermitian


def main():
    rng = np.random.default_rng(5)

    print("Generic Hermitian H, d = 5, tau = 0.3")
    H = random_hermitian(rng, 5)
    A = random_hermitian(rng, 5)
    res = heisenberg_scheme_residuals(build_propagator(H, 0.3), A, n=2)
    print(f"  forward residual                 {res.forward:.3e}")
    print(f"  backward residual                {res.backward:.3e}")
    print(f"  symmetric residual               {res.symmetric:.3e}")
    print(f"  central residual                 {res.central:.3e}")
    print(f"  central, scalar involution form  {res.central_involution_form:.3e}"
          "   (not an identity here)")

    print()
    print("Involution H (H^2 = 1): random 4x4, tau = 0.2")
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    H = Q @ np.diag([1.0, 1.0, -1.0, -1.0]) @ Q.conj().T
    A = random_hermitian(rng, 4)
    print(f"  {'identity':<18} {'residual':>10}   {'fitted power of (1+tau^2/4)':>28}")
    for check in involution_identities(H, A, 0.2):
        print(f"  {check.name:<18} {check.residual:10.3e}   {check.fitted_exponent:28.12f}")


if __name__ == "__main__":
    main()
