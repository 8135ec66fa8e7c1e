#!/usr/bin/env python3
"""Tour of the tangent-momentum plane wave basis.

Builds small bases, prints the momentum grid with its singular column,
and measures how the momentum eigenvalues approach the continuum ones
as the lattice is refined at fixed physical momentum.
"""

import sys

import numpy as np

from latticeqm import build_basis, checks, momentum_eigenvalues


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("Momentum grid, N = 8, epsilon = 0.5")
    basis = build_basis(8, 0.5)
    for m, k in enumerate(basis.momenta):
        marker = "  <- singular column" if m == basis.singular_column else ""
        print(f"  m = {m}:  k_m = {k:+.6g}{marker}")

    banner("Orthonormality, the DFT identity and the transform round trip")
    rows = checks.basis((16,), (0.3,)) + checks.fourier(np.random.default_rng(0), (16,), 1)
    for row in rows:
        print(" ", row)
    print("  the tangent map bends the momentum labels, not the vectors")

    banner("Forward-difference momentum vs continuum, k fixed near 2*pi")
    # refine the lattice at fixed physical momentum: m = 1, eps = 1/N
    for N in (8, 16, 32, 64, 128):
        basis = build_basis(N, 1.0 / N)
        lam = momentum_eigenvalues(basis)[1]
        k = basis.momenta[1]
        print(f"  N = {N:4d}   k = {k:9.6f}   lambda = {lam.real:9.6f}{lam.imag:+.6f}i"
              f"   |lambda - k|/k = {abs(lam - k) / k:.3e}")
    print("  the eigenvalue is complex at finite spacing; the defect is O(eps*k)")
    return all(row.passed for row in rows)


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
