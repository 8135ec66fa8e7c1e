#!/usr/bin/env python3
"""Difference-scheme equations of motion in the Heisenberg picture.

For a generic Hamiltonian the forward, backward, symmetric, and central
schemes hold with matrix-valued correction factors.  When H squares to
the identity every factor collapses to a power of (1 + tau^2/4), and the
suite below fits that power from the measured norms.
"""

import sys

import numpy as np

from latticeqm import checks

def main():
    rng = np.random.default_rng(5)

    print("Generic Hermitian H, d = 5, tau = 0.3")
    rows = checks.heisenberg(rng, checks.random_hermitian(rng, 5), 0.3, 2)
    for row in rows:
        print(" ", row)

    print()
    print("Involution H (H^2 = 1): random 4x4, tau = 0.2")
    H = checks.random_involution(rng, 4)
    involution = checks.involution([(H, checks.random_hermitian(rng, 4), "random dim 4")], (0.2,), 0)
    for row in involution:
        print(" ", row)
    return all(row.passed for row in rows + involution)


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
