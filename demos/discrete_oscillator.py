#!/usr/bin/env python3
"""The finite oscillator: a ladder that tops out.

With N + 1 levels the commutator [A, A+] is no longer the identity; its
eigenvalues slide linearly from +1 at the bottom of the ladder to -1 at
the top, and the energies fold symmetrically about the middle.
"""

import sys

import numpy as np

from latticeqm import annihilation_matrix, build_oscillator, checks, commutator_spectrum, energy_spectrum


def main():
    print("N = 6 ladder")
    model = build_oscillator(6)
    comm = commutator_spectrum(model)
    energy = energy_spectrum(model)
    print(f"  {'n':>2} {'[A,A+]':>9} {'energy/(hw/2)':>14}")
    for n in range(7):
        print(f"  {n:>2} {comm[n]:>9.4f} {energy[n]:>14.4f}")
    rows = checks.ladder_spectra((6,))
    for row in rows:
        print(" ", row)

    print()
    print("Position operator X = (A + A+)/sqrt(2): eigenvalues on the grid m'/sqrt(j),")
    print("eigenvectors the quarter-turn rotation columns (N = 6 and 12)")
    position = checks.position((6, 12))
    for row in position:
        print(" ", row)

    print()
    print("The chain terminates at both ends (N = 12)")
    A = annihilation_matrix(build_oscillator(12))
    print(f"  |A e_0|   = {np.abs(A @ np.eye(13)[0]).max():.1f}")
    print(f"  |A+ e_12| = {np.abs(A.T @ np.eye(13)[12]).max():.1f}")
    return all(row.passed for row in rows + position)


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
