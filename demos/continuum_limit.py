#!/usr/bin/env python3
"""Watch the finite oscillator turn into the Hermite oscillator.

Profiles on the rescaled grid s = (x - Np)/sqrt(2Npq) converge level by
level to the continuum eigenfunctions, and the discrete ladder actions
converge to sqrt(n), sqrt(n+1) times the neighbouring levels.
"""

from latticeqm import continuum_convergence

SIZES = [16, 32, 64, 128, 256]


def main():
    table = continuum_convergence(3, SIZES)
    print("Max-norm distance to the continuum eigenfunction")
    header = "  n \\ N " + "".join(f"{N:>11d}" for N in SIZES) + "      order"
    print(header)
    for n in range(4):
        cells = "".join(f"{e:>11.3e}" for e in table.max_errors[:, n])
        print(f"  {n:>5d} {cells} {table.fitted_orders[n]:>10.3f}")

    print()
    print("Ladder actions against their continuum targets (level n = 2)")
    print("  N          lowering     raising")
    for N, lo, hi in zip(SIZES, table.lower_errors[:, 2], table.raise_errors[:, 2]):
        print(f"  {N:<10d} {lo:.3e}    {hi:.3e}")
    print("  both columns shrink like the profile error itself: O(1/N)")


if __name__ == "__main__":
    main()
