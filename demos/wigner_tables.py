#!/usr/bin/env python3
"""Wigner rotation tables from binomial-weighted discrete polynomials."""

import math

import numpy as np

from latticeqm import build_wigner_d, recurrence_residuals, wigner_d_direct


def main():
    print("d table, N = 4, beta = pi/3 (rows indexed by n, columns by x)")
    D = build_wigner_d(4, math.pi / 3)
    for row in D.table:
        print("  " + "  ".join(f"{v:+.6f}" for v in row))
    print(f"  corner d[0,0] = cos(beta/2)^N = {math.cos(math.pi / 6) ** 4:.6f}")

    print()
    print("Spectral construction vs exact integer summation")
    for N, beta in ((10, 0.3), (20, 2.5), (40, 0.3)):
        D = build_wigner_d(N, beta)
        gap = np.abs(D.table - wigner_d_direct(N, beta)).max()
        gram = np.abs(D.table @ D.table.T - np.eye(N + 1)).max()
        rec = recurrence_residuals(D)
        print(f"  N = {N:3d}, beta = {beta:<5g}  oracle gap {gap:.2e}"
              f"  gram defect {gram:.2e}  recurrences {max(rec):.2e}")
    print("  N = 40 at beta = 0.3 is the regime where the textbook recurrence")
    print("  loses every digit; the spectral route keeps the table orthogonal")


if __name__ == "__main__":
    main()
