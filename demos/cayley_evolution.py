#!/usr/bin/env python3
"""Unitary evolution from the Cayley transform of a Hermitian matrix."""

import sys

import numpy as np

from latticeqm import checks


def main():
    rng = np.random.default_rng(2)
    H = checks.random_hermitian(rng, 6)

    print("Norm drift over 10^4 steps and the midpoint equation at n = 50, tau = 0.2")
    rows = checks.propagator(rng, H, (0.2,), 10_000, (50,))
    for row in rows:
        print(" ", row)

    print()
    print("Halving tau at fixed total time quarters the error against exp(-iH)")
    order = checks.propagator_order(H, (0.2, 0.1, 0.05, 0.025))
    for row in order:
        print(" ", row)
    return all(row.passed for row in rows + order)


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
