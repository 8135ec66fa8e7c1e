"""End-to-end acceptance checks.

Each test covers one headline guarantee and prints a single summary line,
so a full run reads as a ten-line scorecard:

    python3 -m pytest tests/test_acceptance.py -v -s

The residuals come from ``latticeqm.checks``, the same functions
``verify-all`` runs, called here over wider sweeps; each test holds the
worst residual of every named row strictly under its bound, plus the
conditions only the acceptance suite states.
"""

import math
import time

import numpy as np

from latticeqm import build_oscillator, checks, commutator_spectrum, position_spectrum
from latticeqm.cli import main


def _accept(number, title, rows, bounds, conditions=()):
    """Assert worst residual < bound for each (row name, bound) and every
    (description, passed) condition, after printing one scorecard line."""
    worst = {}
    for row in rows:
        worst[row.check] = max(worst.get(row.check, 0.0), row.residual)
    results = [(f"{name} {worst[name]:.2e}", worst[name] < bound) for name, bound in bounds.items()]
    results += list(conditions)
    passed = all(ok for _, ok in results)
    detail = ", ".join(text if ok else f"{text} FAILED" for text, ok in results)
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if passed else 'FAIL'} [{detail}]")
    assert passed, f"acceptance criterion {number} ({title}): {detail}"


def test_acceptance_01_basis_orthonormality():
    t0 = time.perf_counter()
    rows = checks.basis(range(2, 65), (0.1, 1.0, 10.0))
    elapsed = time.perf_counter() - t0
    _accept(1, "plane wave basis orthonormality", rows,
            {"basis-orthonormality": 1e-12, "basis-dft-identity": 1e-12},
            [(f"{elapsed:.2f} s", elapsed < 1.0)])


def test_acceptance_02_fourier_round_trip():
    rows = checks.fourier(np.random.default_rng(7), (2, 3, 8, 17, 33, 64), 100)
    _accept(2, "Fourier round trip", rows, {"fourier-round-trip": 1e-12, "fourier-parseval": 1e-12})


def test_acceptance_03_cayley_unitarity_and_residual():
    rng = np.random.default_rng(11)
    rows = []
    for d in (2, 5, 8):
        H = checks.random_hermitian(rng, d)
        rows += checks.propagator(rng, H, (1.0, 0.1, 0.01), 100, (0, 50, 100))
    # halving tau at fixed total time must shrink the error about fourfold:
    # the row is the worst |ratio - 4|, so < 0.5 puts every ratio in (3.5, 4.5)
    rows += checks.propagator_order(checks.random_hermitian(rng, 6), (0.1, 0.05, 0.025))
    _accept(3, "Cayley unitarity and residual", rows,
            {"cayley-unitarity": 1e-10, "cayley-residual": 1e-10, "cayley-half-step": 1e-12,
             "cayley-group-law": 1e-11, "cayley-order": 0.5})


def test_acceptance_04_heisenberg_schemes():
    rng = np.random.default_rng(13)
    rows = []
    for d, tau in ((2, 0.2), (4, 0.1), (6, 0.05)):
        H = checks.random_hermitian(rng, d)
        rows += checks.heisenberg(rng, H, tau, 1, ("forward", "symmetric"))
    pairs = [
        (H, checks.random_hermitian(rng, H.shape[0]), label)
        for H, label in (
            (checks.SIGMA_X, "sigma_x"),
            (checks.SIGMA_Z, "sigma_z"),
            (checks.random_involution(rng, 4), "random dim 4"),
        )
    ]
    identities = checks.involution(pairs, (0.2, 0.05), 0)
    expected = {"forward": 1.0, "backward": 1.0, "forward-backward": 2.0,
                "half-step": 1.0, "central": 2.0}
    exponents = [row.fitted_exponent for row in identities]
    gap = max(abs(row.fitted_exponent - expected[row.check.removeprefix("involution-")])
              for row in identities)
    _accept(4, "Heisenberg difference schemes", rows + identities,
            {"heisenberg-forward": 1e-10, "heisenberg-symmetric": 1e-10}
            | {f"involution-{name}": 1e-10 for name in expected},
            [(f"fitted exponents {min(exponents):.6f}..{max(exponents):.6f}", gap < 1e-6)])


def test_acceptance_05_wigner_kravchuk_bridge():
    sizes, angles = range(1, 41), (0.3, math.pi / 2, 2.5)
    rows = (checks.wigner_oracle(sizes, angles) + checks.wigner_symmetry(sizes, angles)
            + checks.wigner_recurrence(sizes, angles))
    _accept(5, "Wigner/Kravchuk bridge", rows,
            {"wigner-vs-oracle": 1e-10, "wigner-symmetry": 1e-12,
             "wigner-recurrence-three-term": 1e-10, "wigner-recurrence-shift": 1e-10})


def test_acceptance_06_oscillator_spectra():
    sizes = range(1, 201)
    # the trace once more, as the sum of the commutator spectrum
    spectral_trace = max(abs(commutator_spectrum(build_oscillator(N)).sum()) for N in sizes)
    _accept(6, "oscillator ladder spectra", checks.ladder_spectra(sizes),
            {"oscillator-commutator": 1e-10, "oscillator-energies": 1e-10,
             "oscillator-commutator-trace": 1e-12},
            [(f"spectral trace {spectral_trace:.2e}", spectral_trace < 1e-12)])


def test_acceptance_07_position_spectrum():
    two = np.sort(position_spectrum(build_oscillator(2)).eigenvalues)
    frozen = np.abs(two - np.array([-1.0, 0.0, 1.0])).max()
    _accept(7, "position operator spectrum", checks.position(range(1, 61)),
            {"position-grid": 1e-9, "position-eigenvectors": 1e-9},
            [(f"N=2 defect {frozen:.2e}", frozen < 1e-12)])


def test_acceptance_08_continuum_limit():
    t0 = time.perf_counter()
    sizes, levels = (16, 32, 64, 128, 256), range(4)
    monotone, order = checks.continuum(levels, sizes)
    rows = [monotone, order] + checks.ladder(levels, sizes)
    elapsed = time.perf_counter() - t0
    # a worst successive error ratio below 1 is strict monotonicity;
    # the order row is zero exactly when every fitted order is >= 0.9
    _accept(8, "continuum limit of the discrete oscillator", rows,
            {"continuum-monotone": 1.0, "ladder-monotone": 1.0},
            [(order.params, order.residual <= 0.0), (f"{elapsed:.1f} s", elapsed < 30.0)])


def test_acceptance_09_hermite_oracle():
    s = np.linspace(-6.0, 6.0, 241)
    _accept(9, "Hermite oracle self-consistency",
            checks.hermite_oracle(s, range(11), (1, 3, 7, 10), 10, range(11)),
            {"hermite-schrodinger": 1e-10, "hermite-recurrence-algebraic": 1e-12,
             "hermite-recurrence-derivative": 1e-8, "hermite-gram": 1e-8, "hermite-ladder": 1e-12})


def test_acceptance_10_cli_determinism_and_round_trip(capsys):
    code1 = main(["verify-all", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["verify-all", "--seed", "7"])
    out2 = capsys.readouterr().out
    statuses = [line.rsplit(",", 1)[1] for line in out1.strip().splitlines()[1:]]
    # JSON-emitted states must re-ingest losslessly
    (round_trip,) = checks.state_round_trip(np.random.default_rng(3), (1, 5, 32), 0.37)
    _accept(10, "CLI determinism and round trip", [], {}, [
        (f"exit {code1}/{code2}", code1 == 0 and code2 == 0),
        ("byte-identical", out1 == out2),
        ("rows pass", bool(statuses) and all(s == "pass" for s in statuses)),
        ("state round-trip lossless", round_trip.residual == 0.0),
    ])
