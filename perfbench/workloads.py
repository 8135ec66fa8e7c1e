"""The four benchmark workloads: seeded op generation, execution, validation.

Every workload yields its ops in *cycles*.  A cycle is a fixed mix of op
kinds with freshly seeded parameters; the harness runs whole cycles, so each
run sees the same mix whatever its length.

An op is a small tuple of plain values.  ``prepare`` turns it into the
program's inputs (files for the CLI, arrays for library calls) outside the
timed interval, ``execute`` is the timed call, and ``validate`` checks every
output against a tolerance and returns the margins as
``(layer, residual, tolerance)`` triples.  It raises ``Invalid`` when an
output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from latticeqm import cayley, cli


class Invalid(Exception):
    """An op's output failed validation."""


@dataclass
class Outcome:
    code: int          # CLI exit code, 0 for library ops
    stdout: str        # captured standard output
    bytes_out: int     # bytes the CLI wrote to stdout and to --output
    value: object = None


def call_cli(argv: list, output: Path | None = None) -> Outcome:
    """``latticeqm.cli.main(argv)`` in this process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    size = len(text.encode())
    if output is not None and output.exists():
        size += output.stat().st_size
    return Outcome(code=code, stdout=text, bytes_out=size)


def _expect_success(outcome: Outcome) -> None:
    if outcome.code != 0:
        raise Invalid(f"exit code {outcome.code}")


def random_hermitian(rng, d: int) -> np.ndarray:
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (M + M.conj().T)


def random_involution(rng, d: int) -> np.ndarray:
    """Q diag(+-1) Q^dagger with both signs present: Hermitian and squaring to 1."""
    Q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    signs = np.where(rng.integers(0, 2, size=d) == 0, -1.0, 1.0)
    signs[0], signs[1] = 1.0, -1.0
    return (Q * signs) @ Q.conj().T


def unit_state(rng, d: int) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def cayley_power(H: np.ndarray, tau: float, steps: int, psi0: np.ndarray) -> np.ndarray:
    """C^steps psi0 from the eigendecomposition of H, independent of the stepping loop."""
    lam, V = np.linalg.eigh(H)
    phase = ((1.0 - 0.5j * tau * lam) / (1.0 + 0.5j * tau * lam)) ** steps
    return V @ (phase * (V.conj().T @ psi0))


class Workload:
    name = ""
    trace_cycles = 1  # cycles replayed by a traced run
    # op_tail_s percentile, one of 50, 75, 90, 95, 97, 99: a high one that
    # leaves at least 10 ops beyond it in every 25 s run on the reference
    # machine of README.md.  Fixed per workload, so that it does not move
    # with the op count from run to run.
    tail_percentile = 50

    def cycles(self, seed: int):
        """Endless iterator over the cycles of ops for this seed."""
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        while True:
            yield self.cycle(rng)

    def cycle(self, rng) -> list:
        raise NotImplementedError

    def prepare(self, op, workdir: Path):
        return op

    def execute(self, prepared) -> Outcome:
        raise NotImplementedError

    def validate(self, prepared, outcome: Outcome) -> list:
        raise NotImplementedError


# ----------------------------------------------------------------------
# verify: the whole check suite, call-overhead bound, all eight modules
# ----------------------------------------------------------------------

# verify-all row names map to the module whose output they check
VERIFY_LAYERS = (
    ("basis-", "planewave"), ("fourier-", "planewave"), ("momentum-", "planewave"),
    ("cayley-", "cayley"), ("heisenberg-", "cayley"), ("involution-", "cayley"),
    ("wigner-", "kravchuk"),
    ("oscillator-", "oscillator"), ("position-", "oscillator"), ("continuum-", "oscillator"),
    ("ladder-", "oscillator"), ("limit-", "oscillator"),
    ("hermite-", "hermite"),
    ("state-", "lattice"),
)


class Verify(Workload):
    name = "verify"
    trace_cycles = 60
    tail_percentile = 95

    def cycle(self, rng):
        return [("verify-all", int(rng.integers(0, 2**31)))]

    def execute(self, op):
        return call_cli(["verify-all", "--seed", str(op[1]), "--format", "json"])

    def validate(self, op, outcome):
        _expect_success(outcome)
        payload = json.loads(outcome.stdout)
        if payload.get("all_passed") is not True or not payload["checks"]:
            raise Invalid("verify-all did not pass")
        margins = []
        for row in payload["checks"]:
            residual, tolerance = float(row["residual"]), float(row["tolerance"])
            if row["status"] != "pass" or not residual <= tolerance:
                raise Invalid(f"{row['check']}: {residual!r} > {tolerance!r}")
            layer = next((lay for prefix, lay in VERIFY_LAYERS if row["check"].startswith(prefix)), None)
            if layer is not None:
                margins.append((layer, residual, tolerance))
        return margins


# ----------------------------------------------------------------------
# wigner: d-tables at N in the hundreds, nearly all time in kravchuk
# ----------------------------------------------------------------------

# the tolerance verify-all holds each emitted residual to
WIGNER_TOLERANCES = {
    "symmetry": 1e-12,
    "orthogonality": 1e-12,
    "recurrence_three_term": 1e-10,
    "recurrence_shift": 1e-10,
    "oracle": 1e-10,
    "differential_plus": 1e-6,
    "differential_minus": 1e-6,
}
WIGNER_ROWS = {
    "symmetry": ("symmetry",),
    "orthogonality": ("orthogonality",),
    "recurrence": ("recurrence_three_term", "recurrence_shift"),
    "all": tuple(WIGNER_TOLERANCES),
}
SINGLE_CHECKS = ("orthogonality", "symmetry", "recurrence")
# Ops per cycle for each N; the exact-oracle "--check all" ops are the
# minority.  One cycle takes about 33 s on the reference machine, so a 25 s
# run is one cycle.  N = 64 ops
# are 87% of the ops, so that the median falls inside their flat middle,
# about 4 ms, not on a knee of the mixture.
WIGNER_MIX = {64: 768, 128: 64, 256: 32}
WIGNER_ALL_OPS = 20
WIGNER_ALL_SIZES = (16, 32)
# The differential check of "--check all" takes central differences with
# step 1e-5 in beta, which the program refuses within one step of 0 or pi,
# and its residual grows as the edge nears (6.5e-7 at N = 32, pi - 2e-5).
# Those ops keep 100 steps from either edge; every other op spans (0, pi).
ALL_CHECK_EDGE = 1e-3
# verify-all holds recurrence_three_term to 1e-10 at N = 30, beta = 0.7.
THREE_TERM_REFERENCE = (30, 0.7)


def angle_grid(rng, count: int, edge: float = 0.0) -> list:
    """``count`` angles evenly spaced over (edge, pi - edge), shifted by one
    seeded offset, so that each one is uniform on that open interval.

    At N = 256 an op costs 3.5 s within 0.05 of either edge and 0.01 s at
    beta = 1, so independent draws put a varying number of ops on the edges:
    on the reference machine of perfbench/README.md, five seeds with
    independent draws spread ops_per_s by 0.31 and op_tail_s by 0.54.
    """
    while True:
        u = float(rng.random())
        betas = [edge + (math.pi - 2.0 * edge) * (i + u) / count for i in range(count)]
        if edge < betas[0] and betas[-1] < math.pi - edge:
            return betas


def three_term_scale(N: int, beta: float) -> float:
    """Largest coefficient of the three-term relation, N max(p, q) / sqrt(pq)."""
    p = math.sin(0.5 * beta) ** 2
    q = 1.0 - p
    return N * max(p, q) / math.sqrt(p * q)


def wigner_tolerance(row: str, N: int, beta: float) -> float:
    """The tolerance verify-all uses for ``row``, scaled for the three-term relation.

    That residual is rounding in terms of the relation's largest coefficient,
    about 3e-16 times it, and the coefficient grows like N / beta near the
    edges (N = 256, beta = 1e-3: a residual of 1.6e-10 at a coefficient of
    5e5).  Its 1e-10 is therefore multiplied by the coefficient's ratio to
    the one at verify-all's point, where that ratio exceeds 1.
    """
    tolerance = WIGNER_TOLERANCES[row]
    if row == "recurrence_three_term":
        ratio = three_term_scale(N, beta) / three_term_scale(*THREE_TERM_REFERENCE)
        tolerance *= max(1.0, ratio)
    return tolerance


class Wigner(Workload):
    name = "wigner"
    trace_cycles = 1
    tail_percentile = 97

    def cycle(self, rng):
        ops = []
        for N, count in WIGNER_MIX.items():
            for beta in angle_grid(rng, count):
                check = SINGLE_CHECKS[int(rng.integers(0, len(SINGLE_CHECKS)))]
                ops.append(("wigner", N, beta, check))
        lo, hi = WIGNER_ALL_SIZES
        for beta in angle_grid(rng, WIGNER_ALL_OPS, ALL_CHECK_EDGE):
            ops.append(("wigner", int(rng.integers(lo, hi + 1)), beta, "all"))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def execute(self, op):
        _, N, beta, check = op
        return call_cli(["wigner", "--N", str(N), "--beta", repr(beta),
                         "--check", check, "--format", "json"])

    def validate(self, op, outcome):
        _expect_success(outcome)
        _, N, beta, check = op
        payload = json.loads(outcome.stdout)
        if payload["N"] != N or payload["beta"] != beta:
            raise Invalid("wigner echoed other parameters")
        margins = []
        for row in WIGNER_ROWS[check]:
            residual = float(payload["checks"][row])
            tolerance = wigner_tolerance(row, N, beta)
            if not residual <= tolerance:
                raise Invalid(f"wigner N={N} beta={beta!r} {row}: {residual!r} > {tolerance!r}")
            margins.append(("kravchuk", residual, tolerance))
        return margins


# ----------------------------------------------------------------------
# evolve: a CLI trajectory written as CSV, nearly all time in formatting
# ----------------------------------------------------------------------

EVOLVE_SITES = 64
EVOLVE_STEPS = 1000
EVOLVE_TAU = 0.1
NORM_TOLERANCE = 1e-10     # verify-all's cayley-unitarity tolerance
REFERENCE_TOLERANCE = 1e-9  # last row against the eigendecomposition route


@dataclass
class EvolveInputs:
    H: np.ndarray
    psi0: np.ndarray
    argv: list
    output: Path


class Evolve(Workload):
    name = "evolve"
    trace_cycles = 16
    tail_percentile = 75

    def cycle(self, rng):
        return [("evolve", int(rng.integers(0, 2**31)))]

    def prepare(self, op, workdir):
        rng = np.random.default_rng(op[1])
        H = random_hermitian(rng, EVOLVE_SITES)
        psi0 = unit_state(rng, EVOLVE_SITES)
        ham, state, output = workdir / "H.json", workdir / "psi0.json", workdir / "trajectory.csv"
        ham.write_text(json.dumps({"re": H.real.tolist(), "im": H.imag.tolist()}))
        state.write_text(json.dumps({"epsilon": 1.0, "re": psi0.real.tolist(), "im": psi0.imag.tolist()}))
        output.unlink(missing_ok=True)
        argv = ["evolve", "--hamiltonian", str(ham), "--tau", repr(EVOLVE_TAU),
                "--steps", str(EVOLVE_STEPS), "--state", str(state),
                "--format", "csv", "--output", str(output)]
        return EvolveInputs(H, psi0, argv, output)

    def execute(self, inputs):
        return call_cli(inputs.argv, inputs.output)

    def validate(self, inputs, outcome):
        _expect_success(outcome)
        lines = inputs.output.read_text().splitlines()
        if len(lines) != EVOLVE_STEPS + 2:  # header plus psi_0 .. psi_S
            raise Invalid(f"trajectory has {len(lines) - 1} rows, expected {EVOLVE_STEPS + 1}")
        drift = max(abs(float(line.split(",", 2)[1]) - 1.0) for line in lines[1:])
        if not drift <= NORM_TOLERANCE:
            raise Invalid(f"norm drift {drift!r} > {NORM_TOLERANCE!r}")
        last = lines[-1].split(",")
        if int(last[0]) != EVOLVE_STEPS:
            raise Invalid(f"last row is step {last[0]}")
        values = np.array([float(v) for v in last[2:]])
        psi = values[0::2] + 1j * values[1::2]
        expected = cayley_power(inputs.H, EVOLVE_TAU, EVOLVE_STEPS, inputs.psi0)
        error = float(np.abs(psi - expected).max())
        if not error <= REFERENCE_TOLERANCE:
            raise Invalid(f"last row differs from C^S psi0 by {error!r}")
        return [("cayley", drift, NORM_TOLERANCE), ("cayley", error, REFERENCE_TOLERANCE)]


# ----------------------------------------------------------------------
# propagate: Cayley library calls at d in the hundreds, no serialization
# ----------------------------------------------------------------------

PROPAGATE_MIX = (128, 128, 256)  # two small ops per large one
PROPAGATE_STEPS = 10_000
PROPAGATE_TAU = 0.1
PROPAGATE_N = 3        # step index of the evolved observable
RESIDUAL_STEP = 7      # n of the evolution-operator residual, as in verify-all
SCHEME_TOLERANCE = 1e-10  # verify-all's heisenberg-*, involution-* and cayley-residual


@dataclass
class PropagateInputs:
    H: np.ndarray
    psi0: np.ndarray
    A: np.ndarray
    H_inv: np.ndarray


class Propagate(Workload):
    name = "propagate"
    trace_cycles = 4
    tail_percentile = 75

    def cycle(self, rng):
        ops = [("propagate", d, int(rng.integers(0, 2**31))) for d in PROPAGATE_MIX]
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self, op, workdir):
        _, d, seed = op
        rng = np.random.default_rng(seed)
        return PropagateInputs(
            H=random_hermitian(rng, d), psi0=unit_state(rng, d),
            A=random_hermitian(rng, d), H_inv=random_involution(rng, d),
        )

    def execute(self, x):
        prop = cayley.build_propagator(x.H, PROPAGATE_TAU)
        psi = cayley.evolve_state(prop, x.psi0, PROPAGATE_STEPS)
        schemes = cayley.heisenberg_scheme_residuals(prop, x.A, PROPAGATE_N)
        operator = cayley.evolution_operator_residual(prop, RESIDUAL_STEP)
        identities = cayley.involution_identities(x.H_inv, x.A, PROPAGATE_TAU, PROPAGATE_N)
        return Outcome(code=0, stdout="", bytes_out=0, value=(psi, schemes, operator, identities))

    def validate(self, x, outcome):
        psi, schemes, operator, identities = outcome.value
        drift = abs(float(np.linalg.norm(psi)) - 1.0)
        error = float(np.abs(psi - cayley_power(x.H, PROPAGATE_TAU, PROPAGATE_STEPS, x.psi0)).max())
        rows = [
            ("norm", drift, NORM_TOLERANCE),
            ("reference", error, REFERENCE_TOLERANCE),
            ("forward", schemes.forward, SCHEME_TOLERANCE),
            ("backward", schemes.backward, SCHEME_TOLERANCE),
            ("symmetric", schemes.symmetric, SCHEME_TOLERANCE),
            ("central", schemes.central, SCHEME_TOLERANCE),
            ("operator", operator, SCHEME_TOLERANCE),
        ] + [(f"involution-{c.name}", c.residual, SCHEME_TOLERANCE) for c in identities]
        if len(identities) != 5:
            raise Invalid(f"{len(identities)} involution identities, expected 5")
        for name, residual, tolerance in rows:
            if not residual <= tolerance:
                raise Invalid(f"propagate {name}: {residual!r} > {tolerance!r}")
        return [("cayley", residual, tolerance) for _, residual, tolerance in rows]


WORKLOADS = {w.name: w for w in (Verify(), Wigner(), Evolve(), Propagate())}
