"""Command line front end.

Parsing and dispatch only.  Every subcommand computes one artifact (a
momenta table, a trajectory, a spectrum, a residual table or a full
verification report) before anything is written, then ``run`` writes it to
stdout or to --output: JSON in one ``json.dumps``, CSV through
``report.write_csv``, whose floats carry 17 significant digits so a reported
value reconstructs the exact double.  The residuals come from
``latticeqm.checks``.  The CLI never asserts: checks are emitted as rows with
residuals, and only the exit code of ``verify-all`` (0 iff everything
passed) summarizes them.  Identical parameters and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cayley, checks, hermite, oscillator, planewave
from .lattice import LatticeState, complex_array
# format_float stays bound here, where perfbench reads and traces cli.format_float
from .report import VerificationReport, format_float, write_csv  # noqa: F401


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: subcommand name, its parameters, output routing."""

    command: str
    params: dict = field(default_factory=dict)
    fmt: str = "csv"
    output: str | None = None
    seed: int | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeqm",
        description="Quantum mechanics on a discrete lattice: bases, propagators, oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write the artifact here instead of stdout")

    p = sub.add_parser("basis", help="tangent-grid momenta and plane-wave table")
    p.add_argument("--N", type=int, required=True, help="number of lattice sites")
    p.add_argument("--epsilon", type=float, required=True, help="lattice spacing")
    p.add_argument("--table", action="store_true", help="include the full basis table")
    add_common(p)

    p = sub.add_parser("evolve", help="Cayley time evolution of a state")
    p.add_argument("--hamiltonian", required=True, metavar="JSON",
                   help='Hermitian matrix file: {"re": [[..]], "im": [[..]]}')
    p.add_argument("--tau", type=float, required=True, help="time step")
    p.add_argument("--steps", type=int, required=True, help="number of steps")
    p.add_argument("--state", required=True, metavar="JSON",
                   help='initial state file: {"epsilon": e, "re": [..], "im": [..]}')
    add_common(p)

    p = sub.add_parser("heisenberg-check",
                       help="difference-scheme identities for evolved observables")
    p.add_argument("--dim", type=int, default=4, help="matrix dimension (default 4)")
    p.add_argument("--tau", type=float, default=0.1, help="time step (default 0.1)")
    p.add_argument("--n", type=int, default=3, help="step index of the observable")
    p.add_argument("--seed", type=int, default=0, help="seed for the random matrices")
    add_common(p)

    p = sub.add_parser("wigner", help="rotation d-table checks")
    p.add_argument("--N", type=int, required=True, help="table size parameter, N = 2j")
    p.add_argument("--beta", type=float, required=True, help="rotation angle in (0, pi)")
    p.add_argument("--check", choices=("all", "symmetry", "recurrence", "orthogonality"),
                   default="all", help="which residuals to emit (default all)")
    add_common(p)

    p = sub.add_parser("spectrum", help="finite oscillator spectra")
    p.add_argument("--N", type=int, required=True, help="number of levels minus one, N = 2j")
    p.add_argument("--p", type=float, default=0.5, help="weight parameter (default 0.5)")
    p.add_argument("--what", choices=("energy", "position", "commutator"), required=True,
                   help="which spectrum to emit")
    add_common(p)

    p = sub.add_parser("converge", help="continuum limit error table for one level")
    p.add_argument("--n", type=int, required=True, help="oscillator level")
    p.add_argument("--N-list", dest="N_list", required=True, metavar="N1,N2,...",
                   help="comma separated sizes, e.g. 16,32,64,128")
    p.add_argument("--p", type=float, default=0.5, help="weight parameter (default 0.5)")
    add_common(p)

    p = sub.add_parser("hermite", help="sample a continuum oscillator eigenfunction")
    p.add_argument("--n", type=int, required=True, help="level")
    p.add_argument("--s-min", dest="s_min", type=float, required=True, help="grid start")
    p.add_argument("--s-max", dest="s_max", type=float, required=True, help="grid end")
    p.add_argument("--samples", type=int, required=True, help="number of grid points")
    add_common(p)

    p = sub.add_parser("verify-all", help="run the full deterministic check suite")
    p.add_argument("--seed", type=int, default=7, help="seed for the random draws (default 7)")
    add_common(p)

    return parser


def parse_args(argv=None) -> RunConfig:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    fmt = args.pop("format", "csv")
    output = args.pop("output", None)
    seed = args.pop("seed", None)

    # range checks that argparse types cannot express
    def fail(name, message):
        parser.error(f"argument --{name}: {message}")

    if command in ("basis", "wigner", "spectrum") and args["N"] < 1:
        fail("N", f"must be a positive integer, got {args['N']}")
    if command == "basis" and not args["epsilon"] > 0:
        fail("epsilon", f"must be positive, got {args['epsilon']}")
    if command == "evolve" and args["steps"] < 0:
        fail("steps", f"must be non-negative, got {args['steps']}")
    if command == "wigner" and not 0.0 < args["beta"] < math.pi:
        fail("beta", f"must lie strictly between 0 and pi, got {args['beta']}")
    if command == "spectrum" and not 0.0 < args["p"] < 1.0:
        fail("p", f"must lie strictly between 0 and 1, got {args['p']}")
    if command in ("converge", "hermite") and args["n"] < 0:
        fail("n", f"must be non-negative, got {args['n']}")
    if command == "converge":
        try:
            sizes = [int(v) for v in str(args["N_list"]).split(",") if v.strip()]
        except ValueError:
            fail("N-list", f"must be comma separated integers, got {args['N_list']!r}")
        if len(sizes) < 2:
            fail("N-list", "needs at least two sizes")
        args["N_list"] = sizes
    if command == "hermite":
        if args["samples"] < 2:
            fail("samples", f"must be at least 2, got {args['samples']}")
        if not args["s_max"] > args["s_min"]:
            fail("s-max", "must exceed --s-min")
    if command == "heisenberg-check" and args["dim"] < 2:
        fail("dim", f"must be at least 2, got {args['dim']}")

    return RunConfig(command=command, params=args, fmt=fmt, output=output, seed=seed)


# ----------------------------------------------------------------------
# artifact builders, one per subcommand: a JSON payload for --format json,
# else a list of (header, rows) CSV tables
# ----------------------------------------------------------------------


def _json_momentum(k: float):
    return "inf" if math.isinf(k) else k


def _cmd_basis(params, fmt):
    basis = planewave.build_basis(params["N"], params["epsilon"])
    N = basis.n_sites
    if fmt == "csv":
        tables = [("m,k_m", list(enumerate(basis.momenta.tolist())))]
        if params["table"]:
            j, m = np.divmod(np.arange(N * N), N)
            table = basis.table.ravel()
            tables.append(("j,m,re,im", np.column_stack((j, m, table.real, table.imag)).tolist()))
        return tables
    payload = {
        "N": N,
        "epsilon": basis.epsilon,
        "momenta": [_json_momentum(k) for k in basis.momenta.tolist()],
        "singular_column": basis.singular_column,
    }
    if params["table"]:
        payload["table"] = {
            "re": basis.table.real.tolist(),
            "im": basis.table.imag.tolist(),
        }
    return payload


def _cmd_evolve(params, fmt):
    H = cayley.check_hermitian(complex_array(json.loads(Path(params["hamiltonian"]).read_text())))
    state = LatticeState.from_json(Path(params["state"]).read_text())
    if state.n_sites != H.shape[0]:
        raise ValueError(
            f"state has {state.n_sites} components, Hamiltonian is {H.shape[0]}x{H.shape[0]}"
        )
    prop = cayley.build_propagator(H, params["tau"])
    traj = cayley.evolve_trajectory(prop, state.amplitudes, params["steps"])
    norms = np.linalg.norm(traj, axis=1)
    if fmt == "csv":
        header = "n,norm," + ",".join(f"re_{i},im_{i}" for i in range(traj.shape[1]))
        # a complex row viewed as floats is re_0, im_0, re_1, im_1, ...
        rows = np.column_stack((np.arange(traj.shape[0]), norms, traj.view(float))).tolist()
        return [(header, rows)]
    return {
        "tau": float(params["tau"]),
        "epsilon": state.epsilon,
        "steps": int(params["steps"]),
        "trajectory": [
            {
                "n": i,
                "norm": float(norms[i]),
                "re": traj[i].real.tolist(),
                "im": traj[i].imag.tolist(),
            }
            for i in range(traj.shape[0])
        ],
    }


SCHEMES = ("forward", "backward", "symmetric", "central")


def _cmd_heisenberg_check(params, fmt, seed):
    rng = np.random.default_rng(seed)
    dim, tau, n = params["dim"], params["tau"], params["n"]
    rows = checks.heisenberg(rng, checks.random_hermitian(rng, dim), tau, n,
                             SCHEMES + ("central_involution_form",))
    pair = (checks.random_involution(rng, dim), checks.random_hermitian(rng, dim), f"random dim {dim}")
    rows += checks.involution([pair], (tau,), n)
    named = [(row.check.replace("heisenberg-", "scheme-", 1), row.residual, row.fitted_exponent)
             for row in rows]
    if fmt == "csv":
        return [("check,residual,fitted_exponent",
                 [(name, residual, "" if e is None else e) for name, residual, e in named])]
    return {
        "dim": dim,
        "tau": tau,
        "n": n,
        "seed": seed,
        "checks": [
            {
                "check": name,
                "residual": residual,
                "fitted_exponent": None if e is None or math.isnan(e) else e,
            }
            for name, residual, e in named
        ],
    }


WIGNER_CHECKS = {
    "symmetry": (checks.wigner_symmetry,),
    "orthogonality": (checks.wigner_orthogonality,),
    "recurrence": (checks.wigner_recurrence,),
    "all": (checks.wigner_symmetry, checks.wigner_orthogonality, checks.wigner_recurrence,
            checks.wigner_oracle, checks.wigner_differential),
}


def _cmd_wigner(params, fmt):
    N, beta = params["N"], params["beta"]
    # verify-all's wigner-vs-oracle row is this command's oracle row, and so on
    rows = [(row.check.removeprefix("wigner-").removeprefix("vs-").replace("-", "_"), row.residual)
            for check in WIGNER_CHECKS[params["check"]] for row in check((N,), (beta,))]
    if fmt == "csv":
        return [("check,value", rows)]
    return {"N": N, "beta": beta, "checks": dict(rows)}


def _cmd_spectrum(params, fmt):
    model = oscillator.build_oscillator(params["N"], params["p"])
    what = params["what"]
    if what == "position":
        spec = oscillator.position_spectrum(model)
        header, labels, values = "m_prime,value", spec.m_prime.tolist(), spec.eigenvalues
    else:
        spectrum = oscillator.energy_spectrum if what == "energy" else oscillator.commutator_spectrum
        header, labels, values = "n,value", list(range(model.N + 1)), spectrum(model)
    values = values.tolist()
    if fmt == "csv":
        return [(header, list(zip(labels, values)))]
    return {"N": model.N, "p": model.p, "what": what, "labels": labels, "values": values}


def _cmd_converge(params, fmt):
    table = oscillator.continuum_convergence(params["n"], params["N_list"], params["p"])
    sizes, errors = table.sizes.tolist(), table.max_errors.tolist()
    if fmt == "csv":
        return [("N,max_error", list(zip(sizes, errors)))]
    return {
        "n": table.level,
        "p": params["p"],
        "sizes": sizes,
        "max_errors": errors,
        "fitted_order": table.fitted_order,
    }


def _cmd_hermite(params, fmt):
    s = np.linspace(params["s_min"], params["s_max"], params["samples"])
    psi = hermite.eval_psi(params["n"], s).tolist()
    s = s.tolist()
    if fmt == "csv":
        return [("s,psi", list(zip(s, psi)))]
    return {"n": params["n"], "s": s, "psi": psi}


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------


def build_verification_report(seed: int = 7) -> VerificationReport:
    """Deterministic check suite spanning every module, seeded random draws."""
    rng = np.random.default_rng(seed)
    # integer spacings print as 1 and 10 in the row's "eps in {0.1;1;10}" label
    rows = checks.basis((2, 3, 5, 16, 33, 64), (0.1, 1, 10))
    rows += checks.fourier(rng, (2, 5, 16, 33, 64), 5)
    rows += checks.momentum((4, 7, 16))
    H = checks.random_hermitian(rng, 6)
    rows += checks.propagator(rng, H, (0.1,), 200, (7,))
    rows += checks.propagator_order(H, (0.1, 0.05))
    rows += checks.heisenberg(rng, H, 0.1, 3, SCHEMES)
    pairs = [
        (checks.SIGMA_Z, checks.SIGMA_X, "sigma_z"),
        (checks.SIGMA_X, checks.SIGMA_Z, "sigma_x"),
        (checks.random_involution(rng, 4), checks.random_hermitian(rng, 4), "random dim 4"),
    ]
    rows += checks.involution(pairs, (0.2,), 2)
    for table_check in (checks.wigner_oracle, checks.wigner_symmetry, checks.wigner_orthogonality):
        rows += table_check((1, 2, 5, 12), (0.3, 0.5 * math.pi, 2.5))
    rows += checks.wigner_recurrence((30,), (0.7,))
    rows += checks.wigner_differential((10,), (1.0,))
    rows += checks.ladder_spectra((2, 7, 50, 200))
    rows += checks.position((2, 20, 60))
    rows += checks.continuum((0, 1, 2), (16, 32, 64))
    rows += checks.ladder((1,), (16, 32, 64))
    rows += checks.limit_recurrence((50, 0.5, 3), (200, 0.3, 2))
    rows += checks.hermite_oracle(np.linspace(-6.0, 6.0, 1201), range(11), range(9), 6, range(7))
    rows += checks.state_round_trip(rng, (9,), 0.25)
    return VerificationReport(rows)


def _cmd_verify_all(fmt, seed):
    rep = build_verification_report(seed)
    code = 0 if rep.all_passed else 1
    if fmt == "csv":
        rows = [(r.check, r.params, r.residual, r.tolerance, r.status) for r in rep.rows]
        return [("check,params,residual,tolerance,status", rows)], code
    rows = [
        {
            "check": r.check,
            "params": r.params,
            "residual": r.residual,
            "tolerance": r.tolerance,
            "status": r.status,
        }
        for r in rep.rows
    ]
    return {"all_passed": rep.all_passed, "checks": rows}, code


def run(config: RunConfig) -> int:
    """Execute one parsed invocation, write its artifact, return the exit code."""
    params, fmt, code = config.params, config.fmt, 0
    try:
        if config.command == "basis":
            artifact = _cmd_basis(params, fmt)
        elif config.command == "evolve":
            artifact = _cmd_evolve(params, fmt)
        elif config.command == "heisenberg-check":
            artifact = _cmd_heisenberg_check(params, fmt, config.seed)
        elif config.command == "wigner":
            artifact = _cmd_wigner(params, fmt)
        elif config.command == "spectrum":
            artifact = _cmd_spectrum(params, fmt)
        elif config.command == "converge":
            artifact = _cmd_converge(params, fmt)
        elif config.command == "hermite":
            artifact = _cmd_hermite(params, fmt)
        elif config.command == "verify-all":
            artifact, code = _cmd_verify_all(fmt, config.seed)
        else:  # pragma: no cover - argparse rejects unknown subcommands first
            print(f"error: unknown subcommand {config.command!r}", file=sys.stderr)
            return 2
        # the artifact is complete before the destination opens, so a failed
        # computation leaves no partial file behind
        with contextlib.nullcontext(sys.stdout) if config.output is None else open(config.output, "w") as out:
            if fmt == "json":
                out.write(json.dumps(artifact, indent=2) + "\n")
            else:
                for i, (header, rows) in enumerate(artifact):
                    if i:
                        out.write("\n")
                    write_csv(out, header, rows)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
