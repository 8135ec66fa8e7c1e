"""Command line front end.

Parsing and dispatch only.  Each subcommand is declared once in
``_build_parser``; each numeric flag's type is ``_flag`` over the library's
validator for that parameter, so an out-of-range value exits 2 with the usage
line and the validator's message before any work starts.  The parser is built
on the first ``main`` call and reused by every later one, which only helps
code that calls ``main`` many times in one process; importing the package
does not build it.

Each subcommand has one builder in ``COMMANDS``, called with the parsed
parameters and the format.  It computes the whole artifact (a momenta table,
a trajectory, a spectrum, a residual table or the verification rows) before
anything is written, then ``main`` writes it to stdout or to --output: JSON in
one strict ``json.dumps``, CSV through ``report.write_csv``, whose floats carry
17 significant digits so a reported value reconstructs the exact double.  The
residuals come from ``latticeqm.checks``.  The CLI never asserts:
``report.render_checks`` gives the rows of ``verify-all`` and
``heisenberg-check`` their status and exit code (0 iff every row passed).
Identical parameters and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cayley, checks, hermite, oscillator, planewave, report
from .lattice import (LatticeState, _angle, _count, _finite, _integer, _order, _probability, _spacing, _step,
                      complex_array)
# format_float stays bound here, where perfbench reads and traces cli.format_float
from .report import format_float, write_csv  # noqa: F401


def _flag(check, convert, *args):
    """An argparse type: ``convert`` the text, then ``check(value, *args)``, a
    library validator, whose ValueError becomes the flag's usage error."""
    def parse(text):
        value = convert(text)
        try:
            return check(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    # argparse names the converter when conversion fails: "invalid int value: 'x'"
    parse.__name__ = convert.__name__
    return parse


def _int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma separated integers, got {text!r}") from None


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
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
    p.add_argument("--N", type=_flag(_order, int), required=True, help="number of lattice sites")
    p.add_argument("--epsilon", type=_flag(_spacing, float), required=True, help="lattice spacing")
    p.add_argument("--table", action="store_true", help="include the full basis table")
    add_common(p)

    p = sub.add_parser("evolve", help="Cayley time evolution of a state")
    p.add_argument("--hamiltonian", required=True, metavar="JSON",
                   help='Hermitian matrix file: {"re": [[..]], "im": [[..]]}')
    p.add_argument("--tau", type=_flag(_step, float), required=True, help="time step")
    p.add_argument("--steps", type=_flag(_count, int, "steps"), required=True, help="number of steps")
    p.add_argument("--state", required=True, metavar="JSON",
                   help='initial state file: {"epsilon": e, "re": [..], "im": [..]}')
    add_common(p)

    p = sub.add_parser("heisenberg-check",
                       help="difference-scheme identities for evolved observables")
    p.add_argument("--dim", type=_flag(checks._involution_dim, int), default=4, help="matrix dimension (default 4)")
    p.add_argument("--tau", type=_flag(_step, float), default=0.1, help="time step (default 0.1)")
    p.add_argument("--n", type=_flag(_integer, int, "n"), default=3, help="step index of the observable")
    p.add_argument("--seed", type=_flag(_count, int, "seed"), default=0, help="seed for the random matrices")
    add_common(p)

    p = sub.add_parser("wigner", help="rotation d-table checks")
    p.add_argument("--N", type=_flag(_order, int), required=True, help="table size parameter, N = 2j")
    p.add_argument("--beta", type=_flag(_angle, float), required=True, help="rotation angle in (0, pi)")
    p.add_argument("--check", choices=("all", "symmetry", "recurrence", "orthogonality"),
                   default="all", help="which residuals to emit (default all)")
    add_common(p)

    p = sub.add_parser("spectrum", help="finite oscillator spectra")
    p.add_argument("--N", type=_flag(_order, int), required=True, help="number of levels minus one, N = 2j")
    p.add_argument("--what", choices=("energy", "position", "commutator"), required=True,
                   help="which spectrum to emit")
    add_common(p)

    p = sub.add_parser("converge", help="continuum limit error table for one level")
    p.add_argument("--n", type=_flag(_count, int, "n"), required=True, help="oscillator level")
    p.add_argument("--N-list", dest="N_list", required=True, metavar="N1,N2,...",
                   type=_flag(lambda sizes: list(map(_order, sizes)), _int_list),
                   help="comma separated sizes, e.g. 16,32,64,128")
    p.add_argument("--p", type=_flag(_probability, float), default=0.5, help="weight parameter (default 0.5)")
    add_common(p)

    p = sub.add_parser("hermite", help="sample a continuum oscillator eigenfunction")
    p.add_argument("--n", type=_flag(_count, int, "n"), required=True, help="level")
    p.add_argument("--s-min", dest="s_min", type=_flag(_finite, float, "s_min"), required=True, help="grid start")
    p.add_argument("--s-max", dest="s_max", type=_flag(_finite, float, "s_max"), required=True, help="grid end")
    p.add_argument("--samples", type=_flag(_count, int, "samples", 2), required=True, help="number of grid points")
    add_common(p)

    p = sub.add_parser("verify-all", help="run the full deterministic check suite")
    p.add_argument("--seed", type=_flag(_count, int, "seed"), default=7,
                   help="seed for the random draws (default 7)")
    add_common(p)

    return parser, sub.choices


# ----------------------------------------------------------------------
# artifact builders, one per subcommand, each called as builder(params, fmt):
# (artifact, exit code), the artifact a JSON payload for --format json, else
# a list of (header, rows) CSV tables
# ----------------------------------------------------------------------


def _cmd_basis(params, fmt):
    basis = planewave.build_basis(params["N"], params["epsilon"])
    N = basis.n_sites
    if fmt == "csv":
        tables = [("m,k_m", list(enumerate(basis.momenta.tolist())))]
        if params["table"]:
            j, m = np.divmod(np.arange(N * N), N)
            table = basis.table.ravel()
            tables.append(("j,m,re,im", np.column_stack((j, m, table.real, table.imag)).tolist()))
        return tables, 0
    payload = {
        "N": N,
        "epsilon": basis.epsilon,
        "momenta": [report.json_number(k) for k in basis.momenta.tolist()],
        "singular_column": basis.singular_column,
    }
    if params["table"]:
        payload["table"] = {
            "re": basis.table.real.tolist(),
            "im": basis.table.imag.tolist(),
        }
    return payload, 0


def _cmd_evolve(params, fmt):
    prop = cayley.build_propagator(complex_array(json.loads(Path(params["hamiltonian"]).read_text())), params["tau"])
    state = LatticeState.from_json(Path(params["state"]).read_text())
    traj = cayley.evolve_trajectory(prop, state.amplitudes, params["steps"])
    norms = np.linalg.norm(traj, axis=1)
    if fmt == "csv":
        header = "n,norm," + ",".join(f"re_{i},im_{i}" for i in range(traj.shape[1]))
        # a complex row viewed as floats is re_0, im_0, re_1, im_1, ...
        rows = np.column_stack((np.arange(traj.shape[0]), norms, traj.view(float))).tolist()
        return [(header, rows)], 0
    return {
        "tau": params["tau"],
        "epsilon": state.epsilon,
        "steps": params["steps"],
        "trajectory": [
            {
                "n": i,
                "norm": float(norms[i]),
                "re": traj[i].real.tolist(),
                "im": traj[i].imag.tolist(),
            }
            for i in range(traj.shape[0])
        ],
    }, 0


def _cmd_heisenberg_check(params, fmt):
    dim, tau, n = params["dim"], params["tau"], params["n"]
    rng = np.random.default_rng(params["seed"])
    rows = checks.heisenberg(rng, checks.random_hermitian(rng, dim), tau, n)
    pair = (checks.random_involution(rng, dim), checks.random_hermitian(rng, dim), f"random dim {dim}")
    return report.render_checks(rows + checks.involution([pair], (tau,), n), fmt)


def _cmd_wigner(params, fmt):
    N, beta = params["N"], params["beta"]
    groups = checks.WIGNER if params["check"] == "all" else (params["check"],)
    # perfbench reads this layout and needs exit 0: verify-all's wigner-vs-oracle is the oracle key, and so on
    rows = [(row.check.removeprefix("wigner-").removeprefix("vs-").replace("-", "_"), row.residual)
            for row in checks.wigner((N,), (beta,), groups)]
    if fmt == "csv":
        return [("check,value", rows)], 0
    return {"N": N, "beta": beta, "checks": dict(rows)}, 0


def _cmd_spectrum(params, fmt):
    N, what = params["N"], params["what"]
    if what == "position":
        header, labels, values = "m_prime,value", np.arange(N + 1.0) - 0.5 * N, oscillator.position_spectrum(N)
    else:
        spectrum = oscillator.energy_spectrum if what == "energy" else oscillator.commutator_spectrum
        header, labels, values = "n,value", np.arange(N + 1), spectrum(N)
    labels, values = labels.tolist(), values.tolist()
    if fmt == "csv":
        return [(header, list(zip(labels, values)))], 0
    return {"N": N, "what": what, "labels": labels, "values": values}, 0


def _cmd_converge(params, fmt):
    n = params["n"]
    table = oscillator.continuum_convergence(n, params["N_list"], params["p"])
    sizes, errors = table.sizes.tolist(), table.max_errors[:, n].tolist()
    if fmt == "csv":
        return [("N,max_error", list(zip(sizes, errors)))], 0
    return {
        "n": n,
        "p": params["p"],
        "sizes": sizes,
        "max_errors": errors,
        "fitted_order": float(table.fitted_orders[n]),
    }, 0


def _cmd_hermite(params, fmt):
    s = np.linspace(params["s_min"], params["s_max"], params["samples"])
    psi = hermite.eval_psi(params["n"], s).tolist()
    s = s.tolist()
    if fmt == "csv":
        return [("s,psi", list(zip(s, psi)))], 0
    return {"n": params["n"], "s": s, "psi": psi}, 0


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------


def build_verification_report(seed: int = 7) -> list:
    """The CheckRows of the deterministic check suite: every module, seeded random draws."""
    rng = np.random.default_rng(seed)
    # integer spacings print as 1 and 10 in the row's "eps in {0.1;1;10}" label
    rows = checks.basis((2, 3, 5, 16, 33, 64), (0.1, 1, 10))
    rows += checks.fourier(rng, (2, 5, 16, 33, 64), 5)
    rows += checks.momentum((4, 7, 16))
    H = checks.random_hermitian(rng, 6)
    rows += checks.propagator(rng, H, (0.1,), 200, (7,))
    rows += checks.propagator_order(H, (0.1, 0.05))
    rows += checks.heisenberg(rng, H, 0.1, 3)
    pairs = [
        (checks.SIGMA_Z, checks.SIGMA_X, "sigma_z"),
        (checks.SIGMA_X, checks.SIGMA_Z, "sigma_x"),
        (checks.random_involution(rng, 4), checks.random_hermitian(rng, 4), "random dim 4"),
    ]
    rows += checks.involution(pairs, (0.2,), 2)
    rows += checks.wigner((1, 2, 5, 12), (0.3, 0.5 * math.pi, 2.5), ("oracle", "symmetry", "orthogonality"))
    rows += checks.wigner((30,), (0.7,), ("recurrence",))
    rows += checks.wigner((10,), (1.0,), ("differential",))
    rows += checks.ladder_spectra((2, 7, 50, 200))
    rows += checks.position((2, 20, 60))
    rows += checks.continuum((0, 1, 2), (1,), (16, 32, 64))
    rows += checks.limit_recurrence((50, 0.5, 3), (200, 0.3, 2))
    rows += checks.hermite_oracle(np.linspace(-6.0, 6.0, 1201), 10, 8, 6, 6)
    rows += checks.state_round_trip(rng, (9,), 0.25)
    return rows


def _cmd_verify_all(params, fmt):
    return report.render_checks(build_verification_report(params["seed"]), fmt)


COMMANDS = {
    "basis": _cmd_basis,
    "evolve": _cmd_evolve,
    "heisenberg-check": _cmd_heisenberg_check,
    "wigner": _cmd_wigner,
    "spectrum": _cmd_spectrum,
    "converge": _cmd_converge,
    "hermite": _cmd_hermite,
    "verify-all": _cmd_verify_all,
}


def main(argv=None) -> int:
    """Parse argv (default sys.argv[1:]), build the artifact, write it, return the exit code.

    Each flag's type converts its value and calls the library's validator,
    so argparse rejects an out-of-range value with the subcommand's usage
    line and exit code 2.  Two rules span two flags and are checked here, as
    usage errors too: --s-max > --s-min by a finite span, and two distinct --N-list sizes above --n.
    A ValueError, OSError or MemoryError from the work ends as one ``error:``
    line on stderr and exit code 1.
    The parser is built on the first call and shared by every later one:
    parsing returns a fresh namespace and never changes the parser, and a
    usage error only raises SystemExit.
    """
    parser, subparsers = _build_parser()
    params = vars(parser.parse_args(argv))
    command, fmt, output = params.pop("command"), params.pop("format"), params.pop("output")
    if command == "hermite" and not params["s_max"] > params["s_min"]:
        subparsers[command].error("argument --s-max: must exceed --s-min")
    if command == "hermite" and params["s_max"] - params["s_min"] == math.inf:
        subparsers[command].error("argument --s-max: s_max - s_min must be finite, got inf")
    if command == "converge":
        try:
            oscillator._sweep_sizes(params["N_list"], params["n"])
        except ValueError as exc:
            subparsers[command].error(f"argument --N-list: {exc}")
    try:
        artifact, code = COMMANDS[command](params, fmt)
        if fmt == "json":  # strict: a NaN or inf left in a payload is an error
            artifact = json.dumps(artifact, indent=2, allow_nan=False) + "\n"
        # the artifact is complete before the destination opens, so a failed
        # computation leaves no partial file behind
        with contextlib.nullcontext(sys.stdout) if output is None else open(output, "w") as out:
            if fmt == "json":
                out.write(artifact)
            else:
                for i, (header, rows) in enumerate(artifact):
                    if i:
                        out.write("\n")
                    write_csv(out, header, rows)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
