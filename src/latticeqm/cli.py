"""Command line front end.

Every subcommand computes one artifact (a momenta table, a trajectory, a
spectrum, a residual table or a full verification report) and writes it as
CSV or JSON to stdout or to --output.  Floats are printed with 17 significant
digits so a reported value reconstructs the exact double.  The CLI never
asserts: checks are emitted as rows with residuals, and only the exit code of
``verify-all`` (0 iff everything passed) summarizes them.  Identical
parameters and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cayley, hermite, kravchuk, oscillator, planewave
from .lattice import LatticeState
from .report import VerificationReport, export_report, format_float


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
# artifact builders, one per subcommand
# ----------------------------------------------------------------------


def _csv_table(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, (int, str)) else format_float(v) for v in row
        ))
    return "\n".join(lines) + "\n"


def _json_momentum(k: float):
    return "inf" if math.isinf(k) else k


def _cmd_basis(params, fmt) -> str:
    basis = planewave.build_basis(params["N"], params["epsilon"])
    if fmt == "csv":
        text = _csv_table("m,k_m", [(m, k) for m, k in enumerate(basis.momenta)])
        if params["table"]:
            rows = []
            for j in range(basis.n_sites):
                for m in range(basis.n_sites):
                    v = basis.table[j, m]
                    rows.append((j, m, v.real, v.imag))
            text += "\n" + _csv_table("j,m,re,im", rows)
        return text
    payload = {
        "N": basis.n_sites,
        "epsilon": basis.epsilon,
        "momenta": [_json_momentum(float(k)) for k in basis.momenta],
        "singular_column": basis.singular_column,
    }
    if params["table"]:
        payload["table"] = {
            "re": basis.table.real.tolist(),
            "im": basis.table.imag.tolist(),
        }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_evolve(params, fmt) -> str:
    ham_data = json.loads(Path(params["hamiltonian"]).read_text())
    re = np.asarray(ham_data["re"], dtype=float)
    im = np.asarray(ham_data.get("im", np.zeros_like(re)), dtype=float)
    H = cayley.check_hermitian(re + 1j * im)
    state = LatticeState.from_json(Path(params["state"]).read_text())
    if state.n_sites != H.shape[0]:
        raise ValueError(
            f"state has {state.n_sites} components, Hamiltonian is {H.shape[0]}x{H.shape[0]}"
        )
    prop = cayley.build_propagator(H, params["tau"])
    traj = cayley.evolve_trajectory(prop, state.amplitudes, params["steps"])
    norms = np.linalg.norm(traj, axis=1)
    if fmt == "csv":
        d = traj.shape[1]
        header = "n,norm," + ",".join(f"re_{i},im_{i}" for i in range(d))
        rows = []
        for i, psi in enumerate(traj):
            row = [i, norms[i]]
            for v in psi:
                row.extend((v.real, v.imag))
            rows.append(tuple(row))
        return _csv_table(header, rows)
    payload = {
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
    return json.dumps(payload, indent=2) + "\n"


def _random_hermitian(rng, dim: int) -> np.ndarray:
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (M + M.conj().T)


def _random_involution(rng, dim: int) -> np.ndarray:
    # unitary conjugate of a +-1 signature, Hermitian with H^2 = 1
    Q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    signs = np.where(rng.integers(0, 2, size=dim) == 0, -1.0, 1.0)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]  # keep it a genuine reflection
    return Q @ np.diag(signs) @ Q.conj().T


def _cmd_heisenberg_check(params, fmt, seed) -> str:
    rng = np.random.default_rng(seed)
    dim, tau, n = params["dim"], params["tau"], params["n"]
    H = _random_hermitian(rng, dim)
    A = _random_hermitian(rng, dim)
    prop = cayley.build_propagator(H, tau)
    schemes = cayley.heisenberg_scheme_residuals(prop, A, n)
    rows = [
        ("scheme-forward", schemes.forward, None),
        ("scheme-backward", schemes.backward, None),
        ("scheme-symmetric", schemes.symmetric, None),
        ("scheme-central", schemes.central, None),
        ("scheme-central-involution-form", schemes.central_involution_form, None),
    ]
    H_inv = _random_involution(rng, dim)
    A_inv = _random_hermitian(rng, dim)
    for check in cayley.involution_identities(H_inv, A_inv, tau, n):
        rows.append((f"involution-{check.name}", check.residual, check.fitted_exponent))
    if fmt == "csv":
        lines = ["check,residual,fitted_exponent"]
        for name, residual, exponent in rows:
            tail = "" if exponent is None else format_float(exponent)
            lines.append(f"{name},{format_float(residual)},{tail}")
        return "\n".join(lines) + "\n"
    payload = {
        "dim": dim,
        "tau": tau,
        "n": n,
        "seed": seed,
        "checks": [
            {
                "check": name,
                "residual": float(residual),
                "fitted_exponent": None
                if exponent is None or math.isnan(exponent)
                else float(exponent),
            }
            for name, residual, exponent in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _wigner_checks(D, which: str) -> list:
    T = D.table
    N = D.N
    rows = []
    if which in ("all", "symmetry"):
        parity = np.where((np.add.outer(np.arange(N + 1), np.arange(N + 1))) % 2 == 0, 1.0, -1.0)
        rows.append(("symmetry", float(np.abs(T - parity * T.T).max())))
    if which in ("all", "orthogonality"):
        eye = np.eye(N + 1)
        rows.append(("orthogonality", float(np.abs(T.T @ T - eye).max())))
    if which in ("all", "recurrence"):
        rec = kravchuk.recurrence_residuals(D)
        rows.append(("recurrence_three_term", rec.three_term))
        rows.append(("recurrence_shift", rec.shift))
    if which == "all":
        oracle = kravchuk.wigner_d_direct(N, D.beta)
        rows.append(("oracle", float(np.abs(T - oracle).max())))
        rows.append(("differential_plus", kravchuk.differential_relation_residual(D, +1)))
        rows.append(("differential_minus", kravchuk.differential_relation_residual(D, -1)))
    return rows


def _cmd_wigner(params, fmt) -> str:
    D = kravchuk.build_wigner_d(params["N"], params["beta"])
    rows = _wigner_checks(D, params["check"])
    if fmt == "csv":
        return _csv_table("check,value", rows)
    payload = {
        "N": D.N,
        "beta": D.beta,
        "checks": {name: value for name, value in rows},
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_spectrum(params, fmt) -> str:
    model = oscillator.build_oscillator(params["N"], params["p"])
    what = params["what"]
    if what == "energy":
        header, labels, values = "n,value", range(model.N + 1), oscillator.energy_spectrum(model)
    elif what == "commutator":
        header, labels, values = "n,value", range(model.N + 1), oscillator.commutator_spectrum(model)
    else:
        spec = oscillator.position_spectrum(model)
        header, labels, values = "m_prime,value", spec.m_prime, spec.eigenvalues
    if fmt == "csv":
        rows = []
        for label, value in zip(labels, values):
            key = label if isinstance(label, int) else float(label)
            rows.append((key, float(value)))
        return _csv_table(header, rows)
    payload = {
        "N": model.N,
        "p": model.p,
        "what": what,
        "labels": [int(v) if isinstance(v, int) else float(v) for v in labels],
        "values": [float(v) for v in values],
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_converge(params, fmt) -> str:
    table = oscillator.continuum_convergence(params["n"], params["N_list"], params["p"])
    if fmt == "csv":
        rows = [(int(N), float(e)) for N, e in zip(table.sizes, table.max_errors)]
        return _csv_table("N,max_error", rows)
    payload = {
        "n": table.level,
        "p": params["p"],
        "sizes": [int(v) for v in table.sizes],
        "max_errors": [float(v) for v in table.max_errors],
        "fitted_order": table.fitted_order,
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_hermite(params, fmt) -> str:
    s = np.linspace(params["s_min"], params["s_max"], params["samples"])
    values = hermite.eval_psi(params["n"], s)
    if fmt == "csv":
        return _csv_table("s,psi", [(float(a), float(b)) for a, b in zip(s, values)])
    payload = {
        "n": params["n"],
        "s": [float(v) for v in s],
        "psi": [float(v) for v in values],
    }
    return json.dumps(payload, indent=2) + "\n"


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------


def _matrix_exponential(H: np.ndarray, t: float) -> np.ndarray:
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * lam * t)) @ V.conj().T


def build_verification_report(seed: int = 7) -> VerificationReport:
    """Deterministic check suite spanning every module, seeded random draws."""
    rng = np.random.default_rng(seed)
    rep = VerificationReport()

    # plane-wave basis
    worst_gram = worst_dft = 0.0
    for N in (2, 3, 5, 16, 33, 64):
        for eps in (0.1, 1.0, 10.0):
            basis = planewave.build_basis(N, eps)
            eye = np.eye(N)
            worst_gram = max(worst_gram, float(np.abs(basis.table.conj().T @ basis.table - eye).max()))
            j = np.arange(N)
            dft = np.exp(2j * np.pi * np.outer(j, j) / N) / math.sqrt(N)
            worst_dft = max(worst_dft, float(np.abs(basis.table - dft).max()))
    rep.add("basis-orthonormality", "N<=64 eps in {0.1;1;10}", worst_gram, 1e-12)
    rep.add("basis-dft-identity", "N<=64 eps in {0.1;1;10}", worst_dft, 1e-12)

    worst_rt = worst_parseval = 0.0
    for N in (2, 5, 16, 33, 64):
        basis = planewave.build_basis(N, 0.7)
        for _ in range(5):
            f = LatticeState(rng.standard_normal(N) + 1j * rng.standard_normal(N), 0.7)
            a = planewave.forward_transform(basis, f)
            g = planewave.inverse_transform(basis, a)
            worst_rt = max(worst_rt, float(np.abs(g.amplitudes - f.amplitudes).max()))
            worst_parseval = max(worst_parseval, abs(float(np.linalg.norm(a)) - f.norm()))
    rep.add("fourier-round-trip", "5 random states per N", worst_rt, 1e-12)
    rep.add("fourier-parseval", "5 random states per N", worst_parseval, 1e-12)

    worst_eig = 0.0
    for N in (4, 7, 16):
        basis = planewave.build_basis(N, 1.3)
        lam = planewave.momentum_eigenvalues(basis)
        for m in range(N):
            col = LatticeState(basis.table[:, m], basis.epsilon)
            out = planewave.momentum_apply(basis, col)
            worst_eig = max(worst_eig, float(np.abs(out.amplitudes - lam[m] * col.amplitudes).max()))
    rep.add("momentum-eigenrelation", "N in {4;7;16} all columns", worst_eig, 1e-10)

    # Cayley propagation
    H = _random_hermitian(rng, 6)
    prop = cayley.build_propagator(H, 0.1)
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi /= np.linalg.norm(psi)
    drift = 0.0
    state = psi.copy()
    for _ in range(200):
        state = prop.factor @ state
        drift = max(drift, abs(float(np.linalg.norm(state)) - 1.0))
    rep.add("cayley-unitarity", "dim 6 tau 0.1 200 steps", drift, 1e-10)
    rep.add("cayley-residual", "dim 6 tau 0.1 n 7",
            cayley.evolution_operator_residual(prop, 7), 1e-10)
    rep.add("cayley-half-step", "half step squares to one step",
            float(np.abs(prop.half_factor @ prop.half_factor - prop.factor).max()), 1e-12)
    U5 = cayley.evolution_operator(prop, 5)
    U8 = cayley.evolution_operator(prop, 8)
    U13 = cayley.evolution_operator(prop, 13)
    rep.add("cayley-group-law", "U5 U8 = U13", float(np.abs(U5 @ U8 - U13).max()), 1e-11)

    exact = _matrix_exponential(H, 1.0)
    err_coarse = float(np.abs(
        cayley.evolution_operator(cayley.build_propagator(H, 0.1), 10) - exact).max())
    err_fine = float(np.abs(
        cayley.evolution_operator(cayley.build_propagator(H, 0.05), 20) - exact).max())
    ratio = err_coarse / err_fine
    rep.add("cayley-order", f"halving ratio {ratio:.3f}", abs(ratio - 4.0), 0.5)

    A = _random_hermitian(rng, 6)
    schemes = cayley.heisenberg_scheme_residuals(prop, A, 3)
    rep.add("heisenberg-forward", "dim 6 tau 0.1 n 3", schemes.forward, 1e-10)
    rep.add("heisenberg-backward", "dim 6 tau 0.1 n 3", schemes.backward, 1e-10)
    rep.add("heisenberg-symmetric", "dim 6 tau 0.1 n 3", schemes.symmetric, 1e-10)
    rep.add("heisenberg-central", "dim 6 tau 0.1 n 3", schemes.central, 1e-10)

    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_z = np.diag([1.0, -1.0])
    pairs = [
        (sigma_z, sigma_x, "sigma_z"),
        (sigma_x, sigma_z, "sigma_x"),
        (_random_involution(rng, 4), _random_hermitian(rng, 4), "random dim 4"),
    ]
    for H_inv, A_inv, label in pairs:
        for check in cayley.involution_identities(H_inv, A_inv, 0.2, 2):
            fitted = "nan" if math.isnan(check.fitted_exponent) else f"{check.fitted_exponent:.6f}"
            rep.add(f"involution-{check.name}", f"{label} tau 0.2 exponent {fitted}",
                    check.residual, 1e-10)

    # d-tables
    worst_bridge = worst_sym = worst_orth = 0.0
    for N in (1, 2, 5, 12):
        for beta in (0.3, 0.5 * math.pi, 2.5):
            D = kravchuk.build_wigner_d(N, beta)
            worst_bridge = max(worst_bridge, float(np.abs(D.table - kravchuk.wigner_d_direct(N, beta)).max()))
            parity = np.where((np.add.outer(np.arange(N + 1), np.arange(N + 1))) % 2 == 0, 1.0, -1.0)
            worst_sym = max(worst_sym, float(np.abs(D.table - parity * D.table.T).max()))
            worst_orth = max(worst_orth, float(np.abs(D.table.T @ D.table - np.eye(N + 1)).max()))
    rep.add("wigner-vs-oracle", "N<=12 beta in {0.3;pi/2;2.5}", worst_bridge, 1e-10)
    rep.add("wigner-symmetry", "N<=12 beta in {0.3;pi/2;2.5}", worst_sym, 1e-12)
    rep.add("wigner-orthogonality", "N<=12 beta in {0.3;pi/2;2.5}", worst_orth, 1e-12)
    D = kravchuk.build_wigner_d(30, 0.7)
    rec = kravchuk.recurrence_residuals(D)
    rep.add("wigner-recurrence-three-term", "N 30 beta 0.7", rec.three_term, 1e-10)
    rep.add("wigner-recurrence-shift", "N 30 beta 0.7", rec.shift, 1e-10)
    D = kravchuk.build_wigner_d(10, 1.0)
    rep.add("wigner-differential-plus", "N 10 beta 1.0 h 1e-5",
            kravchuk.differential_relation_residual(D, +1), 1e-6)
    rep.add("wigner-differential-minus", "N 10 beta 1.0 h 1e-5",
            kravchuk.differential_relation_residual(D, -1), 1e-6)

    # finite oscillator
    worst_comm = worst_energy = worst_trace = 0.0
    for N in (2, 7, 50, 200):
        model = oscillator.build_oscillator(N)
        n = np.arange(N + 1, dtype=float)
        worst_comm = max(worst_comm, float(np.abs(
            oscillator.commutator_spectrum(model) - (1.0 - n / model.j)).max()))
        worst_energy = max(worst_energy, float(np.abs(
            oscillator.energy_spectrum(model) - ((2.0 * n + 1.0) - n * n / model.j)).max()))
        A_mat = oscillator.annihilation_matrix(model)
        worst_trace = max(worst_trace, abs(float(np.trace(A_mat @ A_mat.T - A_mat.T @ A_mat))))
    rep.add("oscillator-commutator", "N in {2;7;50;200}", worst_comm, 1e-10)
    rep.add("oscillator-energies", "N in {2;7;50;200}", worst_energy, 1e-10)
    rep.add("oscillator-commutator-trace", "N in {2;7;50;200}", worst_trace, 1e-12)

    worst_grid = worst_vec = 0.0
    for N in (2, 20, 60):
        model = oscillator.build_oscillator(N)
        spec = oscillator.position_spectrum(model)
        worst_grid = max(worst_grid, float(np.abs(
            spec.eigenvalues - spec.m_prime / math.sqrt(model.j)).max()))
        X = oscillator.position_matrix(model)
        D = kravchuk.build_wigner_d(N, 0.5 * math.pi)
        for x in range(N + 1):
            col = D.table[:, x]
            lam = (model.j - x) / math.sqrt(model.j)
            worst_vec = max(worst_vec, float(np.abs(X @ col - lam * col).max()))
    rep.add("position-grid", "N in {2;20;60}", worst_grid, 1e-9)
    rep.add("position-eigenvectors", "d-table columns N in {2;20;60}", worst_vec, 1e-9)

    sizes = (16, 32, 64)
    worst_ratio = 0.0
    orders = []
    for n in (0, 1, 2):
        table = oscillator.continuum_convergence(n, sizes)
        ratios = table.max_errors[1:] / table.max_errors[:-1]
        worst_ratio = max(worst_ratio, float(ratios.max()))
        orders.append(table.fitted_order)
    rep.add("continuum-monotone", "n<=2 N in {16;32;64}", worst_ratio, 0.99)
    rep.add("continuum-order", "orders " + " ".join(f"{o:.2f}" for o in orders),
            max(0.0, 0.9 - min(orders)), 0.0)
    ladder = oscillator.ladder_limit_check(1, sizes)
    worst_ladder = float(max((ladder.lower_errors[1:] / ladder.lower_errors[:-1]).max(),
                             (ladder.raise_errors[1:] / ladder.raise_errors[:-1]).max()))
    rep.add("ladder-monotone", "n 1 N in {16;32;64}", worst_ladder, 0.99)
    model = oscillator.build_oscillator(50)
    limits = oscillator.limit_recurrence_check(model, 3)
    rep.add("limit-recurrence-three-term", "N 50 p 0.5 n 3", limits.three_term, 1e-9)
    rep.add("limit-recurrence-difference", "N 50 p 0.5 n 3", limits.difference, 1e-9)
    limits = oscillator.limit_recurrence_check(oscillator.build_oscillator(200, 0.3), 2)
    rep.add("limit-recurrence-skewed", "N 200 p 0.3 n 2",
            max(limits.three_term, limits.difference), 1e-9)

    # continuum oracle
    s = np.linspace(-6.0, 6.0, 1201)
    worst_schrod = max(hermite.schrodinger_residual(n, s) for n in range(11))
    rep.add("hermite-schrodinger", "n<=10 |s|<=6", worst_schrod, 1e-10)
    worst_alg = worst_der = 0.0
    for n in range(9):
        res = hermite.recurrence_residual(n, s)
        worst_alg = max(worst_alg, res.algebraic)
        worst_der = max(worst_der, res.derivative)
    rep.add("hermite-recurrence-algebraic", "n<=8 |s|<=6", worst_alg, 1e-12)
    rep.add("hermite-recurrence-derivative", "n<=8 central difference h 1e-5", worst_der, 1e-8)
    gram = hermite.gram_matrix(6)
    rep.add("hermite-gram", "n<=6 trapezoidal", float(np.abs(gram - np.eye(7)).max()), 1e-8)
    worst_ladder_c = 0.0
    for n in range(7):
        up = hermite.ladder_apply("raise", n, s) - math.sqrt(n + 1.0) * hermite.eval_psi(n + 1, s)
        worst_ladder_c = max(worst_ladder_c, float(np.abs(up).max()))
        if n >= 1:
            dn = hermite.ladder_apply("lower", n, s) - math.sqrt(float(n)) * hermite.eval_psi(n - 1, s)
            worst_ladder_c = max(worst_ladder_c, float(np.abs(dn).max()))
    rep.add("hermite-ladder", "n<=6 analytic derivative", worst_ladder_c, 1e-12)

    # lattice state round trip
    f = LatticeState(rng.standard_normal(9) + 1j * rng.standard_normal(9), 0.25)
    g = LatticeState.from_json(f.to_json())
    rt = float(np.abs(g.amplitudes - f.amplitudes).max()) + abs(g.epsilon - f.epsilon)
    rep.add("state-json-round-trip", "9 sites", rt, 0.0)
    return rep


def _cmd_verify_all(fmt, seed) -> tuple[str, int]:
    rep = build_verification_report(seed)
    return export_report(rep, fmt), 0 if rep.all_passed else 1


def run(config: RunConfig) -> int:
    """Execute one parsed invocation, write its artifact, return the exit code."""
    code = 0
    try:
        if config.command == "basis":
            text = _cmd_basis(config.params, config.fmt)
        elif config.command == "evolve":
            text = _cmd_evolve(config.params, config.fmt)
        elif config.command == "heisenberg-check":
            text = _cmd_heisenberg_check(config.params, config.fmt, config.seed)
        elif config.command == "wigner":
            text = _cmd_wigner(config.params, config.fmt)
        elif config.command == "spectrum":
            text = _cmd_spectrum(config.params, config.fmt)
        elif config.command == "converge":
            text = _cmd_converge(config.params, config.fmt)
        elif config.command == "hermite":
            text = _cmd_hermite(config.params, config.fmt)
        elif config.command == "verify-all":
            text, code = _cmd_verify_all(config.fmt, config.seed)
        else:  # pragma: no cover - argparse rejects unknown subcommands first
            print(f"error: unknown subcommand {config.command!r}", file=sys.stderr)
            return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if config.output is None:
        sys.stdout.write(text)
    else:
        Path(config.output).write_text(text)
    return code


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
