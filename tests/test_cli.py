import ast
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticeqm
from latticeqm import CheckRow, LatticeState, build_propagator, checks, cli, evolve_trajectory, hermite, kravchuk, report
from latticeqm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, argv):
    """The last stderr line of argv, which exits 2 after its subcommand's usage, not the top-level one."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: latticeqm {argv[0]} ")
    return err.splitlines()[-1]


def evolve_argv(tmp_path, hamiltonian, state):
    """evolve's argv up to --tau, its two input files holding the given JSON texts."""
    h_path, s_path = tmp_path / "H.json", tmp_path / "state.json"
    h_path.write_text(hamiltonian)
    s_path.write_text(state)
    return ["evolve", "--hamiltonian", str(h_path), "--state", str(s_path)]


def test_basis_csv_frozen_rows(capsys):
    code, out, err = run_cli(capsys, "basis", "--N", "4", "--epsilon", "0.5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "m,k_m"
    assert lines[1] == "0,0"
    assert lines[3] == "2,inf"
    assert float(lines[2].split(",")[1]) == pytest.approx(4.0, rel=1e-15)
    assert float(lines[4].split(",")[1]) == pytest.approx(-4.0, rel=1e-15)


def test_basis_json_marks_singular_momentum(capsys):
    code, out, _ = run_cli(capsys, "basis", "--N", "4", "--epsilon", "1.0", "--format", "json")
    payload = json.loads(out)
    assert payload["momenta"][2] == "inf"
    assert payload["momenta"][0] == 0.0
    assert payload["singular_column"] == 2


def test_basis_table_block(capsys):
    code, out, _ = run_cli(capsys, "basis", "--N", "2", "--epsilon", "1.0", "--table")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    table_lines = blocks[1].splitlines()
    assert table_lines[0] == "j,m,re,im"
    root = 1.0 / math.sqrt(2.0)
    first = table_lines[1].split(",")
    assert float(first[2]) == pytest.approx(root, rel=1e-15)


def test_spectrum_energy_frozen(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--N", "2", "--what", "energy")
    assert out.splitlines() == ["n,value", "0,1", "1,2", "2,1"]


def test_spectrum_position_grid(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--N", "2", "--what", "position")
    lines = out.splitlines()
    assert lines[0] == "m_prime,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_spectrum_commutator_trace_free(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--N", "6", "--what", "commutator")
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert abs(sum(values)) < 1e-12
    assert values[0] == pytest.approx(1.0)


def test_converge_errors_decrease(capsys):
    code, out, _ = run_cli(capsys, "converge", "--n", "1", "--N-list", "16,32,64")
    lines = out.splitlines()
    assert lines[0] == "N,max_error"
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_hermite_ground_state_at_origin(capsys):
    code, out, _ = run_cli(
        capsys, "hermite", "--n", "0", "--s-min", "-1", "--s-max", "1", "--samples", "3"
    )
    lines = out.splitlines()
    assert lines[0] == "s,psi"
    middle = float(lines[2].split(",")[1])
    assert middle == pytest.approx(math.pi ** -0.25, rel=1e-14)


def test_wigner_check_rows(capsys):
    code, out, _ = run_cli(capsys, "wigner", "--N", "3", "--beta", "1.0", "--check", "all")
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert float(rows["symmetry"]) < 1e-12
    assert float(rows["orthogonality"]) < 1e-12
    assert float(rows["oracle"]) < 1e-10
    assert float(rows["recurrence_three_term"]) < 1e-10
    assert float(rows["differential_plus"]) < 1e-6


def test_wigner_near_pi_orthogonality_is_finite(capsys):
    code, out, _ = run_cli(
        capsys, "wigner", "--N", "8", "--beta", "3.1415926435897933", "--check", "orthogonality"
    )
    assert code == 0
    name, value = out.splitlines()[1].split(",")
    assert name == "orthogonality"
    assert float(value) < 1e-12


def test_wigner_single_check(capsys):
    code, out, _ = run_cli(capsys, "wigner", "--N", "10", "--beta", "0.7", "--check", "symmetry")
    lines = out.splitlines()
    assert lines[0] == "check,value"
    assert len(lines) == 2 and lines[1].startswith("symmetry,")


def test_each_d_table_is_built_once_per_sweep_point(capsys, monkeypatch):
    built = []
    build = kravchuk.build_wigner_d
    monkeypatch.setattr(kravchuk, "build_wigner_d", lambda N, beta: built.append((N, beta)) or build(N, beta))
    run_cli(capsys, "wigner", "--N", "6", "--beta", "0.4", "--check", "all")
    assert built == [(6, 0.4)]
    built.clear()
    run_cli(capsys, "verify-all")
    # 12 for the oracle, symmetry and orthogonality sweep, one each for the
    # recurrence and differential rows, 3 for the position eigenvectors
    assert len(built) == 17


def test_each_hermite_table_is_built_once_per_relation(capsys, monkeypatch):
    built = []
    table = hermite.psi_table
    monkeypatch.setattr(hermite, "psi_table", lambda n_max, s: built.append(n_max) or table(n_max, s))
    checks.hermite_oracle(np.linspace(-6.0, 6.0, 1201), 10, 8, 6, 6)
    # the ladder rows and their targets, then one each for the Schrodinger,
    # recurrence (s, s + h and s - h side by side) and Gram relations
    assert built == [6, 7, 10, 9, 6]
    built.clear()
    run_cli(capsys, "verify-all")
    # plus one per size of the continuum table, rows 0..3 for every level
    assert len(built) == 8


def test_heisenberg_check_rows(capsys):
    code, out, _ = run_cli(capsys, "heisenberg-check", "--dim", "3", "--tau", "0.2", "--seed", "5")
    lines = out.splitlines()
    assert lines[0] == "check,residual,fitted_exponent"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    for name in ("scheme-forward", "scheme-backward", "scheme-symmetric", "scheme-central"):
        assert float(rows[name][0]) < 1e-10
        assert rows[name][1] == ""
    # scalar form is not an identity for a generic Hamiltonian
    assert float(rows["scheme-central-involution-form"][0]) > 1e-3
    for name, exponent in (
        ("involution-forward", 1.0),
        ("involution-backward", 1.0),
        ("involution-forward-backward", 2.0),
        ("involution-half-step", 1.0),
        ("involution-central", 2.0),
    ):
        assert float(rows[name][0]) < 1e-10
        assert float(rows[name][1]) == pytest.approx(exponent, abs=1e-6)


def test_heisenberg_check_json_is_parseable(capsys):
    code, out, _ = run_cli(
        capsys, "heisenberg-check", "--dim", "4", "--seed", "2", "--format", "json"
    )
    payload = json.loads(out)
    names = [row["check"] for row in payload["checks"]]
    assert "involution-central" in names


def test_evolve_matches_library(tmp_path, capsys):
    H = np.array([[1.0, 0.5], [0.5, -1.0]])
    state = LatticeState(np.array([1.0, 0.0], dtype=complex), epsilon=1.0)
    argv = evolve_argv(tmp_path, json.dumps({"re": H.tolist(), "im": np.zeros_like(H).tolist()}), state.to_json())

    code, out, _ = run_cli(capsys, *argv, "--tau", "0.3", "--steps", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,norm,re_0,im_0,re_1,im_1"
    traj = evolve_trajectory(build_propagator(H, 0.3), state.amplitudes, 4)
    for n, line in enumerate(lines[1:]):
        fields = [float(v) for v in line.split(",")[1:]]
        assert fields[0] == pytest.approx(1.0, abs=1e-12)
        re0, im0, re1, im1 = fields[1:]
        assert re0 + 1j * im0 == pytest.approx(traj[n][0], abs=1e-14)
        assert re1 + 1j * im1 == pytest.approx(traj[n][1], abs=1e-14)


def test_evolve_csv_is_the_per_value_rendering_byte_for_byte(tmp_path, capsys):
    rng = np.random.default_rng(3)
    H = checks.random_hermitian(rng, 5)
    amplitudes = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    state = LatticeState(amplitudes / np.linalg.norm(amplitudes), epsilon=0.7)
    argv = evolve_argv(tmp_path, json.dumps({"re": H.real.tolist(), "im": H.imag.tolist()}), state.to_json())
    out_path = tmp_path / "traj.csv"

    code, out, err = run_cli(capsys, *argv, "--tau", "0.37", "--steps", "40", "--output", str(out_path))
    assert (code, out, err) == (0, "", "")
    traj = evolve_trajectory(build_propagator(H, 0.37), state.amplitudes, 40)
    norms = np.linalg.norm(traj, axis=1)
    expected = ["n,norm," + ",".join(f"re_{i},im_{i}" for i in range(5))]
    for n, (norm, amps) in enumerate(zip(norms, traj)):
        values = [n, norm] + [part for a in amps for part in (a.real, a.imag)]
        expected.append(",".join(report.format_float(v) for v in values))
    written = out_path.read_bytes()
    assert written.split(b"\n") == [line.encode() for line in expected] + [b""]
    assert written == ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"),
     "error: Unable to allocate 7.28 TiB for an array with shape (1000000000001,)\n"),
    (MemoryError(), "error: MemoryError\n"),  # a bare MemoryError still names itself
], ids=["numpy-message", "bare"])
def test_work_out_of_memory_is_one_error_line(monkeypatch, capsys, exc, line):
    def out_of_memory(params, fmt):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "spectrum", out_of_memory)
    assert run_cli(capsys, "spectrum", "--N", "4", "--what", "energy") == (1, "", line)


def test_evolve_json_final_state_reloads(tmp_path, capsys):
    H = np.diag([1.0, -1.0])
    state = LatticeState(np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2), epsilon=0.5)
    argv = evolve_argv(tmp_path, json.dumps({"re": H.tolist(), "im": np.zeros_like(H).tolist()}), state.to_json())

    code, out, _ = run_cli(capsys, *argv, "--tau", "2.0", "--steps", "1", "--format", "json")
    payload = json.loads(out)
    final = payload["trajectory"][-1]
    reloaded = LatticeState.from_json(
        json.dumps({"epsilon": payload["epsilon"], "re": final["re"], "im": final["im"]})
    )
    assert reloaded.epsilon == state.epsilon
    expected = build_propagator(H, 2.0).factor @ state.amplitudes
    assert np.abs(reloaded.amplitudes - expected).max() < 1e-14


def test_evolve_dimension_mismatch_fails(tmp_path, capsys):
    argv = evolve_argv(tmp_path, json.dumps({"re": [[0.0]], "im": [[0.0]]}),
                       LatticeState(np.array([1.0, 0.0], dtype=complex), epsilon=1.0).to_json())
    code, out, err = run_cli(capsys, *argv, "--tau", "0.1", "--steps", "1")
    assert code == 1
    assert err.startswith("error:")


def test_evolve_rejects_mis_shaped_im_block(tmp_path, capsys):
    argv = evolve_argv(tmp_path, json.dumps({"re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0]]}),
                       LatticeState(np.array([1.0, 0.0], dtype=complex), epsilon=1.0).to_json())
    code, out, err = run_cli(capsys, *argv, "--tau", "0.1", "--steps", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "shape" in err


_STATE = '{"epsilon": 1.0, "re": [1.0, 0.0], "im": [0.0, 0.0]}'
_HAMILTONIAN = '{"re": [[1.0, 0.0], [0.0, -1.0]]}'


# a top-level array and a null epsilon raised TypeError tracebacks, a
# missing epsilon printed only "error: 'epsilon'"; a null or boolean block
# was reported as a shape mismatch, and a boolean epsilon was read as 1.0
@pytest.mark.parametrize("hamiltonian, state, named", [
    ("[[1, 0], [0, 1]]", _STATE, "JSON object"),
    (_HAMILTONIAN, "[1.0, 0.0]", "JSON object"),
    (_HAMILTONIAN, '{"re": [1.0, 0.0]}', '"epsilon"'),
    (_HAMILTONIAN, '{"epsilon": null, "re": [1.0, 0.0]}', '"epsilon"'),
    (_HAMILTONIAN, '{"epsilon": "wide", "re": [1.0, 0.0]}', '"epsilon"'),
    (_HAMILTONIAN, '{"epsilon": 1.0, "im": [0.0, 0.0]}', '"re"'),
    ('{"im": [[0.0]]}', _STATE, '"re"'),
    ('{"re": [[1.0, 0.0], [0.0, -1.0]], "im": null}', _STATE, '"im"'),
    ('{"re": [[1.0, 0.0], [0.0, -1.0]], "im": true}', _STATE, '"im"'),
    ('{"re": null}', _STATE, '"re"'),
    (_HAMILTONIAN, '{"epsilon": 1.0, "re": [1.0, 0.0], "im": null}', '"im"'),
    (_HAMILTONIAN, '{"epsilon": true, "re": [1.0, 0.0]}', '"epsilon"'),
    # text that float() parses, and true, were read as numbers
    (_HAMILTONIAN, '{"epsilon": "0.5", "re": [1.0, 0.0]}', '"epsilon"'),
    (_HAMILTONIAN, '{"epsilon": 1.0, "re": ["1.0", "0"]}', '"re"'),
    (_HAMILTONIAN, '{"epsilon": 1.0, "re": [true, 0]}', '"re"'),
    # an integer past the float range raised an OverflowError traceback
    (_HAMILTONIAN, '{"epsilon": 1.0, "re": [1%s, 0]}' % ("0" * 400), '"re"'),
], ids=["hamiltonian-array", "state-array", "epsilon-missing", "epsilon-null", "epsilon-text",
        "state-re-missing", "hamiltonian-re-missing", "hamiltonian-im-null", "hamiltonian-im-true",
        "hamiltonian-re-null", "state-im-null", "epsilon-true", "epsilon-number-text",
        "state-re-text", "state-re-true", "state-re-overflow"])
def test_evolve_malformed_json_exits_with_one_line(tmp_path, capsys, hamiltonian, state, named):
    code, out, err = run_cli(capsys, *evolve_argv(tmp_path, hamiltonian, state), "--tau", "0.1", "--steps", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err and err.count("\n") == 1


@pytest.mark.parametrize("tau", ["0", "nan"])
def test_heisenberg_check_rejects_degenerate_step(capsys, tau):
    last = usage_error(capsys, ["heisenberg-check", "--tau", tau])
    assert last == f"latticeqm heisenberg-check: error: argument --tau: must be finite and nonzero, got {float(tau)}"


def test_verify_all_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify-all", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify-all", "--seed", "7")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    statuses = [line.rsplit(",", 1)[1] for line in out1.splitlines()[1:]]
    assert statuses and all(s == "pass" for s in statuses)


# every row of verify-all, in order, with its tolerance: a refactor that
# drops, renames or reorders a row, or moves a tolerance, fails here
VERIFY_ALL_ROWS = [
    ("basis-orthonormality", 1e-12), ("basis-dft-identity", 1e-12),
    ("fourier-round-trip", 1e-12), ("fourier-parseval", 1e-12),
    ("momentum-eigenrelation", 1e-10),
    ("cayley-unitarity", 1e-10), ("cayley-residual", 1e-10), ("cayley-half-step", 1e-12),
    ("cayley-group-law", 1e-11), ("cayley-order", 0.5),
    ("heisenberg-forward", 1e-10), ("heisenberg-backward", 1e-10),
    ("heisenberg-symmetric", 1e-10), ("heisenberg-central", 1e-10),
    *[(f"involution-{name}", 1e-10)
      for name in ("forward", "backward", "forward-backward", "half-step", "central")] * 3,
    ("wigner-vs-oracle", 1e-10), ("wigner-symmetry", 1e-12), ("wigner-orthogonality", 1e-12),
    ("wigner-recurrence-three-term", 1e-10), ("wigner-recurrence-shift", 1e-10),
    ("wigner-differential-plus", 1e-6), ("wigner-differential-minus", 1e-6),
    ("oscillator-commutator", 1e-10), ("oscillator-energies", 1e-10),
    ("oscillator-commutator-trace", 1e-12),
    ("position-grid", 1e-9), ("position-eigenvectors", 1e-9),
    ("continuum-monotone", 0.99), ("continuum-order", 0.0), ("ladder-monotone", 0.99),
    ("limit-recurrence-three-term", 1e-9), ("limit-recurrence-difference", 1e-9),
    ("limit-recurrence-skewed", 1e-9),
    ("hermite-schrodinger", 1e-10), ("hermite-recurrence-algebraic", 1e-12),
    ("hermite-recurrence-derivative", 1e-8), ("hermite-gram", 1e-8), ("hermite-ladder", 1e-12),
    ("state-json-round-trip", 0.0),
]


def test_verify_all_row_set_is_pinned():
    rows = cli.build_verification_report(7)
    assert [(r.check, r.tolerance) for r in rows] == VERIFY_ALL_ROWS


def test_verify_all_fails_when_a_row_fails(capsys, monkeypatch):
    monkeypatch.setattr(checks, "momentum",
                        lambda sizes: [CheckRow("momentum-eigenvalues", "forced", 1e-6, 1e-12)])
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 1
    assert "momentum-eigenvalues,forced,9.9999999999999995e-07,9.9999999999999998e-13,fail" in out.splitlines()
    code, out, _ = run_cli(capsys, "verify-all", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["all_passed"] is False
    assert [r["status"] for r in payload["checks"]].count("fail") == 1


def test_verify_all_fails_on_a_nan_residual(capsys, monkeypatch):
    monkeypatch.setattr(kravchuk, "differential_residuals", lambda D: (math.nan, 0.0))
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 1
    (row,) = [line for line in out.splitlines() if line.startswith("wigner-differential-plus,")]
    assert row.endswith(",nan,9.9999999999999995e-07,fail")


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "basis.csv"
    code, out, _ = run_cli(
        capsys, "basis", "--N", "3", "--epsilon", "1.0", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "m,k_m"


def test_unwritable_output_is_an_error(tmp_path, capsys):
    target = tmp_path / "absent" / "basis.csv"
    code, out, err = run_cli(
        capsys, "basis", "--N", "3", "--epsilon", "1", "--output", str(target)
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_failed_computation_writes_no_output(tmp_path, capsys):
    target = tmp_path / "checks.csv"
    code, _, err = run_cli(capsys, "converge", "--n", "1", "--N-list", "16,16", "--output", str(target))
    assert code == 1 and err.startswith("error:")
    assert not target.exists()


def test_converge_rejects_repeated_size(capsys):
    code, out, err = run_cli(capsys, "converge", "--n", "1", "--N-list", "16,16")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "two distinct sizes" in err and err.count("\n") == 1


def test_converge_size_floor_is_n(capsys):
    # the smallest admissible size is n + 1: its top ladder row is level N
    code, out, err = run_cli(capsys, "converge", "--n", "3", "--N-list", "4,8,16")
    assert code == 0 and err == ""
    table = latticeqm.continuum_convergence(3, [4, 8, 16])
    assert out.splitlines() == ["N,max_error"] + [f"{N},{report.format_float(e)}"
                                                  for N, e in zip((4, 8, 16), table.max_errors[:, 3])]
    code, out, err = run_cli(capsys, "converge", "--n", "3", "--N-list", "3,8,16")
    assert code == 1 and out == ""
    assert err == "error: all sizes must exceed n_max = 3, got N=3\n"


@pytest.mark.parametrize("argv", [
    ["heisenberg-check", "--n", str(10**309)],
    ["heisenberg-check", "--n", str(-10**309)],
    ["converge", "--n", "1", "--N-list", f"16,{10**309}"],
], ids=["heisenberg-check-positive", "heisenberg-check-negative", "converge"])
def test_oversized_integer_is_one_error_line(capsys, argv):
    # each exited 1 with an OverflowError traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_invalid_parameters_exit_two(capsys, tmp_path):
    evolve = ["evolve", "--hamiltonian", str(tmp_path / "H.json"), "--state", str(tmp_path / "s.json"),
              "--tau", "0.1"]
    hermite = ["hermite", "--samples", "3", "--n"]
    for argv, error in (
        (["basis", "--N", "0", "--epsilon", "1.0"], "--N: must be a positive integer, got 0"),
        (["basis", "--N", "4", "--epsilon", "-1.0"], "--epsilon: must be positive and finite, got -1.0"),
        (["basis", "--N", "4", "--epsilon", "nan"], "--epsilon: must be positive and finite, got nan"),
        # an infinite spacing passed the flag and exited 1 from the library
        (["basis", "--N", "4", "--epsilon", "inf"], "--epsilon: must be positive and finite, got inf"),
        (evolve + ["--steps", "-1"], "--steps: must be non-negative, got -1"),
        (["heisenberg-check", "--dim", "1"], "--dim: must be at least 2, got 1"),
        (["wigner", "--N", "3", "--beta", "0.0"], "--beta: must lie strictly between 0 and pi, got 0.0"),
        (["wigner", "--N", "3", "--beta", "3.2"], "--beta: must lie strictly between 0 and pi, got 3.2"),
        (["wigner", "--N", "3", "--beta", "nan"], "--beta: must lie strictly between 0 and pi, got nan"),
        (["spectrum", "--N", "5", "--what", "energy", "--p", "1.5"], "--p: must lie strictly between 0 and 1, got 1.5"),
        (["spectrum", "--N", "5", "--what", "energy", "--p", "0"], "--p: must lie strictly between 0 and 1, got 0.0"),
        (["converge", "--n", "-1", "--N-list", "16,32"], "--n: must be non-negative, got -1"),
        (["converge", "--n", "1", "--N-list", "16,a"],
         "--N-list: must be comma separated integers, got '16,a'"),
        # a size below 1 exited 1 from the library
        (["converge", "--n", "1", "--N-list", "16,-32"], "--N-list: must be positive integers, got '16,-32'"),
        # --p was range-checked only in the library, which exited 1
        (["converge", "--n", "1", "--N-list", "16,32", "--p", "1.5"],
         "--p: must lie strictly between 0 and 1, got 1.5"),
        (hermite + ["1", "--s-min", "0", "--s-max", "1", "--samples", "1"], "--samples: must be at least 2, got 1"),
        (hermite + ["-1", "--s-min", "0", "--s-max", "1"], "--n: must be non-negative, got -1"),
        (hermite + ["1", "--s-min", "1", "--s-max", "0"], "--s-max: must exceed --s-min"),
        # an infinite end printed NaN and Infinity rows and exited 0
        (hermite + ["1", "--s-min", "0", "--s-max", "inf"], "--s-max: must be finite, got inf"),
        (hermite + ["1", "--s-min=-inf", "--s-max", "0"], "--s-min: must be finite, got -inf"),
        # a negative seed exited 1 with numpy's message, which names no flag
        (["verify-all", "--seed", "-1"], "--seed: must be non-negative, got -1"),
        (["heisenberg-check", "--seed", "-3"], "--seed: must be non-negative, got -3"),
    ):
        assert usage_error(capsys, argv) == f"latticeqm {argv[0]}: error: argument {error}"


# one valid command line per subcommand, to which the walk below adds one bad flag value
VALID_ARGV = {
    "basis": ["--N", "4", "--epsilon", "1"],
    "evolve": ["--hamiltonian", "H.json", "--state", "s.json", "--tau", "0.1", "--steps", "1"],
    "heisenberg-check": [],
    "wigner": ["--N", "3", "--beta", "1"],
    "spectrum": ["--N", "2", "--what", "energy"],
    "converge": ["--n", "1", "--N-list", "16,32"],
    "hermite": ["--n", "1", "--s-min", "0", "--s-max", "1", "--samples", "3"],
    "verify-all": [],
}
TYPED_FLAGS = [(command, action.option_strings[0])
               for command, sub in cli._build_parser()[1].items()
               for action in sub._actions if action.type is not None]


# --tau took nan and inf and exited 1 from the library; a float flag added
# without a range type fails here too
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", TYPED_FLAGS, ids=[command + flag for command, flag in TYPED_FLAGS])
def test_every_numeric_flag_rejects_non_finite_values(capsys, command, flag, value):
    cli._build_parser()[0].parse_args([command, *VALID_ARGV[command]])  # so the error is the flag's
    last = usage_error(capsys, [command, *VALID_ARGV[command], flag, value])
    assert last.startswith(f"latticeqm {command}: error: argument {flag}")


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code != 0
    capsys.readouterr()


def test_missing_file_reports_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "evolve",
        "--hamiltonian", str(tmp_path / "absent.json"),
        "--state", str(tmp_path / "also-absent.json"),
        "--tau", "0.1",
        "--steps", "1",
    )
    assert code == 1
    assert err.startswith("error:")


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "latticeqm", "spectrum", "--N", "2", "--what", "energy"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,value"


def run_fresh(argv):
    """Stdout bytes and exit code of argv run alone in a new interpreter."""
    src = str(Path(latticeqm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "latticeqm", *argv], capture_output=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout


def test_parser_is_built_once_and_reused_without_leaks(capsys):
    assert cli._build_parser() is cli._build_parser()

    def valid(argv, fresh=True):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        if fresh:
            assert (code, out.encode()) == run_fresh(argv)
        return out

    def exits(argv, expected):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == expected
        return capsys.readouterr()

    basis = ["basis", "--N", "4", "--epsilon", "1"]
    assert "j,m,re,im" in valid(basis + ["--table"])
    # --table of the previous call must not carry over
    assert "j,m,re,im" not in valid(basis)
    assert "--s-max" in exits(["hermite", "--n", "1", "--s-min", "1", "--s-max", "0",
                               "--samples", "3"], 2).err
    spectrum = ["spectrum", "--N", "3", "--what", "energy", "--format", "json"]
    first = valid(spectrum)
    assert "usage: latticeqm" in exits(["--help"], 0).out
    # the first run was already compared with a fresh interpreter
    assert valid(spectrum, fresh=False) == first
    assert "--table" in exits(["basis", "--help"], 0).out
    valid(["wigner", "--N", "6", "--beta", "0.4", "--check", "symmetry"])


def test_public_names_match_all():
    # the import block and __all__ of the package list the same names once each
    assert len(set(latticeqm.__all__)) == len(latticeqm.__all__)
    assert all(hasattr(latticeqm, name) for name in latticeqm.__all__)
    public = {name for name, value in vars(latticeqm).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(latticeqm.__all__)


def test_every_public_name_has_a_caller():
    # a public name is read by the package, a demo or perfbench somewhere
    # outside its own def or class; the tests do not count as callers
    root = Path(__file__).resolve().parents[1]
    package = Path(latticeqm.__file__).resolve().parent
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))

    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sources:
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    assert sorted(set(latticeqm.__all__) - used) == []
