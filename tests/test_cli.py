import ast
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import latticeqm
from latticeqm import (CheckRow, LatticeState, build_propagator, checks, cli, evolve_trajectory, hermite, kravchuk,
                       oscillator, planewave, report)
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


@pytest.mark.parametrize("p", ["1e-300", "5e-324"])
def test_converge_at_the_smallest_p_warns_nothing(capsys, p):
    # p = 1e-300 warned "invalid value encountered in divide" and exited 0 with
    # NaN-derived errors, then was refused, while the level rows came from the
    # degree recurrence's weights; the d-table rows hold at every p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "converge", "--n", "1", "--N-list", "16,32", "--p", p)
    assert code == 0 and err == ""
    errors = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert len(errors) == 2 and all(math.isfinite(e) for e in errors)


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


def test_wigner_json_layout_is_the_one_perfbench_reads(capsys, monkeypatch):
    # perfbench/workloads.py (Wigner.validate) reads this layout, keyed by
    # the underscored names, and needs exit 0 even where a row exceeds
    # verify-all's tolerance: here the oracle row is above 1e-10.
    # A change to the wigner output fails here before it fails the benchmark.
    # The exact oracle, seconds at N = 256, is stood in for by the table
    # itself moved by 1e-9; the oracle tests hold its value, this test the layout.
    monkeypatch.setattr(kravchuk, "wigner_d_direct", lambda N, beta: kravchuk.build_wigner_d(N, beta).table + 1e-9)
    beta = math.pi - 0.01
    code, out, _ = run_cli(capsys, "wigner", "--N", "256", "--beta", repr(beta), "--check", "all", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert list(payload) == ["N", "beta", "checks"] and payload["N"] == 256 and payload["beta"] == beta
    assert list(payload["checks"]) == ["symmetry", "orthogonality", "recurrence_three_term", "recurrence_shift",
                                       "oracle", "differential_plus", "differential_minus"]
    assert payload["checks"]["oracle"] > 1e-10


def test_wigner_check_all_is_finite_at_the_smallest_angle(capsys):
    # no relation check divides by sin(beta), so the smallest subnormal angle
    # raises no RuntimeWarning and gives no nan
    code, out, _ = run_cli(capsys, "wigner", "--N", "2", "--beta", "5e-324", "--check", "all")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 7 and all(math.isfinite(float(value)) for _, value in rows)


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
    # 12 for the oracle, symmetry and orthogonality sweep, one for the
    # differential rows, 3 for the recurrence rows, 3 for the position
    # eigenvectors, then 3 for the level rows of the continuum sizes
    assert len(built) == 22


def test_a_second_report_decomposes_no_order_again():
    # with room for fewer orders than verify-all reads, the LRU evicted each
    # order before its next read and every report decomposed again
    cli.build_verification_report(7)
    before = kravchuk._chiral.cache_info().misses
    cli.build_verification_report(7)
    assert kravchuk._chiral.cache_info().misses == before


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
    assert code == 0
    assert lines[0] == "check,params,residual,tolerance,status"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    schemes = ["heisenberg-forward", "heisenberg-backward", "heisenberg-symmetric", "heisenberg-central"]
    exponents = {
        "involution-forward": 1.0,
        "involution-backward": 1.0,
        "involution-forward-backward": 2.0,
        "involution-half-step": 1.0,
        "involution-central": 2.0,
    }
    # verify-all's names and tolerances; the scalar central form, which no
    # generic H satisfies, is not a row
    assert list(rows) == schemes + list(exponents)
    for name, (params, residual, tolerance, status) in rows.items():
        assert float(residual) < 1e-10 and float(tolerance) == 1e-10 and status == "pass"
        if name in exponents:
            assert float(params.rsplit(" exponent ", 1)[1]) == pytest.approx(exponents[name], abs=1e-6)
        else:
            assert params == "dim 3 tau 0.2 n 3"


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
    assert last == ("latticeqm heisenberg-check: error: argument --tau: "
                    f"tau must be finite and nonzero, got {float(tau)}")


def test_heisenberg_check_step_below_the_resolution_of_u_fails_its_rows(capsys):
    # --tau 1e-8 exited 1 with a ZeroDivisionError traceback from the exponent fit,
    # then exited 1 as the difference factors lost every digit to cancellation
    # and rows failed; the half-angle factors keep them, and no row fails now
    code, out, err = run_cli(capsys, "heisenberg-check", "--tau", "1e-8")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 9 and all(row[4] == "pass" for row in rows)
    assert all(row[1].endswith(" exponent n/a (no signal)") for row in rows if row[0].startswith("involution-"))


@pytest.mark.parametrize("tau", ["1e-3", "1e-6", "1e-9"])
def test_heisenberg_check_at_small_steps_passes_every_row(capsys, tau):
    # e^(i phi) - 1 and e^(i phi) - 2 + e^(-i phi) were formed from the phase
    # ratio: involution-forward-backward read 9.7e-10 at 1e-3 and 9.8 at 1e-9,
    # heisenberg-forward and -backward 3.3e-10 at 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "heisenberg-check", "--tau", tau)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and err == "" and len(rows) == 9
    assert all(row[4] == "pass" and float(row[2]) < 1e-13 for row in rows), rows


@pytest.mark.parametrize("tau", ["3e77", "-1e300", "1e-300", "-1e-155"])
def test_heisenberg_check_step_out_of_float_range_is_one_error_line(capsys, tau):
    # an OverflowError or ZeroDivisionError traceback, or "SVD did not converge"
    code, out, err = run_cli(capsys, "heisenberg-check", f"--tau={tau}")
    assert code == 1 and out == ""
    assert err.startswith(f"error: tau = {float(tau)} is out of range") and err.count("\n") == 1


def test_heisenberg_check_at_the_largest_step_warns_nothing(capsys):
    # at 2e77 the exponent fit's norm of the central base overflowed in numpy's
    # dot and warned; the exit code and the exponents are left unpinned here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, out, err = run_cli(capsys, "heisenberg-check", "--tau", "2e77", "--format", "json")
    assert err == ""
    residuals = [row["residual"] for row in json.loads(out)["checks"]]
    assert len(residuals) == 9
    assert all(isinstance(r, float) and math.isfinite(r) for r in residuals)


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
    ("cayley-unitarity", 1e-10), ("cayley-residual", 1e-10), ("cayley-group-law", 1e-11),
    ("cayley-order", 0.5),
    ("heisenberg-forward", 1e-10), ("heisenberg-backward", 1e-10),
    ("heisenberg-symmetric", 1e-10), ("heisenberg-central", 1e-10),
    *[(f"involution-{name}", 1e-10)
      for name in ("forward", "backward", "forward-backward", "half-step", "central")] * 3,
    ("wigner-vs-oracle", 1e-10), ("wigner-symmetry", 1e-12), ("wigner-orthogonality", 1e-12),
    *[("wigner-recurrence-three-term", 1e-10), ("wigner-recurrence-shift", 1e-10)] * 3,
    ("wigner-differential-plus", 1e-10), ("wigner-differential-minus", 1e-10),
    ("oscillator-commutator", 1e-10), ("oscillator-energies", 1e-10),
    ("position-grid", 1e-9), ("position-eigenvectors", 1e-9),
    ("continuum-monotone", 0.99), ("continuum-order", 0.0), ("ladder-monotone", 0.99),
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
    assert row.endswith(",nan,1e-10,fail")
    # the JSON report wrote a bare NaN token, which strict parsers reject
    code, out, _ = run_cli(capsys, "verify-all", "--format", "json")

    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    (row,) = [r for r in json.loads(out, parse_constant=strict)["checks"] if r["check"] == "wigner-differential-plus"]
    assert code == 1 and row["residual"] == "nan" and row["status"] == "fail"


def test_non_finite_json_payload_is_an_error_before_output_opens(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "hermite", lambda params, fmt: ({"psi": [math.inf]}, 0))
    target = tmp_path / "psi.json"
    code, out, err = run_cli(capsys, "hermite", "--n", "0", "--s-min", "0", "--s-max", "1", "--samples", "2",
                             "--format", "json", "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: Out of range float values are not JSON compliant") and err.count("\n") == 1
    assert not target.exists()


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
    # the library checks the state's length against H, after parsing
    target = tmp_path / "trajectory.csv"
    argv = evolve_argv(tmp_path, '{"re": [[1, 0], [0, -1]]}', '{"epsilon": 1, "re": [1, 0, 0]}')
    code, _, err = run_cli(capsys, *argv, "--tau", "0.1", "--steps", "1", "--output", str(target))
    assert code == 1 and err == "error: state shape (3,) does not match (2,)\n"
    assert not target.exists()


def test_non_hermitian_hamiltonian_writes_no_output(tmp_path, capsys):
    # build_propagator refuses H; the command has no check of its own
    target = tmp_path / "trajectory.csv"
    argv = evolve_argv(tmp_path, '{"re": [[1, 2], [0, -1]]}', '{"epsilon": 1, "re": [1, 0]}')
    code, out, err = run_cli(capsys, *argv, "--tau", "0.1", "--steps", "1", "--output", str(target))
    assert code == 1 and out == ""
    assert err == "error: matrix is not Hermitian: max |H - H^dagger| = 2.000e+00\n"
    assert not target.exists()


def test_converge_rejects_repeated_size(capsys):
    # the flag refuses it; the library refused it after parsing, with exit code 1
    assert usage_error(capsys, ["converge", "--n", "1", "--N-list", "16,16"]) == (
        "latticeqm converge: error: argument --N-list: need at least two distinct sizes, got [16, 16]")


def test_converge_size_floor_is_n(capsys):
    # the smallest admissible size is n + 1: its top ladder row is level N
    code, out, err = run_cli(capsys, "converge", "--n", "3", "--N-list", "4,8,16")
    assert code == 0 and err == ""
    table = latticeqm.continuum_convergence(3, [4, 8, 16])
    assert out.splitlines() == ["N,max_error"] + [f"{N},{report.format_float(e)}"
                                                  for N, e in zip((4, 8, 16), table.max_errors[:, 3])]
    assert usage_error(capsys, ["converge", "--n", "3", "--N-list", "3,8,16"]) == (
        "latticeqm converge: error: argument --N-list: all sizes must exceed n_max = 3, got N=3")


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
        (["basis", "--N", "0", "--epsilon", "1.0"], "--N: N must be a positive integer, got 0"),
        (["basis", "--N", "4", "--epsilon", "-1.0"], "--epsilon: epsilon must be positive and finite, got -1.0"),
        (["basis", "--N", "4", "--epsilon", "nan"], "--epsilon: epsilon must be positive and finite, got nan"),
        # an infinite spacing passed the flag and exited 1 from the library
        (["basis", "--N", "4", "--epsilon", "inf"], "--epsilon: epsilon must be positive and finite, got inf"),
        (evolve + ["--steps", "-1"], "--steps: steps must be at least 0, got -1"),
        (["heisenberg-check", "--dim", "1"], "--dim: dim must be at least 2, got 1"),
        (["wigner", "--N", "3", "--beta", "0.0"], "--beta: beta must lie strictly between 0 and pi, got 0.0"),
        (["wigner", "--N", "3", "--beta", "3.2"], "--beta: beta must lie strictly between 0 and pi, got 3.2"),
        (["wigner", "--N", "3", "--beta", "nan"], "--beta: beta must lie strictly between 0 and pi, got nan"),
        (["converge", "--n", "-1", "--N-list", "16,32"], "--n: n must be at least 0, got -1"),
        (["converge", "--n", "1", "--N-list", "16,a"],
         "--N-list: must be comma separated integers, got '16,a'"),
        # a size below 1 exited 1 from the library
        (["converge", "--n", "1", "--N-list", "16,-32"], "--N-list: N must be a positive integer, got -32"),
        # a list of fewer than two distinct sizes, or one reaching --n, exited 1 from the library
        (["converge", "--n", "1", "--N-list", "16"], "--N-list: need at least two distinct sizes, got [16]"),
        # an empty item was dropped, so these ran as [16, 32]
        (["converge", "--n", "1", "--N-list", "16,,32"], "--N-list: must be comma separated integers, got '16,,32'"),
        (["converge", "--n", "1", "--N-list", ",16,32,"], "--N-list: must be comma separated integers, got ',16,32,'"),
        (["converge", "--n", "1", "--N-list", ","], "--N-list: must be comma separated integers, got ','"),
        (["converge", "--n", "20", "--N-list", "16,32"], "--N-list: all sizes must exceed n_max = 20, got N=16"),
        # --p was range-checked only in the library, which exited 1
        (["converge", "--n", "1", "--N-list", "16,32", "--p", "1.5"],
         "--p: p must lie strictly between 0 and 1, got 1.5"),
        (hermite + ["1", "--s-min", "0", "--s-max", "1", "--samples", "1"],
         "--samples: samples must be at least 2, got 1"),
        (hermite + ["-1", "--s-min", "0", "--s-max", "1"], "--n: n must be at least 0, got -1"),
        (hermite + ["1", "--s-min", "1", "--s-max", "0"], "--s-max: must exceed --s-min"),
        # a span past the float range overflowed in np.linspace and exited 1 on its non-finite grid
        (hermite + ["1", "--s-min=-1e308", "--s-max", "1e308"], "--s-max: s_max - s_min must be finite, got inf"),
        # an infinite end printed NaN and Infinity rows and exited 0
        (hermite + ["1", "--s-min", "0", "--s-max", "inf"], "--s-max: s_max must be finite, got inf"),
        (hermite + ["1", "--s-min=-inf", "--s-max", "0"], "--s-min: s_min must be finite, got -inf"),
        # a negative seed exited 1 with numpy's message, which names no flag
        (["verify-all", "--seed", "-1"], "--seed: seed must be at least 0, got -1"),
        (["heisenberg-check", "--seed", "-3"], "--seed: seed must be at least 0, got -3"),
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


# the library call each typed flag's value feeds, with that value given as text
_H2 = checks.SIGMA_Z  # a 2x2 Hamiltonian for the step flags
LIBRARY_CALL = {
    ("basis", "--N"): lambda v: planewave.build_basis(int(v), 1.0),
    ("basis", "--epsilon"): lambda v: planewave.build_basis(4, float(v)),
    ("evolve", "--tau"): lambda v: build_propagator(_H2, float(v)),
    ("evolve", "--steps"): lambda v: evolve_trajectory(build_propagator(_H2, 0.1), [1.0, 0.0], int(v)),
    ("heisenberg-check", "--dim"): lambda v: checks.random_involution(np.random.default_rng(0), int(v)),
    ("heisenberg-check", "--tau"): lambda v: checks.heisenberg(np.random.default_rng(0), _H2, float(v), 3),
    ("heisenberg-check", "--n"): lambda v: checks.heisenberg(np.random.default_rng(0), _H2, 0.1, int(v)),
    ("heisenberg-check", "--seed"): lambda v: np.random.default_rng(int(v)),
    ("wigner", "--N"): lambda v: kravchuk.build_wigner_d(int(v), 1.0),
    ("wigner", "--beta"): lambda v: kravchuk.build_wigner_d(3, float(v)),
    ("spectrum", "--N"): lambda v: oscillator.energy_spectrum(int(v)),
    ("converge", "--n"): lambda v: oscillator.continuum_convergence(int(v), [16, 32]),
    ("converge", "--N-list"): lambda v: oscillator.continuum_convergence(1, [int(v), 16]),
    ("converge", "--p"): lambda v: oscillator.continuum_convergence(1, [16, 32], float(v)),
    ("hermite", "--n"): lambda v: hermite.eval_psi(int(v), 0.0),
    ("hermite", "--s-min"): lambda v: hermite.eval_psi(1, float(v)),
    ("hermite", "--s-max"): lambda v: hermite.eval_psi(1, float(v)),
    ("hermite", "--samples"): lambda v: hermite.eval_psi(1, np.linspace(-1.0, 1.0, int(v))),
    ("verify-all", "--seed"): lambda v: np.random.default_rng(int(v)),
}


# a flag whose type is a plain int or float, while the function it feeds
# refuses some values, fails here: each flag's range has one declaration
@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", TYPED_FLAGS, ids=[command + flag for command, flag in TYPED_FLAGS])
def test_every_typed_flag_accepts_what_its_library_call_accepts(capsys, command, flag, value):
    assert (command, flag) in LIBRARY_CALL, "name the library call this flag feeds"
    try:
        LIBRARY_CALL[command, flag](value)
        library_accepts = True
    except ValueError:
        library_accepts = False
    try:
        cli._build_parser()[0].parse_args([command, *VALID_ARGV[command], flag, value])
        flag_accepts = True
    except SystemExit as exc:
        assert exc.code == 2
        flag_accepts = False
    capsys.readouterr()
    assert flag_accepts == library_accepts


# two valid values of each flag, appended to its VALID_ARGV line: None leaves
# the flag out and True gives it bare; evolve reads the files written below
FLAG_VALUES = {
    ("basis", "--N"): ("4", "5"),
    ("basis", "--epsilon"): ("1", "2"),
    ("basis", "--table"): (None, True),
    ("evolve", "--hamiltonian"): ("H.json", "H2.json"),
    ("evolve", "--tau"): ("0.1", "0.2"),
    ("evolve", "--steps"): ("1", "2"),
    ("evolve", "--state"): ("s.json", "s2.json"),
    ("heisenberg-check", "--dim"): ("2", "3"),
    ("heisenberg-check", "--tau"): ("0.1", "0.2"),
    ("heisenberg-check", "--n"): ("3", "4"),
    ("heisenberg-check", "--seed"): ("0", "1"),
    ("wigner", "--N"): ("3", "4"),
    ("wigner", "--beta"): ("1", "0.5"),
    ("wigner", "--check"): ("all", "symmetry"),
    ("spectrum", "--N"): ("2", "3"),
    ("spectrum", "--what"): ("energy", "commutator"),
    ("converge", "--n"): ("1", "2"),
    ("converge", "--N-list"): ("16,32", "16,64"),
    ("converge", "--p"): ("0.5", "0.3"),
    ("hermite", "--n"): ("1", "2"),
    ("hermite", "--s-min"): ("0", "-1"),
    ("hermite", "--s-max"): ("1", "2"),
    ("hermite", "--samples"): ("3", "4"),
    ("verify-all", "--seed"): ("7", "8"),
}
FLAGS = [(command, action.option_strings[0])
         for command, sub in cli._build_parser()[1].items()
         for action in sub._actions if action.dest not in ("help", "format", "output")]


# spectrum --p was stored with the oscillator and read by nothing, so its
# every value printed the same bytes
@pytest.mark.parametrize("command, flag", FLAGS, ids=[command + flag for command, flag in FLAGS])
def test_every_flag_changes_the_output(capsys, tmp_path, monkeypatch, command, flag):
    assert set(FLAG_VALUES) == set(FLAGS), "name two values of each flag, and only of flags the parser has"
    monkeypatch.chdir(tmp_path)
    for name, H in (("H.json", [[1.0, 0.5], [0.5, -1.0]]), ("H2.json", [[0.0, 1.0], [1.0, 2.0]])):
        Path(name).write_text(json.dumps({"re": H}))
    for name, state in (("s.json", [1.0, 0.0]), ("s2.json", [0.6, 0.8])):
        Path(name).write_text(LatticeState(state, 1.0).to_json())
    outputs = []
    for value in FLAG_VALUES[command, flag]:
        extra = [] if value is None else [flag] if value is True else [flag, value]
        code, out, err = run_cli(capsys, command, *VALID_ARGV[command], *extra)
        assert (code, err) == (0, ""), value
        outputs.append(out)
    assert outputs[0] != outputs[1]


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


PACKAGE = Path(latticeqm.__file__).resolve().parent


def _names_read(paths) -> set:
    """Each name or attribute read in the files outside the def or class of that name."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in enclosing:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    return read


def test_every_public_name_has_a_caller():
    # a public name is read by the package, a demo or perfbench somewhere
    # outside its own def or class; the tests do not count as callers
    root = PACKAGE.parents[1]
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    assert sorted(set(latticeqm.__all__) - _names_read(sources)) == []


def test_only_lattice_turns_an_argument_into_an_array():
    # every array argument passes lattice._array; a module that converts one
    # itself, as check_hermitian, _grid and inverse_transform did, keeps a
    # rule of its own for text, bools and non-finite entries
    converters = {"asarray", "array", "atleast_1d"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"
                        and call.func.attr in converters and call.args
                        and isinstance(call.args[0], ast.Name) and call.args[0].id in params):
                    found.append(f"{path.stem}.{getattr(fn, 'name', 'lambda')}: np.{call.func.attr}({call.args[0].id})")
    assert found == []


def test_every_private_helper_has_a_caller():
    # a module-level private name is read by the package outside its own
    # definition, so a helper a refactor leaves behind fails here; the tests,
    # demos and perfbench do not count as callers
    sources = sorted(PACKAGE.glob("*.py"))
    private = set()
    for path in sources:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            private.update(f"{path.stem}.{name}" for name in names
                           if name.startswith("_") and not name.startswith("__"))
    read = _names_read(sources)
    assert private  # the walk finds the helpers
    assert sorted(name for name in private if name.split(".")[1] not in read) == []


# lattice's argument validators are the package's shared private helpers
LATTICE_VALIDATORS = {"_array", "_count", "_integer", "_finite", "_order", "_probability", "_spacing", "_step",
                      "_angle"}
# every other private name one module reads of another: (reader, module.name)
PRIVATE_READS = {("cli", "checks._involution_dim"), ("cli", "oscillator._sweep_sizes")}


def test_a_module_reads_only_the_private_names_it_is_pinned_to():
    # oscillator read kravchuk._beta and kravchuk._relations to run the
    # d-table's relations a second time; a new read of another module's
    # private name is a second route to its quantity, and fails here
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        others = modules - {path.stem}
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in others:
                reads.update((path.stem, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in others:
                reads.add((path.stem, node.value.id, node.attr))
    private = {(reader, f"{module}.{name}") for reader, module, name in reads
               if name.startswith("_") and not name.startswith("__")}
    validators = {(reader, name) for reader, name in private
                  if name.split(".")[0] == "lattice" and name.split(".")[1] in LATTICE_VALIDATORS}
    assert validators  # the walk finds the validators' imports
    # exact, so a pin whose read has gone fails as well
    assert private - validators == PRIVATE_READS
