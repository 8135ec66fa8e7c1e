import json
import math
import subprocess
import sys

import numpy as np
import pytest

from latticeqm import LatticeState, build_propagator, evolve_trajectory
from latticeqm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    h_path = tmp_path / "H.json"
    h_path.write_text(json.dumps({"re": H.tolist(), "im": np.zeros_like(H).tolist()}))
    state = LatticeState(np.array([1.0, 0.0], dtype=complex), epsilon=1.0)
    s_path = tmp_path / "state.json"
    s_path.write_text(state.to_json())

    code, out, _ = run_cli(
        capsys,
        "evolve",
        "--hamiltonian", str(h_path),
        "--state", str(s_path),
        "--tau", "0.3",
        "--steps", "4",
    )
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


def test_evolve_json_final_state_reloads(tmp_path, capsys):
    H = np.diag([1.0, -1.0])
    h_path = tmp_path / "H.json"
    h_path.write_text(json.dumps({"re": H.tolist(), "im": np.zeros_like(H).tolist()}))
    state = LatticeState(np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2), epsilon=0.5)
    s_path = tmp_path / "state.json"
    s_path.write_text(state.to_json())

    code, out, _ = run_cli(
        capsys,
        "evolve",
        "--hamiltonian", str(h_path),
        "--state", str(s_path),
        "--tau", "2.0",
        "--steps", "1",
        "--format", "json",
    )
    payload = json.loads(out)
    final = payload["trajectory"][-1]
    reloaded = LatticeState.from_json(
        json.dumps({"epsilon": payload["epsilon"], "re": final["re"], "im": final["im"]})
    )
    assert reloaded.epsilon == state.epsilon
    expected = build_propagator(H, 2.0).factor @ state.amplitudes
    assert np.abs(reloaded.amplitudes - expected).max() < 1e-14


def test_evolve_dimension_mismatch_fails(tmp_path, capsys):
    h_path = tmp_path / "H.json"
    h_path.write_text(json.dumps({"re": [[0.0]], "im": [[0.0]]}))
    s_path = tmp_path / "state.json"
    s_path.write_text(LatticeState(np.array([1.0, 0.0], dtype=complex), epsilon=1.0).to_json())
    code, out, err = run_cli(
        capsys, "evolve", "--hamiltonian", str(h_path), "--state", str(s_path), "--tau", "0.1", "--steps", "1"
    )
    assert code == 1
    assert err.startswith("error:")


def test_evolve_rejects_mis_shaped_im_block(tmp_path, capsys):
    h_path = tmp_path / "H.json"
    h_path.write_text(json.dumps({"re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0]]}))
    s_path = tmp_path / "state.json"
    s_path.write_text(LatticeState(np.array([1.0, 0.0], dtype=complex), epsilon=1.0).to_json())
    code, out, err = run_cli(
        capsys, "evolve", "--hamiltonian", str(h_path), "--state", str(s_path), "--tau", "0.1", "--steps", "1"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "shape" in err


@pytest.mark.parametrize("tau", ["0", "nan"])
def test_heisenberg_check_rejects_degenerate_step(capsys, tau):
    code, out, err = run_cli(capsys, "heisenberg-check", "--tau", tau)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "tau" in err and err.count("\n") == 1


def test_verify_all_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify-all", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify-all", "--seed", "7")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    statuses = [line.rsplit(",", 1)[1] for line in out1.splitlines()[1:]]
    assert statuses and all(s == "pass" for s in statuses)


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
    code, _, err = run_cli(capsys, "heisenberg-check", "--tau", "0", "--output", str(target))
    assert code == 1 and err.startswith("error:")
    assert not target.exists()


def test_invalid_parameters_exit_two(capsys):
    for argv in (
        ["basis", "--N", "0", "--epsilon", "1.0"],
        ["basis", "--N", "4", "--epsilon", "-1.0"],
        ["wigner", "--N", "3", "--beta", "0.0"],
        ["spectrum", "--N", "5", "--p", "1.5"],
        ["converge", "--n", "-1", "--N-list", "16,32"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()


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
