import io
import json

import pytest

from latticeqm import CheckRow, VerificationReport, write_csv
from latticeqm.cli import main

HEADER = "check,params,residual,tolerance,status"


def _csv(header, rows):
    out = io.StringIO()
    write_csv(out, header, rows)
    return out.getvalue()


def _report_rows(report):
    return [(r.check, r.params, r.residual, r.tolerance, r.status) for r in report.rows]


def test_empty_report_is_header_only():
    report = VerificationReport()
    assert _csv(HEADER, _report_rows(report)) == HEADER + "\n"
    assert report.all_passed


def test_row_status_tracks_tolerance():
    passing = CheckRow(check="a", params="", residual=1e-12, tolerance=1e-10)
    failing = CheckRow(check="b", params="", residual=1e-8, tolerance=1e-10)
    boundary = CheckRow(check="c", params="", residual=1e-10, tolerance=1e-10)
    assert passing.passed and passing.status == "pass"
    assert not failing.passed and failing.status == "fail"
    assert boundary.passed  # equality counts as within tolerance


def test_all_passed_is_a_conjunction():
    report = VerificationReport([CheckRow("a", "", 0.0, 1.0)])
    assert report.all_passed
    report.rows.append(CheckRow("b", "", 2.0, 1.0))
    assert not report.all_passed


def test_csv_round_trips_seventeen_digits():
    report = VerificationReport([CheckRow("pi-ish", "N=3", 0.1 + 0.2, 1.0)])
    line = _csv(HEADER, _report_rows(report)).splitlines()[1]
    fields = line.split(",")
    assert fields[0] == "pi-ish"
    assert float(fields[2]) == 0.1 + 0.2
    assert fields[4] == "pass"
    # integers and non-finite values go through the same formatter
    assert _csv("a,b,c", [(3, float("inf"), -0.0)]).splitlines()[1] == "3,inf,-0"


def test_params_commas_become_semicolons():
    report = VerificationReport([CheckRow("x", "N=3, beta=0.5", 0.0, 1.0)])
    line = _csv(HEADER, _report_rows(report)).splitlines()[1]
    assert line.count(",") == 4
    assert "N=3; beta=0.5" in line


def test_json_mirrors_csv_content(capsys):
    main(["verify-all", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    main(["verify-all", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert lines[0] == HEADER
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == len(lines) - 1
    for row, line in zip(payload["checks"], lines[1:]):
        check, params, residual, tolerance, status = line.split(",")
        assert (row["check"], row["params"], row["status"]) == (check, params, status)
        assert row["residual"] == float(residual) and row["tolerance"] == float(tolerance)


def test_export_dispatch(capsys):
    argv = ["spectrum", "--N", "2", "--what", "energy"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "n,value\n0,1\n1,2\n2,1\n"
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out.endswith("}\n")
    with pytest.raises(SystemExit):
        main(argv + ["--format", "yaml"])
    capsys.readouterr()
