import io
import json

import numpy as np
import pytest

from latticeqm import CheckRow, cli, report, write_csv
from latticeqm.cli import main

HEADER = "check,params,residual,tolerance,status"


def _csv(header, rows):
    out = io.StringIO()
    write_csv(out, header, rows)
    return out.getvalue()


def _report_rows(rows):
    return [(r.check, r.params, r.residual, r.tolerance, r.status) for r in rows]


def _verify_all_code(monkeypatch, capsys, rows):
    """Exit code and stdout of verify-all when the suite yields ``rows``."""
    monkeypatch.setattr(cli, "build_verification_report", lambda seed: rows)
    code = main(["verify-all"])
    return code, capsys.readouterr().out


def test_empty_report_is_header_only(monkeypatch, capsys):
    assert _csv(HEADER, _report_rows([])) == HEADER + "\n"
    assert _verify_all_code(monkeypatch, capsys, []) == (0, HEADER + "\n")


def test_row_status_tracks_tolerance():
    passing = CheckRow(check="a", params="", residual=1e-12, tolerance=1e-10)
    failing = CheckRow(check="b", params="", residual=1e-8, tolerance=1e-10)
    boundary = CheckRow(check="c", params="", residual=1e-10, tolerance=1e-10)
    assert passing.passed and passing.status == "pass"
    assert not failing.passed and failing.status == "fail"
    assert boundary.passed  # equality counts as within tolerance


def test_all_passed_is_a_conjunction(monkeypatch, capsys):
    rows = [CheckRow("a", "", 0.0, 1.0)]
    assert _verify_all_code(monkeypatch, capsys, rows)[0] == 0
    rows.append(CheckRow("b", "", 2.0, 1.0))
    assert _verify_all_code(monkeypatch, capsys, rows)[0] == 1


def test_csv_round_trips_seventeen_digits():
    rows = [CheckRow("pi-ish", "N=3", 0.1 + 0.2, 1.0)]
    line = _csv(HEADER, _report_rows(rows)).splitlines()[1]
    fields = line.split(",")
    assert fields[0] == "pi-ish"
    assert float(fields[2]) == 0.1 + 0.2
    assert fields[4] == "pass"
    # integers and non-finite values print as format_float prints them
    assert _csv("a,b,c", [(3, float("inf"), -0.0)]).splitlines()[1] == "3,inf,-0"


def test_params_commas_become_semicolons():
    rows = [CheckRow("x", "N=3, beta=0.5", 0.0, 1.0)]
    line = _csv(HEADER, _report_rows(rows)).splitlines()[1]
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


def _per_value(header, rows):
    """The table rendered one format_float call per value, the labelled route."""
    return "".join([header + "\n"] + [",".join(report.format_float(v) for v in row) + "\n" for row in rows])


EDGE_ROW = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308,
            2**64, True, np.float64(0.1), np.float32(0.1), np.int64(-7)]


@pytest.mark.parametrize("rows", [
    [EDGE_ROW, EDGE_ROW[::-1]],
    [EDGE_ROW, [1.0, 2**-1074], [3, -0.0]],  # three widths, each format built once
    [[], [1.5]],
    [],
], ids=["edge-values", "widths", "empty-first-row", "empty-table"])
def test_numeric_rows_match_per_value_rendering(rows):
    assert _csv("h", rows) == _per_value("h", rows)


def test_first_row_decides_the_route(monkeypatch):
    calls = []
    monkeypatch.setattr(report, "format_float", lambda v: calls.append(v) or format(float(v), ".17g"))
    assert _csv("a,b", [(0.25, 1e300), (-1, 2)]) == "a,b\n0.25,1.0000000000000001e+300\n-1,2\n"
    assert calls == []  # a numeric table takes one % format per row
    assert _csv("check,value", [("x", 0.5), ("y", 2)]) == "check,value\nx,0.5\ny,2\n"
    assert calls == [0.5, 2]  # a labelled table formats value by value
