"""Run each demo script as a user would and require a clean exit with output,
and require that a demo whose check row fails reports the failure."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from latticeqm import CheckRow

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty parameter list would skip every run below without a failure
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_a_failing_row_fails_the_demo(demo, monkeypatch, capsys):
    main = runpy.run_path(str(demo))["main"]
    monkeypatch.setattr(CheckRow, "passed", False)
    assert main() is False
    assert " fail " in capsys.readouterr().out
