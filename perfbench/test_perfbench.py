"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import envblock

if "numpy" not in sys.modules:
    envblock.pin_threads()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from latticeqm import cli, kravchuk, oscillator, report  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _modules():
    return {layer: importlib.import_module(f"latticeqm.{layer}") for layer in spans.LAYERS}


def _bindings(modules):
    """Every attribute of the modules and of their classes, by identity."""
    out = {}
    for module in modules.values():
        for attr, obj in vars(module).items():
            out[(module.__name__, attr)] = obj
            if isinstance(obj, type):
                for name, raw in vars(obj).items():
                    out[(module.__name__, attr, name)] = raw
    return out


def test_self_times_subtract_union_of_children():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("c", 2.0, 3.0, 1, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("d", 5.0, 7.0, 3, 0),
        S("e", 6.0, 8.0, 3, 0),  # overlaps d: covered part of b is [5, 8]
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_tracer_records_spans_and_counts_then_restores_originals():
    modules = _modules()
    before = _bindings(modules)
    tracer = spans.Tracer(modules)
    with tracer:
        assert cli.main is not before[("latticeqm.cli", "main")]
        # a re-bound name gets the same wrapper as the original binding
        assert oscillator.build_kravchuk is kravchuk.build_kravchuk
        assert cli.format_float is report.format_float
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["wigner", "--N", "6", "--beta", "0.04", "--check", "symmetry"])
    assert code == 0
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(before[k] is v for k, v in after.items())

    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    build = names.index("kravchuk.build_wigner_d")
    assert tracer.spans[build].parent >= 0
    assert "report.format_float" not in names
    assert tracer.calls["report.format_float"] > 0
    assert tracer.probed["kravchuk.build_wigner_d.columns"] == 7
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.self_s"] > 0
    assert 0 <= metrics["kravchuk.sign_fallback_ratio"] <= 1


def test_pin_threads_refuses_numpy_loaded_unpinned(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setitem(sys.modules, "numpy", np)
    with pytest.raises(RuntimeError, match="pinned"):
        envblock.pin_threads()


def _ops(name, seed, cycles=2):
    it = workloads.WORKLOADS[name].cycles(seed)
    return [op for _ in range(cycles) for op in next(it)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops_other_seed_other_draws(name, tmp_path):
    assert _ops(name, 5) == _ops(name, 5)
    first, other = _ops(name, 5), _ops(name, 6)
    assert first != other
    if name == "wigner":
        assert {op[2] for op in first}.isdisjoint(op[2] for op in other)
        assert all(0 < op[2] < np.pi for op in first)
        edge = workloads.ALL_CHECK_EDGE
        assert all(edge < op[2] < np.pi - edge for op in first if op[3] == "all")
    if name in ("evolve", "propagate"):
        w = workloads.WORKLOADS[name]
        a, b = w.prepare(first[0], tmp_path), w.prepare(other[0], tmp_path)
        assert not np.array_equal(a.H, b.H)


def test_three_term_tolerance_scales_with_the_coefficients():
    tol = workloads.wigner_tolerance
    assert tol("recurrence_three_term", 30, 0.7) == 1e-10
    assert tol("recurrence_three_term", 16, np.pi / 2) == 1e-10
    assert tol("recurrence_shift", 256, 1e-6) == 1e-10
    assert tol("recurrence_three_term", 256, 1e-3) > 1e3 * tol("recurrence_three_term", 256, 1.0)


def test_wigner_edge_angle_passes_and_a_wrong_residual_fails():
    w = workloads.WORKLOADS["wigner"]
    op = ("wigner", 64, 1e-9, "recurrence")
    outcome = w.execute(op)
    margins = w.validate(op, outcome)
    assert margins and all(r <= t for _, r, t in margins)
    shift = json.loads(outcome.stdout)["checks"]["recurrence_shift"]
    bad = outcome.stdout.replace(json.dumps(shift), "1e-3")
    with pytest.raises(workloads.Invalid):
        w.validate(op, workloads.Outcome(code=0, stdout=bad, bytes_out=0))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name, tmp_path):
    w = workloads.WORKLOADS[name]
    tally = run.Tally()
    cycle = next(w.cycles(9))
    for op in cycle[:4]:
        run.run_op(w, op, tmp_path, tally)
    assert tally.attempted == min(4, len(cycle))
    metrics, info = run.end_to_end(tally, [0.1], w.tail_percentile)
    assert info["failed_ratio"] == 0
    assert metrics["ok_ratio"] == 1.0
    assert {m["name"] for m in DECLARED["end_to_end"]} == set(metrics)


def test_traced_pass_reports_every_declared_per_layer_metric(tmp_path):
    w = workloads.WORKLOADS["verify"]
    plain, traced = run.Tally(), run.Tally()
    op = next(w.cycles(2))[0]
    run.run_op(w, op, tmp_path, plain)
    tracer = spans.Tracer(_modules())
    with tracer:
        run.run_op(w, op, tmp_path, traced, tracer)
    metrics, _ = run.per_layer(plain, traced, tracer, spans)
    assert {m["name"] for m in DECLARED["per_layer"]} == set(metrics)
    assert traced.failed == 0
    assert metrics["cli.bytes_out"] == plain.bytes_out > 0
    assert metrics["hermite.psi_table.calls"] > 0


def _result_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("{")]


def test_command_prints_result_as_last_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "4",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not _result_lines(done.stdout)
