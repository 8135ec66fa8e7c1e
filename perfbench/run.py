"""Benchmark for latticeqm: one workload, one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload wigner --seed 1 --seconds 20 --trace 0

The client sends the next op only after the previous one has returned and
been validated (closed loop, one client).  CLI ops call
``latticeqm.cli.main`` in this process; library ops call the module
functions.  Only the call itself is timed: input generation and output
validation happen outside the timed interval.  One op is run untimed as
warm-up, so a cache a later change adds is paid inside timed ops or in
``setup_s``.  ``setup_s`` is taken from fresh interpreters that import
``latticeqm.cli``, started between ops at intervals through the run.

``--trace 0`` measures the end-to-end metrics over whole cycles of ops until
the timed ops add up to ``--seconds``.  ``--trace 1`` replays a fixed number
of cycles twice, first untraced and then with ``spans.Tracer`` installed, and
reports the per-layer metrics of the traced pass, so that counts repeat
exactly for a seed; it writes the spans to ``.perfbench-out/``.

Human-readable lines start with ``#``; the last line of standard output is
the JSON result.  The metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from envblock import environment, pin_threads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_INTERVAL_S = 1.5  # wall seconds between two import probes
SETUP_MIN_PROBES = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import latticeqm.cli; "
    "print(repr(time.perf_counter() - t))"
)
WALL_LIMIT_S = 120.0  # stop starting cycles after this, so a run ends within 180 s
MARGIN_LAYERS = ("lattice", "planewave", "cayley", "kravchuk", "oscillator", "hermite")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Seconds to import latticeqm.cli (and numpy) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


class SetupProbes:
    """Import probes spread through a run, one per SETUP_INTERVAL_S between ops.

    This host's speed drifts over seconds, so probes taken back to back all
    land in one state of it; spread out, they sample the run's whole span.
    """

    def __init__(self):
        self.samples: list = []
        self.last = -math.inf

    def __call__(self) -> None:
        if time.monotonic() - self.last >= SETUP_INTERVAL_S:
            self.samples.append(import_seconds())
            self.last = time.monotonic()

    def finish(self) -> list:
        while len(self.samples) < SETUP_MIN_PROBES:
            self.samples.append(import_seconds())
        return self.samples


def nearest_rank(ordered: list, p: float) -> float:
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


@dataclass
class Tally:
    """What one pass over the ops measured."""

    latencies: list = field(default_factory=list)  # seconds, successful ops only
    attempted: int = 0
    failed: int = 0
    bytes_out: int = 0
    cycles: int = 0
    margins: dict = field(default_factory=dict)  # layer -> worst residual / tolerance

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)


def run_op(workload, op, workdir, tally: Tally, tracer=None) -> None:
    prepared = workload.prepare(op, workdir)
    tally.attempted += 1
    if tracer is not None:
        tracer.op = tally.attempted - 1
    start = time.perf_counter()
    try:
        outcome = workload.execute(prepared)
    except Exception:
        tally.failed += 1
        print(f"# op {op!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return
    elapsed = time.perf_counter() - start
    try:
        margins = workload.validate(prepared, outcome)
    except Exception as exc:
        tally.failed += 1
        print(f"# op {op!r} failed validation: {exc!r}", file=sys.stderr)
        return
    tally.latencies.append(elapsed)
    tally.bytes_out += outcome.bytes_out
    for layer, residual, tolerance in margins:
        # a passing check with tolerance 0 is exact: margin 0
        margin = residual / tolerance if tolerance > 0 else 0.0
        tally.margins[layer] = max(tally.margins.get(layer, 0.0), margin)


def run_cycles(workload, seed, workdir, tally: Tally, *, seconds=None, count=None,
               tracer=None, deadline=math.inf, between=None) -> None:
    """Run whole cycles until ``count`` cycles or ``seconds`` of timed ops.

    ``between`` is called after every op, outside the timed interval."""
    for cycle in workload.cycles(seed):
        for op in cycle:
            run_op(workload, op, workdir, tally, tracer)
            if between is not None:
                between()
        tally.cycles += 1
        if count is not None and tally.cycles >= count:
            return
        if seconds is not None and tally.busy >= seconds:
            return
        if time.monotonic() > deadline:
            print("# wall-clock limit reached, run cut short", file=sys.stderr)
            return


def end_to_end(tally: Tally, setup: list, p: int) -> tuple[dict, dict]:
    ordered = sorted(tally.latencies)
    n = len(ordered)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / tally.busy if n else 0.0,
        "op_p50_s": statistics.median(ordered) if n else 0.0,
        "op_tail_s": nearest_rank(ordered, p) if n else 0.0,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "op_tail_s": f"p{p} of {n} ops, {n - math.ceil(p * n / 100)} beyond",
        "failed_ratio": tally.failed / tally.attempted,
        "cycles": tally.cycles,
        "timed_s": tally.busy,
        "setup_samples_s": setup,
    }
    return metrics, info


def per_layer(plain: Tally, traced: Tally, tracer, spans) -> tuple[dict, dict]:
    metrics = spans.layer_metrics(tracer)
    metrics["cli.bytes_out"] = traced.bytes_out
    for layer in MARGIN_LAYERS:
        metrics[f"{layer}.margin_max"] = max(plain.margins.get(layer, 0.0),
                                             traced.margins.get(layer, 0.0))
    metrics["trace.overhead"] = traced.busy / plain.busy if plain.busy else 0.0
    info = {
        "ops_per_pass": traced.attempted,
        "cycles_per_pass": traced.cycles,
        "untraced_ops_per_s": len(plain.latencies) / plain.busy if plain.busy else 0.0,
        "traced_ops_per_s": len(traced.latencies) / traced.busy if traced.busy else 0.0,
        "spans": len(tracer.spans),
        "absent": "cli.margin_max and report.margin_max: cli and report emit no residuals of their own",
    }
    return metrics, info


def write_spans(path: Path, tracer, spans) -> None:
    own = spans.self_times(tracer.spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op,name,start_s,end_s,parent,self_s\n")
        for span, self_s in zip(tracer.spans, own):
            fh.write(f"{span.op},{span.name},{span.start!r},{span.end!r},{span.parent},{self_s!r}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latticeqm" / "cli.py").is_file():
        print(f"error: latticeqm sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_threads()
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + WALL_LIMIT_S
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        warm = Tally()
        run_op(workload, next(workload.cycles(args.seed))[0], workdir, warm)
        plain = Tally()
        if not args.trace:
            probes = SetupProbes()
            probes()
            run_cycles(workload, args.seed, workdir, plain, seconds=args.seconds,
                       deadline=deadline, between=probes)
            metrics, info = end_to_end(plain, probes.finish(), workload.tail_percentile)
            wanted = declared["end_to_end"]
            tallies = (warm, plain)
        else:
            run_cycles(workload, args.seed, workdir, plain, count=workload.trace_cycles)
            traced = Tally()
            tracer = spans.Tracer({layer: importlib.import_module(f"latticeqm.{layer}")
                                   for layer in spans.LAYERS})
            with tracer:
                run_cycles(workload, args.seed, workdir, traced,
                           count=workload.trace_cycles, tracer=tracer)
            metrics, info = per_layer(plain, traced, tracer, spans)
            trace_file = OUT / f"spans-{args.workload}-{args.seed}.csv"
            write_spans(trace_file, tracer, spans)
            info["spans_file"] = str(trace_file.relative_to(ROOT))
            wanted = declared["per_layer"]
            tallies = (warm, plain, traced)

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    attempted = sum(t.attempted for t in tallies[1:])
    failed = sum(t.failed for t in tallies[1:])
    result = {
        "correct": all(t.failed == 0 for t in tallies) and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# env " + json.dumps(environment(ROOT, args.seed), sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"# failed_ratio = {info['failed_ratio']:.6g} ratio (= 1 - ok_ratio)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
