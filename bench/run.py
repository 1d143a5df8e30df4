"""spreadnum benchmark: seeded workloads, end-to-end and per-layer metrics.

One run:

    python3 bench/run.py --workload grid_scale --seed 1 --seconds 25 --trace 0

Every workload and both kinds of run, with a readable table of all metrics:

    python3 bench/run.py [--seed 1] [--seconds 25]

A run imports the package from ``src/`` of the checkout that holds this file
and builds its inputs from the seed (``setup_s``, the median of several
repetitions).  It then runs the workload's fixed task list once untimed and
checks every answer against ``reference``, and repeats the list in a closed
loop, one task at a time, until ``--seconds`` have passed, at least
``MIN_ROUNDS`` times and, untraced, until the 90th latency percentile has
``MIN_TAIL_SAMPLES`` samples above it.  Every repeat must reproduce the
first one's outputs and work counts exactly.  A wrong answer prints
``"correct": false`` and exits 1.

A pass's wall time is the sum of its tasks' times; the output comparison
between tasks is not counted.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced repeats, reports the
per-layer metrics from the spans of the traced ones and the tracing
overhead against the untraced ones, and writes the spans to
``.bench_out/``.  Times per repeat are medians over the repeats of a run;
counts are per repeat.  The last line of stdout is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import workloads as wl
from tracing import NullTracer, SpanTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7
MIN_ROUNDS = 4
MIN_TAIL_SAMPLES = 10  # samples a reported percentile must leave above it

END_TO_END = [
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
LAYERS = ["graphs", "engine", "formulas", "solver", "trees", "gadgets", "cli"]
#: Spans reported as busy seconds per repeat, as ``<span>_s``.
BUSY_SPANS = [
    "graphs.build", "graphs.parse", "graphs.serialize",
    "engine.check", "engine.closure_trace", "engine.verify",
    "formulas.witness",
    "solver.search", "solver.enumerate",
    "gadgets.certify",
    "trees.sigma_tree_p1", "trees.partition", "trees.sigma_tree_p2plus", "trees.pnp_check",
]
#: Spans reported as the median duration of one call, as ``<span>_ms``.
MEDIAN_SPANS = ["cli.process", "cli.import", "cli.interp_floor"]
#: Work counts per repeat; identical in every repeat of a seed.
COUNTS = ["graphs.edges_built", "engine.vertices_colored", "solver.evaluations",
          "solver.budget_exhausted"]
#: rate metric -> (count, busy-time metric)
RATES = {
    "graphs.edges_per_s": ("graphs.edges_built", "graphs.build_s"),
    "engine.vertices_per_s": ("engine.vertices_colored", "engine.check_s"),
    "solver.evals_per_s": ("solver.evaluations", "solver.search_s"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``--trace 1`` reports."""
    out = [(f"{layer}.busy_s", "s", "lower") for layer in LAYERS]
    out += [(f"{span}_s", "s", "lower") for span in BUSY_SPANS]
    out += [(f"{span}_ms", "ms", "lower") for span in MEDIAN_SPANS]
    out += [(name, "count", "lower") for name in COUNTS]
    out += [(name, "1/s", "higher") for name in RATES]
    out += [("trace.overhead_frac", "ratio", "lower"), ("src.nonblank_lines", "count", "lower")]
    return out


def fresh_import():
    """Import spreadnum from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "spreadnum" or m.startswith("spreadnum.")]:
        del sys.modules[name]
    sn = importlib.import_module("spreadnum")
    if Path(sn.__file__).resolve().parent != SRC / "spreadnum":
        raise ImportError(f"spreadnum imported from {sn.__file__}, not from {SRC}")
    return sn


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_round(tasks, tracer, on_output) -> tuple[float, list[float], Counter, int]:
    """Run every task once, in order; returns wall, latencies, work counts, failures.

    ``on_output(i, out)`` sees each output as soon as its task ends, so no
    task's result outlives the next task; its time is not counted.
    """
    counts: Counter = Counter()
    latencies = []
    wall = 0.0
    failed = 0
    for i, task in enumerate(tasks):
        start = time.perf_counter()
        tracer.begin_task(task.kind)
        t0 = time.perf_counter()
        out = task.run(tracer, counts)
        latencies.append(time.perf_counter() - t0)
        tracer.end_task()
        wall += time.perf_counter() - start
        failed += out is wl.FAILED
        on_output(i, out)
        del out
    return wall, latencies, counts, failed


def src_nonblank_lines() -> int:
    return sum(
        1
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    generate, make_tasks = wl.WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    setup = []
    for _ in range(SETUP_REPS):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        sn = fresh_import()
        inputs = generate(seed)
        setup.append(time.perf_counter() - t0)

    tmp = ROOT / ".bench_tmp" / f"{name}-{seed}-{int(time.time() * 1e6)}"
    tmp.mkdir(parents=True)
    try:
        tasks = make_tasks(inputs, sn, {"root": ROOT, "tmp": tmp})
        problems = []
        expected = []

        def check_first(i, out):
            try:
                tasks[i].check(out)
            except reference.Mismatch as exc:
                problems.append(f"{tasks[i].kind}: {exc}")
            expected.append(tasks[i].digest(out))

        def compare(i, out):
            if tasks[i].digest(out) != expected[i]:
                problems.append(f"repeat {r}: {tasks[i].kind} output changed")

        # The benchmark's own long-lived objects (inputs, expected outputs)
        # are frozen out of the cyclic collector, so collections during the
        # timed repeats scan only what the program itself keeps alive.
        gc.collect()
        gc.freeze()
        _, _, first_counts, _ = run_round(tasks, NullTracer(), check_first)
        gc.collect()
        gc.freeze()

        tracer = SpanTracer() if trace else None
        walls = {False: [], True: []}
        latencies: list[float] = []
        layer: dict[str, list[float]] = {}
        medians: dict[str, list[float]] = {}
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        r = 0
        while (r < MIN_ROUNDS or time.perf_counter() < deadline
               or not trace and len(latencies) < 10 * MIN_TAIL_SAMPLES):
            traced = trace and r % 2 == 1
            since = len(tracer.spans) if traced else 0
            wall, lat, counts, nfail = run_round(tasks, tracer if traced else NullTracer(), compare)
            r += 1
            walls[traced].append(wall)
            attempted += len(tasks)
            failed += nfail
            if not traced:
                latencies += lat
            if counts != first_counts:
                problems.append(f"repeat {r}: work counts changed: {dict(counts)} vs {dict(first_counts)}")
            if traced:
                busy = tracer.busy(since)
                for span in BUSY_SPANS:
                    layer.setdefault(f"{span}_s", []).append(sum(busy.get(span, [])))
                for lay in LAYERS:
                    total = sum(sum(v) for k, v in busy.items() if k.startswith(lay + "."))
                    layer.setdefault(f"{lay}.busy_s", []).append(total)
                for span in MEDIAN_SPANS:
                    medians.setdefault(f"{span}_ms", []).extend(busy.get(span, []))
        peak_rss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
        ).ru_maxrss
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    info = {
        "repeats": r,
        "tasks_per_repeat": len(tasks),
        "latency_samples": len(latencies),
        "failed_frac": failed / attempted,
        "problems": problems[:20],
    }
    if trace:
        metrics = {m: statistics.median(v) for m, v in layer.items()}
        metrics.update({m: 1e3 * statistics.median(v) if v else 0.0 for m, v in medians.items()})
        metrics.update({c: first_counts.get(c, 0) for c in COUNTS})
        for rate, (count, busy) in RATES.items():
            metrics[rate] = metrics[count] / metrics[busy] if metrics[busy] else 0.0
        untraced = statistics.median(walls[False])
        metrics["trace.overhead_frac"] = statistics.median(walls[True]) / untraced - 1
        metrics["src.nonblank_lines"] = src_nonblank_lines()
        units = {n: u for n, u, _ in per_layer_metrics()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
        info["spans"] = len(tracer.spans)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "task_p50_ms": 1e3 * percentile(latencies, 0.5),
            "task_p90_ms": 1e3 * percentile(latencies, 0.9),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        units = dict(END_TO_END)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": info,
    }


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in its own process."""
    ok = True
    summary = {}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            summary[f"{name} trace={trace}"] = result
            ok &= proc.returncode == 0 and result["correct"]
            print(f"== {name}  trace={trace}  exit={proc.returncode}  correct={result['correct']}"
                  f"  attempted={result.get('attempted')}  failed={result.get('failed')}")
            for line in lines[:-1]:
                print("   ", line)
            for metric, val in result["metrics"].items():
                print(f"    {metric:32s} {val['value']:>16.6g} {val['unit']}")
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spreadnum" / "__init__.py").is_file():
        print(f"error: no spreadnum package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items() if k != "problems"))
    for problem in info["problems"]:
        print(f"# WRONG: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
