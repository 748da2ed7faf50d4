"""The spreadsmith benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the checkout's ``src``.
``--trace 0`` times the workload and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` runs a fixed job list twice in-process,
untraced and traced, and reports the per-layer metrics.  The last line of
standard output is the result object; the lines before it carry the
detailed figures (named per-workload metrics with sample counts, the
environment, any failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from procs import run_child, run_inprocess

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

STARTUP_REPEATS = 5


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit}


def timed_run(workload_cls, ctx, seconds: float):
    work = workload_cls(ctx)
    setups = []
    for _ in range(work.setup_repeats):
        start = time.perf_counter()
        work.attempt(work.setup)
        setups.append(time.perf_counter() - start)
    item_times = []
    good = 0
    start = time.perf_counter()
    while True:
        i = len(item_times)
        work.item_input(i)                      # inputs are drawn outside the item time
        begin = time.perf_counter()
        good += bool(work.attempt(work.run_item, i))
        item_times.append(time.perf_counter() - begin)
        # start another item only if it is expected to end within the budget
        if time.perf_counter() - start + statistics.median(item_times) > seconds:
            break
    loop_wall = time.perf_counter() - start
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": ctx.peak_rss_kb / 1024, "unit": "MB"},
    }
    detail = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
        "item_s": {"value": statistics.median(item_times), "unit": "s", "n": len(item_times)},
        "items_per_s": {"value": good / loop_wall, "unit": "1/s", "n": good},
        **work.detail(loop_wall, good),
        "peak_rss_mb": {"value": ctx.peak_rss_kb / 1024, "unit": "MB"},
        # a child's ru_maxrss includes this process's RSS at exec: the floor
        "bench_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "unit": "MB"},
        "failed_ratio": {"value": ctx.failed / max(ctx.attempted, 1), "unit": "-",
                         "n": ctx.attempted},
        "samples": {"setup_s": setups, "item_s": item_times, **ctx.samples},
    }
    return metrics, detail


def traced_run(workload_cls, make_ctx, trace_file: Path, per_layer: list):
    items = workload_cls.trace_items

    def jobs(ctx):
        work = workload_cls(ctx)
        for i in range(items):
            work.item_input(i)              # inputs are drawn before any job runs
        return ([lambda: work.attempt(work.setup)]
                + [lambda i=i: work.attempt(work.run_item, i) for i in range(items)])

    ctx_plain = make_ctx("untraced")
    plain_jobs = jobs(ctx_plain)
    start = time.perf_counter()
    for job in plain_jobs:
        job()
    untraced_wall = time.perf_counter() - start

    ctx_traced = make_ctx("traced")
    traced_jobs = jobs(ctx_traced)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job_id, job in enumerate(traced_jobs):
            tracer.run_job(job_id, job)
    finally:
        tracer.uninstall()
    tracer.write(trace_file)

    startup = 0.0
    argv = workload_cls.setup_argv
    if argv is not None:
        child = [run_child(ROOT, argv, ctx_plain.work).wall_s for _ in range(STARTUP_REPEATS)]
        inproc = [run_inprocess(argv).wall_s for _ in range(STARTUP_REPEATS)]
        startup = statistics.median(child) - statistics.median(inproc)

    measured = {
        "cli.startup_s": startup,
        "trace.job_wall_s": tracer.job_wall_s(),
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": tracer.job_wall_s() - untraced_wall,
        "trace.unattributed_s": tracer.unattributed_s(),
    }
    metrics = layer_metrics(tracer, measured, per_layer)
    counts = {name: stat[0] for name, stat in sorted(tracer.stats.items())}
    counts.update(sorted(tracer.counters.items()))
    checks = (ctx_plain.attempted + ctx_traced.attempted,
              ctx_plain.failed + ctx_traced.failed,
              ctx_plain.failures + ctx_traced.failures)
    return metrics, {"counts": counts, "spans": len(tracer.spans)}, checks


def layer_metrics(tracer, measured: dict, per_layer: list) -> dict:
    """Per-layer metrics named ``<module>.<function>.<stat>`` or
    ``<module>.self_s``, plus the values measured around the tracer."""
    layer_self = tracer.layer_self_s()
    out = {}
    for spec in per_layer:
        name = spec["name"]
        func, field = name.rsplit(".", 1)
        calls, incl, self_s = tracer.stats.get(func, [0, 0.0, 0.0])
        if name in measured:
            value = measured[name]
        elif field == "new_ratio":
            value = tracer.counters.get(f"{func}.new", 0) / calls if calls else 0.0
        elif field in ("sets", "elements", "bytes"):
            value = tracer.counters.get(name, 0)
        elif func in tracing.LAYERS:
            value = layer_self[func]
        else:
            value = {"calls": calls, "s": incl, "self_s": self_s}[field]
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spreadsmith" / "cli.py").is_file():
        print(f"error: no spreadsmith sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    whys = {w["name"]: w["why"] for w in bench["workloads"]}

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        def make_ctx(sub, inprocess=True):
            path = run_dir / sub
            path.mkdir()
            return workloads.Context(ROOT, path, args.seed, inprocess)

        info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "env": environment(),
                "why": whys[args.workload]}
        if args.trace:
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, extra, (attempted, failed, failures) = traced_run(
                workload_cls, make_ctx, trace_file, bench["per_layer"])
            info.update(extra, trace_file=str(trace_file.relative_to(ROOT)))
        else:
            ctx = make_ctx("timed", inprocess=False)
            metrics, detail = timed_run(workload_cls, ctx, args.seconds)
            attempted, failed, failures = ctx.attempted, ctx.failed, ctx.failures
            info["detail"] = detail
        info["failures"] = failures
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
