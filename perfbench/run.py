"""Benchmark of the ptb pipeline.

    python3 perfbench/run.py --workload orbit_strict --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process, one thread, from the
root of a source checkout: it imports ptb from ./src.  A pass is one run
of the workload's operations; every operation's output goes through its
oracle gate, and an operation that raises or fails its gate counts as
failed.  Passes repeat until --seconds have gone by.  Metric names and
units come from BENCHMARK.json at the checkout root.

--trace 0 reports the end-to-end metrics: the median wall time of a pass,
accepted DOPRI steps and emitted samples per second of it, the median
set-up time of a fresh interpreter (import ptb.cli, make and validate the
inputs) and the peak resident memory of this process.  Step and sample
counts come from wrapping the entry points of integrate, a few calls per
pass; they must repeat exactly from pass to pass.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (medians), the import cost from
`python -X importtime`, and traced over untraced pass time.  The spans are
written to .perfbench_out/trace_<workload>.csv.

The last line of standard output is the result as one JSON object.
"""

import os

# one thread in this process and in every child it starts
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def run_pass(workload):
    """Run every operation once; returns (seconds, outcomes), where an
    outcome is the operation's result or the exception it raised."""
    outcomes = []
    start = perf_counter()
    for op in workload.operations():
        try:
            outcomes.append(op())
        except Exception as exc:  # a failed operation is counted, not fatal
            outcomes.append(exc)
    return perf_counter() - start, outcomes


def check(workload, outcomes) -> tuple[int, int]:
    """(attempted, failed) for one pass, reporting each failure on stderr."""
    failed = 0
    for i, out in enumerate(outcomes):
        if isinstance(out, Exception):
            msgs = ["".join(traceback.format_exception(out)).rstrip()]
        else:
            try:
                msgs = workload.gate(out)
            except Exception:
                msgs = [traceback.format_exc().rstrip()]
        if msgs:
            failed += 1
            print(f"{workload.name} operation {i} failed: " + "; ".join(msgs),
                  file=sys.stderr)
    return len(outcomes), failed


def probe(args, extra=()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *extra, str(HERE / "setup_probe.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return proc


def setup_seconds(args) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        probe(args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def import_cost(importtime_log: str, package: str) -> float:
    """Seconds spent importing `package`, counting the modules it pulls in:
    the cumulative time of each of its modules that no module of the same
    package imported.  The log lists a module after those it imports,
    indented by two spaces per level."""
    entries = []
    for line in importtime_log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip().split(".")[0], int(fields[1])))
    total_us = 0
    ancestors = []  # walking backwards, the stack holds a module's importers
    for depth, top, cum_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if top == package and all(a[1] != package for a in ancestors):
            total_us += cum_us
        ancestors.append((depth, top))
    return total_us * 1e-6


def import_seconds(args) -> tuple[float, float]:
    """Median over probes of the import cost of ptb and of scipy, from
    `python -X importtime`."""
    logs = [probe(args, ("-X", "importtime")).stderr for _ in range(IMPORTTIME_REPEATS)]
    return (statistics.median(import_cost(log, "ptb") for log in logs),
            statistics.median(import_cost(log, "scipy") for log in logs))


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
    }


def measure_end_to_end(workload, seconds, probe_args):
    import tracing
    setup_s = setup_seconds(probe_args)
    # counts the steps and samples of each pass; it wraps only the entry
    # points of integrate, a handful of calls per pass
    counter = tracing.Tracer(tracing.INTEGRATE_ALIASES, proxy_models=False)
    times = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while len(times) < MIN_PASSES or perf_counter() < deadline:
        elapsed, outcomes = counter.run("pass", run_pass, workload)
        times.append(elapsed)
        a, f = check(workload, outcomes)
        attempted, failed = attempted + a, failed + f
    work = [counter.totals(root)["attrs"] for root in counter.roots()]
    run_s = statistics.median(times)
    metrics = {
        "run_s": run_s,
        "steps_per_s": work[0]["steps_accepted"] / run_s,
        "samples_per_s": work[0]["samples"] / run_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(times), "pass_s": times,
            "steps_per_pass": work[0]["steps_accepted"], "samples_per_pass": work[0]["samples"],
            "work_repeats": all(w == work[0] for w in work)}
    return metrics, info, attempted, failed


def measure_per_layer(workload, seconds, probe_args, trace_path):
    import tracing
    import_s, scipy_s = import_seconds(probe_args)
    tracer = tracing.Tracer()
    plain, traced = [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
        for times, runner in ((plain, run_pass),
                              (traced, lambda w: tracer.run("pass", run_pass, w))):
            elapsed, outcomes = runner(workload)
            times.append(elapsed)
            a, f = check(workload, outcomes)
            attempted, failed = attempted + a, failed + f
    per_pass = [tracing.layer_metrics(tracer.totals(root)) for root in tracer.roots()]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics.update({
        "setup.import_s": import_s,
        "setup.scipy_import_s": scipy_s,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    })
    tracer.write(trace_path)
    info = {"passes": len(plain), "pass_s": plain, "traced_pass_s": traced,
            "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info, attempted, failed


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ptb" / "__init__.py").is_file():
        print(f"error: no ptb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ptb
    if Path(ptb.__file__).resolve().parent != SRC / "ptb":
        print(f"error: imported ptb from {ptb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(out_dir))
        probe_args = [args.workload, str(args.seed), str(out_dir)]
        if args.trace:
            declared = spec["per_layer"]
            metrics, info, attempted, failed = measure_per_layer(
                workload, args.seconds, probe_args, out_root / f"trace_{args.workload}.csv")
        else:
            declared = spec["end_to_end"]
            metrics, info, attempted, failed = measure_end_to_end(
                workload, args.seconds, probe_args)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
