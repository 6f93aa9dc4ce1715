"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 10 --trace 0

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs one untraced and one traced pass and reports the per-layer
metrics. Times are in reference seconds (see speed.py). The last line of standard output is the result object. It imports
torickstab from `src/` in the parent of this directory and exits with code 2,
printing no result, when that package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

# One client on one core: BLAS worker threads would compete with it for the
# second core of a small shared box and make the timings jumpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2       # fresh processes that repeat the set-up; the median includes this one
# Timed passes per run at the least; an op's latency is its mean over them. A
# `solve` pass takes 15-25 s, so a second one would not fit the time that all
# runs of the benchmark may take together.
MIN_PASSES = {"solve": 1, "metric": 3, "exact": 3}

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
WORKLOADS = ("solve", "metric", "exact")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating passes over the ops until this much time has gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit (used internally)")
    return parser.parse_args(argv)


def setup(workload, seed):
    """Import, input generation and warm-up; returns (ops, set-up seconds in reference time)."""
    before = speed.sample()
    start = time.perf_counter()
    # imported here so that importing torickstab counts in the set-up time
    import gen
    import workloads

    if workload == "solve":
        ops = workloads.solve_ops(gen.solve_inputs())
    elif workload == "metric":
        ops = workloads.metric_ops(gen.metric_inputs(seed))
    else:
        ops = workloads.exact_ops(gen.exact_inputs(seed))
    workloads.warm_up()
    seconds = time.perf_counter() - start
    return ops, speed.scaled(seconds, [before, speed.sample(), speed.sample()])


def setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def harrell_davis_median(values):
    """Harrell-Davis estimate of the median.

    It is the mean of the order statistics weighted by a Beta((n+1)/2, (n+1)/2)
    density. The ops of a pass differ in cost by orders of magnitude, so the
    plain sample median jumps whenever two ops near the middle swap places;
    this estimate moves smoothly instead.
    """
    x = sorted(values)
    n, a, steps = len(x), (len(x) + 1) / 2, 64
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    weights = [sum(math.exp(log_norm + (a - 1) * (math.log(t) + math.log1p(-t)))
                   for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def failures(passes, verdict):
    return sum(1 for p in passes for o in p.outcomes
               if o.status != "ok" or o.op in verdict.wrong)


def summary(workload, seed, passes, verdict, metrics):
    attempted = sum(len(p.outcomes) for p in passes)
    failed = failures(passes, verdict)
    lines = [f"workload {workload} seed {seed}: {len(passes)} pass(es), "
             f"{[len(p.outcomes) for p in passes]} ops, "
             f"fail_rate {failed}/{attempted} = {failed / attempted:.4f}"]
    for op_id, reason in verdict.failed.items():
        lines.append(f"  failed {op_id}: {reason}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines), attempted, failed


def split(ops):
    """The timed ops, and the known stalls that run once outside the timed passes."""
    import workloads

    return ([op for op in ops if op.id not in workloads.UNTIMED],
            [op for op in ops if op.id in workloads.UNTIMED])


def op_costs(passes):
    """Each op's mean latency over the passes, given as lists of latencies."""
    return [statistics.fmean(latencies) for latencies in zip(*passes)]


def measure(args, harness, ops, own_setup):
    timed, untimed = split(ops)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES[args.workload] or time.perf_counter() - start < args.seconds:
        passes.append(harness.run_pass(timed, reference=True))
    once = harness.run_pass(untimed)
    # read before the oracles run, so that their own integrations cannot set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = harness.check(timed, passes)
    harness.check(untimed, [once], verdict)
    costs = op_costs([speed.scaled_latencies(p) for p in passes])
    raw = op_costs([[o.seconds for o in p.outcomes] for p in passes])
    print(f"measured: the ops' mean latencies sum to {sum(raw):.4g} s, "
          f"{sum(costs):.4g} s in reference time")
    values = {
        "wall_s": sum(costs),
        "op_p50_s": harrell_davis_median(costs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples(args, own_setup)),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return passes + ([once] if untimed else []), verdict, metrics


def measure_traced(harness, ops):
    import tracing

    timed, untimed = split(ops)
    untraced = harness.run_pass(timed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = harness.run_pass(timed, tracer)
        once = harness.run_pass(untimed, tracer)
    finally:
        tracer.uninstall()
    verdict = harness.check(timed, [untraced, traced])
    harness.check(untimed, [once], verdict)
    deadline = {o.op for o in traced.outcomes + once.outcomes if o.status == "deadline"}
    values = tracing.layer_metrics(tracer, deadline)
    values["trace.overhead_s"] = traced.seconds - untraced.seconds
    metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
    return [untraced, traced] + ([once] if untimed else []), verdict, metrics


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "torickstab" / "__init__.py").is_file():
        print(f"error: no torickstab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    ops, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(own_setup)
        return 0
    import harness

    if args.trace:
        passes, verdict, metrics = measure_traced(harness, ops)
    else:
        passes, verdict, metrics = measure(args, harness, ops, own_setup)
    text, attempted, failed = summary(args.workload, args.seed, passes, verdict, metrics)
    print(text)
    print(json.dumps({"correct": not verdict.wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
