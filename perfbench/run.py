"""Seeded benchmark of mooredual: one workload per run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload minimize-corpus --seed 1 --seconds 50 --trace 0

The benchmark is a closed loop with one client: it sends the next operation
only after the previous one returns, and nothing else runs alongside.
Inputs are generated from --seed; mooredual only sees their text.  A
workload is a cycle of operations, repeated until --seconds have passed (at
least twice whole).  Each operation's latency is the least of its repeats,
which keeps bursts of other work on a shared host from reading as a slower
mooredual; throughput, median and tail are taken over those per-operation
latencies.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run, and the spans and sizes of
the traced operations are written to perfbench/out/.  A workload may add
operations that the traced run sends once each after its timed halves (large
machines, commands in a fresh interpreter), and then the known defects.  --smoke shrinks every
workload so that all of them, with every output check, finish in seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 12.0        # per operation: 3x the slowest operation, 1/4 of the k=24 defect
SMOKE_DEADLINE_S = 3.0
SETUP_SAMPLES = 11
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def tail(latencies):
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (TAIL_LADDER[0], ordered[max(0, math.ceil(n / 2) - 1)])
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


class SetupClock:
    """Seconds from starting an interpreter to mooredual imported, sampled through the run.

    Called between two operations, it takes one sample every
    ``seconds / SETUP_SAMPLES``, so that the median does not hang on one
    moment of a shared host.  The first start also writes bytecode caches
    and is not counted.
    """

    def __init__(self, env, seconds):
        self.env = env
        self.step = seconds / SETUP_SAMPLES
        self.times = []
        self._start()
        self.due = perf_counter()

    def _start(self):
        code = "import sys, mooredual; sys.stdout.write('ready\\n'); sys.stdout.flush()"
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True)
        with proc:
            ready = proc.stdout.readline()
            seconds = perf_counter() - t0
        if ready != "ready\n" or proc.returncode != 0:
            raise RuntimeError("mooredual did not import in a fresh interpreter")
        return seconds

    def __call__(self):
        if len(self.times) < SETUP_SAMPLES and perf_counter() >= self.due:
            self.times.append(self._start())
            self.due += self.step

    def median(self):
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(self._start())
        return statistics.median(self.times)


def status_kb(key):
    """A memory figure of this process, such as VmRSS or its high-water mark VmHWM."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RuntimeError("%s missing from /proc/self/status" % key)


def import_library():
    """Import mooredual from this checkout's src/, never from anywhere else."""
    if not (SRC / "mooredual" / "__init__.py").is_file():
        sys.exit("perfbench: %s/mooredual not found; run from a full checkout" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import mooredual

    if Path(mooredual.__file__).resolve().parent != SRC / "mooredual":
        sys.exit("perfbench: imported mooredual from %s, not this checkout" % mooredual.__file__)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = ap.parse_args(argv)

    import_library()
    import random

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        result = run(args, env, workdir, tracing, workloads, random.Random(args.seed),
                     out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def run(args, env, workdir, tracing, workloads, rng, out_dir):
    deadline = SMOKE_DEADLINE_S if args.smoke else DEADLINE_S
    ctx = workloads.Context(workdir=workdir, env=env, deadline_s=deadline)
    before_inputs_kb = status_kb("VmRSS")
    cycle = workloads.WORKLOADS[args.workload](rng, args.smoke, ctx)
    # Keep the benchmark's own inputs out of the collector's scans, so they
    # do not slow the library's allocations down.
    gc.collect()
    gc.freeze()
    inputs_kb = status_kb("VmRSS") - before_inputs_kb
    for warm in ctx.warm:
        warm()

    if not args.trace:
        setup = SetupClock(env, args.seconds)
        best, attempted, failures = workloads.measure(cycle, args.seconds, None, deadline, setup)
        # In-process, the high-water mark less the resident size of the
        # benchmark's own inputs and references.
        rss_kb = status_kb("VmHWM") - inputs_kb
        pct, tail_s = tail(best)
        beyond = len(best) - math.ceil(pct / 100 * len(best))
        report(args, attempted, failures, "latency_tail_ms is p%g of %d operations' "
               "best-of-%d latencies (%d beyond it)"
               % (pct, len(best), attempted // len(cycle), beyond))
        metrics = {
            "ops_per_s": (len(best) / sum(best), "1/s"),
            "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "setup_s": (setup.median(), "s"),
        }
        # failed_frac is printed here only: the result line carries metrics
        # that are never 0, and counts failures in its "failed" field.
        shown = dict(metrics, failed_frac=(len(failures) / attempted, "ratio"))
        print("; ".join("%s %.6g %s" % (name, value, unit) for name, (value, unit) in shown.items()))
    else:
        # Untraced then traced, each for half the time: the per-layer numbers
        # come from the traced half, the overhead from the difference (the
        # traced times leave out extra spans, so it is the spans' own cost).
        plain, plain_ops, failures = workloads.measure(cycle, args.seconds / 2, None, deadline)
        tr = tracing.Tracer()
        traced, traced_ops, more = workloads.measure(cycle, args.seconds / 2, tr, deadline)
        failures += more
        layers = tr.layer_metrics()
        base, with_trace = sum(plain), sum(traced)
        layers["trace.overhead_ms"] = (with_trace - base) / len(cycle) * 1e3
        layers["trace.overhead_pct"] = (with_trace - base) / base * 100
        # Operations sent once each under their own tracer, so that their
        # spans do not mix with the timed cycle's.
        once = tracing.Tracer()
        once_ops = ctx.once() if ctx.once else []
        for op in once_ops:
            once.begin(op.kind)
            try:
                reason = op.check(op.run(once))
            except Exception as e:  # a failing operation must not stop the run
                reason = "%s: %s" % (type(e).__name__, e)
            if reason is not None:
                failures.append((op.kind, reason))
        once_layers = once.layer_metrics()
        for name in ctx.once_layers:
            layers[name] = once_layers[name]
        probes = []
        for probe in ctx.probes:
            t0 = perf_counter()
            try:
                reason = probe.check(probe.run(None))
            except Exception as e:  # the defect shows as an exit code or a deadline
                reason = "%s: %s" % (type(e).__name__, e)
            probes.append({"op": probe.kind, "seconds": perf_counter() - t0, "failure": reason})
            print("%s: %s" % (probe.kind, reason or "passed"))
        layers["cli.exit_codes"] = sum(p["failure"] is not None for p in probes)
        attempted = plain_ops + traced_ops + len(once_ops)
        report(args, attempted, failures, "tracing overhead %.3f ms per operation (%.1f%%)"
               % (layers["trace.overhead_ms"], layers["trace.overhead_pct"]))
        trace_file = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "metrics": layers,
             "known_defects": probes, "operations": tr.records,
             "once": {"metrics": once_layers, "operations": once.records}}))
        metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report(args, attempted, failures, note):
    print("%s seed %d: %d operations, %d failed (failed_frac %.4f); %s"
          % (args.workload, args.seed, attempted, len(failures),
             len(failures) / attempted, note))
    for kind, reason in failures[:20]:
        print("  FAILED %s: %s" % (kind, reason))


if __name__ == "__main__":
    main()
