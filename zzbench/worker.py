"""One benchmark process: set-up, timed passes and reference checks.

Started by ``run.py`` with ``PYTHONHASHSEED`` fixed and ``src`` on
``PYTHONPATH``; prints one JSON object as its last stdout line.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

A pass runs the workload's whole op list once.  Only the ops are timed;
the reference checks run between them, outside the timed region.  With
``--trace 1`` untraced and traced passes alternate, so the per-layer
numbers and the tracing overhead come from one process.

Times are reported twice: as measured (``*_wall_s``) and at reference
speed.  The machine is shared and its speed drifts by up to 2x over
seconds, so a fixed piece of reference work is timed before the first op
and after every op; a pass's wall time is scaled by REFERENCE_S over the
mean of those reference times.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the first line)
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_FAILURES_SHOWN = 5
# Nominal time of reference_seconds(): reference seconds are wall seconds
# on a machine where the reference work takes exactly this long.
REFERENCE_S = 0.010
SETUP_REFERENCE_SAMPLES = 5
SPAN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def reference_seconds():
    """Wall time of fixed exact arithmetic that does not touch zzlie.

    The collector is off meanwhile, so the time does not depend on how many
    objects the program under test keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for n in range(1, 1200):
            f = Fraction(n, 7) * Fraction(3, n + 2) + Fraction(1, n)
            key = (n % 17, n % 5)
            acc[key] = acc.get(key, 0) + f
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []


def run_pass(workloads, ops, runs, tally, tracer=None):
    """Run every op once; returns the pass record with its timings and counts."""
    wall_s = 0.0
    reference = [reference_seconds()]
    items = 0
    bytes_out = 0
    for op, run in zip(ops, runs):
        error = None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an op that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            wall_s += time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        reference.append(reference_seconds())
        tally.attempted += 1
        if error is None:
            if op.name in workloads.CLI_OPS:
                bytes_out += len(result[1].encode())
            try:
                ok, n, message = workloads.check(op, result)
            except Exception as exc:  # a malformed result fails its check
                ok, n, message = False, 0, f"check raised {type(exc).__name__}: {exc}"
            items += n
            if not ok:
                error = message
        if error is not None:
            tally.failed += 1
            if len(tally.failures) < MAX_FAILURES_SHOWN:
                tally.failures.append(f"{op}: {error}")
    reference_s = statistics.mean(reference)
    return {
        "job_s": wall_s * REFERENCE_S / reference_s,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "items": items,
        "bytes_out": bytes_out,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    ops = workloads.generate(args.workload, args.seed)
    runs = [workloads.prepare(op) for op in ops]
    setup_wall_s = time.perf_counter() - _START
    reference_s = statistics.mean(
        reference_seconds() for _ in range(SETUP_REFERENCE_SAMPLES)
    )
    setup = {
        "setup_s": setup_wall_s * REFERENCE_S / reference_s,
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tally = Tally()
    untraced, traced, layers = [], [], []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(run_pass(workloads, ops, runs, tally))
        if tracer is not None:
            tracer.clear()
            record = run_pass(workloads, ops, runs, tally, tracer)
            traced.append(record)
            metrics = tracer.layer_metrics()
            metrics["cli.bytes_out"] = (record["bytes_out"], "bytes")
            layers.append(metrics)
        enough = len(untraced) >= (MIN_TRACED_PASSES if tracer else MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    out = dict(
        setup,
        passes=untraced,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        hash_seed=os.environ.get("PYTHONHASHSEED"),
    )
    if tracer is not None:
        out["trace_restored"] = tracer.restored()
        per_layer = {
            name: {"value": statistics.median_low(m[name][0] for m in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        overhead = (
            statistics.median(p["job_s"] for p in traced)
            / statistics.median(p["job_s"] for p in untraced)
            - 1
        )
        per_layer["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        out["per_layer"] = per_layer
        os.makedirs(SPAN_DIR, exist_ok=True)
        out["spans"] = os.path.join(SPAN_DIR, f"spans-{args.workload}.csv")
        tracer.write_spans(out["spans"])  # the last traced pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
