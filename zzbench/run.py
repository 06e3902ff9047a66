"""zzlie benchmark: seeded exact-arithmetic workloads, timed end to end.

    python3 zzbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.
Set-up time is the median of several fresh worker processes; the timed
passes run in one more worker.  Every worker gets the same fixed
``PYTHONHASHSEED``, because ``find_diagonal_isomorphism`` orders its
equations by iterating sets of string-tagged keys.

Times are in reference seconds: wall time scaled by the speed of a fixed
piece of reference work timed next to the ops (see ``worker.py``), since
the machine's speed drifts.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it gives quartiles and sample counts of
the reference-speed and raw wall times, and the error rate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
# Same as workloads.WORKLOADS (the self-test checks it); not imported from
# there because that module imports zzlie, which may be missing.
WORKLOADS = ("sweep-closed", "sweep-central", "recurrence", "modules")
HASH_SEED = "0"
SETUP_SAMPLES = 10
TIME_LIMIT_S = 170


def _worker(args, extra, env, deadline):
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the worker started")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "zzlie", "__init__.py")):
        print(f"error: no zzlie package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=SRC)
    try:
        # The first fresh process also compiles bytecode; it is not a sample.
        _worker(args, ["--setup-only"], env, deadline)
        setups = [
            _worker(args, ["--setup-only"], env, deadline) for _ in range(SETUP_SAMPLES)
        ]
        main_run = _worker(args, [], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(main_run)
    setup_s = statistics.median(s["setup_s"] for s in setups)

    passes = main_run["passes"]
    jobs = [p["job_s"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    rates = [p["items"] / p["job_s"] for p in passes]
    attempted, failed = main_run["attempted"], main_run["failed"]
    correct = failed == 0 and main_run.get("trace_restored", True)
    for failure in main_run["failures"]:
        print(f"failed: {failure}", file=sys.stderr)

    if args.trace:
        metrics = main_run["per_layer"]
    else:
        metrics = {
            "job_s": {"value": statistics.median(jobs), "unit": "s"},
            "items_per_s": {"value": statistics.median(rates), "unit": "items/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": main_run["peak_rss_mib"], "unit": "MiB"},
        }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pythonhashseed": main_run["hash_seed"],
        "job_s": _quartiles(jobs),
        "job_wall_s": _quartiles(walls),
        "reference_s": statistics.median(p["reference_s"] for p in passes),
        "setup_s": _quartiles([s["setup_s"] for s in setups]),
        "setup_wall_s": _quartiles([s["setup_wall_s"] for s in setups]),
        "error_rate": failed / attempted,
    }
    if args.trace:
        summary["spans"] = os.path.relpath(main_run["spans"], ROOT)
        summary["trace_restored"] = main_run["trace_restored"]
    print(json.dumps(summary))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
