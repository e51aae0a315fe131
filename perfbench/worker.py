"""One benchmark iteration in a fresh process (started by run.py).

The process imports gforest first and notes the time, so that set-up
(process spawn to `import gforest` done) is measured from the spawn time
the parent passes in.  It then runs one workload with cold caches, checks
the outputs after the timed phase, and prints one JSON object.  An
untraced iteration reports its times in reference seconds (calibrate.py);
a traced one reports raw wall times, with factor 1.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gforest  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

from gforest import cli, genfun, oracle, perms, ring, series, transforms  # noqa: E402

import tracing  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from workloads import SIZES, WORKLOADS, Expected, Log  # noqa: E402


def per_query(latency_ms, keys) -> list:
    """One latency per distinct query: the median of its repeats."""
    repeats = {}
    for ms, key in zip(latency_ms, keys):
        repeats.setdefault(key, []).append(ms)
    return [statistics.median(v) for v in repeats.values()]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--probe", action="store_true", help="only measure set-up")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--corrupt", default=None, help="kind:n:k row to alter")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    expected_src = os.path.join(ROOT, "src", "gforest")
    if os.path.dirname(os.path.abspath(gforest.__file__)) != expected_src:
        sys.exit(f"imported gforest from {gforest.__file__}, not {expected_src}")
    out = {"setup_s": READY - args.spawn_t}
    if args.probe:
        print(json.dumps(out))
        return

    expected = Expected(args.corrupt)
    rng = random.Random(args.seed)
    tracer = calibrator = None
    if args.trace:
        log = Log()
        clock = perf_counter
        tracer = tracing.Tracer()
        tracer.install(
            {"cli": cli, "genfun": genfun, "oracle": oracle, "perms": perms,
             "ring": ring, "series": series, "transforms": transforms}
        )
        tracer.on = True
    else:
        # Untraced: time the machine's speed throughout, and report times
        # in reference seconds (see calibrate.py).
        calibrator = Calibrator()
        calibrator.start()
        clock = calibrator.clock
        log = Log(clock)
    t0 = clock()
    WORKLOADS[args.workload](log, SIZES[args.size][args.workload], rng, expected)
    out["raw_run_s"] = clock() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.stop()
        out["factor"] = 1.0
    else:
        calibrator.stop()
        out["factor"] = calibrator.factor()
        out["reference_passes"] = len(calibrator.samples)
    out["run_s"] = out["raw_run_s"] * out["factor"]
    failed = log.check()
    out["attempted"] = len(log.records)
    out["failed"] = len(failed)
    out["failures"] = [f"{label}: {problem}"[:300] for label, problem in failed[:5]]
    # Per-iteration percentiles, so they do not depend on how many
    # iterations fit in the run.
    latency_ms = log.latency_ms
    if calibrator:
        latency_ms = [
            ms * calibrator.factor_at(t) for ms, t in zip(latency_ms, log.started)
        ]
    raw = per_query(log.latency_ms, log.query_keys)
    latency_ms = per_query(latency_ms, log.query_keys)
    out["queries"] = len(latency_ms)
    out["raw_query_p50_ms"] = statistics.median(raw)
    out["raw_query_p95_ms"] = statistics.quantiles(raw, n=20)[18]
    out["query_p50_ms"] = statistics.median(latency_ms)
    out["query_p95_ms"] = statistics.quantiles(latency_ms, n=20)[18]
    if tracer:
        out["per_layer"] = tracer.metrics()
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
