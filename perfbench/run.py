"""Run one gforest benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gf-bulk --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program under
test is the checkout's src/gforest, imported from source.  Each iteration
is one fresh worker process (perfbench/worker.py), so every iteration
starts with cold caches as each CLI call does.  Iterations run one after
another, never two at once: one, and then another whenever it is expected
(from the mean so far) to end within --seconds of the start.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with run and
query times in reference seconds: wall time scaled by the machine speed
measured during the run (calibrate.py), so that the host's drift divides
out;
--trace 1
alternates untraced and traced iterations and reports the per-layer
metrics, including trace.overhead_s.  Every metric is printed as
"name value unit", and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit status is 0 when a
result was printed (check "correct" for the outputs), otherwise nonzero.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# Seeds 1-15 were used while writing the benchmark; this one was not, and
# is kept for checking a later gain claim on inputs it was not tuned on.
HOLDOUT_SEED = 7177
# Set-up probes before each iteration, so that they are spread over the run.
PROBES_PER_ITERATION = 5
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def hermetic_env() -> dict:
    """The caller's environment without GFOREST_* and PYTHON* settings.

    GFOREST_ORDER changes the order coefficient_poly works to, and PYTHON*
    settings change what the interpreter imports and how it hashes; the
    hash seed is fixed so set iteration order, and with it the closures'
    work, is the same in every run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GFOREST_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env, *args) -> dict:
    cmd = [sys.executable, "-s", WORKER, "--spawn-t", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args, env):
    """Run iterations for args.seconds; return (setup samples, untraced, traced)."""
    setups = []
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.corrupt:
        common += ["--corrupt", args.corrupt]
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        setups += [spawn(env, "--probe")["setup_s"] for _ in range(PROBES_PER_ITERATION)]
        untraced.append(spawn(env, *common))
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            dump = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{len(traced)}.json"
            )
            traced.append(spawn(env, *common, "--trace", "1", "--trace-out", dump))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break
    setups += [r["setup_s"] for r in untraced + traced]
    return setups, untraced, traced


def end_to_end(setups, untraced) -> dict:
    """Medians over the iterations.

    Each worker has scaled its run and query times to reference seconds by
    the machine speed it measured (calibrate.py).  Set-up, measured in
    other processes, is scaled by the median of the workers' factors: it
    tracks the speed less closely than the workload does, but unscaled it
    moved by a third between runs an hour apart.
    """
    factor = statistics.median(r["factor"] for r in untraced)
    out = {"setup_s": statistics.median(setups) * factor}
    for name in ("run_s", "peak_rss_mb", "query_p50_ms", "query_p95_ms"):
        out[name] = statistics.median(r[name] for r in untraced)
    return out


def per_layer(untraced, traced) -> dict:
    out = {
        name: statistics.median(t["per_layer"][name] for t in traced)
        for name in traced[0]["per_layer"]
    }
    # Raw wall times on both sides: traced iterations are not calibrated.
    out["trace.overhead_s"] = statistics.median(
        t["raw_run_s"] for t in traced
    ) - statistics.median(r["raw_run_s"] for r in untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["gf-bulk", "query-mix", "enumerate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the self-test's sizes")
    parser.add_argument("--corrupt", default=None, metavar="KIND:N:K",
                        help="alter one expected row (self-test)")
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "gforest", "__init__.py")):
            raise BenchError(f"no gforest sources under {ROOT}/src")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        # Compile once, before any timing, so set-up never includes it.
        for path in (os.path.join(ROOT, "src"), HERE):
            if not compileall.compile_dir(path, quiet=1):
                raise BenchError(f"could not compile {path}")
        setups, untraced, traced = measure(args, hermetic_env())
        values = per_layer(untraced, traced) if args.trace else end_to_end(setups, untraced)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = untraced + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "iterations": len(untraced),
        "traced_iterations": len(traced),
        "setup_samples": len(setups),
        "speed_factor": statistics.median(r["factor"] for r in untraced) if untraced else None,
        "queries_per_iteration": untraced[0]["queries"],
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        samples = {
            "setup_s": setups,
            "run_s": [r["run_s"] for r in untraced],
            "raw_run_s": [r["raw_run_s"] for r in untraced],
            "factor": [r["factor"] for r in untraced],
            "query_p50_ms": [r["query_p50_ms"] for r in untraced],
            "raw_query_p50_ms": [r["raw_query_p50_ms"] for r in untraced],
            "query_p95_ms": [r["query_p95_ms"] for r in untraced],
            "raw_query_p95_ms": [r["raw_query_p95_ms"] for r in untraced],
            "reference_passes": [r["reference_passes"] for r in untraced],
            "traced_run_s": [r["raw_run_s"] for r in traced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        json.dump({"record": record, "samples": samples, **result}, fh, indent=1)

    print("record " + json.dumps(record))
    for r in runs:
        for failure in r["failures"]:
            print("FAILED " + failure)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops_failed {failed}/{attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
