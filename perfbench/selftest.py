"""Fast self-test of the benchmark at tiny sizes (order 6, n <= 6, 20 queries).

    python3 perfbench/selftest.py

For each workload, an untraced and a traced run must print every metric
named in BENCHMARK.json as a number and report no failed operation, and
a run with one expected row altered must report failed > 0.  Finally, a
copy of the benchmark without the program's sources must exit nonzero
without printing a result.  Takes about fifteen seconds.
"""

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import SIZES, query_stream  # noqa: E402

SEED = 1


def run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", str(SEED),
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    return last


def corrupt_row(workload):
    """A row the tiny run of the workload is sure to check."""
    if workload != "query-mix":
        return "grass-forest:4:2"
    stream = query_stream(SIZES["tiny"]["query-mix"], random.Random(SEED))
    _, kind, n, k = next(q for q in stream if q[0] == "coeff")
    return f"{kind.value}:{n}:{k}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(run("--workload", workload, "--size", "tiny", "--trace", str(trace)))
            names = [m["name"] for m in spec[key]]
            assert sorted(res["metrics"]) == sorted(names), (workload, trace)
            for name in names:
                value = res["metrics"][name]["value"]
                assert isinstance(value, (int, float)), (workload, name, value)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
        res = result(run("--workload", workload, "--size", "tiny", "--trace", "0",
                         "--corrupt", corrupt_row(workload)))
        assert res["failed"] > 0 and not res["correct"], (workload, res)
        print(f"ok {workload}: all metrics emitted; corrupted row caught "
              f"({res['failed']}/{res['attempted']} failed)")

    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("--workload", "gf-bulk", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok without sources: exit", proc.returncode)


if __name__ == "__main__":
    main()
