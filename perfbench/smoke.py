"""Harness smoke check on tiny inputs; exits non-zero on the first failure.

    python3 perfbench/smoke.py

Runs every workload at the ``tiny`` scale untraced and traced, and checks
that every metric is emitted under a valid name, that the last line carries
exactly the metrics BENCHMARK.json lists, that
the traced passes of each seed-independent workload count the same work
within a run and across seeds, that the tracer left no wrapper behind (the
worker raises if it did), and that a second seed moves the sample points of
the seeded workloads but no verdict.
"""

from __future__ import annotations

import json
import os
import re
import sys

import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
PRINTED = ("wall_norm_s", "wall_s", "machine_speed", "setup_s", "item_p50_s", "item_tail_s",
           "peak_rss_mb", "failed_ratio")


def expect(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


def bench(workload: str, seed: int, trace: int) -> dict:
    doc = run.run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace), "--scale", "tiny"])
    line = run.summary_line(doc)
    result = doc["workloads"][workload]
    expect(line["correct"] and not line["failed"],
           f"{workload} trace={trace} seed={seed}: {result['errors']}")
    return {"line": line, "result": result}


def observed(got: dict) -> list:
    return [(i["name"], i["observed"]) for p in got["result"]["passes"] for i in p["items"]]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    printed = {0: list(PRINTED), 1: listed[1]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            got = bench(workload, 1, trace)
            names = list(got["result"]["metrics"])
            bad = [n for n in names if not NAME.match(n)]
            missing = [n for n in printed[trace] if n not in names]
            expect(not bad and not missing, f"{workload} trace={trace}: bad {bad}, missing {missing}")
            expect(list(got["line"]["metrics"]) == listed[trace], f"{workload}: last line")
        if WORKLOADS[workload].deterministic:
            expect(len(got["result"]["passes"]) == 3, f"{workload}: no second traced pass")
            again = bench(workload, 2, 1)["result"]["counts"]
            expect(again == got["result"]["counts"], f"{workload}: counts moved with the seed")
        else:
            one, two = observed(bench(workload, 1, 0)), observed(bench(workload, 2, 0))
            expect([n for n, _ in one] == [n for n, _ in two], f"{workload}: items differ by seed")
            expect(one != two, f"{workload}: a second seed did not move the sample points")
        print(f"smoke {workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
