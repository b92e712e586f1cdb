"""blocksep benchmark: time to a verdict on four workloads, end to end and per layer.

    python3 perfbench/run.py --workload sym-coulomb --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Closed loop, one client: every pass and every set-up probe is a fresh
interpreter started only after the previous one ended, running with
``jobs=1``, BLAS pinned to one thread and a fixed hash seed.  With
``--trace 0`` a run makes as many whole passes as fit ``--seconds`` at the
workload's nominal pass time, with 24 set-up probes spread around them,
and reports the end-to-end metrics; each pass samples the machine's speed
while it runs (``speed.py``), and ``wall_norm_s`` is its wall time at the
reference speed.  With ``--trace 1`` it makes one
untraced and one traced pass (plus a second traced pass, whose counts must
match, for a seed-independent workload) and reports the per-layer metrics;
the traced pass writes its spans to ``perfbench/out``.  Every item's
verdict is checked; the last line of standard output is one JSON object,
and the exit code is 1 when a check failed and 2 on a usage or build error.
"""

from __future__ import annotations

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
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from speed import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 24
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
RUN_BUDGET_S = 170.0  # every run, children included, ends within this
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HASH_SEED = "0"


class Failure(Exception):
    """A usage or build error: the run prints no result."""


def fingerprint() -> dict:
    """Where the numbers were measured; compare only equal fingerprints."""
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": int(BLAS_THREADS),
        "pythonhashseed": HASH_SEED,
    }


def build():
    """The program is pure Python: check it is there and byte-compile it."""
    package = os.path.join(SRC, "blocksep")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise Failure(f"no blocksep package under {SRC}")
    if not compileall.compile_dir(package, quiet=1):
        raise Failure("blocksep does not compile")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = HASH_SEED
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def spawn(workload, seed, kind, scale, trace, deadline, spans_out=None) -> dict:
    """Run one child to completion; its failure is returned as ``error``."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--kind", kind, "--scale", scale, "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"error": f"{kind} child exceeded the run budget"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{kind} child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": f"{kind} child printed no result: {lines[-1][:200]!r}"}


def tail(values: list):
    """(value, label) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], "max"
    k = n - TAIL_BEYOND
    return ordered[k - 1], f"p{100 * k // n}"


def passes_for(workload: str, seconds: int, scale: str) -> int:
    """Whole passes that fit ``seconds`` at the nominal pass time; the count
    depends only on the arguments, so every run pools the same sample size."""
    if scale == "tiny":
        return 1
    return max(1, int(seconds // WORKLOADS[workload].nominal_pass_s))


def collect(children: list) -> dict:
    """Items, attempts and failures over the passes of one run."""
    passes = [c for c in children if "wall_s" in c or "error" in c]
    attempted = failed = 0
    good = []
    errors = []
    for c in passes:
        items = c.get("items", [])
        bad = [i for i in items if not i["ok"]]
        if c.get("error") or not items:
            errors.append(c.get("error") or "pass produced no items")
            attempted += max(len(items), 1)
            failed += max(len(items), 1)
            continue
        attempted += len(items)
        failed += len(bad)
        errors.extend(f"{i['name']}: {i['observed']} {i['detail']}" for i in bad)
        if not bad:
            good.append(c)
    return {"passes": passes, "good": good, "attempted": attempted, "failed": failed,
            "errors": errors}


def end_to_end(workload, seed, seconds, scale) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    n = passes_for(workload, seconds, scale)
    setups, passes = [], []
    # the probes are spread over the gaps around the passes, so set-up time is
    # sampled across the run rather than in its first seconds
    for gap in range(n + 1):
        probes = SETUP_PROBES * (gap + 1) // (n + 1) - SETUP_PROBES * gap // (n + 1)
        setups += [spawn(workload, seed, "setup", scale, 0, deadline) for _ in range(probes)]
        if gap < n:
            passes.append(spawn(workload, seed, "pass", scale, 0, deadline))
    got = collect(passes)
    for s in setups:
        if "error" in s:
            got["errors"].append(s["error"])
    # a pass that failed a check is not reported as a timing
    timed = got["good"] or [p for p in got["passes"] if "wall_s" in p]
    setup_s = [c["setup_s"] for c in setups if "setup_s" in c]
    items = [i["seconds"] for p in timed for i in p.get("items", []) if i["ok"]] or [0.0]
    tail_value, tail_label = tail(items)
    speed = [NOMINAL_S / p["speed_ref_s"] for p in timed if "speed_ref_s" in p]
    norm = [p["wall_s"] * NOMINAL_S / p["speed_ref_s"] for p in timed if "speed_ref_s" in p]
    metric = {
        "wall_norm_s": (median(norm), "s", len(norm), "median pass at reference speed"),
        "wall_s": (median([p["wall_s"] for p in timed]), "s", len(timed), "median pass"),
        "machine_speed": (median(speed), "ratio", len(speed), "median pass, reference = 1"),
        "setup_s": (median(setup_s), "s", len(setup_s), "median set-up probe"),
        "item_p50_s": (statistics.median(items), "s", len(items), "median item"),
        "item_tail_s": (tail_value, "s", len(items), f"{tail_label} item"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in timed]), "MB", len(timed), "median pass"),
        "failed_ratio": (got["failed"] / max(got["attempted"], 1), "ratio", got["attempted"], "items"),
    }
    return {"metrics": metric, **got}


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def traced(workload, seed, scale) -> dict:
    """One untraced and one traced pass; a seed-independent workload makes a
    second traced pass, whose call and work counts must equal the first's."""
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    spans_out = os.path.join(OUT, f"spans-{workload}-{scale}-seed{seed}.json.gz")
    plain = spawn(workload, seed, "pass", scale, 0, deadline)
    with_trace = spawn(workload, seed, "pass", scale, 1, deadline, spans_out)
    children = [plain, with_trace]
    if WORKLOADS[workload].deterministic:
        children.append(spawn(workload, seed, "pass", scale, 1, deadline))
    got = collect(children)
    metric = {}
    if "layers" in with_trace and "wall_s" in plain:
        metric = {name: (value, unit, 1, "traced pass")
                  for name, (value, unit) in with_trace["layers"].items()}
        metric["trace.overhead_s"] = (with_trace["wall_s"] - plain["wall_s"], "s", 1,
                                      "traced minus untraced pass")
        for again in children[2:]:
            compare_counts(with_trace["counts"], again.get("counts", {}), got)
    else:
        got["errors"].append("traced pass produced no layer metrics")
        got["failed"] += 1
    return {"metrics": metric, "counts": with_trace.get("counts", {}), **got}


def compare_counts(first: dict, second: dict, got: dict):
    """Two traced passes of a deterministic workload must count the same work."""
    if first != second:
        diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        got["errors"].append(f"the two traced passes counted different work: {diff}")
        got["failed"] += 1


def measure(workload, seed, seconds, trace, scale) -> dict:
    if trace:
        return traced(workload, seed, scale)
    return end_to_end(workload, seed, seconds, scale)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="blocksep benchmark")
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)} or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the harness smoke check")
    return ap.parse_args(argv)


def run(argv=None) -> dict:
    """Measure and return the result document; raises Failure on usage errors."""
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        raise Failure(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        raise Failure("--seconds must be at least 1")
    reported = reported_metrics(args.trace)
    build()
    env = fingerprint()
    results = {n: measure(n, args.seed, args.seconds, args.trace, args.scale) for n in names}
    doc = {"fingerprint": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "scale": args.scale, "reported": reported, "workloads": results}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.scale}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def reported_metrics(trace: int) -> list:
    """The metrics BENCHMARK.json lists for this mode; a run prints more."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise Failure(f"cannot read BENCHMARK.json: {exc}") from exc
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def summary_line(doc: dict) -> dict:
    results = doc["workloads"]
    single = len(results) == 1
    metrics = {}
    for wname, res in results.items():
        for name in doc["reported"]:
            if name in res["metrics"]:
                value, unit, _, _ = res["metrics"][name]
                metrics[name if single else f"{wname}.{name}"] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0 and not any(r["errors"] for r in results.values()),
            "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    try:
        doc = run(argv)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("fingerprint " + json.dumps(doc["fingerprint"], sort_keys=True))
    for wname, res in doc["workloads"].items():
        for name, (value, unit, n, how) in res["metrics"].items():
            print(f"{wname:15s} {name:40s} {value:14.6g} {unit:11s} n={n} ({how})")
        for err in res["errors"]:
            print(f"{wname:15s} CHECK FAILED: {err}")
    line = summary_line(doc)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
