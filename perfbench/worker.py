"""One measured process: set up a workload, optionally run one pass, report.

Started by ``run.py`` as a fresh interpreter for every pass and every set-up
probe.  It prints one JSON object as its last line of standard output.
Times come from ``time.monotonic``, which is one clock for every process on
the machine, so set-up time starts at the parent's spawn timestamp.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import sys
import time
import traceback


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--kind", choices=("setup", "pass"), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import blocksep.cli  # noqa: F401  (the import a CLI user pays for)

    imported = time.monotonic()
    sampler = None
    if args.kind == "pass" and not args.trace:  # a traced pass is timed per span instead
        from speed import SpeedSampler

        sampler = SpeedSampler()
        sampler.start()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.scale, args.seed)
    if sampler and hasattr(state, "excluded"):
        state.excluded = lambda: sampler.spent
    set_up = time.monotonic()
    result = {"setup_s": set_up - args.spawned_at - (sampler.spent if sampler else 0.0)}
    if args.kind == "pass":
        result.update(one_pass(wl, state, args, imported, sampler))
    print(json.dumps(result))
    return 0


def one_pass(wl, state, args, imported: float, sampler) -> dict:
    import layers
    from tracer import ItemClock, Patcher, Tracer

    patcher = Patcher()
    clock = ItemClock(lambda: sampler.spent) if sampler else ItemClock()
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer, patcher)
    if wl.clock_target is not None:
        module, name = wl.clock_target
        patcher.wrap_function(sys.modules[module], name, clock.make)
    error = None
    try:
        outputs = wl.run(state)
    except Exception:  # the pass is reported as failed, not as a timing
        outputs, error = None, traceback.format_exc()
    ended = time.monotonic()
    if sampler:
        sampler.stop()
    patcher.restore()
    out = {"wall_s": ended - imported,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if sampler:
        out["wall_s"] -= sampler.spent
        out["speed_ref_s"] = sampler.reference_s()
        out["speed_samples"] = len(sampler.samples)
    items = []
    if error is None:
        try:
            items = wl.check(state, outputs, clock.seconds)
        except Exception:
            error = traceback.format_exc()
    out["error"] = error
    out["items"] = [vars(i) for i in items]
    if tracer is not None:
        out["counts"] = layers.repeatable_counts(tracer)
        out["layers"] = layers.metrics(tracer)
        if args.spans_out:
            with gzip.open(args.spans_out, "wt") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "columns": ["name", "start", "end", "parent"],
                           "spans": tracer.span_rows()}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
