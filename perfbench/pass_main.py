"""One pass of one workload in a fresh interpreter.

Started by run.py; not meant to be run by hand.  Timestamps are taken with
CLOCK_MONOTONIC, which is shared by every process on the machine, so the
parent can subtract its own spawn time from ``t_ready`` to get the set-up
time including interpreter start.

Prints one JSON object on standard output.
"""

import argparse
import json
import pathlib
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up (a set-up time sample)")
    args = ap.parse_args()

    src = pathlib.Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import satkit
    import satkit.cli  # noqa: F401  (a CLI user pays for this import too)

    if not pathlib.Path(satkit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported satkit from {satkit.__file__}, not from {src}")

    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    t_ready = _now()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return
    results = []
    for op in ops:
        if tracer:
            tracer.op_begin()
        t0 = _now()
        counts, detail = workloads.run_op(op)
        ms = (_now() - t0) * 1000
        row = {"name": op.name, "counts": counts, "detail": detail, "ms": ms, "note": op.note}
        if tracer and op.baseline:
            row["baseline"] = {op.baseline: tracer.op_baseline(op.baseline)}
        results.append(row)
    t_done = _now()

    out = {
        "t_ready": t_ready,
        "t_done": t_done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
        "caches": _cache_state(),
    }
    if tracer:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))


def _cache_state():
    """cache_info() of the two program caches the report covers; read only."""
    from satkit.diagram import canonical
    from satkit.invariants import alexander_poly

    state = {}
    for name, fn in (("alexander_poly", alexander_poly), ("canonical", canonical)):
        fn = getattr(fn, "__wrapped_original__", fn)
        info = fn.cache_info()
        state[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return state


if __name__ == "__main__":
    main()
