#!/usr/bin/env python3
"""satkit benchmark runner.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs passes of one workload (or of each, with ``all``) one after another,
each pass in a fresh interpreter so the program's caches start empty, until
``--seconds`` have passed (at least MIN_PASSES passes).  Every output is
checked; a wrong answer or an unexpected exception fails the run (exit 1).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics over the run's passes.  With ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Human-readable lines come
first.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("formula_ladder", "corpus_sweep", "winding_verdicts", "link_serialize")
MIN_PASSES = 3          # untraced passes per run, for a median
MIN_TRACED = 2          # traced passes per --trace 1 run
SETUP_SAMPLES = 15      # set-up times per run; set-up-only starts make up the count
RUN_LIMIT_S = 170       # a run never outlives this, whatever --seconds says

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("served_ratio", "ratio"),
)

# where each workload's time is meant to go
DOMINANT = {
    "formula_ladder": ("invariants",),
    "winding_verdicts": ("groups",),
    "link_serialize": ("diagram.canonical", "formats"),
    "corpus_sweep": (),
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop():
    """A fixed pure-Python loop; its time is a machine-noise record only."""
    t0 = _now()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return _now() - t0


def loadavg():
    """The 1, 5 and 15 minute load averages (read only)."""
    try:
        return [f"{x:.2f}" for x in os.getloadavg()]
    except OSError:
        return []


class RunFailed(Exception):
    pass


def run_pass(workload, seed, traced, workdir, deadline, setup_only=False):
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "pass_main.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} pass did not finish within the run limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RunFailed(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["t_ready"] - t_spawn
    if setup_only:
        return res
    res["wall_s"] = res["t_done"] - res["t_ready"]
    res["traced"] = traced
    return res


def lower_quartile(xs):
    """First quartile of the samples (the minimum below four samples).

    Pass times on a shared machine have a long slow tail that moves with
    other tenants' load; the lower quartile tracks the program, the median
    partly tracks the neighbours (see README.md for the measured spreads).
    """
    if len(xs) < 4:
        return min(xs)
    return statistics.quantiles(xs, n=4)[0]


def _counts(res):
    n = {"attempted": 0, "ok": 0, "refused": 0, "failed": 0}
    for op in res["ops"]:
        for status, k in op["counts"].items():
            n["attempted"] += k
            n[status] += k
    return n


def run_workload(workload, seed, seconds, trace, work):
    start = _now()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        untraced = [p for p in passes if not p["traced"]]
        traced_n = len(passes) - len(untraced)
        enough = len(untraced) >= (1 if trace else MIN_PASSES) and (not trace or traced_n >= MIN_TRACED)
        elapsed = _now() - start
        if enough and elapsed >= seconds:
            break
        slow = passes and elapsed + 2 * (passes[-1]["setup_s"] + passes[-1]["wall_s"]) > RUN_LIMIT_S
        if slow and untraced and (traced_n or not trace):
            break  # a very slow machine: stop with fewer passes rather than overrun
        traced = bool(trace) and len(passes) % 2 == 1
        res = run_pass(workload, seed, traced, work / f"pass-{len(passes)}", deadline)
        passes.append(res)
        if _counts(res)["failed"]:
            break  # a wrong answer: stop and report it
    setups = [p["setup_s"] for p in passes if not p["traced"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        probe = run_pass(workload, seed, False, work / f"setup-{len(setups)}", deadline, setup_only=True)
        setups.append(probe["setup_s"])
    return passes, setups, _now() - start


def summarize(workload, seed, passes, setups, elapsed, trace):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    totals = {"attempted": 0, "ok": 0, "refused": 0, "failed": 0}
    for p in passes:
        for k, v in _counts(p).items():
            totals[k] += v
    lines = [f"== {workload}  seed {seed}  passes {len(untraced)} untraced"
             + (f" + {len(traced)} traced" if trace else "") + f"  run {elapsed:.1f} s"]
    wall = [p["wall_s"] for p in untraced]
    rss = [p["peak_rss_mb"] for p in untraced]
    wall_s = lower_quartile(wall)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "ops_per_s": _counts(untraced[0])["ok"] / wall_s,
        "peak_rss_mb": statistics.median(rss),
        "served_ratio": totals["ok"] / totals["attempted"],
    }
    samples = {"setup_s": setups, "wall_s": wall, "peak_rss_mb": rss}
    for name, unit in END_TO_END:
        extra = ""
        if name in samples:
            xs = samples[name]
            extra = (f"  (median {statistics.median(xs):.4f}, min {min(xs):.4f}, max {max(xs):.4f},"
                     f" n={len(xs)})")
        lines.append(f"  {name:<14} {e2e[name]:.6g} {unit}{extra}")
    lines.append(f"  ops: attempted {totals['attempted']}, ok {totals['ok']}, refused {totals['refused']}, "
                 f"failed {totals['failed']}; fail_ratio {(totals['refused'] + totals['failed']) / totals['attempted']:.4f}"
                 " (refusals and failures over attempted)")
    seen = set()
    lines.extend(f"  NOTE {op['name']}: {op['note']}" for op in passes[0]["ops"] if op["note"])
    for p in passes:
        for op in p["ops"]:
            for status in ("refused", "failed"):
                if op["counts"][status] and (op["name"], status, op["detail"]) not in seen:
                    seen.add((op["name"], status, op["detail"]))
                    lines.append(f"  {status.upper()} {op['name']}: {op['detail']}")
    for name, info in untraced[-1]["caches"].items():
        asked = info["hits"] + info["misses"]
        ratio = info["hits"] / asked if asked else 0.0
        lines.append(f"  cache {name}: hit_ratio {ratio:.3f} (hits {info['hits']}, misses {info['misses']}, size {info['currsize']})")
    if totals["failed"]:
        metrics = {}  # the run is refused; no figures from it
    elif not trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = per_layer(workload, traced, untraced, lines)
    return totals, metrics, lines


def per_layer(workload, traced, untraced, lines):
    import layers

    rows = {}
    for p in traced:
        for name, value in p["layers"].items():
            rows.setdefault(name, []).append(value)
        for op in p["ops"]:
            for tag_rows in op.get("baseline", {}).values():
                for name, value in tag_rows.items():
                    rows.setdefault(name, []).append(value)
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    wall_untraced = statistics.median(p["wall_s"] for p in untraced)
    rows["trace.overhead_s"] = [wall_traced - wall_untraced]
    metrics = {}
    for name, unit in layers.per_layer_names():
        value = statistics.median(rows[name]) if name in rows else 0
        metrics[name] = {"value": value, "unit": unit}
    lines.append(f"  traced wall_s {wall_traced:.4f} s, untraced {wall_untraced:.4f} s, "
                 f"overhead {wall_traced - wall_untraced:+.4f} s")
    # self time by layer, as a share of the traced pass
    by_layer = {}
    for name, m in metrics.items():
        if name.endswith(".self_ms"):
            group = name[: -len(".self_ms")]
            key = "diagram.canonical" if group == "diagram.canonical" else group.split(".")[0]
            by_layer[key] = by_layer.get(key, 0.0) + m["value"] / 1000
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
    lines.append("  self time by layer: " + ", ".join(
        f"{k} {v:.3f} s ({v / wall_traced:.0%})" for k, v in ranked if v > 0))
    want = DOMINANT[workload]
    if want:
        mine = sum(by_layer.get(k, 0.0) for k in want)
        other = max((v for k, v in by_layer.items() if k not in want), default=0.0)
        verdict = "holds" if mine > other else "DOES NOT HOLD"
        lines.append(f"  intended dominant layer {' + '.join(want)} ({mine / wall_traced:.0%} of the"
                     f" traced pass, next layer {other / wall_traced:.0%}): {verdict}")
    for name, unit in layers.per_layer_names():
        if metrics[name]["value"]:
            lines.append(f"  {name:<44} {metrics[name]['value']:.6g} {unit}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "satkit" / "__init__.py").is_file():
        print(f"error: no satkit sources under {ROOT / 'src'}; run from a satkit checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "satkit"), str(HERE)],
                       check=True, capture_output=True, timeout=120)
        noise = [(reference_loop(), loadavg())]
        for name in names:
            passes, setups, elapsed = run_workload(name, args.seed, args.seconds, args.trace, work)
            results.append((name, summarize(name, args.seed, passes, setups, elapsed, args.trace)))
        noise.append((reference_loop(), loadavg()))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    totals = {"attempted": 0, "failed": 0}
    metrics = {}
    for name, (counts, m, lines) in results:
        print("\n".join(lines))
        totals["attempted"] += counts["attempted"]
        totals["failed"] += counts["failed"]
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print("noise (report only): reference loop "
          + ", ".join(f"{t:.4f} s (loadavg {' '.join(la)})" for t, la in noise)
          + "  [before, after]")
    correct = totals["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
