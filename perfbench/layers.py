"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each traced public function with a timing
wrapper wherever a loaded satkit module (or this benchmark's own
``workloads`` module) bound it: module globals, dict values such as the
formats parser table, and class attributes for methods.  Nothing under
``src/satkit`` is edited, and the program's caches are only read
(``cache_info()``), never cleared or resized.

Self time of a call is its duration minus the time of the traced calls it
made.  The wrapper's own bookkeeping (sizes, counters) runs outside every
measured interval.
"""

from __future__ import annotations

import json
import sys
import time

# metric prefix -> (module, attribute names); several names form one group
TARGETS = {
    "invariants.alexander_poly": ("satkit.invariants", ("alexander_poly",)),
    "invariants.fox_row_abelian": ("satkit.invariants", ("fox_row_abelian",)),
    "invariants.laurent_det_up_to_units": ("satkit.invariants", ("laurent_det_up_to_units",)),
    "groups.wirtinger": ("satkit.groups", ("wirtinger",)),
    "groups.simplify_presentation": ("satkit.groups", ("simplify_presentation",)),
    "groups.todd_coxeter": ("satkit.groups", ("todd_coxeter",)),
    "groups.strong_winding_check": ("satkit.groups", ("strong_winding_check",)),
    "diagram.canonical": ("satkit.diagram", ("canonical",)),
    "diagram.simplify": ("satkit.diagram", ("simplify",)),
    "diagram.Diagram.init": ("satkit.diagram", ("Diagram.__post_init__",)),
    "formats.serialize": ("satkit.formats", (
        "serialize_diagram", "serialize_pattern", "serialize_framed_link", "serialize_string_link",
        "diagram_to_obj", "pattern_to_obj", "framed_link_to_obj", "string_link_to_obj")),
    "formats.parse": ("satkit.formats", (
        "parse_diagram", "parse_pattern", "parse_framed_link", "parse_string_link", "obj_to_any")),
    "surgery.build_pipeline": ("satkit.surgery", ("build_pipeline",)),
    "surgery.h1": ("satkit.surgery", ("h1",)),
    "surgery.slam_dunk": ("satkit.surgery", ("slam_dunk",)),
    "surgery.zero_surgery": ("satkit.surgery", ("zero_surgery",)),
    "abelian.smith_normal_form": ("satkit.abelian", ("smith_normal_form",)),
    "patterns.satellite": ("satkit.patterns", ("satellite",)),
    "patterns.compose": ("satkit.patterns", ("compose",)),
    "wires.Builder.to_diagram": ("satkit.wires", ("Builder.to_diagram",)),
    "stringlinks.infect": ("satkit.stringlinks", ("infect",)),
    "stringlinks.parallel": ("satkit.stringlinks", ("parallel",)),
    "stringlinks.closure": ("satkit.stringlinks", ("closure",)),
    "stringlinks.fuse": ("satkit.stringlinks", ("fuse",)),
}

CACHED = ("invariants.alexander_poly", "diagram.canonical")


def _json_len(obj):
    return len(json.dumps(obj, sort_keys=True))


# per-group size counters: (args, result) -> {counter: amount}; "max:" keeps the largest
SIZES = {
    "invariants.laurent_det_up_to_units": lambda a, r: {"max:dim": len(a[0])},
    "groups.simplify_presentation": lambda a, r: {"gens_removed": a[0].generator_count - r.generator_count},
    "groups.todd_coxeter": lambda a, r: {"cosets": r.cosets_used, "closed": int(r.closed)},
    "diagram.simplify": lambda a, r: {"crossings_removed": a[0].crossing_count - r.crossing_count},
    "formats.serialize": lambda a, r: {"bytes": len(r) if isinstance(r, str) else _json_len(r)},
    "formats.parse": lambda a, r: {"bytes": len(a[0]) if isinstance(a[0], str) else _json_len(a[0])},
    "patterns.satellite": lambda a, r: {"crossings_out": r.crossing_count},
    "patterns.compose": lambda a, r: {"crossings_out": r.base.crossing_count},
}

# the per-layer metrics each group reports, besides the counters above
REPORTED = {
    "invariants.alexander_poly": ("calls", "self_ms", "hit_ratio"),
    "invariants.fox_row_abelian": ("self_ms",),
    "invariants.laurent_det_up_to_units": ("self_ms", "dim"),
    "groups.wirtinger": ("self_ms",),
    "groups.simplify_presentation": ("self_ms", "gens_removed"),
    "groups.todd_coxeter": ("self_ms", "cosets", "closed_ratio"),
    "groups.strong_winding_check": ("self_ms",),
    "diagram.canonical": ("calls", "self_ms", "hit_ratio"),
    "diagram.simplify": ("self_ms", "crossings_removed"),
    "diagram.Diagram.init": ("calls", "self_ms"),
    "formats.serialize": ("self_ms", "bytes"),
    "formats.parse": ("self_ms", "bytes"),
    "surgery.build_pipeline": ("self_ms",),
    "surgery.h1": ("self_ms",),
    "surgery.slam_dunk": ("self_ms",),
    "surgery.zero_surgery": ("self_ms",),
    "abelian.smith_normal_form": ("calls", "self_ms"),
    "patterns.satellite": ("self_ms", "crossings_out"),
    "patterns.compose": ("self_ms", "crossings_out"),
    "wires.Builder.to_diagram": ("self_ms",),
    "stringlinks.infect": ("self_ms",),
    "stringlinks.parallel": ("self_ms",),
    "stringlinks.closure": ("self_ms",),
    "stringlinks.fuse": ("self_ms",),
}

# ROADMAP baseline rows: op tag -> [(metric, group, "max" single call | "sum" of outermost calls)]
BASELINES = {
    "alexander_21": [("baseline.alexander_21.ms", "invariants.alexander_poly", "max")],
    "alexander_155": [("baseline.alexander_155.ms", "invariants.alexander_poly", "max")],
    "alexander_429": [("baseline.alexander_429.ms", "invariants.alexander_poly", "max")],
    "torus_4_8_serialize": [("baseline.torus_4_8_serialize.ms", "formats.serialize", "max")],
    "zigzag_t2_9_pipeline": [
        ("baseline.zigzag_t2_9_pipeline.ms", "surgery.build_pipeline", "max"),
        ("baseline.zigzag_t2_9_stage_serialize.ms", "formats.serialize", "sum"),
    ],
    "clasp_strong_winding": [("baseline.clasp_strong_winding.ms", "groups.strong_winding_check", "max")],
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for group, stats in REPORTED.items():
        for stat in stats:
            unit = {"self_ms": "ms", "hit_ratio": "ratio", "closed_ratio": "ratio", "bytes": "bytes"}.get(stat, "count")
            out.append((f"{group}.{stat}", unit))
    for rows in BASELINES.values():
        out.extend((metric, "ms") for metric, _, _ in rows)
    out.append(("trace.overhead_s", "s"))
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "depth", "op_max_s", "op_sum_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0
        self.op_max_s = 0.0
        self.op_sum_s = 0.0
        self.counters = {}


class Tracer:
    def __init__(self):
        self.stats = {g: _Stat() for g in TARGETS}
        self._stack = []  # child seconds accumulated by each active traced call
        self._originals = {}
        self._cache_start = {}

    # -- binding --------------------------------------------------------------

    def _wrap(self, group, fn):
        stat = self.stats[group]
        sizes = SIZES.get(group)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.depth += 1
            stack.append(0.0)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - child
                if stat.depth == 0:  # outermost call of this group
                    stat.op_sum_s += elapsed
                    stat.op_max_s = max(stat.op_max_s, elapsed)
                    if done and sizes is not None:
                        for key, n in sizes(args, result).items():
                            if key.startswith("max:"):
                                key = key[4:]
                                stat.counters[key] = max(stat.counters.get(key, 0), n)
                            else:
                                stat.counters[key] = stat.counters.get(key, 0) + n
                if stack:
                    # the caller's self time excludes this call and its bookkeeping
                    stack[-1] += clock() - t0

        traced.__wrapped_original__ = fn
        return traced

    def install(self):
        wrappers = {}  # id(original) -> wrapper; the originals stay alive, so ids are unique
        for group, (modname, attrs) in TARGETS.items():
            mod = sys.modules[modname]
            for attr in attrs:
                owner, name = mod, attr
                if "." in attr:
                    cls, name = attr.split(".")
                    owner = getattr(mod, cls)
                fn = owner.__dict__[name]
                w = wrappers[id(fn)] = self._wrap(group, fn)
                self._originals[group] = fn
                if owner is not mod:  # a method: rebind on the class only
                    setattr(owner, name, w)
        mods = [m for n, m in list(sys.modules.items())
                if n in ("satkit", "workloads") or n.startswith("satkit.")]
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, v in list(value.items()):
                        if id(v) in wrappers:
                            value[key] = wrappers[id(v)]
        for group in CACHED:
            self._cache_start[group] = self._originals[group].cache_info()

    # -- per-op baseline rows -----------------------------------------------------

    def op_begin(self):
        for stat in self.stats.values():
            stat.op_max_s = 0.0
            stat.op_sum_s = 0.0

    def op_baseline(self, tag):
        rows = {}
        for metric, group, mode in BASELINES[tag]:
            stat = self.stats[group]
            rows[metric] = 1000 * (stat.op_max_s if mode == "max" else stat.op_sum_s)
        return rows

    # -- results ----------------------------------------------------------------

    def metrics(self):
        out = {}
        for group, stats in REPORTED.items():
            stat = self.stats[group]
            for name in stats:
                if name == "calls":
                    value = stat.calls
                elif name == "self_ms":
                    value = 1000 * stat.self_s
                elif name == "hit_ratio":
                    start, now = self._cache_start[group], self._originals[group].cache_info()
                    hits, misses = now.hits - start.hits, now.misses - start.misses
                    value = hits / (hits + misses) if hits + misses else 0.0
                elif name == "closed_ratio":
                    value = stat.counters.get("closed", 0) / stat.calls if stat.calls else 0.0
                else:
                    value = stat.counters.get(name, 0)
                out[f"{group}.{name}"] = value
        return out
