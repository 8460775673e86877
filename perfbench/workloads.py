"""The four benchmark workloads: inputs made from a seed, operations, checks.

Each workload is built by ``build(name, seed, workdir)`` and returns a list
of :class:`Op`.  Building is the set-up part of a pass (timed as
``setup_s``); running the ops is the measured part (``wall_s``).

Seed 0 gives the named inputs.  Any other seed passes the same objects
under a random relabelling of their edges, drawn with ``random.Random(seed)``
(README.md says what each workload relabels, and why not companions in
formula_ladder).  The benchmark writes every file it hands to satkit
itself, with raw (non-canonical) labels, so satkit only ever receives
generated objects or files.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import re

from satkit import formats, suites
from satkit import cli as satkit_cli
from satkit.catalog import (
    both_strands_operator,
    cable_pattern,
    corpus_knots,
    corpus_patterns,
    figure_eight,
    torus_knot,
    torus_link,
    trefoil,
    zigzag_pattern,
)
from satkit.diagram import Diagram, connected_sum, diagrams_equal, embedding_genus
from satkit.errors import DomainError
from satkit.groups import strong_winding_check
from satkit.invariants import satellite_formula_report
from satkit.patterns import Pattern, compose, misframed_satellite, patterns_equal, satellite
from satkit.stringlinks import closure, fuse, infect, parallel, winding_vector

# The one refusal today's code is known to give: canonical labelling gives
# up above 500k rotation choices.  An op marked with it may raise exactly
# this DomainError (counted as refused, text kept) or succeed and pass its
# check; anything else is a failure.
TOO_LARGE = "too large to canonicalise"

CLI_LIMIT = 10**6  # the CLI's default coset budget


class Op:
    """One counted operation: ``run()`` returns a value, ``check(value)``
    returns ``(ok, detail)``."""

    def __init__(self, name, run, check, may_refuse=None, baseline=None, count=1, note=None):
        self.name = name
        self.run = run
        self.check = check
        self.may_refuse = may_refuse
        self.baseline = baseline  # per-layer baseline row this op feeds, if any
        self.count = count  # operations it stands for (the corpus command runs many cases)
        self.note = note  # printed with every report


# -- seeded presentations -------------------------------------------------------


def relabel_diagram(d: Diagram, rng):
    """The same diagram under a random bijection of its edge labels; returns
    the new diagram and the mapping."""
    edges = list(d.edges())
    image = list(edges)
    rng.shuffle(image)
    m = dict(zip(edges, image))
    cr = tuple(tuple(m[e] for e in x) for x in d.crossings)
    comps = tuple(tuple(m[e] for e in cyc) for cyc in d.components)
    return Diagram(cr, comps, d.names), m


def relabel_pattern(p: Pattern, rng):
    base, m = relabel_diagram(p.base, rng)
    return Pattern(base, tuple((m[e], s) for e, s in p.cut))


def _present(rng):
    """Seed 0 keeps the named labels; other seeds relabel."""
    if rng is None:
        return (lambda d: d), (lambda p: p)
    return (lambda d: relabel_diagram(d, rng)[0]), (lambda p: relabel_pattern(p, rng))


# -- raw text and JSON forms (labels as given, no canonicalisation) ---------------


def _diagram_blocks(d: Diagram):
    parts = [f"X[{a},{b},{c},{e}]" for a, b, c, e in d.crossings]
    parts.append("C[" + ",".join("(" + ",".join(map(str, cyc)) + ")" for cyc in d.components) + "]")
    return parts


def pd_text(d: Diagram) -> str:
    return " ".join(_diagram_blocks(d))


def pat_text(p: Pattern) -> str:
    cut = ",".join(f"({e},{'+' if s > 0 else '-'}1)" for e, s in p.cut)
    return " ".join(_diagram_blocks(p.base) + [f"CUT[{cut}]"])


def _diagram_obj(d: Diagram):
    return {"type": "diagram", "crossings": [list(x) for x in d.crossings],
            "components": [list(c) for c in d.components]}


def _pattern_obj(p: Pattern):
    obj = _diagram_obj(p.base)
    obj["type"] = "pattern"
    obj["cut"] = [list(e) for e in p.cut]
    return obj


def _safe(name):
    return name.replace("(", "").replace(")", "").replace(",", "-")


def run_cli(argv):
    """Run the satkit CLI in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = satkit_cli.run(argv)
    return code, out.getvalue()


# -- formula_ladder ------------------------------------------------------------------

LADDER = (  # (cable p, q), companion T(2, k), satellite crossings
    ((2, 3), 3, 21),
    ((3, 2), 5, 79),
    ((3, 4), 7, 113),
    ((4, 5), 5, 155),
    ((4, 5), 7, 211),
    ((5, 6), 9, 429),
)
MISFRAMED = ((3, 2), 5)


def _formula_check(rep):
    ok = rep["equal_up_to_units"] is True
    return ok, f"lhs={rep['lhs']!r}" if ok else f"lhs={rep['lhs']!r} rhs={rep['rhs']!r}"


def _misframed_check(cases):
    (case,) = cases
    # a negative control: the planted framing error must be caught
    return (not case["ok"]), case["detail"]


def build_formula_ladder(rng, workdir):
    _, pat = _present(rng)
    # one presentation per distinct input, so repeats still hit the caches
    patterns = {pq: pat(cable_pattern(*pq)) for pq, _, _ in LADDER}
    ops = []
    for (p, q), k, n in LADDER:
        P, K = patterns[p, q], torus_knot(2, k)
        ops.append(Op(f"cable{p}{q}*T2{k}", (lambda P=P, K=K: satellite_formula_report(P, K)),
                      _formula_check, baseline=f"alexander_{n}" if n in (21, 155, 429) else None))
    (p, q), k = MISFRAMED
    P, K = patterns[p, q], torus_knot(2, k)
    bad = misframed_satellite(P, K)
    ops.append(Op(f"misframed-cable{p}{q}*T2{k}",
                  lambda: suites.declared_satellite_suite([("misframed", P, K, bad)]),
                  _misframed_check))
    return ops


# -- corpus_sweep ---------------------------------------------------------------

CORPUS_KNOTS = 33  # every knot of corpus_knots(), as make_corpus.py --max-knots 100
CORPUS_CASES = {"satellite-formula": 266, "meridian": 33, "pipeline": 132}
_SUITE_LINE = re.compile(r"^(satellite-formula|meridian|pipeline): (\d+)/(\d+) ok(?:; failing: (.*))?$")


def write_corpus(directory: pathlib.Path, rng):
    """What ``make_corpus.py --with-bad --max-knots 100`` writes, with the
    seed's presentations and raw labels.  Returns the knot file names and
    the subset whose diagrams are not planar."""
    dia, pat = _present(rng)
    directory.mkdir(parents=True, exist_ok=True)
    knots = corpus_knots()[:100]
    for name, d in knots:
        (directory / f"{_safe(name)}.pd").write_text(pd_text(dia(d)) + "\n")
    for name, p in corpus_patterns():
        (directory / f"{_safe(name)}.pat").write_text(pat_text(pat(p)) + "\n")
    p, k = pat(cable_pattern(2, 3)), dia(trefoil())
    for fname, declared in (("cable23-trefoil.json", satellite(p, k)),
                            ("misframed.json", misframed_satellite(p, k))):
        fixture = {"type": "satellite-fixture", "pattern": _pattern_obj(p),
                   "companion": _diagram_obj(k), "satellite": _diagram_obj(declared)}
        (directory / fname).write_text(json.dumps(fixture) + "\n")
    names = [f"{_safe(name)}.pd" for name, _ in knots]
    nonplanar = {f"{_safe(name)}.pd" for name, d in knots if embedding_genus(d) != 0}
    return names, nonplanar


def _corpus_check(nonplanar):
    """Per-case counts for the corpus command.  ``misframed.json`` must be
    the one expected failure.  A failing case on a non-planar knot is
    counted as refused: its answer depends on the edge labels (a planar
    diagram's does not), so it is an invalid input, reported, not a pass."""

    def check(result):
        code, out = result
        counts = {"ok": 0, "refused": 0, "failed": 0}
        notes = []
        seen = set()
        for line in out.splitlines():
            m = _SUITE_LINE.match(line)
            if not m:
                continue
            suite, passed, total = m.group(1), int(m.group(2)), int(m.group(3))
            failing = m.group(4).split(", ") if m.group(4) else []
            seen.add(suite)
            if total != CORPUS_CASES[suite] or passed + len(failing) != total:
                counts["failed"] += CORPUS_CASES[suite]
                notes.append(f"{suite}: {passed}/{total}, expected {CORPUS_CASES[suite]} cases")
                continue
            counts["ok"] += passed
            for case in failing:
                if suite == "satellite-formula" and case == "misframed.json":
                    counts["ok"] += 1  # the planted negative control, caught
                elif case.split("*")[-1] in nonplanar:
                    counts["refused"] += 1
                    notes.append(f"{suite}:{case} failed on a non-planar knot")
                else:
                    counts["failed"] += 1
                    notes.append(f"{suite}:{case} FAILED")
        for suite in CORPUS_CASES.keys() - seen:
            counts["failed"] += CORPUS_CASES[suite]
            notes.append(f"{suite}: missing from the report")
        if code != 1:  # the misframed fixture must fail the command
            counts = {"ok": 0, "refused": 0, "failed": sum(CORPUS_CASES.values())}
        return counts, f"exit {code}; " + ("; ".join(notes) or "only misframed.json fails")

    return check


def build_corpus_sweep(rng, workdir):
    directory = pathlib.Path(workdir) / "corpus"
    names, nonplanar = write_corpus(directory, rng)
    if len(names) != CORPUS_KNOTS:
        raise RuntimeError(f"corpus has {len(names)} knots, expected {CORPUS_KNOTS}")
    # one run of the command stands for every suite case it checks
    note = (f"{len(nonplanar)} of {len(names)} corpus knots are not planar (embedding genus > 0):"
            f" {', '.join(sorted(nonplanar))}") if nonplanar else None
    return [Op("corpus", lambda: run_cli(["corpus", str(directory)]), _corpus_check(nonplanar),
               count=sum(CORPUS_CASES.values()), note=note)]


# -- winding_verdicts ------------------------------------------------------------------

NEVER_VERIFIED = {"clasp", "cable(2,1)", "cable(2,3)", "cable(3,2)"}


def _verdict_check(expect_verified):
    def check(res):
        outcome = res.outcome
        if expect_verified:
            ok = outcome == "verified"
        else:
            # today "inconclusive"; a sound "refuted" is also right
            ok = outcome in ("inconclusive", "refuted")
        ok = ok and res.enumeration.cosets_used <= res.enumeration.limit
        return ok, f"{outcome}, cosets {res.enumeration.cosets_used}"
    return check


def build_winding_verdicts(rng, workdir):
    dia, pat = _present(rng)
    ops = []
    for name, p in corpus_patterns():
        P = pat(p)
        ops.append(Op(f"swn:{name}", (lambda P=P: strong_winding_check(P, CLI_LIMIT)),
                      _verdict_check(name not in NEVER_VERIFIED),
                      baseline="clasp_strong_winding" if name == "clasp" else None))
    t, f = trefoil(), figure_eight()
    companions = [("trefoil", t), ("T25", torus_knot(2, 5)), ("T27", torus_knot(2, 7)),
                  ("T29", torus_knot(2, 9)), ("fig8#trefoil", connected_sum(f, t))]
    for kname, k in companions:
        Z, K = pat(zigzag_pattern()), dia(k)
        ops.append(Op(f"swn:zigzag*{kname}",
                      (lambda Z=Z, K=K: strong_winding_check(compose(Z, K), CLI_LIMIT)),
                      _verdict_check(True)))
    return ops


# -- link_serialize ------------------------------------------------------------------

TORUS_LINKS = ((3, 6), (4, 4), (3, 9), (4, 8), (5, 10))


def _pipeline_check(result):
    code, out = result
    rep = json.loads(out)
    o = rep["outputs"]
    trace = o.get("trace", [])
    # reads beside writes: every emitted stage parses back to a framed link
    parsed = [formats.obj_to_any(s["framed_link"]) for s in trace]
    ok = (code == 0 and o["diagram_certificate"] is True and o["alexander_certificate"] is True
          and len(trace) == 3 and all(s["h1"] == "Z" for s in trace)
          and all(len(fl.framings) == fl.diagram.component_count for fl in parsed))
    return ok, f"exit {code}, certificates {o['diagram_certificate']}/{o['alexander_certificate']}"


def _diagram_round_trip(d):
    text = formats.serialize_diagram(d)
    return d, text, formats.parse_diagram(text)


def _diagram_round_trip_check(result):
    d, text, back = result
    ok = diagrams_equal(d, back)
    return ok, f"{len(text)} bytes, round trip {'equal' if ok else 'DIFFERS'}"


def _string_link_round_trip_check(result):
    obj, text, back, want_windings = result
    ok = back == obj and winding_vector(obj) == want_windings
    return ok, f"{len(text)} bytes, windings {winding_vector(obj)}"


def _pattern_round_trip_check(result):
    p, text, back = result
    ok = patterns_equal(p, back)
    return ok, f"{len(text)} bytes, round trip {'equal' if ok else 'DIFFERS'}"


def build_link_serialize(rng, workdir):
    dia, pat = _present(rng)
    ops = []
    directory = pathlib.Path(workdir) / "pipeline"
    directory.mkdir(parents=True, exist_ok=True)
    zpath = directory / "zigzag.pat"
    zpath.write_text(pat_text(pat(zigzag_pattern())) + "\n")
    for k in (3, 5, 7, 9):
        kpath = directory / f"T2{k}.pd"
        kpath.write_text(pd_text(dia(torus_knot(2, k))) + "\n")
        argv = ["--format", "structured", "surgery", "pipeline", str(zpath), str(kpath), "--emit-trace"]
        ops.append(Op(f"pipeline:zigzag*T2{k}", (lambda argv=argv: run_cli(argv)), _pipeline_check,
                      baseline="zigzag_t2_9_pipeline" if k == 9 else None))
    for p, q in TORUS_LINKS:
        d = dia(torus_link(p, q))
        ops.append(Op(f"serialize:torus({p},{q})", (lambda d=d: _diagram_round_trip(d)),
                      _diagram_round_trip_check, may_refuse=TOO_LARGE,
                      baseline="torus_4_8_serialize" if (p, q) == (4, 8) else None))

    k = dia(trefoil())
    chain = {}

    def run_infect():
        op = chain["infect"] = infect(both_strands_operator(), k)
        text = formats.serialize_string_link(op)
        return op, text, formats.parse_string_link(text), (1, 1)

    def run_parallel():
        op = chain["parallel"] = parallel(chain["infect"], (2, 2))
        text = formats.serialize_string_link(op)
        return op, text, formats.parse_string_link(text), (1, 1, 1, 1)

    def run_closure():
        return _diagram_round_trip(closure(chain["parallel"].link))

    def run_fuse():
        p = fuse(chain["infect"])
        text = formats.serialize_pattern(p)
        return p, text, formats.parse_pattern(text)

    ops.append(Op("infect(both-strands,trefoil)", run_infect, _string_link_round_trip_check))
    ops.append(Op("parallel(.,(2,2))", run_parallel, _string_link_round_trip_check))
    ops.append(Op("closure(parallel)", run_closure, _diagram_round_trip_check, may_refuse=TOO_LARGE))
    ops.append(Op("fuse(infect)", run_fuse, _pattern_round_trip_check))
    return ops


_BUILD_FNS = {
    "formula_ladder": build_formula_ladder,
    "corpus_sweep": build_corpus_sweep,
    "winding_verdicts": build_winding_verdicts,
    "link_serialize": build_link_serialize,
}


def build(name, seed, workdir):
    rng = None if seed == 0 else random.Random(seed)
    return _BUILD_FNS[name](rng, workdir)


def run_op(op):
    """Run one op; returns ({"ok", "refused", "failed": count}, detail)."""

    def only(status):
        counts = {"ok": 0, "refused": 0, "failed": 0}
        counts[status] = op.count
        return counts

    try:
        value = op.run()
    except DomainError as exc:
        if op.may_refuse and op.may_refuse in str(exc):
            return only("refused"), f"DomainError: {exc}"
        return only("failed"), f"DomainError: {exc}"
    except Exception as exc:  # a crash is a counted failure, never a skip
        return only("failed"), f"{type(exc).__name__}: {exc}"
    try:
        ok, detail = op.check(value)
    except Exception as exc:
        return only("failed"), f"check raised {type(exc).__name__}: {exc}"
    if isinstance(ok, dict):  # a check over many cases counts them itself
        return ok, detail
    return only("ok" if ok else "failed"), detail
