"""Property suites run by the corpus command and the acceptance tests.

Each suite returns a list of case dicts: {"name", "ok", "detail"}.  A
suite passes when every case is ok.
"""

from __future__ import annotations

import random

from .catalog import random_framed_links
from .errors import SatkitError
from .groups import quotient, todd_coxeter, wirtinger
from .invariants import satellite_formula_report
from .surgery import BandArc, build_pipeline, h1, handle_slide


def _case(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _formula_cases(cases, detail):
    """One case per (name, pattern, companion[, declared diagram]): the
    formula report's verdict, described by ``detail(ok, report)``."""
    out = []
    for name, p, k, *declared in cases:
        try:
            rep = satellite_formula_report(p, k, *declared)
        except SatkitError as exc:
            out.append(_case(name, False, f"formula failed: {exc}"))
            continue
        ok = rep["equal_up_to_units"]
        out.append(_case(name, ok, detail(ok, rep)))
    return out


def satellite_formula_suite(pairs):
    """The cabling formula for the Alexander polynomial, one case per
    (name, pattern, companion) triple."""
    return _formula_cases(
        pairs, lambda ok, rep: f"poly={rep['lhs']!r}" if ok else f"lhs={rep['lhs']!r} rhs={rep['rhs']!r}"
    )


def declared_satellite_suite(fixtures):
    """Check declared satellite diagrams against the formula: cases are
    (name, pattern, companion, declared diagram)."""
    return _formula_cases(fixtures, lambda ok, rep: f"declared={rep['lhs']!r} expected={rep['rhs']!r}")


def meridian_suite(diagrams, limit=10**4):
    """Every knot group dies when one meridian is killed; the enumeration
    must close within the limit."""
    out = []
    for name, d in diagrams:
        if not d.is_knot():
            continue
        g = wirtinger(d)
        q = quotient(g, [g.marked("meridian_0")])
        res = todd_coxeter(q, limit)
        ok = res.outcome == "trivial"
        out.append(_case(name, ok, f"{res.outcome}, cosets {res.cosets_used}"))
    return out


def pipeline_suite(cases):
    """Full surgery rewrite certification per (name, pattern, companion)."""
    out = []
    for name, p, k in cases:
        try:
            trace = build_pipeline(p, k)
        except SatkitError as exc:
            out.append(_case(name, False, f"pipeline failed: {exc}"))
            continue
        stage_ok = all(g.is_infinite_cyclic for _, _, g in trace.stages)
        ok = stage_ok and trace.diagram_certificate and trace.alexander_certificate
        detail = (
            f"stages={len(trace.stages)} h1-cyclic={stage_ok} "
            f"diagram={trace.diagram_certificate} alexander={trace.alexander_certificate}"
        )
        out.append(_case(name, ok, detail))
    return out


def kirby_move_suite(slide_count=200, seed=20260808):
    """Randomised handle slides preserve the homology exactly."""
    rng = random.Random(seed)
    out = []
    done = 0
    links = random_framed_links(slide_count, rng)
    for fl in links:
        if done >= slide_count:
            break
        n = fl.diagram.component_count
        i = rng.randrange(n)
        j = (i + rng.randrange(1, n)) % n
        orientation = rng.choice([1, -1])
        before = h1(fl).invariant_factors
        out_fl = handle_slide(fl, i, j, BandArc(orientation=orientation, over=rng.random() < 0.5))
        after = h1(out_fl).invariant_factors
        out.append(
            _case(f"slide-{done}", before == after, f"{before} -> {after}")
        )
        done += 1
    return out


def suite_ok(cases):
    return all(c["ok"] for c in cases)


def summarize(cases):
    bad = [c for c in cases if not c["ok"]]
    return f"{len(cases) - len(bad)}/{len(cases)} ok" + (
        "" if not bad else "; failing: " + ", ".join(c["name"] for c in bad)
    )
