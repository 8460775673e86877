"""Property suites run by the corpus command.

Each suite returns a list of case dicts: {"name", "ok", "detail"}.  A
suite passes when every case is ok.
"""

from __future__ import annotations

from .catalog import knot_pattern
from .errors import SatkitError
from .groups import strong_winding_check
from .invariants import satellite_formula_report
from .surgery import build_pipeline


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


def meridian_suite(diagrams, limit):
    """Every knot group dies when one meridian is killed: the strong-winding
    check of each knot's one-strand pattern (its cut curve a meridian) verifies."""
    out = []
    for name, d in diagrams:
        if not d.is_knot():
            continue
        res = strong_winding_check(knot_pattern(d), limit)
        ok = res.outcome == "verified"
        out.append(_case(name, ok, f"{res.outcome} by {res.route}"))
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
        # build_pipeline raises unless every stage's first homology is Z
        ok = trace.diagram_certificate and trace.alexander_certificate
        detail = (
            f"stages={len(trace.stages)} h1-cyclic=True "
            f"diagram={trace.diagram_certificate} alexander={trace.alexander_certificate}"
        )
        out.append(_case(name, ok, detail))
    return out


def suite_ok(cases):
    return all(c["ok"] for c in cases)


def summarize(cases):
    bad = [c for c in cases if not c["ok"]]
    return f"{len(cases) - len(bad)}/{len(cases)} ok" + (
        "" if not bad else "; failing: " + ", ".join(c["name"] for c in bad)
    )
