"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line, visible with
``pytest tests/test_acceptance.py -s``.  All tolerances are exact: polynomial
identities hold on the nose up to units in exact integer arithmetic, and
enumeration limits are the stated coset caps.
"""

import random
import time

import pytest

from code_strategies import kirby_move_suite, relabeled
from satkit.abelian import AbelianGroup
from satkit.catalog import (
    cable_pattern,
    clasp_pattern,
    core_pattern,
    corpus_knots,
    figure_eight,
    kink_base_pattern,
    knot_pattern,
    random_framed_links,
    strand_meridian_operator,
    trefoil,
    wiggle_base_pattern,
    winding_two_three_operator,
    zigzag_pattern,
)
from satkit.diagram import connected_sum, diagrams_equal, simplify, unknot
from satkit.errors import DomainError
from satkit.formats import serialize_diagram
from satkit.groups import (
    abelianization,
    cut_loop_word,
    quotient,
    strong_winding_check,
    wirtinger,
)
from satkit.invariants import alexander_poly, determinant, equal_up_to_units
from satkit.patterns import (
    compose,
    misframed_satellite,
    satellite,
    winding_number,
)
from satkit.stringlinks import (
    closure,
    fuse,
    infect,
    parallel,
    reduce_to_pattern,
    winding_gcd,
    winding_vector,
)
from satkit.suites import (
    declared_satellite_suite,
    meridian_suite,
    pipeline_suite,
    satellite_formula_suite,
    suite_ok,
    summarize,
)
from satkit.surgery import FramedLink, build_pipeline, h1, slam_dunk, zero_surgery
from satkit.wires import Builder, encircle


def _announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, detail


def test_criterion_1_satellite_formula_suite():
    granny = connected_sum(trefoil(), trefoil())
    pairs = [
        ("core*unknot", core_pattern(), unknot()),
        ("core*trefoil", core_pattern(), trefoil()),
        ("core*granny", core_pattern(), granny),
        ("kink-base*fig8", kink_base_pattern(), figure_eight()),
        ("zigzag*fig8", zigzag_pattern(), figure_eight()),
        ("clasp*trefoil", clasp_pattern(), trefoil()),
        ("clasp*fig8", clasp_pattern(), figure_eight()),
        ("cable21*fig8", cable_pattern(2, 1), figure_eight()),
        ("cable23*trefoil", cable_pattern(2, 3), trefoil()),
        ("cable21*granny", cable_pattern(2, 1), granny),
        ("cable32*unknot", cable_pattern(3, 2), unknot()),
        ("cable32*trefoil", cable_pattern(3, 2), trefoil()),
    ]
    windings = {winding_number(p) for _, p, _ in pairs}
    assert windings == {0, 1, 2, 3}
    assert len(pairs) >= 10
    t0 = time.time()
    cases = satellite_formula_suite(pairs)
    elapsed = time.time() - t0
    ok = suite_ok(cases) and elapsed < 10.0
    _announce(1, ok, f"satellite formula on {len(cases)} pairs, {summarize(cases)}, {elapsed:.1f}s")


def test_criterion_2_composition_identity_suite():
    t, f = trefoil(), figure_eight()
    triples = [
        ("core", core_pattern(), t, f),
        ("core-swapped", core_pattern(), f, t),
        ("kink-base", kink_base_pattern(), t, t),
        ("wiggle-base", wiggle_base_pattern(), t, f),
        ("cable21", cable_pattern(2, 1), t, f),
        ("clasp", clasp_pattern(), t, f),
    ]
    assert len(triples) >= 6
    results = []
    for name, p, a, b in triples:
        lhs = satellite(p, connected_sum(a, b))
        rhs = satellite(compose(p, a), b)
        same_poly = alexander_poly(lhs) == alexander_poly(rhs)
        same_det = determinant(lhs) == determinant(rhs)
        results.append((name, same_poly and same_det))
    ok = all(r for _, r in results)
    _announce(2, ok, f"composition identity on {len(results)} triples: "
                     + ", ".join(f"{n}={'ok' if r else 'FAIL'}" for n, r in results))


def test_criterion_3_meridian_triviality_suite():
    corpus = [(n, d) for n, d in corpus_knots() if d.is_knot()]
    assert len(corpus) >= 30
    assert all(d.crossing_count <= 12 for _, d in corpus)
    # killing the cut meridian of each knot's one-strand pattern is a
    # strong-winding check: a Tietze log to the empty presentation, no cosets
    cases = meridian_suite(corpus, limit=10**4)
    assert [c["detail"] for c in cases] == ["verified by tietze"] * len(corpus)
    # Tietze ties break by relator number and position, so relabelled copies take other moves
    rng = random.Random(3)
    for _, d in corpus:
        edges = d.edges()
        r = relabeled(d, dict(zip(edges, rng.sample(range(1, 4 * len(edges) + 1), len(edges)))))
        res = strong_winding_check(knot_pattern(r), 10**4)
        assert (res.outcome, res.route) == ("verified", "tietze")
    ok = suite_ok(cases) and len(cases) >= 30
    _announce(3, ok, f"meridian quotient trivial on {summarize(cases)} (limit 10^4)")


def test_criterion_4_strong_winding_suite():
    limit = 10**6
    verified_patterns = [
        ("core", core_pattern()),
        ("kink-base", kink_base_pattern()),
        ("wiggle-base", wiggle_base_pattern()),
        ("zigzag", zigzag_pattern()),
    ]
    trivial_base = [p for n, p in verified_patterns[1:]]
    assert len(trivial_base) >= 3
    for p in trivial_base:
        assert simplify(p.base).crossing_count == 0
        assert abs(winding_number(p)) == 1

    failures = []
    # verified by a Tietze log that reaches the empty presentation: no cosets
    for name, p in verified_patterns:
        cases = [(name, p)] + [(f"{name}({kn})", compose(p, k))
                               for kn, k in (("trefoil", trefoil()), ("fig8", figure_eight()))]
        for case, c in cases:
            res = strong_winding_check(c, limit)
            if (res.outcome, res.enumeration.outcome) != ("verified", "not-run"):
                failures.append(f"{case}: {res.outcome}, enumeration {res.enumeration.outcome}")
            else:
                assert abs(winding_number(c)) == 1 and res.presentation.generator_count == 0
        # verified forces winding +-1, via the abelianized quotient
        q = quotient(wirtinger(p.base), [cut_loop_word(p)])
        assert abelianization(q).is_trivial
        assert abs(winding_number(p)) == 1
    # |w| != 1: the quotient's Smith form Z/|w| refutes with no enumeration
    for name, p, factors in (("clasp", clasp_pattern(), (0,)), ("cable(2,1)", cable_pattern(2, 1), (2,)),
                             ("cable(2,3)", cable_pattern(2, 3), (2,)), ("cable(3,2)", cable_pattern(3, 2), (3,))):
        res = strong_winding_check(p, limit)
        if res.outcome != "refuted" or res.enumeration.cosets_used != 0:
            failures.append(f"{name}: {res.outcome}, cosets {res.enumeration.cosets_used}")
        q = quotient(wirtinger(p.base), [cut_loop_word(p)])
        assert res.abelianization == abelianization(q) == AbelianGroup(factors)
        assert AbelianGroup(factors) == AbelianGroup.cyclic(winding_number(p))
    ok = not failures
    _announce(4, ok, "strong winding verified by Tietze elimination, with no enumeration, on 4 patterns and "
                     "8 compositions; "
                     "refuted by the Smith form on clasp (Z), cable(2,1) (Z/2), cable(2,3) (Z/2), cable(3,2) (Z/3)"
                     + ("" if ok else "; failures: " + "; ".join(failures)))


def test_criterion_5_pipeline_suite():
    patterns = [
        ("core", core_pattern()),
        ("kink-base", kink_base_pattern()),
        ("wiggle-base", wiggle_base_pattern()),
        ("zigzag", zigzag_pattern()),
    ]
    assert len(patterns) >= 4
    cases = [
        (f"{pn}*{kn}", p, k)
        for pn, p in patterns
        for kn, k in (("unknot", unknot()), ("trefoil", trefoil()))
    ]
    t0 = time.time()
    results = pipeline_suite(cases)
    elapsed = time.time() - t0
    ok = suite_ok(results) and elapsed < 30.0
    _announce(5, ok, f"surgery pipeline on {len(results)} runs, {summarize(results)}, {elapsed:.1f}s")


def _meridian_pair_link(base):
    b, wmap = Builder.from_diagram(base)
    e = min(base.edges())
    circle = encircle(b, [(wmap[e], 1)])
    meridian = encircle(b, [(circle, 1)])
    other_edge = [x for x in base.edges() if x != e][0] if len(base.edges()) > 1 else e
    d, _ = b.to_diagram([(wmap[other_edge], True), (circle, False), (meridian, False)])
    return FramedLink(d, (0, 0, 0))


def test_criterion_6_kirby_move_invariance():
    cases = kirby_move_suite(slide_count=200, seed=20260808)
    assert len(cases) == 200
    slides_ok = suite_ok(cases)

    dunk_ok = True
    for base in (trefoil(), figure_eight()):
        fl = _meridian_pair_link(base)
        before = h1(fl).invariant_factors
        out = slam_dunk(fl, small=2, other=1)
        dunk_ok = dunk_ok and h1(out).invariant_factors == before

    rejected = False
    fl = _meridian_pair_link(trefoil())
    try:
        slam_dunk(FramedLink(fl.diagram, (0, 0, 2)), small=2, other=1)
    except DomainError:
        rejected = True
    ok = slides_ok and dunk_ok and rejected
    _announce(6, ok, f"200 handle slides preserve H1 ({summarize(cases)}); "
                     f"slam dunk preserves H1 and rejects invalid pairs")


def test_criterion_7_string_link_suite():
    op = winding_two_three_operator()
    checks = []
    checks.append(("winding vector", winding_vector(op) == (2, 3)))
    checks.append(("winding gcd", winding_gcd(op) == 1))
    par = parallel(op, (2, -1))
    fused = fuse(par)
    checks.append(("parallel+fuse winding", winding_number(fused) == 1))

    commute_pairs = [
        ("w23*trefoil", op, (2, -1), trefoil()),
        ("w23*fig8", op, (2, -1), figure_eight()),
        ("meridian*trefoil", strand_meridian_operator(2, 0), (1, 0), trefoil()),
    ]
    for name, operator, kvec, companion in commute_pairs:
        lhs = reduce_to_pattern(infect(operator, companion), kvec).base
        rhs = satellite(reduce_to_pattern(operator, kvec), companion)
        checks.append((f"commute {name}",
                       equal_up_to_units(alexander_poly(lhs), alexander_poly(rhs))))

    one = strand_meridian_operator(1, 0)
    for name, companion in (("trefoil", trefoil()), ("fig8", figure_eight())):
        lhs = serialize_diagram(closure(infect(one, companion).link))
        rhs = serialize_diagram(satellite(fuse(one), companion))
        checks.append((f"m=1 bitwise {name}", lhs == rhs))
    checks.append(("m=1 winding", winding_vector(one)[0] == winding_number(fuse(one))))
    checks.append(("m=1 parallel noop",
                   serialize_diagram(closure(parallel(one, (1,)).link))
                   == serialize_diagram(closure(one.link))))
    ok = all(c for _, c in checks)
    _announce(7, ok, "string link suite: "
                     + ", ".join(f"{n}={'ok' if c else 'FAIL'}" for n, c in checks))


def test_criterion_8_negative_controls():
    checks = []

    p, k = cable_pattern(2, 3), trefoil()
    bad = misframed_satellite(p, k)
    fixture_cases = declared_satellite_suite([("misframed", p, k, bad)])
    checks.append(("misframed satellite fails the formula", not suite_ok(fixture_cases)))
    good_cases = declared_satellite_suite([("honest", p, k, satellite(p, k))])
    checks.append(("honest satellite passes the formula", suite_ok(good_cases)))

    try:
        build_pipeline(clasp_pattern(), trefoil())
        checks.append(("winding-zero pipeline rejected", False))
    except DomainError:
        checks.append(("winding-zero pipeline rejected", True))

    fl = _meridian_pair_link(trefoil())
    try:
        slam_dunk(fl, small=0, other=1)
        checks.append(("non-meridional slam dunk rejected", False))
    except DomainError:
        checks.append(("non-meridional slam dunk rejected", True))

    ok = all(c for _, c in checks)
    _announce(8, ok, "negative controls: "
                     + ", ".join(f"{n}={'ok' if c else 'FAIL'}" for n, c in checks))
