import itertools
from collections import Counter

import pytest

from satkit.catalog import (
    both_strands_operator,
    braid_closure,
    core_pattern,
    corpus_knots,
    figure_eight,
    strand_meridian_operator,
    string_link_from_braid,
    trefoil,
    winding_two_three_operator,
)
from satkit.diagram import (
    component_subdiagram,
    crossing_signs,
    diagrams_equal,
    embedding_genus,
    linking_number,
    simplify,
    unknot,
    writhe,
)
from satkit.errors import DomainError, InternalError
from satkit.invariants import alexander_poly, determinant, equal_up_to_units, satellite_formula_report
from satkit.patterns import patterns_equal, satellite, winding_number
from satkit.stringlinks import (
    InfectionOperator,
    _orient_tangle,
    StringLink,
    closure,
    fuse,
    infect,
    mirror_reverse,
    parallel,
    reduce_to_pattern,
    stack,
    trivial_string_link,
    winding_gcd,
    winding_vector,
)
from satkit.formats import serialize_diagram


def w23():
    return winding_two_three_operator()


def test_trivial_link_closure_is_unlink():
    d = closure(trivial_string_link(2))
    assert d.component_count == 2
    assert d.crossing_count == 0


def test_full_twist_closure_is_hopf():
    s = string_link_from_braid(2, [1, 1])
    d = closure(s)
    assert d.component_count == 2
    assert d.crossing_count == 2
    assert linking_number(d, 0, 1) == 1


def test_one_strand_trefoil_closure():
    # trefoil drawn as a 1-string tangle: stack of the winding-2 gadget is
    # overkill; instead close a 2-braid remnant by hand via stacking
    s = w23().link
    assert s.strand_count == 2


def test_w23_windings():
    op = w23()
    assert embedding_genus(closure(op.link)) == 0
    assert winding_vector(op) == (2, 3)
    assert winding_gcd(op) == 1


def test_w23_closure_unlink():
    d = closure(w23().link)
    assert d.component_count == 2
    for c in (0, 1):
        assert diagrams_equal(simplify(component_subdiagram(d, [c])), unknot())


def test_stack_identity():
    s = w23().link
    t = trivial_string_link(2)
    assert stack(s, t).crossings == s.crossings or closure(stack(s, t)).crossing_count == closure(s).crossing_count


def test_stack_associative_counts():
    a = string_link_from_braid(2, [1, 1])
    b = string_link_from_braid(2, [-1, -1])
    ab = stack(a, b)
    d = closure(ab)
    assert d.component_count == 2
    assert simplify(d).crossing_count == 0


def test_stack_associative_diagrams():
    from satkit.formats import serialize_string_link

    a = string_link_from_braid(2, [1, 1])
    b = string_link_from_braid(2, [-1, 1])
    c = string_link_from_braid(2, [1, -1])
    lhs = stack(stack(a, b), c)
    rhs = stack(a, stack(b, c))
    assert serialize_string_link(lhs) == serialize_string_link(rhs)


def test_stack_with_inverse_gives_slice_form():
    s = string_link_from_braid(2, [1, 1])
    inv = mirror_reverse(s)
    assert crossing_signs(closure(inv)) == (-1, -1)
    d = closure(stack(s, inv))
    assert linking_number(d, 0, 1) == 0
    sub = component_subdiagram(d, [0])
    det = determinant(simplify(sub))
    assert int(det ** 0.5) ** 2 == det


def test_mirror_reverse_involution():
    from satkit.formats import serialize_string_link

    for s in (string_link_from_braid(2, [1, 1]), w23().link):
        assert serialize_string_link(mirror_reverse(mirror_reverse(s))) == serialize_string_link(s)
        signs = crossing_signs(closure(s))
        assert crossing_signs(closure(mirror_reverse(s))) == tuple(-x for x in signs)


def test_closure_keeps_the_tangle_crossing_signs():
    # the tests read a string link's crossing signs off its closure
    operators = (strand_meridian_operator(), both_strands_operator(), w23())
    for sl in [op.link for op in operators] + [string_link_from_braid(3, [1, -2, 1, 1, -2, 1])]:
        assert crossing_signs(closure(sl)) == tuple(_orient_tangle(sl).signs)


def test_infect_with_unknot_is_identity():
    op = w23()
    out = infect(op, unknot())
    assert closure(out.link).crossing_count == closure(op.link).crossing_count
    assert winding_vector(out) == winding_vector(op)


def test_infect_preserves_winding_vector():
    op = w23()
    out = infect(op, trefoil())
    assert winding_vector(out) == (2, 3)
    assert embedding_genus(closure(out.link)) == 0


def test_meridian_operator_ties_local_knot():
    op = strand_meridian_operator(2, 0)
    out = infect(op, trefoil())
    d = closure(out.link)
    assert d.component_count == 2
    c0 = component_subdiagram(d, [0])
    c1 = component_subdiagram(d, [1])
    assert equal_up_to_units(alexander_poly(simplify(c0)), alexander_poly(trefoil()))
    assert simplify(c1).crossing_count == 0


def test_parallel_identity():
    op = w23()
    out = parallel(op, (1, 1))
    assert out.link.strand_count == 2
    assert winding_vector(out) == (2, 3)
    assert closure(out.link).crossing_count == closure(op.link).crossing_count


def test_parallel_omission():
    op = w23()
    out = parallel(op, (0, 1))
    assert out.link.strand_count == 1
    assert winding_vector(out) == (3,)


def test_parallel_w23_choice():
    op = w23()
    out = parallel(op, (2, -1))
    assert out.link.strand_count == 3
    assert winding_vector(out) == (2, 2, -3)
    assert sum(winding_vector(out)) == 1
    assert embedding_genus(closure(out.link)) == 0


def test_parallel_copies_are_untwisted():
    # every copy of strand i keeps its writhe, and the twist region
    # cancels it between copies: copies of one strand link zero times
    operators = [w23(), infect(w23(), trefoil()), infect(strand_meridian_operator(2, 0), trefoil())]
    for op in operators:
        base = closure(op.link)
        for kvec in ((2, -1), (2, 3), (-3, 2)):
            d = closure(parallel(op, kvec).link)
            strand = [i for i, k in enumerate(kvec) for _ in range(abs(k))]
            for a, i in enumerate(strand):
                assert writhe(d, a) == writhe(base, i), (op, kvec, a)
                for b in range(a + 1, len(strand)):
                    if strand[b] == i:
                        assert linking_number(d, a, b) == 0, (op, kvec, a, b)


def test_parallel_rejects_empty():
    with pytest.raises(DomainError):
        parallel(w23(), (0, 0))


def test_fuse_one_strand_identity():
    op = strand_meridian_operator(1, 0)
    p = fuse(op)
    assert patterns_equal(p, core_pattern())


def test_fuse_w23_reduction():
    op = w23()
    par = parallel(op, (2, -1))
    p = fuse(par)
    assert winding_number(p) == 1
    assert p.base.is_knot()
    assert embedding_genus(p.base) == 0


def test_reduce_to_pattern_gcd_check():
    op = w23()
    with pytest.raises(DomainError):
        reduce_to_pattern(op, (1, 1))  # 2 + 3 = 5 != 1
    p = reduce_to_pattern(op, (2, -1))
    assert winding_number(p) == 1


def test_reduce_meridian_gives_core():
    op = strand_meridian_operator(2, 0)
    p = reduce_to_pattern(op, (1, 0))
    assert patterns_equal(p, core_pattern())


def test_every_valid_copy_vector_fuses_or_is_an_internal_fault():
    # the catalog operators, plain and infected by the trefoil, with every
    # copy vector |k_i| <= 3 whose combination is the winding gcd: each
    # fuses into a planar pattern of winding gcd, or fails inside the
    # construction (two passages merged on one edge, or a genus change);
    # no valid vector is refused
    operators = [strand_meridian_operator(2, 0), strand_meridian_operator(3, 1), both_strands_operator(), w23()]
    outcomes = Counter()
    for op in operators + [infect(op, trefoil()) for op in operators]:
        g, wv = winding_gcd(op), winding_vector(op)
        for kvec in itertools.product(range(-3, 4), repeat=op.link.strand_count):
            if sum(k * w for k, w in zip(kvec, wv)) != g:
                continue
            try:
                p = reduce_to_pattern(op, kvec)
            except InternalError as exc:
                outcomes[str(exc)] += 1
                continue
            assert embedding_genus(p.base) == 0 and winding_number(p) == g, kvec
            if p.base.crossing_count <= 120:
                assert satellite_formula_report(p, trefoil())["equal_up_to_units"], kvec
            outcomes["pattern"] += 1
    assert outcomes == {
        "pattern": 120,
        "built an invalid Pattern: cut strands must be pairwise distinct edges": 6,
        "fuse changed the embedding genus from 0": 2,
    }


@pytest.mark.parametrize("op", [both_strands_operator(), strand_meridian_operator(2, 0)],
                         ids=["both-strands", "strand-meridian"])
def test_fuse_commutes_with_infection(op):
    p = fuse(op)
    for _, k in corpus_knots():
        if k.crossing_count > 10:
            continue
        q = fuse(infect(op, k))
        assert embedding_genus(q.base) == 0
        assert winding_number(q) == winding_number(p)
        assert equal_up_to_units(alexander_poly(q.base), alexander_poly(satellite(p, k)))


def test_commutation_at_alexander_level():
    cases = [
        (w23(), (2, -1), trefoil()),
        (w23(), (2, -1), figure_eight()),
        (strand_meridian_operator(2, 0), (1, 0), trefoil()),
        (both_strands_operator(), (1, 0), figure_eight()),
    ]
    for op, kvec, companion in cases:
        lhs = reduce_to_pattern(infect(op, companion), kvec).base
        rhs = satellite(reduce_to_pattern(op, kvec), companion)
        assert equal_up_to_units(alexander_poly(lhs), alexander_poly(rhs)), (kvec,)


# -- one-strand coherence with the pattern operations ---------------------------


def test_m1_infect_matches_satellite_bitwise():
    for companion in (trefoil(), figure_eight()):
        op = strand_meridian_operator(1, 0)
        p = fuse(op)
        lhs = serialize_diagram(closure(infect(op, companion).link))
        rhs = serialize_diagram(satellite(p, companion))
        assert lhs == rhs


def test_m1_winding_matches():
    op = strand_meridian_operator(1, 0)
    assert winding_vector(op)[0] == winding_number(fuse(op))


def test_m1_parallel_noop_matches():
    op = strand_meridian_operator(1, 0)
    out = parallel(op, (1,))
    assert serialize_diagram(closure(out.link)) == serialize_diagram(closure(op.link))


def test_m1_reduce_matches_compose_route():
    op = strand_meridian_operator(1, 0)
    k = trefoil()
    lhs = serialize_diagram(reduce_to_pattern(infect(op, k), (1,)).base)
    rhs = serialize_diagram(satellite(fuse(op), k))
    assert lhs == rhs
