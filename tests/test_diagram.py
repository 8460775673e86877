import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from code_strategies import relabeled, valid_codes
from satkit import diagram
from satkit.catalog import (
    braid_closure,
    both_strands_operator,
    cable_pattern,
    pattern_from_braid,
    string_link_from_braid,
    corpus_knots,
    corpus_patterns,
    double_kink_unknot,
    figure_eight,
    positive_kink_unknot,
    torus_knot,
    torus_link,
    trefoil,
)
from satkit.diagram import (
    Diagram,
    _orient,
    canonical,
    component_subdiagram,
    connected_sum,
    crossing_signs,
    diagrams_equal,
    embedding_genus,
    faces,
    insert_kink,
    insert_poke,
    linking_number,
    mirror,
    reverse,
    simplify,
    unknot,
    writhe,
)
from satkit.errors import DomainError, ValidationError
from satkit.patterns import Pattern, _pattern_key, satellite, to_link
from satkit.stringlinks import closure, infect, parallel


@pytest.mark.parametrize("build", [braid_closure, pattern_from_braid, string_link_from_braid])
@pytest.mark.parametrize("letter", [0, 3, -3])
def test_braid_letter_out_of_range(build, letter):
    # letter 0 would otherwise read as a crossing of the last and first
    # strands, and +-strands index past the strand list
    with pytest.raises(DomainError, match=f"braid letter {letter} out of range for 3 strands"):
        build(3, [1, letter])


def test_unknot_shape():
    u = unknot()
    assert u.crossing_count == 0
    assert u.is_knot()


def test_validation_rejects_single_occurrence():
    with pytest.raises(ValidationError):
        Diagram(((1, 2, 2, 3),), ((1, 2, 3, 7),))


def test_validation_rejects_broken_cycle():
    # correct edge multiset, wrong cyclic order
    with pytest.raises(ValidationError):
        Diagram(((1, 4, 2, 5), (5, 2, 6, 3), (3, 6, 4, 1)), ((1, 3, 2, 4, 5, 6),))


def test_trefoil_signs_and_writhe():
    t = trefoil()
    assert crossing_signs(t) == (1, 1, 1)
    assert writhe(t, 0) == 3
    assert writhe(mirror(t), 0) == -3


def test_kink_signs():
    assert crossing_signs(positive_kink_unknot()) == (1,)
    assert crossing_signs(double_kink_unknot()) == (1, -1)


def test_hopf_linking():
    h = torus_link(2, 2)
    assert h.component_count == 2
    assert linking_number(h, 0, 1) == 1
    assert linking_number(h, 1, 0) == 1
    assert linking_number(mirror(h), 0, 1) == -1


def test_reverse_flips_linking():
    h = torus_link(2, 2)
    assert linking_number(reverse(h, 0), 0, 1) == -1
    assert linking_number(reverse(reverse(h, 0), 1), 0, 1) == 1


def test_linking_same_component_rejected():
    with pytest.raises(DomainError):
        linking_number(torus_link(2, 2), 0, 0)


def test_torus_link_26():
    d = torus_link(2, 6)
    assert d.component_count == 2
    assert linking_number(d, 0, 1) == 3


def test_split_union_linking():
    # sigma1^2 on 3 strands: a Hopf pair plus a split free loop
    d = braid_closure(3, [1, 1])
    assert d.component_count == 3
    assert linking_number(d, 0, 1) == 1
    assert linking_number(d, 0, 2) == 0
    assert linking_number(d, 1, 2) == 0


def test_mirror_involution():
    for d in (trefoil(), figure_eight(), torus_link(2, 2)):
        assert diagrams_equal(mirror(mirror(d)), d)


def test_reverse_involution():
    for d in (trefoil(), figure_eight()):
        assert diagrams_equal(reverse(reverse(d, 0), 0), d)


def test_canonical_is_stable():
    t = trefoil()
    c = canonical(t)
    assert canonical(c).crossings == c.crossings
    assert diagrams_equal(t, c)


def test_equality_ignores_relabeling():
    t = trefoil()
    shuffled = relabeled(t, {e: e + 10 for e in t.edges()})
    assert diagrams_equal(t, shuffled)
    assert not diagrams_equal(t, mirror(t))


def test_kink_insert_and_simplify():
    t = trefoil()
    k = insert_kink(t, 1, 1)
    assert k.crossing_count == 4
    assert writhe(k, 0) == 4
    back = simplify(k)
    assert diagrams_equal(back, t)


def test_negative_kink():
    t = trefoil()
    k = insert_kink(t, 3, -1)
    assert writhe(k, 0) == 2
    assert diagrams_equal(simplify(k), t)


def test_poke_and_simplify():
    t = trefoil()
    p = insert_poke(t, 1, 4)
    assert p.crossing_count == 5
    assert writhe(p, 0) == 3
    assert embedding_genus(p) == 0
    assert diagrams_equal(simplify(p), t)


def test_poke_assembles_once(monkeypatch):
    # the layout is read from the face record, not tried out
    assembled = []
    real = diagram._Splice.diagram
    monkeypatch.setattr(diagram._Splice, "diagram", lambda sp, keep: assembled.append(keep) or real(sp, keep))
    pokes = 0
    for d in (trefoil(), figure_eight(), torus_link(2, 2), braid_closure(3, [1, 1]), torus_link(3, 3)):
        for u, v in itertools.permutations(d.edges(), 2):
            try:
                insert_poke(d, u, v)
            except DomainError:
                continue
            pokes += 1
    assert pokes > 100 and len(assembled) == pokes


def test_bad_move_arguments_are_domain_errors():
    t = trefoil()
    for move in (
        lambda: insert_kink(t, 99, 1),
        lambda: insert_poke(t, 99, 1),
        lambda: insert_poke(t, 1, 99),
    ):
        with pytest.raises(DomainError, match="no edge labelled 99"):
            move()
    with pytest.raises(DomainError, match="kink sign"):
        insert_kink(t, 1, 0)
    with pytest.raises(DomainError, match="two distinct edges"):
        insert_poke(t, 1, 1)


def test_simplify_kinked_unknot():
    assert simplify(positive_kink_unknot()).crossing_count == 0
    assert simplify(double_kink_unknot()).crossing_count == 0


def test_simplify_leaves_trefoil_alone():
    t = trefoil()
    assert diagrams_equal(simplify(t), t)


def test_simplify_respects_budget():
    k = insert_kink(insert_kink(trefoil(), 1, 1), 2, 1)
    assert simplify(k, effort=0).crossing_count == 5
    assert simplify(k, effort=1).crossing_count == 4
    assert simplify(k, effort=10).crossing_count == 3


def test_connected_sum_counts():
    t = trefoil()
    g = connected_sum(t, t)
    assert g.is_knot()
    assert g.crossing_count == 6
    assert writhe(g, 0) == 6


def test_connected_sum_with_unknot_is_identity():
    t = trefoil()
    assert diagrams_equal(connected_sum(t, unknot()), t)
    assert diagrams_equal(connected_sum(unknot(), t), t)


def test_connected_sum_rejects_links():
    with pytest.raises(DomainError):
        connected_sum(torus_link(2, 2), trefoil())


@st.composite
def braid_words(draw):
    strands = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=1, max_value=7))
    word = [
        draw(st.sampled_from([1, -1])) * draw(st.integers(min_value=1, max_value=strands - 1))
        for _ in range(length)
    ]
    return strands, word


@settings(max_examples=40, deadline=None)
@given(braid_words())
def test_braid_closures_validate_and_mirror(sw):
    strands, word = sw
    d = braid_closure(strands, word)
    assert sum(crossing_signs(d)) == sum(1 if x > 0 else -1 for x in word)
    m = mirror(d)
    assert sum(crossing_signs(m)) == -sum(crossing_signs(d))
    assert diagrams_equal(mirror(m), d)


def test_simplify_preserves_invariants_on_corpus():
    from satkit.catalog import corpus_knots
    from satkit.invariants import alexander_poly, determinant

    rng = random.Random(11)
    knots = [d for _, d in corpus_knots() if d.is_knot() and d.crossing_count <= 8][:8]
    for d in knots:
        inflated = insert_kink(d, rng.choice(d.edges()), rng.choice([1, -1]))
        edges = inflated.edges()
        if len(edges) >= 2:
            e1, e2 = rng.sample(list(edges), 2)
            try:
                inflated = insert_poke(inflated, e1, e2)
            except DomainError:
                pass  # the two edges share no face
        s = simplify(inflated)
        assert alexander_poly(s) == alexander_poly(d)
        assert determinant(s) == determinant(d)
    h = insert_kink(torus_link(2, 2), 1, 1)
    assert linking_number(simplify(h), 0, 1) == linking_number(torus_link(2, 2), 0, 1)


@settings(max_examples=25, deadline=None)
@given(braid_words(), st.integers(min_value=0, max_value=2**31))
def test_simplify_preserves_component_structure(sw, seed):
    strands, word = sw
    d = braid_closure(strands, word)
    rng = random.Random(seed)
    edges = d.edges()
    inflated = insert_kink(d, rng.choice(edges), rng.choice([1, -1]))
    s = simplify(inflated)
    assert s.component_count == d.component_count
    assert s.crossing_count <= inflated.crossing_count


def test_corpus_knots_are_planar():
    assert [name for name, d in corpus_knots() if embedding_genus(d) != 0] == []


# -- the face record ---------------------------------------------------------------


def _counted_genus(d):
    """The face-counting walk ``embedding_genus`` ran before the face record,
    kept as the reference: trace every face, then subtract half the Euler
    characteristic from the number of connected pieces."""
    occ = {}
    for ci, x in enumerate(d.crossings):
        for s, e in enumerate(x):
            occ.setdefault(e, []).append((ci, s))
    if not d.crossings:
        return 0
    seen, count = set(), 0
    for start in [(ci, s) for ci in range(len(d.crossings)) for s in range(4)]:
        if start in seen:
            continue
        count += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            a, b = occ[d.crossings[cur[0]][cur[1]]]
            ci, s = b if a == cur else a
            cur = (ci, (s + 1) % 4)
    parent = list(range(len(d.crossings)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for (a, _), (b, _) in occ.values():
        parent[find(a)] = find(b)
    pieces = len({find(i) for i in range(len(d.crossings))})
    return pieces - (len(d.crossings) - 2 * len(d.crossings) + count) // 2


def _check_faces(d):
    f = faces(d)
    head = _orient(d).edge_head
    darts = [dart for walk in f.walks for dart, _, _ in walk]
    # every dart lies in exactly one face
    assert sorted(darts) == [(ci, s) for ci in range(len(d.crossings)) for s in range(4)]
    edges = [e for walk in f.walks for _, e, _ in walk]
    assert all(n == 2 for n in Counter(edges).values())
    assert set(edges) == {e for x in d.crossings for e in x}
    for index, walk in enumerate(f.walks):
        for (ci, s), e, forward in walk:
            assert d.crossings[ci][s] == e
            assert forward == (head[e] != (ci, s))
            assert f.face[e, forward] == index
        # each step runs along its edge to the other end and turns one slot
        # counterclockwise there
        for ((ci, s), e, _), ((cj, t), _, _) in zip(walk, walk[1:] + walk[:1]):
            assert d.crossings[cj][(t - 1) % 4] == e and (cj, (t - 1) % 4) != (ci, s)
    # the four edges at a crossing lie on one piece
    assert f.piece.keys() == set(edges)
    for x in d.crossings:
        assert len({f.piece[e] for e in x}) == 1
    assert embedding_genus(d) == f.genus == _counted_genus(d)


def test_face_record_of_corpus_diagrams():
    diagrams = [d for _, d in corpus_knots()]
    for _, p in corpus_patterns():
        diagrams += [p.base, to_link(p)]
    diagrams += [torus_link(2, 2), torus_link(3, 3), unknot(), _split_union(trefoil(), 2)]
    for d in diagrams:
        _check_faces(d)


def test_face_record_of_ladder_and_corpus_satellites():
    # the Alexander polynomial's planarity guard runs on these: the six
    # cabling-formula ladder rungs (21 to 429 crossings), every corpus
    # satellite, and each corpus knot under a random relabelling
    ladder = (((2, 3), 3), ((3, 2), 5), ((3, 4), 7), ((4, 5), 5), ((4, 5), 7), ((5, 6), 9))
    knots = [d for _, d in corpus_knots()]
    diagrams = [satellite(cable_pattern(p, q), torus_knot(2, k)) for (p, q), k in ladder]
    diagrams += [satellite(p, d) for _, p in corpus_patterns() for d in knots]
    rng = random.Random(30)
    diagrams += [_shuffled(d, rng)[0] for d in knots]
    assert len(diagrams) == 6 + 264 + 33
    for d in diagrams:
        _check_faces(d)


@settings(max_examples=300, deadline=None)
@given(valid_codes())
def test_face_record_of_any_valid_code(code):
    _check_faces(Diagram(*code))


# -- canonical labelling against the exhaustive search ---------------------------

# the reference tries every product of cycle rotations; above this many it
# is not run
_REFERENCE_LIMIT = 20_000


def _reference_key(d, cut=None):
    """Least (sorted crossings, components[, cut]) over all rotation products."""
    total = 1
    for cyc in d.components:
        total *= len(cyc)
    if total > _REFERENCE_LIMIT:
        return None
    best = None
    for starts in itertools.product(*(range(len(cyc)) for cyc in d.components)):
        mapping = {}
        for cyc, r in zip(d.components, starts):
            for e in cyc[r:] + cyc[:r]:
                mapping[e] = len(mapping) + 1
        cr = tuple(sorted(tuple(mapping[e] for e in x) for x in d.crossings))
        comps = tuple(tuple(mapping[e] for e in cyc[r:] + cyc[:r]) for cyc, r in zip(d.components, starts))
        key = (cr, comps) if cut is None else (cr, comps, tuple((mapping[e], s) for e, s in cut))
        if best is None or key < best:
            best = key
    return best


def _shuffled(d, rng):
    """``d`` with every cycle rotated and the edges renumbered at random;
    returns the copy and the old -> new label map."""
    cycles = []
    for cyc in d.components:
        k = rng.randrange(len(cyc))
        cycles.append(cyc[k:] + cyc[:k])
    rotated = Diagram(d.crossings, cycles, d.names)
    labels = rng.sample(range(1, 4 * len(d.edges()) + 1), len(d.edges()))
    mapping = dict(zip(d.edges(), labels))
    return relabeled(rotated, mapping), mapping


def _key(d):
    c = canonical(d)
    return c.crossings, c.components


@st.composite
def _presentations(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    if draw(st.booleans()):
        knots = corpus_knots()
        d = knots[draw(st.integers(min_value=0, max_value=len(knots) - 1))][1]
    else:
        strands = draw(st.integers(min_value=2, max_value=5))
        length = draw(st.integers(min_value=1, max_value=12))
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
        d = braid_closure(strands, word)
    return _shuffled(d, rng)[0], rng


@settings(max_examples=150, deadline=None)
@given(_presentations())
def test_canonical_matches_exhaustive_search(drawn):
    d, rng = drawn
    reference = _reference_key(d)
    if reference is not None:
        assert _key(d) == reference
    assert _key(_shuffled(d, rng)[0]) == _key(d)


@settings(max_examples=100, deadline=None)
@given(_presentations())
def test_pattern_key_matches_exhaustive_search(drawn):
    d, rng = drawn
    if not d.is_knot():
        d = component_subdiagram(d, [0])
    edges = list(d.edges())
    cut = [(e, rng.choice([1, -1])) for e in rng.sample(edges, rng.randint(1, min(4, len(edges))))]
    p = Pattern(d, cut)
    reference = _reference_key(d, p.cut)
    if reference is not None:
        assert _pattern_key(p) == reference
    copy, mapping = _shuffled(d, rng)
    assert _pattern_key(Pattern(copy, [(mapping[e], s) for e, s in cut])) == _pattern_key(p)


def test_pattern_keys_of_corpus_patterns_match_exhaustive_search():
    rng = random.Random(5)
    for _, p in corpus_patterns():
        copy, mapping = _shuffled(p.base, rng)
        moved = Pattern(copy, [(mapping[e], s) for e, s in p.cut])
        assert _pattern_key(moved) == _pattern_key(p) == _reference_key(p.base, p.cut)


def _split_union(knot, copies):
    """``copies`` unlinked copies of one knot, side by side."""
    crossings, components, shift = [], [], 0
    for _ in range(copies):
        crossings += [tuple(e + shift for e in x) for x in knot.crossings]
        components += [tuple(e + shift for e in cyc) for cyc in knot.components]
        shift += max(knot.edges())
    return Diagram(crossings, components)


def test_large_links_canonicalise_and_round_trip():
    from satkit import formats

    cases = [
        torus_link(5, 10),  # 16^5 rotation products
        closure(parallel(infect(both_strands_operator(), trefoil()), (2, 2)).link),
        _split_union(torus_link(2, 7), 6),  # 14^6 rotation products
    ]
    assert [(d.crossing_count, d.component_count) for d in cases] == [(40, 5), (84, 4), (42, 6)]
    # each has more than 500k rotation products, beyond what the exhaustive
    # search ever tried
    rng = random.Random(7)
    for d in cases:
        text = formats.serialize_diagram(d)
        back = formats.parse_diagram(text)
        assert back == canonical(d)
        assert formats.serialize_diagram(back) == text
        assert diagrams_equal(back, d)
        for _ in range(3):
            assert _key(_shuffled(d, rng)[0]) == _key(d)
