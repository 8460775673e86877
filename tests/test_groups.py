import random

import pytest
from hypothesis import given, settings, strategies as st

from satkit.abelian import AbelianGroup
from satkit.catalog import (
    braid_closure,
    clasp_pattern,
    core_pattern,
    figure_eight,
    kink_base_pattern,
    torus_knot,
    torus_link,
    trefoil,
    zigzag_pattern,
    cable_pattern,
    corpus_knots,
    corpus_patterns,
)
from satkit import groups
from code_strategies import relabeled
from satkit.diagram import Diagram, connected_sum, insert_poke, unknot
from satkit.errors import DomainError, InternalError
from satkit.groups import (
    EnumerationResult,
    GroupPresentation,
    _cyc_reduce,
    _invert,
    abelianization,
    cut_loop_word,
    free_reduce,
    quotient,
    simplify_presentation,
    strong_winding_check,
    todd_coxeter,
    wirtinger,
    word_to_text,
)
from satkit.patterns import Pattern, compose, difference_pattern, winding_number


def test_wirtinger_unknot():
    g = wirtinger(unknot())
    assert g.generator_count == 1
    assert g.relators == ()
    assert abelianization(g).is_infinite_cyclic


def test_wirtinger_trefoil():
    g = wirtinger(trefoil())
    assert g.generator_count == 3
    assert len(g.relators) == 3
    assert abelianization(g).is_infinite_cyclic


def test_wirtinger_hopf():
    g = wirtinger(torus_link(2, 2))
    assert g.generator_count == 2
    assert abelianization(g) == AbelianGroup((0, 0))


def test_wirtinger_link_rank():
    d = braid_closure(3, [1, 1])  # hopf + split loop
    g = wirtinger(d)
    assert abelianization(g).invariant_factors == (0, 0, 0)


def test_wirtinger_component_with_no_under_crossing():
    # a circle poked over the trefoil passes over at both crossings: its
    # one arc is the whole component
    t = trefoil()
    d = insert_poke(Diagram(t.crossings, t.components + ((99,),)), 1, 99)
    over = d.components[1]
    assert all(x[0] not in over and x[2] not in over for x in d.crossings)
    arc_of_edge, arc_count = groups.arc_data(d)
    assert len({arc_of_edge[e] for e in over}) == 1
    g = wirtinger(d)
    assert g.generator_count == arc_count == 6
    assert abelianization(g) == AbelianGroup((0, 0))


def test_word_rendering():
    assert word_to_text((1, -2, 1)) == "a B a"


def test_quotient_free_by_generator():
    g = GroupPresentation(1, ())
    q = quotient(g, [(1,)])
    assert todd_coxeter(q, 100).outcome == "trivial"


def test_quotient_knot_group_by_meridian_is_trivial():
    for d in (trefoil(), figure_eight()):
        q = quotient(wirtinger(d), [(1,)])
        res = todd_coxeter(q, 10**4)
        assert res.outcome == "trivial"
        assert res.cosets_used <= 10**4


def test_quotient_rejects_out_of_range_letters():
    g = GroupPresentation(2, ((1, 2, -1, -2),))
    with pytest.raises(DomainError):
        quotient(g, [(1, 3)])
    with pytest.raises(DomainError):
        quotient(g, [(-3,)])


def test_quotient_hopf_by_meridian():
    q = quotient(wirtinger(torus_link(2, 2)), [(1,)])
    assert abelianization(q).is_infinite_cyclic


def test_todd_coxeter_cyclic():
    g = GroupPresentation(1, ((1, 1, 1),))
    res = todd_coxeter(g, 100)
    assert res.outcome == "finite"
    assert res.order == 3


def test_todd_coxeter_trivial_word():
    g = GroupPresentation(1, ((1,),))
    res = todd_coxeter(g, 100)
    assert res.outcome == "trivial"
    assert res.order == 1


def test_todd_coxeter_symmetric_group():
    # <a,b | a^2, b^3, (ab)^3> has order 12 (alternating group)
    g = GroupPresentation(2, ((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2)))
    assert todd_coxeter(g, 10**4).order == 12
    # <a,b | a^2, b^3, (ab)^4> is S4, order 24
    g = GroupPresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 4))
    assert todd_coxeter(g, 10**4).order == 24


def test_todd_coxeter_quaternion():
    # <a,b | a^4, a^2 b^-2, b^-1 a b a>
    g = GroupPresentation(2, ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
    assert todd_coxeter(g, 10**4).order == 8


def test_todd_coxeter_exceeded_is_not_a_conclusion():
    g = GroupPresentation(2, ())  # free of rank 2
    res = todd_coxeter(g, 50)
    assert res.outcome == "exceeded"
    assert res.cosets_used >= 50
    assert not res.closed


def test_todd_coxeter_needs_work_trivial_group():
    # bab^-1 = a^2, aba^-1 = b^2 presents the trivial group but the table
    # does not close instantly
    g = GroupPresentation(
        2, ((2, 1, -2, -1, -1), (1, 2, -1, -2, -2))
    )
    res = todd_coxeter(g, 10**4)
    assert res.outcome == "trivial"


def test_todd_coxeter_deterministic():
    g = GroupPresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 3))
    r1 = todd_coxeter(g, 10**4)
    r2 = todd_coxeter(g, 10**4)
    assert r1 == r2


def test_simplify_presentation_keeps_abelianization():
    g = wirtinger(braid_closure(3, [1, -2, 1, -2]))
    s = simplify_presentation(g)
    assert abelianization(s).invariant_factors == abelianization(g).invariant_factors
    assert s.generator_count < g.generator_count


def test_every_wirtinger_generator_of_a_knot_is_a_meridian():
    # killing any one generator kills the knot group, and Tietze elimination
    # proves it by reaching the empty presentation
    pairs = 0
    for _, d in corpus_knots():
        g = wirtinger(d)
        for gen in range(1, g.generator_count + 1):
            assert simplify_presentation(quotient(g, [(gen,)])) == GroupPresentation(0, ())
            pairs += 1
    assert pairs == 198


def test_cut_loop_word_exponent_sum_is_winding():
    for p in (core_pattern(), zigzag_pattern(), clasp_pattern(), cable_pattern(2, 3)):
        w = cut_loop_word(p)
        assert sum(1 if x > 0 else -1 for x in w) == winding_number(p)


def test_strong_winding_core():
    res = strong_winding_check(core_pattern(), limit=100)
    assert res.outcome == "verified"
    assert res.enumeration.cosets_used <= 2


def test_strong_winding_trivial_base_patterns():
    for p in (kink_base_pattern(), zigzag_pattern()):
        res = strong_winding_check(p, limit=10**5)
        assert res.outcome == "verified"


def test_strong_winding_carries_the_wirtinger_presentation():
    p = cable_pattern(2, 3)
    res = strong_winding_check(p, limit=100)
    assert res.wirtinger_presentation == wirtinger(p.base)
    assert res.presentation == simplify_presentation(quotient(wirtinger(p.base), [cut_loop_word(p)]))


def test_strong_winding_trivial_claim_with_nontrivial_abelianization_is_internal(monkeypatch):
    # cable(2,1) has winding number 2, so its quotient abelianizes to Z/2: a
    # Smith form claiming trivial (or Z) disagrees with the cut signs, and the
    # check stops before any verdict
    for claim in (AbelianGroup(()), AbelianGroup((0,))):
        monkeypatch.setattr(groups, "abelianization", lambda g, claim=claim: claim)
        with pytest.raises(InternalError, match="disagrees with winding number 2"):
            strong_winding_check(cable_pattern(2, 1), limit=100)


def test_strong_winding_refuted_for_winding_zero():
    res = strong_winding_check(clasp_pattern(), limit=500)
    assert res.outcome == "refuted"
    assert res.abelianization == AbelianGroup((0,))
    assert res.enumeration == EnumerationResult("not-run", None, 0, 500)


def _relabelled_pattern(p, rng):
    edges = p.base.edges()
    mapping = dict(zip(edges, rng.sample(range(1, 4 * len(edges) + 1), len(edges))))
    return Pattern(relabeled(p.base, mapping), tuple((mapping[e], s) for e, s in p.cut))


def test_winding_other_than_one_is_refuted_by_the_smith_form_alone(monkeypatch):
    def spy(g, limit):
        raise AssertionError("todd_coxeter called on a refuted pattern")

    monkeypatch.setattr(groups, "todd_coxeter", spy)
    rng = random.Random(19)
    for p, factors in ((clasp_pattern(), (0,)), (cable_pattern(2, 1), (2,)),
                       (cable_pattern(2, 3), (2,)), (cable_pattern(3, 2), (3,))):
        for q in [p] + [_relabelled_pattern(p, rng) for _ in range(5)]:
            res = strong_winding_check(q, 10**6)
            assert res.outcome == "refuted"
            assert res.abelianization.invariant_factors == factors
            # the certificate, recomputed from the unsimplified quotient
            full = quotient(wirtinger(q.base), [cut_loop_word(q)])
            assert abelianization(full).invariant_factors == factors
            assert res.enumeration == EnumerationResult("not-run", None, 0, 10**6)


def _stalled_pattern():
    # a perfect quotient that Tietze elimination leaves at 9 generators and 10
    # relators, so only enumeration can decide it
    return difference_pattern(zigzag_pattern(), figure_eight())


def test_perfect_quotient_closing_above_one_is_refuted(monkeypatch):
    seen = []

    def order_60(g, limit):
        seen.append(g)
        return EnumerationResult("finite", 60, 60, limit)

    monkeypatch.setattr(groups, "todd_coxeter", order_60)
    res = strong_winding_check(_stalled_pattern(), 100)
    assert (res.outcome, res.route) == ("refuted", "enumeration")
    assert res.abelianization.is_trivial
    assert (res.enumeration.order, res.enumeration.limit) == (60, 100)
    assert seen == [res.presentation]


def test_exceeded_enumeration_is_inconclusive_with_its_budget():
    res = strong_winding_check(_stalled_pattern(), 300)
    assert (res.outcome, res.route) == ("inconclusive", "enumeration")
    assert res.abelianization.is_trivial
    assert res.enumeration == EnumerationResult("exceeded", None, 300, 300)
    assert (res.presentation.generator_count, len(res.presentation.relators)) == (9, 10)


def _cyclic_reduction(word):
    w = free_reduce(word)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _replay_tietze_log(pattern, log):
    """Replay a strong-winding Tietze log on the unsimplified quotient and
    fail unless it ends at no generators and no relators.  Written apart
    from ``simplify_presentation``, sharing only ``free_reduce``: each step
    (generator, relator, position) must name a live relator in which the
    generator occurs exactly once, at that position; the generator is
    solved for, substituted everywhere, and empty relators are dropped."""
    q = quotient(wirtinger(pattern.base), [cut_loop_word(pattern)])
    gens = set(range(1, q.generator_count + 1))
    live = {i: _cyclic_reduction(r) for i, r in enumerate(q.relators)}
    live = {i: r for i, r in live.items() if r}
    for step, (gen, rid, pos) in enumerate(log):
        assert gen in gens and rid in live, f"step {step}: generator {gen} or relator {rid} is gone"
        rel = live.pop(rid)
        assert [i for i, x in enumerate(rel) if abs(x) == gen] == [pos], f"step {step}: {gen} in {rel}"
        # rel = u x v = 1 gives x = u^-1 v^-1, with x = gen or gen^-1
        x = tuple(-y for y in reversed(rel[:pos])) + tuple(-y for y in reversed(rel[pos + 1:]))
        image = {rel[pos]: x, -rel[pos]: tuple(-y for y in reversed(x))}
        gens.remove(gen)
        for i, r in list(live.items()):
            r = _cyclic_reduction(tuple(z for y in r for z in image.get(y, (y,))))
            if r:
                live[i] = r
            else:
                del live[i]
    assert not gens and not live, f"left over: generators {sorted(gens)}, relators {sorted(live)}"


def test_every_verified_result_carries_a_log_that_replays():
    patterns = [p for _, p in corpus_patterns()]
    patterns += [compose(zigzag_pattern(), k) for k in (trefoil(), figure_eight())]
    rng = random.Random(7)
    verified = 0
    for p in patterns + [_relabelled_pattern(p, rng) for p in patterns]:
        res = strong_winding_check(p, 10**5)
        assert res.outcome in ("verified", "refuted")
        if res.outcome == "verified":
            verified += 1
            assert res.route == "tietze" and res.abelianization.is_trivial
            assert res.enumeration == EnumerationResult("not-run", None, 0, 10**5)
            assert res.presentation == GroupPresentation(0, ())
            _replay_tietze_log(p, res.tietze_log)
            # the coset table of the quotient, eliminated to 8 generators, agrees with the log
            q0 = quotient(wirtinger(p.base), [cut_loop_word(p)])
            enumeration = todd_coxeter(_rescan_simplify(q0, 8), 10**5)
            assert (enumeration.outcome, enumeration.order) == ("trivial", 1)
            assert abs(winding_number(p)) == 1
    assert verified == 12


def test_log_replayer_rejects_broken_logs():
    p = compose(zigzag_pattern(), trefoil())
    log = strong_winding_check(p).tietze_log
    _replay_tietze_log(p, log)
    gen, rid, pos = log[0]
    # an over-arc generator occurs twice in its crossing's relator
    twice = next((g, r, [abs(x) for x in rel].index(g))
                 for r, rel in enumerate(quotient(wirtinger(p.base), [cut_loop_word(p)]).relators)
                 for g in {abs(x) for x in rel} if sum(abs(x) == g for x in rel) == 2)
    broken = (
        (log[:20] + log[21:], r"step \d+: "),  # one step dropped
        (log[:-1], "left over: generators "),  # the last step dropped
        ((twice,) + log, "step 0: "),  # a generator that occurs twice
        (((gen, rid, pos + 1),) + log[1:], "step 0: "),  # a wrong position
        (log + (log[-1],), "step 47: "),  # a step repeated
    )
    for mutant, reason in broken:
        with pytest.raises(AssertionError, match=reason):
            _replay_tietze_log(p, mutant)


def _zigzag_composites():
    return [compose(zigzag_pattern(), k) for k in (
        trefoil(), torus_knot(2, 5), torus_knot(2, 7), torus_knot(2, 9),
        connected_sum(figure_eight(), trefoil()))]


class _Enumerated(Exception):
    pass


def test_no_perfect_workload_quotient_enumerates(monkeypatch):
    def refuse(g, limit):
        raise _Enumerated

    monkeypatch.setattr(groups, "todd_coxeter", refuse)
    perfect = [p for _, p in corpus_patterns() if abs(winding_number(p)) == 1]
    assert len(perfect) == 4
    perfect += _zigzag_composites()
    for limit in (10**6, 1):
        for p in perfect:
            res = strong_winding_check(p, limit)
            assert (res.outcome, res.route) == ("verified", "tietze")
            assert res.enumeration == EnumerationResult("not-run", None, 0, limit)
    with pytest.raises(_Enumerated):
        strong_winding_check(_stalled_pattern(), 1)


def test_coset_limit_is_checked_before_any_route():
    for p in (clasp_pattern(), core_pattern()):
        with pytest.raises(DomainError, match="coset limit must be at least 1"):
            strong_winding_check(p, 0)


def test_verified_implies_winding_one():
    for p in (core_pattern(), kink_base_pattern(), zigzag_pattern()):
        res = strong_winding_check(p, limit=10**5)
        if res.outcome == "verified":
            q = quotient(wirtinger(p.base), [cut_loop_word(p)])
            assert abelianization(q).is_trivial
            assert abs(winding_number(p)) == 1


def test_difference_operator_inherits_strong_winding():
    # the inverse-sum operator built from a verified pattern verifies too
    r = difference_pattern(kink_base_pattern(), trefoil())
    res = strong_winding_check(r, 10**5)
    assert res.outcome == "verified"


def test_monotone_in_limit():
    p = zigzag_pattern()
    res1 = strong_winding_check(p, limit=10**4)
    res2 = strong_winding_check(p, limit=10**6)
    assert res1.outcome == res2.outcome == "verified"


def test_abelianization_of_cut_quotient_is_cyclic_of_winding():
    for p in (core_pattern(), clasp_pattern(), cable_pattern(2, 3), cable_pattern(3, 2)):
        q = quotient(wirtinger(p.base), [cut_loop_word(p)])
        n = winding_number(p)
        assert abelianization(q) == AbelianGroup.cyclic(n) if n != 0 else abelianization(q).is_infinite_cyclic


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_todd_coxeter_abelian_products(p, q):
    g = GroupPresentation(2, ((1,) * p, (2,) * q, (1, 2, -1, -2)))
    assert todd_coxeter(g, 10**4).order == p * q


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_todd_coxeter_dihedral(n):
    g = GroupPresentation(2, ((1,) * n, (2, 2), (1, 2) * 2))
    assert todd_coxeter(g, 10**4).order == 2 * n


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
def test_todd_coxeter_against_sympy(p, q):
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    F, a, b = free_group("a, b")
    G = FpGroup(F, [a**p, b**q, (a * b) ** 2])
    ours = todd_coxeter(
        GroupPresentation(2, ((1,) * p, (2,) * q, (1, 2, 1, 2))), 10**5
    )
    # the (p, q, 2) triangle-type presentation is finite for 1/p + 1/q > 1/2
    if 1 / p + 1 / q > 0.5:
        assert ours.outcome in ("finite", "trivial")
        assert ours.order == G.order()


# -- Tietze selection and coset enumeration against the earlier kernels --------
#
# _rescan_simplify and _row_todd_coxeter are the earlier implementations: the
# Tietze step recounted every relator for each candidate generator, and the
# coset table held one row list per coset.  The kernels in ``groups`` must
# give the same presentations (the engine against a rescan to no generator
# target) and the same enumeration results.  The rescan's generator target
# gives the tests a presentation left at 8 generators to enumerate.


def _rescan_simplify(g, target_generators, length_cap=6000):
    relators = [_cyc_reduce(r) for r in g.relators]
    relators = [r for r in relators if r]
    ngens = g.generator_count

    def occurrences(rel, gen):
        return sum(1 for x in rel if abs(x) == gen)

    while ngens > target_generators:
        best = None
        for ri, rel in enumerate(relators):
            counts = {}
            for x in rel:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for gen, cnt in counts.items():
                if cnt != 1:
                    continue
                elsewhere = sum(occurrences(r, gen) for r in relators) - 1
                score = (len(rel) - 1) * elsewhere
                if best is None or score < best[0]:
                    best = (score, ri, gen)
        if best is None:
            break
        _, ri, gen = best
        rel = relators[ri]
        pos = next(i for i, x in enumerate(rel) if abs(x) == gen)
        u, v = rel[:pos], rel[pos + 1:]
        if rel[pos] > 0:
            replacement = free_reduce(_invert(u) + _invert(v))
        else:
            replacement = free_reduce(v + u)

        def substitute(word):
            out = []
            for x in word:
                if x == gen:
                    out.extend(replacement)
                elif x == -gen:
                    out.extend(_invert(replacement))
                else:
                    out.append(x)
            return free_reduce(tuple(out))

        new_relators = [_cyc_reduce(substitute(r)) for i, r in enumerate(relators) if i != ri]
        new_relators = [r for r in new_relators if r]
        if sum(len(r) for r in new_relators) > length_cap:
            break
        remap = {}
        for old in range(1, ngens + 1):
            if old != gen:
                remap[old] = len(remap) + 1

        def renumber(word):
            return tuple((1 if x > 0 else -1) * remap[abs(x)] for x in word)

        relators = [renumber(r) for r in new_relators]
        ngens -= 1
    return GroupPresentation(ngens, tuple(relators))


class _RowOverflow(Exception):
    pass


class _RowCosetTable:
    def __init__(self, ngens, limit):
        self.width = 2 * ngens
        self.limit = limit
        self.table = [[None] * self.width]
        self.p = [0]
        self.queue = []

    def rep(self, k):
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, a, l):
        if len(self.table) >= self.limit:
            raise _RowOverflow
        b = len(self.table)
        self.table.append([None] * self.width)
        self.p.append(b)
        self.table[a][l] = b
        self.table[b][l ^ 1] = a
        return b

    def merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            self.queue.append(b)

    def process_coincidences(self):
        table = self.table
        while self.queue:
            b = self.queue.pop()
            row = table[b]
            for l in range(self.width):
                c = row[l]
                if c is None:
                    continue
                row[l] = None
                li = l ^ 1
                if table[c][li] == b:
                    table[c][li] = None
                a = self.rep(b)
                c = self.rep(c)
                if table[a][l] is not None:
                    self.merge(c, table[a][l])
                elif table[c][li] is not None:
                    self.merge(a, table[c][li])
                else:
                    table[a][l] = c
                    table[c][li] = a

    def scan_and_fill(self, a, rel, fill=True):
        table = self.table
        f, i = a, 0
        b, j = a, len(rel) - 1
        while True:
            while i <= j and table[f][rel[i]] is not None:
                f = table[f][rel[i]]
                i += 1
            if i > j:
                if f != b:
                    self.merge(f, b)
                    self.process_coincidences()
                return
            while j >= i and table[b][rel[j] ^ 1] is not None:
                b = table[b][rel[j] ^ 1]
                j -= 1
            if j < i:
                self.merge(f, b)
                self.process_coincidences()
                return
            if j == i:
                table[f][rel[i]] = b
                table[b][rel[i] ^ 1] = f
                return
            if not fill:
                return
            f = self.define(f, rel[i])
            i += 1

    def lookahead(self, rels):
        for a in range(len(self.table)):
            if self.p[a] != a:
                continue
            for rel in rels:
                self.scan_and_fill(a, rel, fill=False)
                if self.p[a] != a:
                    break


def _row_todd_coxeter(g, limit):
    if g.generator_count == 0:
        return EnumerationResult("trivial", 1, 1, limit)
    rels = [tuple(2 * (abs(x) - 1) + (x < 0) for x in _cyc_reduce(r)) for r in g.relators]
    rels = [r for r in rels if r]
    ct = _RowCosetTable(g.generator_count, limit)
    next_lookahead = 4096
    try:
        a = 0
        while a < len(ct.table):
            if ct.p[a] == a:
                for rel in rels:
                    ct.scan_and_fill(a, rel)
                    if ct.p[a] != a:
                        break
                if ct.p[a] == a:
                    for l in range(ct.width):
                        if ct.table[a][l] is None:
                            ct.define(a, l)
            if len(ct.table) >= next_lookahead:
                ct.lookahead(rels)
                next_lookahead *= 2
            a += 1
    except _RowOverflow:
        return EnumerationResult("exceeded", None, len(ct.table), limit)
    live = sum(1 for i in range(len(ct.table)) if ct.p[i] == i)
    return EnumerationResult("trivial" if live == 1 else "finite", live, len(ct.table), limit)


def _random_presentation(rng):
    """2-6 generators and up to n + 2 relators of length 1-8; about half the
    relators carry a cancelling pair."""
    n = rng.randint(2, 6)

    def word(max_len):
        w = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, max_len))]
        if rng.random() < 0.5:
            x = rng.choice((1, -1)) * rng.randint(1, n)
            i = rng.randint(0, len(w))
            w[i:i] = [x, -x]
        return tuple(w)

    relators = tuple(word(8) for _ in range(rng.randint(1, n + 2)))
    return GroupPresentation(n, relators)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from((6000, 12)))
def test_simplify_presentation_matches_rescan(rng, cap):
    g = _random_presentation(rng)
    assert simplify_presentation(g, length_cap=cap) == _rescan_simplify(g, 0, cap)


def _zigzag_quotient(knot):
    p = compose(zigzag_pattern(), knot)
    return quotient(wirtinger(p.base), [cut_loop_word(p)])


def test_simplify_presentation_matches_rescan_at_workload_size():
    # the zigzag composites' quotients, 47 and 83 generators, run to the
    # end: many moves, stale queue entries, relators that empty out.  A
    # quotient's relator total falls at every move (189, 187, ..., 2, 0 for
    # the trefoil's), so a cap could stop it only before
    # its first move.  Beside it, generators a, b with relators a b^20 and
    # a^10 b a^10: once the quotient is gone, eliminating a (score 400)
    # leaves b^-399, the first total above the start (231 and 375).  Cap 398
    # stops there, after every move of the quotient; cap 399 lets it through
    for knot in (trefoil(), connected_sum(figure_eight(), trefoil())):
        q = _zigzag_quotient(knot)
        assert simplify_presentation(q) == _rescan_simplify(q, 0)
        a, b = q.generator_count + 1, q.generator_count + 2
        g = GroupPresentation(b, q.relators + ((a,) + (b,) * 20, (a,) * 10 + (b,) + (a,) * 10))
        for cap, left in ((398, 2), (399, 1)):
            s = simplify_presentation(g, length_cap=cap)
            assert s == _rescan_simplify(g, 0, cap)
            assert s.generator_count == left


def test_zigzag_composite_verdicts_are_pinned():
    # Tietze log length, and the cosets that enumerating the target-8
    # presentation uses with its generator and relator counts, for the
    # zigzag composites of the benchmark's verdicts; each verdict is
    # reached with no enumeration, and its log replays on relabelled copies
    expected = ((47, 4128, 8, 9), (77, 408, 8, 9), (107, 110, 8, 9), (137, 29, 8, 9), (83, 52, 8, 9))
    rng = random.Random(23)
    for p, (steps, cosets, gens, rels) in zip(_zigzag_composites(), expected):
        res = strong_winding_check(p)
        assert (res.outcome, res.route, len(res.tietze_log)) == ("verified", "tietze", steps)
        assert res.enumeration == EnumerationResult("not-run", None, 0, 10**6)
        _replay_tietze_log(p, res.tietze_log)
        q = _rescan_simplify(quotient(wirtinger(p.base), [cut_loop_word(p)]), 8)
        enumeration = todd_coxeter(q)
        assert (enumeration.outcome, enumeration.cosets_used) == ("trivial", cosets)
        assert (q.generator_count, len(q.relators)) == (gens, rels)
        r = _relabelled_pattern(p, rng)
        res = strong_winding_check(r)
        assert res.route == "tietze"
        _replay_tietze_log(r, res.tietze_log)


def _slicing_cyc_reduce(word):
    # the earlier trim: one slice per cancelling pair of ends
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=40))
def test_cyc_reduce_matches_slicing_trim(word):
    half = tuple(word)
    for w in (half, half + _invert(half), (1,) + half + _invert(half) + (2,)):
        assert _cyc_reduce(w) == _slicing_cyc_reduce(w)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_todd_coxeter_matches_row_table(rng):
    # limits below the first lookahead (4096 cosets) and past it
    g = _random_presentation(rng)
    s = simplify_presentation(g)
    for limit in (7, 60, 4100, 9000):
        assert todd_coxeter(g, limit) == _row_todd_coxeter(g, limit)
        assert todd_coxeter(s, limit) == _row_todd_coxeter(s, limit)


def test_todd_coxeter_matches_row_table_on_knot_quotients_and_large_groups():
    for p in (cable_pattern(2, 3), cable_pattern(3, 2), zigzag_pattern(), clasp_pattern()):
        q = quotient(wirtinger(p.base), [cut_loop_word(p)])
        assert simplify_presentation(q) == _rescan_simplify(q, 0)
        s = _rescan_simplify(q, 8)
        assert todd_coxeter(s, 5000) == _row_todd_coxeter(s, 5000)
    # Z/70 x Z/80 closes only after lookahead passes
    g = GroupPresentation(2, ((1,) * 70, (2,) * 80, (1, 2, -1, -2)))
    for limit in (4100, 10**4):
        assert todd_coxeter(g, limit) == _row_todd_coxeter(g, limit)
    assert todd_coxeter(g, 10**4).order == 5600


def test_todd_coxeter_exceeded_at_limit_after_lookahead():
    # <a, b | a b^-1> is Z: every coset up to the limit gets defined
    res = todd_coxeter(GroupPresentation(2, ((1, -2),)), 5000)
    assert (res.outcome, res.order, res.cosets_used) == ("exceeded", None, 5000)
