"""Reidemeister reduction and component deletion on the crossing code.

``simplify`` and ``component_subdiagram`` splice the immutable crossing
code (``diagram._Splice``).  They used to run on the mutable
``wires.Builder``, setting deleted crossings to ``None`` and fusing wires
through a ``reconnect`` method; that path is kept below as the reference.
On planar input ``simplify`` must give the same raw code (crossings and
component cycles) at every budget, and component deletion the same
diagram up to renumbering for every proper subset of components.  On non-planar
input the reference could write into a deleted crossing and raise
``TypeError``; the splice must return a diagram everywhere.
"""

import itertools
import random

import pytest
from hypothesis import given, settings

from code_strategies import valid_codes
from satkit.catalog import (
    braid_closure,
    corpus_knots,
    corpus_patterns,
    figure_eight,
    hopf_link,
    torus_link,
    trefoil,
    zigzag_pattern,
)
from satkit.diagram import (
    Diagram,
    _orient,
    component_subdiagram,
    diagrams_equal,
    embedding_genus,
    simplify,
)
from satkit.errors import DomainError
from satkit.patterns import satellite, to_link
from satkit.surgery import build_pipeline
from satkit.wires import LOOP, Builder, insert_kink, insert_poke

# -- reference: the Builder path the splice replaced ---------------------------


class _ReferenceBuilder(Builder):
    def reconnect(self, wa, at_a, wb, at_b):
        ea = self._unbind(wa, ("x",) + at_a)
        eb = self._unbind(wb, ("x",) + at_b)
        return self.fuse(ea, eb) if ea[1] == 1 else self.fuse(eb, ea)

    def remove_edges(self, drop):
        drop = {self.live(w) for w in drop}
        for ci, x in enumerate(self.crossings):
            if x is None:
                continue
            under_in = self.live(x[0]) in drop
            over_in = self.live(x[1]) in drop
            if not (under_in or over_in):
                continue
            if under_in and over_in:
                self.crossings[ci] = None
                continue
            sa, sb = (1, 3) if under_in else (0, 2)
            self.crossings[ci] = None
            self.reconnect(x[sa], (ci, sa), x[sb], (ci, sb))
        for w in drop:
            w = self.live(w)
            if w is not None and w in self.wires:
                del self.wires[w]

    def walk_out(self, seeds):
        """``to_diagram`` over the crossings not deleted, in their order."""
        live = [ci for ci, x in enumerate(self.crossings) if x is not None]
        index = {ci: k for k, ci in enumerate(live)}
        self.crossings = [self.crossings[ci] for ci in live]
        for ends in self.wires.values():
            for i, end in enumerate(ends):
                if end not in (None, LOOP):
                    ends[i] = ("x", index[end[1]], end[2])
        return self.to_diagram(seeds)[0]


def _find_r1(b):
    for ci, x in enumerate(b.crossings):
        if x is None:
            continue
        for s in range(4):
            w1 = b.live(x[s])
            w2 = b.live(x[(s + 1) % 4])
            if w1 == w2:
                ends = b.wires[w1]
                if (
                    ends[0] is not None and ends[0] != LOOP and ends[0][0] == "x" and ends[0][1] == ci
                    and ends[1] is not None and ends[1][0] == "x" and ends[1][1] == ci
                    and {ends[0][2], ends[1][2]} == {s, (s + 1) % 4}
                ):
                    return ci, s
    return None


def _find_r2(b):
    for ci, x in enumerate(b.crossings):
        if x is None:
            continue
        for si in range(4):
            w = b.live(x[si])
            ends = b.wires[w]
            if ends[0] == LOOP or ends[0] is None or ends[1] is None:
                continue
            if ends[0][0] != "x" or ends[1][0] != "x":
                continue
            (c1, s1), (c2, s2) = (ends[0][1:], ends[1][1:])
            if c1 == c2:
                continue
            if c1 != ci or s1 != si:
                c1, s1, c2, s2 = c2, s2, c1, s1
            if c1 != ci or s1 != si:
                continue
            cj, sj = c2, s2
            if b.crossings[cj] is None:
                continue
            w2 = b.live(b.crossings[ci][(si + 1) % 4])
            ends2 = b.wires[w2]
            if ends2[0] == LOOP or ends2[0] is None or ends2[1] is None:
                continue
            if ends2[0][0] != "x" or ends2[1][0] != "x":
                continue
            bindings = {ends2[0][1:], ends2[1][1:]}
            if bindings != {(ci, (si + 1) % 4), (cj, (sj - 1) % 4)}:
                continue
            if w2 == w:
                continue
            if (s1 in (0, 2)) != (sj in (0, 2)):
                continue
            return ci, si, cj, sj
    return None


def _reference_reduce(d, effort=None):
    budget = effort if effort is not None else 10**9
    b, wmap = _ReferenceBuilder.from_diagram(d)
    tags = {}
    for comp_index, cyc in enumerate(d.components):
        for e in cyc:
            tags[b.live(wmap[e])] = comp_index

    def retag(w, comp_index):
        tags[b.live(w)] = comp_index

    moves = 0
    while moves < budget:
        hit = _find_r1(b)
        if hit is not None:
            ci, s = hit
            x = b.crossings[ci]
            loop_wire = b.live(x[s])
            comp = tags.get(loop_wire)
            b.crossings[ci] = None
            del b.wires[loop_wire]
            sa, sb = (s + 2) % 4, (s + 3) % 4
            retag(b.reconnect(x[sa], (ci, sa), x[sb], (ci, sb)), comp)
            moves += 1
            continue
        hit = _find_r2(b)
        if hit is not None:
            ci, si, cj, sj = hit
            xi, xj = b.crossings[ci], b.crossings[cj]
            comp_e = tags.get(b.live(xi[si]))
            comp_f = tags.get(b.live(xi[(si + 1) % 4]))
            b.crossings[ci] = None
            b.crossings[cj] = None
            del b.wires[b.live(xi[si])]
            del b.wires[b.live(xi[(si + 1) % 4])]
            for slot_i, slot_j, comp in (
                ((si + 2) % 4, (sj + 2) % 4, comp_e),
                ((si + 3) % 4, (sj + 1) % 4, comp_f),
            ):
                retag(b.reconnect(xi[slot_i], (ci, slot_i), xj[slot_j], (cj, slot_j)), comp)
            moves += 1
            continue
        break

    seeds_by_comp = {}
    for w in list(b.wires):
        lw = b.live(w)
        if lw is None:
            continue
        comp = tags.get(lw)
        if comp is not None and comp not in seeds_by_comp:
            seeds_by_comp[comp] = lw
    seeds = [(seeds_by_comp[c], True) for c in range(len(d.components))]
    return b.walk_out(seeds)


def _reference_subdiagram(d, keep):
    b, wmap = _ReferenceBuilder.from_diagram(d)
    comp = _orient(d).edge_component
    b.remove_edges({wmap[e] for e, c in comp.items() if c not in keep})
    return b.walk_out(b.seeds(wmap, [d.components[c] for c in sorted(keep)]))


# -- inputs ----------------------------------------------------------------------


def _raw(d):
    return d.crossings, d.components


def _random_inflated(rng):
    """A random braid closure with one to three kinks and pokes inserted."""
    strands = rng.randint(2, 4)
    word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 8))]
    d = braid_closure(strands, word)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            d = insert_kink(d, rng.choice(d.edges()), rng.choice([1, -1]))
        else:
            try:
                d = insert_poke(d, *rng.sample(d.edges(), 2))
            except DomainError:
                pass  # the two edges are one wire
    return d


def _inputs():
    rng = random.Random(7)
    out = [d for _, d in corpus_knots()]
    out += [hopf_link(), hopf_link(False), torus_link(2, 4), torus_link(3, 3)]
    for _, p in corpus_patterns():
        out += [p.base, to_link(p), satellite(p, trefoil()), satellite(p, figure_eight())]
    for k in (trefoil(), figure_eight()):
        out += [fl.diagram for _, fl, _ in build_pipeline(zigzag_pattern(), k).stages]
    out += [_random_inflated(rng) for _ in range(120)]
    return out


# pokes between edges that share no face make some inputs non-planar
INPUTS = _inputs()
PLANAR = [d for d in INPUTS if embedding_genus(d) == 0]
NON_PLANAR = [d for d in INPUTS if embedding_genus(d) > 0]
LINKS = [d for d in PLANAR if d.component_count > 1]


def test_inputs_are_planar_and_varied():
    assert len(PLANAR) >= 100 and len(NON_PLANAR) >= 20 and len(LINKS) >= 30
    assert sum(simplify(d).crossing_count < d.crossing_count for d in PLANAR) >= 40


@pytest.mark.parametrize("effort", [None, 0, 1, 2, 3, 5])
def test_simplify_matches_builder_reference_on_planar_inputs(effort):
    for d in PLANAR:
        assert _raw(simplify(d, effort)) == _raw(_reference_reduce(d, effort))


def test_component_deletion_matches_builder_reference():
    for d in LINKS:
        for r in range(d.component_count):
            for keep in itertools.combinations(range(d.component_count), r):
                assert diagrams_equal(component_subdiagram(d, keep), _reference_subdiagram(d, keep))


# -- non-planar codes ------------------------------------------------------------

# genus 1; the Builder path wrote into a crossing it had already deleted
GENUS_ONE = Diagram(((1, 1, 2, 8), (4, 5, 5, 6), (6, 3, 7, 2), (7, 3, 8, 4)), ((1, 2, 3, 4, 5, 6, 7, 8),))


def test_simplify_reduces_a_genus_one_code():
    assert embedding_genus(GENUS_ONE) == 1
    with pytest.raises(TypeError):
        _reference_reduce(GENUS_ONE)
    assert simplify(GENUS_ONE).crossing_count == 0


def test_simplify_on_non_planar_inputs():
    crashed = 0
    for d in NON_PLANAR:
        s = simplify(d)
        try:
            reference = _reference_reduce(d)
        except TypeError:
            crashed += 1
            assert s.crossing_count <= d.crossing_count
            continue
        assert _raw(s) == _raw(reference)
    assert crashed < len(NON_PLANAR)


@settings(max_examples=300, deadline=None)
@given(valid_codes())
def test_simplify_returns_a_diagram_on_any_valid_code(code):
    d = Diagram(*code)
    s = simplify(d)
    assert isinstance(s, Diagram)
    assert s.crossing_count <= d.crossing_count
    assert s.component_count == d.component_count
    try:
        reference = _reference_reduce(d)
    except TypeError:
        return  # the Builder path wrote into a deleted crossing
    assert _raw(s) == _raw(reference)


@settings(max_examples=150, deadline=None)
@given(valid_codes(max_crossings=5))
def test_component_deletion_on_any_valid_code(code):
    d = Diagram(*code)
    for r in range(d.component_count):
        for keep in itertools.combinations(range(d.component_count), r):
            sub = component_subdiagram(d, keep)
            assert sub.component_count == len(keep)
            try:
                reference = _reference_subdiagram(d, keep)
            except TypeError:
                continue
            assert diagrams_equal(sub, reference)
