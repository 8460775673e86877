"""The Builder's walk-out: raw outputs and internal faults.

Every object the Builder assembles leaves it through one labelling walk
(``to_diagram`` / ``to_tangle``) and is then checked by the validating walk
of the ``Diagram`` or ``StringLink`` built from it.  One sha256 pins the raw
codes (crossings, component or strand paths, directions, cuts, framings) of
every construction that goes through that exit, so a change to the walk
cannot renumber, reorder or rotate anything unnoticed.  Hand-broken Builder
states must surface as ``InternalError`` (CLI exit 3): never as a parse
error, a ``KeyError``, or a walk that does not return.
"""

import hashlib
import signal

import pytest

import code_strategies
from satkit.catalog import (
    both_strands_operator,
    braid_closure,
    corpus_knots,
    corpus_patterns,
    figure_eight,
    strand_meridian_operator,
    torus_link,
    trefoil,
    winding_two_three_operator,
)
from satkit.diagram import (
    Diagram,
    _orient,
    component_subdiagram,
    diagrams_equal,
    embedding_genus,
    linking_number,
    unknot,
    writhe,
)
from satkit.errors import InternalError, ParseError
from satkit.patterns import Pattern, compose, difference_pattern, satellite, to_link, winding_number
from satkit.stringlinks import (
    InfectionOperator,
    StringLink,
    _walk_out,
    closure,
    fuse,
    infect,
    parallel,
    reduce_to_pattern,
    stack,
)
from satkit.surgery import FramedLink, build_pipeline
from satkit.wires import Builder, build_cable, twist_chain

# sha256 of the raw codes below: any change to labels, path order or
# crossing rotations moves it
_RAW_SHA256 = "c54a0a66dee9b17307d270f105835e00be40a67a69528a6929b329b8073ebfab"


def _raw(obj):
    if isinstance(obj, Diagram):
        return ("D", obj.crossings, obj.components)
    if isinstance(obj, Pattern):
        return ("P", _raw(obj.base), obj.cut)
    if isinstance(obj, StringLink):
        return ("S", obj.crossings, obj.strands, obj.directions)
    if isinstance(obj, InfectionOperator):
        return ("I", _raw(obj.link), obj.cut)
    if isinstance(obj, FramedLink):
        return ("F", _raw(obj.diagram), obj.framings, obj.roles)
    raise TypeError(obj)


def test_builder_outputs_are_raw_identical(monkeypatch):
    knots = [k for _, k in corpus_knots()]
    patterns = [p for _, p in corpus_patterns()]
    out = [_raw(k) for k in knots] + [_raw(p) for p in patterns]
    for p in patterns:
        out.append(_raw(to_link(p)))
        for k in knots[:12]:
            out += [_raw(satellite(p, k)), _raw(compose(p, k)), _raw(difference_pattern(p, k))]
            if winding_number(p) in (1, -1):
                out += [_raw(fl) for _, fl, _ in build_pipeline(p, k).stages]

    w23 = winding_two_three_operator()
    operators = [strand_meridian_operator(), strand_meridian_operator(3, 1), both_strands_operator(), w23]
    for op in operators:
        out += [_raw(stack(op.link, op.link)), _raw(closure(op.link))]
        for k in (trefoil(), figure_eight()):
            out.append(_raw(infect(op, k)))
    out += [_raw(fuse(infect(both_strands_operator(), trefoil()))), _raw(fuse(w23)), _raw(fuse(infect(w23, trefoil())))]
    for kvec in ((2, -1), (-4, 3), (5, -3), (-1, 1), (1, 0), (0, 2)):
        out.append(_raw(parallel(w23, kvec)))
    out.append(_raw(parallel(both_strands_operator(), (2, 3))))
    for kvec in ((2, -1), (-4, 3), (5, -3)):
        out.append(_raw(reduce_to_pattern(w23, kvec)))

    slides = []
    real = code_strategies.handle_slide

    def recorded(*args):
        slides.append(real(*args))
        return slides[-1]

    monkeypatch.setattr(code_strategies, "handle_slide", recorded)
    code_strategies.kirby_move_suite()
    assert len(slides) == 200
    out += [_raw(fl) for fl in slides]

    assert hashlib.sha256(repr(out).encode()).hexdigest() == _RAW_SHA256


# -- cabling ----------------------------------------------------------------


def _cable(d, widths):
    """Cable ``d`` with the given width per component into a new Builder and
    walk out one component per copy."""
    orient = _orient(d)
    b = Builder()
    copies = build_cable(b, d.crossings, orient.signs, {e: widths[c] for e, c in orient.edge_component.items()},
                         loops=orient.free)
    seeds = [(w, True) for cyc in d.components for w in copies[cyc[0]]]
    return b.to_diagram(seeds)[0]


@pytest.mark.parametrize("m", [2, 3])
def test_blackboard_cable_of_every_corpus_knot(m):
    # parallel copies of a knot link pairwise as often as its writhe
    for name, k in corpus_knots():
        d = _cable(k, [m])
        assert d.component_count == m, name
        for i in range(m):
            for j in range(i + 1, m):
                assert linking_number(d, i, j) == writhe(k, 0), (name, i, j)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("count", [-2, 1])
def test_twist_chain_on_one_edge_of_a_cable(m, count):
    # cut one edge's copies, twist the tails in copy order and join them
    # back: every pair of copies links count more times than the writhe,
    # and the region, threaded against copy order, keeps the cable planar
    for name, k in corpus_knots():
        orient = _orient(k)
        b = Builder()
        copies = build_cable(b, k.crossings, orient.signs, {e: m for e in k.edges()}, loops=orient.free)
        edge = k.components[0][0]
        tails, heads = zip(*[b.cut(w) for w in copies[edge]])
        for stub, head in zip(twist_chain(b, tails, count), heads):
            b.join(stub, head)
        d = b.to_diagram([(w, True) for w in copies[edge]])[0]
        assert d.crossing_count == m * m * k.crossing_count + m * (m - 1) * abs(count), name
        assert embedding_genus(d) == 0, name
        for i in range(m):
            for j in range(i + 1, m):
                assert linking_number(d, i, j) == writhe(k, 0) + count, (name, i, j)


def test_twist_chain_with_nothing_to_twist_adds_no_crossing():
    b = Builder()
    for stubs, count in (([b.fresh(), b.fresh()], 0), ([b.fresh()], 3), ([], -2)):
        assert twist_chain(b, stubs, count) == stubs
    assert b.crossings == []


def test_width_zero_deletes_a_component():
    # copies of the kept component pass straight through the deleted ones,
    # as component deletion heals the crossing code
    links = [torus_link(3, 6), torus_link(4, 4), torus_link(2, 2), braid_closure(4, [1, -2, 3, 1, 2, -3, 2])]
    for link in links:
        for keep in range(link.component_count):
            widths = [1 if c == keep else 0 for c in range(link.component_count)]
            assert diagrams_equal(_cable(link, widths), component_subdiagram(link, [keep])), (link, keep)


# -- hand-broken Builder states --------------------------------------------


def _trefoil_builder():
    b, wmap = Builder.from_diagram(trefoil())
    return b, wmap, trefoil().components[0]


def _closed_walk_meets(dangle_or_terminal):
    def state():
        b, wmap, cyc = _trefoil_builder()
        tail, head = b.cut(wmap[cyc[0]])
        if dangle_or_terminal == "terminal":
            b.wires[tail][1] = ("t", ("top", 0))
            b.wires[head][0] = ("t", ("bot", 0))
        # walked from the head piece, the path covers every wire and stops
        # at the tail piece's open end
        return b.to_diagram([(head, True)])
    return state


def _crossingless_wire_cut_open():
    # the walk never meets a crossing, so only the dangling-end check sees
    # that the unknot's one wire was left open
    b, wmap = Builder.from_diagram(unknot())
    b.cut(wmap[1])
    return b.to_diagram([(wmap[1], True)])


def _strand_seed_on_closed_loop():
    b, wmap, cyc = _trefoil_builder()
    return _walk_out(b, [(wmap[cyc[0]], True)], (1,))


def _component_seeded_twice():
    b, wmap, cyc = _trefoil_builder()
    return b.to_diagram([(wmap[cyc[0]], True), (wmap[cyc[2]], True)])


def _over_slots_swapped():
    b, wmap, _ = _trefoil_builder()
    x = b.crossings[0]
    x[1], x[3] = x[3], x[1]
    return b.to_diagram([(wmap[1], True)])


def _alarm(signum, frame):
    raise TimeoutError("the walk-out did not return")


# a missing seed is test_cli.py::test_builder_invariant_failure_is_internal
@pytest.mark.parametrize("state", [
    _closed_walk_meets("dangle"),
    _closed_walk_meets("terminal"),
    _crossingless_wire_cut_open,
    _strand_seed_on_closed_loop,
    _component_seeded_twice,
    _over_slots_swapped,
], ids=["closed-walk-dangle", "closed-walk-terminal", "crossingless-dangle", "strand-on-loop", "seeded-twice",
        "over-slots-swapped"])
def test_broken_builder_states_are_internal_errors(state):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        with pytest.raises(InternalError) as err:
            state()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not isinstance(err.value, ParseError)


def test_walk_out_labels_every_wire_id():
    # ids retired by cut and fuse map to the label of the wire that now
    # runs where they ran, so call sites need not resolve them first
    b, wmap, cyc = _trefoil_builder()
    tail, head = b.cut(wmap[cyc[0]])
    b.join(tail, head)
    d, labels = b.to_diagram([(wmap[cyc[0]], True)])
    assert d == trefoil()
    assert set(labels) == set(range(b._next))
    assert labels[wmap[cyc[0]]] == labels[tail] == labels[head] == 1

