"""The validating orientation walk shared by diagrams and string links.

``_orient_paths`` replaced a closed-cycle walk (for ``Diagram``) and a
separate open-strand walk (for ``StringLink``).  Both earlier walks are
kept below as references: on codes whose labels are all positive, the
shared walk must accept exactly what they accepted and derive the same
signs, edge heads, edge tails and edge components, once its record (kept
by dart and by edge position) is expanded by edge label.  Labels that are
not positive are now rejected everywhere.
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from code_strategies import random_codes
from satkit.catalog import (
    cable_pattern,
    corpus_knots,
    string_link_from_braid,
    torus_knot,
    torus_link,
    trefoil,
    winding_two_three_operator,
)
from satkit.diagram import Diagram, _orient_paths
from satkit.errors import ValidationError
from satkit.patterns import satellite
from satkit.stringlinks import StringLink


# -- references: the two walks the shared one replaced ----------------------------


def _occurrences(crossings):
    occ = {}
    for ci, x in enumerate(crossings):
        for s, e in enumerate(x):
            occ.setdefault(e, []).append((ci, s))
    return occ


def _walk(crossings, occ, start_occ, limit):
    seq = []
    entries = []
    cur = start_occ
    for _ in range(limit):
        ci, s = cur
        entries.append(cur)
        exit_slot = (s + 2) % 4
        edge = crossings[ci][exit_slot]
        seq.append(edge)
        pair = occ[edge]
        if len(pair) != 2:
            return None
        nxt = pair[0] if pair[1] == (ci, exit_slot) else pair[1]
        if nxt == (ci, exit_slot):
            return None
        cur = nxt
        if cur == start_occ:
            return seq, entries
    return None


def _orient_uncached(crossings, components):
    """The closed walk: (signs, edge_head, edge_tail, edge_component)."""
    occ = _occurrences(crossings)
    for e, pairs in occ.items():
        if e <= 0:
            raise ValidationError(f"edge labels must be positive, got {e}")
        if len(pairs) != 2:
            raise ValidationError(f"edge label {e} occurs {len(pairs)} times, expected 2")
    declared = [e for cyc in components for e in cyc]
    if len(set(declared)) != len(declared):
        raise ValidationError("an edge label appears in two component positions")
    loops = set()
    for cyc in components:
        if len(cyc) == 1 and cyc[0] not in occ:
            loops.add(cyc[0])
    if set(declared) - loops != set(occ):
        raise ValidationError("component cycles do not partition the crossing edges")
    entry_pairs = [[None, None] for _ in crossings]
    edge_head, edge_tail, edge_comp = {}, {}, {}
    for comp_index, cyc in enumerate(components):
        if len(cyc) == 1 and cyc[0] in loops:
            edge_comp[cyc[0]] = comp_index
            continue
        e0 = cyc[0]
        candidates = [p for p in sorted(occ[e0]) if p[1] != 2]
        result = None
        for cand in candidates:
            walked = _walk(crossings, occ, cand, len(cyc))
            if walked is None:
                continue
            seq, entries = walked
            if any(s == 2 for _, s in entries):
                continue
            if seq == list(cyc[1:]) + [cyc[0]]:
                result = (seq, entries)
                break
        if result is None:
            raise ValidationError(f"component {comp_index} cycle is inconsistent with the crossings")
        seq, entries = result
        for i, e in enumerate(cyc):
            edge_head[e] = entries[i]
            edge_comp[e] = comp_index
        for i, e in enumerate(seq):
            ci, s = entries[i]
            edge_tail[e] = (ci, (s + 2) % 4)
        for ci, s in entries:
            kind = 0 if s in (0, 2) else 1
            if entry_pairs[ci][kind] is not None:
                raise ValidationError(f"crossing {ci} is traversed twice on one strand pair")
            if kind == 0 and s != 0:
                raise ValidationError(f"crossing {ci} under-strand entered at position 2")
            entry_pairs[ci][kind] = s
    for ci, (u, o) in enumerate(entry_pairs):
        if u is None or o is None:
            raise ValidationError(f"crossing {ci} is not fully traversed by the components")
    signs = tuple(1 if o == 1 else -1 for _, o in entry_pairs)
    return signs, edge_head, edge_tail, edge_comp


def _orient_tangle(crossings, strands):
    """The open walk: (signs, edge_head, edge_tail, edge_strand)."""
    occ = _occurrences(crossings)
    declared = [e for path in strands for e in path]
    if len(set(declared)) != len(declared):
        raise ValidationError("edge repeats across strand paths")
    for e in occ:
        if e not in set(declared):
            raise ValidationError(f"edge {e} in crossings but on no strand")
    entry_pairs = [[None, None] for _ in crossings]
    edge_head, edge_tail, edge_strand = {}, {}, {}
    for si, path in enumerate(strands):
        for e in path:
            edge_strand[e] = si
        first_occ = occ.get(path[0], [])
        if len(path) == 1 and not first_occ:
            continue
        if len(first_occ) != 1 or len(occ.get(path[-1], ())) != 1:
            raise ValidationError(f"strand {si} endpoints lie inside crossings")
        cur = first_occ[0]
        for i, e in enumerate(path):
            ci, s = cur
            if s == 2:
                raise ValidationError(f"crossing {ci} under-strand entered at position 2")
            kind = 0 if s in (0, 2) else 1
            if entry_pairs[ci][kind] is not None:
                raise ValidationError(f"crossing {ci} traversed twice on one strand pair")
            entry_pairs[ci][kind] = s
            edge_head[e] = cur
            exit_slot = (s + 2) % 4
            nxt_edge = crossings[ci][exit_slot]
            if i + 1 >= len(path) or nxt_edge != path[i + 1]:
                raise ValidationError(f"strand {si} path breaks after edge {e}")
            edge_tail[nxt_edge] = (ci, exit_slot)
            rest = [p for p in occ[nxt_edge] if p != (ci, exit_slot)]
            if not rest:
                if i + 1 != len(path) - 1:
                    raise ValidationError(f"strand {si} ends early")
                break
            cur = rest[0]
    for ci, (u, o) in enumerate(entry_pairs):
        if u is None or o is None:
            raise ValidationError(f"crossing {ci} not fully traversed")
    signs = tuple(1 if o == 1 else -1 for _, o in entry_pairs)
    return signs, edge_head, edge_tail, edge_strand


# -- comparison ------------------------------------------------------------------


def _reference(crossings, paths, closed):
    try:
        if closed:
            return _orient_uncached(crossings, paths)
        return _orient_tangle(crossings, paths)
    except ValidationError:
        return None


def _shared(crossings, paths, closed):
    try:
        o = _orient_paths(crossings, paths, closed)
    except ValidationError:
        return None
    # expand the dart record by edge label: entry i of head and component
    # belongs to the i-th edge in path order, and the edge after each head
    # starts at the opposite slot
    assert len(o.head) == len(o.component) == sum(map(len, paths))
    edge_head, edge_tail, edge_component = {}, {}, {}
    i = 0
    for path in paths:
        for k, e in enumerate(path):
            edge_component[e] = o.component[i]
            p = o.head[i]
            if p >= 0:
                edge_head[e] = (p >> 2, p & 3)
                edge_tail[path[(k + 1) % len(path)]] = (p >> 2, (p & 3) ^ 2)
            i += 1
    return tuple(o.signs), edge_head, edge_tail, edge_component


def _agree(crossings, paths):
    """Read the code both closed and open; return how many readings the
    shared walk accepted."""
    accepted = 0
    positive = all(e > 0 for x in crossings for e in x) and all(e > 0 for p in paths for e in p)
    for closed in (True, False):
        got = _shared(crossings, paths, closed)
        if positive:
            assert got == _reference(crossings, paths, closed), (crossings, paths, closed)
        else:
            assert got is None, (crossings, paths, closed)
        accepted += got is not None
    return accepted


# -- inputs ------------------------------------------------------------------------


def _open_up(crossings, paths, which):
    """Cut open the closed components ``which``: the head occurrence of
    each cycle's first edge gets a fresh label, which starts the strand."""
    heads = _orient_uncached(crossings, paths)[1]
    crossings = [list(x) for x in crossings]
    fresh = max([e for p in paths for e in p], default=0)
    out = []
    for index, cyc in enumerate(paths):
        if index not in which or cyc[0] not in heads:
            out.append(tuple(cyc))
            continue
        fresh += 1
        ci, s = heads[cyc[0]]
        crossings[ci][s] = fresh
        out.append((fresh,) + tuple(cyc[1:]) + (cyc[0],))
    return tuple(tuple(x) for x in crossings), tuple(out)


def _mutants(crossings, paths, rng):
    """The code itself and small corruptions of it."""
    yield crossings, paths
    if crossings:
        ci = rng.randrange(len(crossings))
        x = list(crossings[ci])
        for change in ("swap", "rotate", "relabel"):
            y = list(x)
            if change == "swap":
                i, j = rng.sample(range(4), 2)
                y[i], y[j] = y[j], y[i]
            elif change == "rotate":
                k = rng.randrange(1, 4)
                y = y[k:] + y[:k]
            else:
                y[rng.randrange(4)] = rng.choice([e for p in paths for e in p])
            yield crossings[:ci] + (tuple(y),) + crossings[ci + 1:], paths
    i = rng.randrange(len(paths))
    cyc = paths[i]
    k = rng.randrange(len(cyc))
    for new in (cyc[k:] + cyc[:k], tuple(reversed(cyc)), (cyc[0],) + tuple(reversed(cyc[1:]))):
        yield crossings, paths[:i] + (new,) + paths[i + 1:]
    yield crossings, tuple(rng.sample(paths, len(paths)))
    if len(cyc) >= 2:
        cut = rng.randrange(1, len(cyc))
        yield crossings, paths[:i] + (cyc[:cut], cyc[cut:]) + paths[i + 1:]
    if len(paths) >= 2:
        j = (i + 1) % len(paths)
        merged = paths[i] + paths[j]
        rest = tuple(p for n, p in enumerate(paths) if n not in (i, j))
        yield crossings, (merged,) + rest


def _valid_codes():
    codes = [(d.crossings, d.components) for _, d in corpus_knots()]
    for p, q in ((2, 2), (2, 4), (3, 3), (2, 3), (4, 2)):
        d = torus_link(p, q)
        codes.append((d.crossings, d.components))
    codes.append(((), ((1,), (2,))))
    return codes


def _string_links():
    links = [winding_two_three_operator().link, string_link_from_braid(2, [1, 1]),
             string_link_from_braid(3, [1, -2, 1, 1, -2, 1])]
    return [(sl.crossings, sl.strands) for sl in links]


def test_shared_walk_matches_both_references_on_mutated_codes():
    rng = random.Random(20261018)
    accepted = 0
    for crossings, paths in _valid_codes():
        assert _shared(crossings, paths, closed=True) is not None
        assert _shared(*_open_up(crossings, paths, set(range(len(paths)))), closed=False) is not None
        cases = [(crossings, paths)]
        for _ in range(3):
            which = set(rng.sample(range(len(paths)), rng.randint(1, len(paths))))
            cases.append(_open_up(crossings, paths, which))
        for c, p in cases:
            for _ in range(4):
                for mc, mp in _mutants(c, p, rng):
                    accepted += _agree(mc, mp)
    for crossings, paths in _string_links():
        assert _shared(crossings, paths, closed=False) is not None
        for _ in range(20):
            for mc, mp in _mutants(crossings, paths, rng):
                accepted += _agree(mc, mp)
    # the corruptions must leave some codes valid, or the comparison
    # would only ever see two rejections
    assert accepted > 500


@settings(max_examples=400, deadline=None)
@given(random_codes())
def test_shared_walk_matches_both_references_on_random_codes(code):
    _agree(*code)


@pytest.mark.parametrize("crossings, paths", [
    (((1, 5, 2, 4),), ((1, 2), (5,), (4,))),  # one-edge strands ending inside a crossing
    ((), ((1,), (1,))),  # one label on two free loops
    (((1, 2, 2, 3), (3, 1, 4, 4)), ((1, 2, 3, 4, 1),)),  # a label twice on one cycle
])
def test_malformed_codes_are_rejected(crossings, paths):
    assert _agree(crossings, paths) == 0


def test_labels_must_be_positive_everywhere():
    with pytest.raises(ValidationError, match="positive"):
        Diagram((), ((0,),))
    with pytest.raises(ValidationError, match="positive"):
        StringLink(1, (), ((0,),))
    sl = winding_two_three_operator().link
    with pytest.raises(ValidationError, match="positive"):
        StringLink(
            2,
            tuple(tuple(-e for e in x) for x in sl.crossings),
            tuple(tuple(-e for e in p) for p in sl.strands),
        )


def test_empty_path_is_rejected():
    with pytest.raises(ValidationError, match="empty"):
        Diagram((), ((1,), ()))
    with pytest.raises(ValidationError, match="empty"):
        StringLink(2, (), ((1,), ()))


_TREFOIL = trefoil()


@pytest.mark.parametrize("crossings, paths, closed, message", [
    ((), ((1,), ()), True, "a component path is empty"),
    ((), ((1,), ()), False, "a component path is empty"),
    ((), ((1,), (1,)), True, "an edge label appears twice in the component paths"),
    ((), ((2,), (2,)), False, "an edge label appears twice in the component paths"),
    ((), ((0,),), True, "edge labels must be positive, got 0"),
    ((), ((-3,),), False, "edge labels must be positive, got -3"),
    (((1, 1, 2, 2),), ((1,),), True, "component paths do not partition the crossing edges"),
    (((1, 1, 2, 2),), ((2,),), False, "component paths do not partition the crossing edges"),
    (((1, 2, 3, 1),), ((1,), (2,), (3,)), True, "edge label 2 occurs 1 times, expected 2"),
    # every dart has a partner, but a label occurs four times
    (((1, 1, 1, 1),), ((1,),), True, "edge label 1 occurs 4 times, expected 2"),
    (((1, 2, 2, 1),), ((1, 2),), False, "edge label 1 occurs 2 times, expected 1"),
    (_TREFOIL.crossings, tuple(tuple(reversed(c)) for c in _TREFOIL.components), True,
     "component 0 is inconsistent with the crossings"),
    (((1, 4, 2, 3),), ((2, 1), (3, 4)), False, "component 0 is inconsistent with the crossings"),
])
def test_each_check_raises_its_message(crossings, paths, closed, message):
    with pytest.raises(ValidationError) as caught:
        _orient_paths(crossings, paths, closed)
    assert str(caught.value) == message


def test_orientation_records_hold_no_object_per_edge():
    # the record is kept by dart in arrays: a few bytes per edge, where a
    # tuple and two dict slots per edge came to about 137 bytes
    diagrams = [satellite(cable_pattern(p, q), torus_knot(2, k))
                for (p, q), k in (((2, 3), 3), ((3, 2), 5), ((3, 4), 7), ((4, 5), 5), ((4, 5), 7), ((5, 6), 9))]
    edges = sum(len(d.edges()) for d in diagrams)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [_orient_paths(d.crossings, d.components, closed=True) for d in diagrams]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 6 and edges == 2016
    assert retained / edges < 24, f"{retained / edges:.1f} bytes per edge"
