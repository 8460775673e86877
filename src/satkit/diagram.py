"""Oriented link diagrams as planar-diagram crossing codes.

A diagram is a tuple of crossings, each a 4-tuple of positive integer edge
labels listed counterclockwise starting from the incoming under-strand
edge, together with a partition of the edge labels into cyclic component
sequences.  Orientations and crossing signs are derived, never stored: the
under-strand enters a crossing at tuple position 0 and leaves at position
2, the over-strand runs through positions 1 and 3 in whichever direction
the component cycles dictate.

A crossing-free circle (the 0-crossing unknot, split unknot components) is
recorded as a component whose cycle is a single edge label that occurs in
no crossing tuple.

Sign convention: a crossing is positive exactly when the over-strand
enters at position 1 and leaves at position 3.  This agrees with the
usual planar-diagram code convention in which ``X[i,j,k,l]`` with
``l == j+1`` along the strand is a positive crossing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, ValidationError

Crossing = tuple[int, int, int, int]


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...]
    components: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(tuple(x) for x in self.crossings))
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != len(self.components):
                raise ValidationError("names do not match component count")
        _orient(self)  # validates; result is cached for later queries

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def edges(self) -> tuple[int, ...]:
        return tuple(e for cyc in self.components for e in cyc)

    def is_knot(self) -> bool:
        return len(self.components) == 1

    def __repr__(self):
        return f"Diagram({len(self.crossings)} crossings, {len(self.components)} components)"


@dataclass(frozen=True)
class _Orientation:
    """Derived orientation data, produced by the validating walk.

    entry_slots: per crossing, the pair (under_entry, over_entry) where
        under_entry is always 0 (kept for symmetry with builder output)
        and over_entry is 1 or 3.
    edge_head: edge -> (crossing, slot) occurrence where the edge ends.
    edge_tail: edge -> (crossing, slot) occurrence where the edge starts.
    edge_component: edge -> component index.
    """

    entry_slots: tuple[tuple[int, int], ...]
    edge_head: dict
    edge_tail: dict
    edge_component: dict


def _occurrences(crossings):
    occ = {}
    for ci, x in enumerate(crossings):
        for s, e in enumerate(x):
            occ.setdefault(e, []).append((ci, s))
    return occ


def _walk(crossings, occ, start_occ, limit):
    """Follow the strand from the entering occurrence ``start_occ``.

    Returns (edge_sequence, entry_occurrences) or None if the walk revisits
    inconsistently or does not close after ``limit`` steps.
    """
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
            # edge occupies the same slot twice: impossible
            return None
        cur = nxt
        if cur == start_occ:
            return seq, entries
    return None


def _orient_uncached(d: Diagram) -> _Orientation:
    occ = _occurrences(d.crossings)
    for e, pairs in occ.items():
        if e <= 0:
            raise ValidationError(f"edge labels must be positive, got {e}")
        if len(pairs) != 2:
            raise ValidationError(f"edge label {e} occurs {len(pairs)} times, expected 2")

    declared = [e for cyc in d.components for e in cyc]
    if len(set(declared)) != len(declared):
        raise ValidationError("an edge label appears in two component positions")
    loops = set()
    for cyc in d.components:
        if len(cyc) == 1 and cyc[0] not in occ:
            loops.add(cyc[0])
    if set(declared) - loops != set(occ):
        raise ValidationError("component cycles do not partition the crossing edges")

    entry_pairs = [[None, None] for _ in d.crossings]  # [under_entry, over_entry]
    edge_head, edge_tail, edge_comp = {}, {}, {}

    for comp_index, cyc in enumerate(d.components):
        if len(cyc) == 1 and cyc[0] in loops:
            edge_comp[cyc[0]] = comp_index
            continue
        e0 = cyc[0]
        # Candidate entering occurrences for the first edge.  Entering the
        # under pair at slot 2 would contradict the position-0 convention,
        # so only slot 0 and the two over slots qualify.
        candidates = [p for p in sorted(occ[e0]) if p[1] != 2]
        result = None
        for cand in candidates:
            # The walk records the edge *after* each entry, so to see the
            # declared cycle starting at e0 we must start from the entry
            # occurrence of the edge preceding e0, i.e. begin the walk at
            # the entry of e0 itself and compare against the rotation
            # starting at cyc[1].
            walked = _walk(d.crossings, occ, cand, len(cyc))
            if walked is None:
                continue
            seq, entries = walked
            if any(s == 2 for _, s in entries):
                # entered an under-strand against the position-0 convention:
                # this is the reversed traversal, not the declared one
                continue
            expected = list(cyc[1:]) + [cyc[0]]
            if seq == expected:
                result = (seq, entries)
                break
        if result is None:
            raise ValidationError(
                f"component {comp_index} cycle is inconsistent with the crossings"
            )
        seq, entries = result
        # entries[i] is where edge cyc[i] terminates; seq[i] = cyc[i+1 mod].
        for i, e in enumerate(cyc):
            head = entries[i]
            edge_head[e] = head
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

    return _Orientation(
        entry_slots=tuple((u, o) for u, o in entry_pairs),
        edge_head=edge_head,
        edge_tail=edge_tail,
        edge_component=edge_comp,
    )


@lru_cache(maxsize=4096)
def _orient(d: Diagram) -> _Orientation:
    return _orient_uncached(d)


def crossing_signs(d: Diagram) -> tuple[int, ...]:
    """Sign of every crossing: +1 when the over-strand enters at position 1."""
    orient = _orient(d)
    return tuple(1 if o == 1 else -1 for _, o in orient.entry_slots)


def edge_component(d: Diagram, edge: int) -> int:
    orient = _orient(d)
    if edge not in orient.edge_component:
        raise DomainError(f"no edge labelled {edge}")
    return orient.edge_component[edge]


def _check_component(d: Diagram, c: int):
    if not 0 <= c < len(d.components):
        raise DomainError(f"component {c} out of range")


def writhe(d: Diagram, c: int) -> int:
    """Signed count of the self-crossings of component ``c``."""
    _check_component(d, c)
    orient = _orient(d)
    signs = crossing_signs(d)
    total = 0
    for ci, x in enumerate(d.crossings):
        cu = orient.edge_component[x[0]]
        co = orient.edge_component[x[1]]
        if cu == c and co == c:
            total += signs[ci]
    return total


def total_writhe(d: Diagram) -> int:
    return sum(crossing_signs(d))


def linking_number(d: Diagram, a: int, b: int) -> int:
    """Half the signed count of crossings between components ``a`` and ``b``."""
    _check_component(d, a)
    _check_component(d, b)
    if a == b:
        raise DomainError("linking number needs two distinct components; use writhe")
    orient = _orient(d)
    signs = crossing_signs(d)
    total = 0
    for ci, x in enumerate(d.crossings):
        cu = orient.edge_component[x[0]]
        co = orient.edge_component[x[1]]
        if {cu, co} == {a, b}:
            total += signs[ci]
    if total % 2:
        raise ValidationError("odd inter-component crossing sum; diagram is corrupt")
    return total // 2


def mirror(d: Diagram) -> Diagram:
    """Switch every crossing's over/under roles.  All signs negate."""
    orient = _orient(d)
    new = []
    for ci, (a, b, c, e) in enumerate(d.crossings):
        _, over_entry = orient.entry_slots[ci]
        if over_entry == 1:
            new.append((b, c, e, a))
        else:
            new.append((e, a, b, c))
    return Diagram(tuple(new), d.components, d.names)


def reverse(d: Diagram, comp: int) -> Diagram:
    """Reverse the orientation of one component.

    Crossings where the component passes under get rotated by two positions
    so the incoming under-edge stays at position 0; pure over-passages need
    no tuple change.
    """
    _check_component(d, comp)
    orient = _orient(d)
    new = []
    for x in d.crossings:
        if orient.edge_component[x[0]] == comp:
            new.append((x[2], x[3], x[0], x[1]))
        else:
            new.append(x)
    comps = list(d.components)
    cyc = comps[comp]
    comps[comp] = (cyc[0],) + tuple(reversed(cyc[1:]))
    return Diagram(tuple(new), tuple(comps), d.names)


def relabeled(d: Diagram, mapping) -> Diagram:
    """Apply an edge-label bijection."""
    cr = tuple(tuple(mapping[e] for e in x) for x in d.crossings)
    comps = tuple(tuple(mapping[e] for e in cyc) for cyc in d.components)
    return Diagram(cr, comps, d.names)


def _least_labelling(d: Diagram, held=()):
    """The least sorted crossing list over all cycle rotations.

    Returns (crossings, components, rotations): the relabelled crossings in
    sorted order, the consecutive component cycles, and every rotation
    vector (start index per component) that yields that list, up to
    rotations of components no later block reads and ``held`` does not
    name.  See ``canonical`` for the search.
    """
    orient = _orient(d)
    comps = d.components
    sizes = [len(cyc) for cyc in comps]
    offsets = [sum(sizes[:i]) for i in range(len(comps))]
    where = {e: (i, p) for i, cyc in enumerate(comps) for p, e in enumerate(cyc)}
    # per component, in walk order: (position, crossing) of each edge that
    # enters a crossing as the under-strand; these make up its block
    unders = [[] for _ in comps]
    for i, cyc in enumerate(comps):
        for p, e in enumerate(cyc):
            head = orient.edge_head.get(e)
            if head is not None and head[1] == 0:
                unders[i].append((p, d.crossings[head[0]]))
    # components whose rotation some block after j still reads
    read_after = [()] * len(comps)
    read = set(held)
    for j in reversed(range(len(comps))):
        read_after[j] = tuple(sorted(read))
        if unders[j]:
            read.add(j)
            read.update(where[x[1]][0] for _, x in unders[j])

    def block(rot, j, start, best):
        # block j under ``rot`` (filled in as edges are met), or None once
        # it exceeds ``best``; second value: strictly below ``best``
        out = []
        below = best is None
        u = unders[j]
        for t in range(len(u)):
            x = u[(start + t) % len(u)][1]
            row = []
            for e in x:
                i, p = where[e]
                if rot[i] is None:
                    # first sighting of component i: only starting its
                    # cycle here gives the least label, off_i + 1
                    rot[i] = p
                row.append(offsets[i] + 1 + (p - rot[i]) % sizes[i])
            row = tuple(row)
            if not below:
                if row > best[t]:
                    return None, False
                below = row < best[t]
            out.append(row)
        return out, below

    crossings = []
    cands = [[None] * len(comps)]
    for j, u in enumerate(unders):
        if not u:
            continue
        best, kept = None, []
        for rot in cands:
            if rot[j] is None:
                # the block opens with label off_j + 1 only if the cycle
                # starts at an under-entering edge: branch over those
                starts = range(len(u))
            else:
                starts = (bisect_left(u, (rot[j],)) % len(u),)
            for s in starts:
                r = list(rot)
                if r[j] is None:
                    r[j] = u[s][0]
                out, below = block(r, j, s, best)
                if out is None:
                    continue
                if below:
                    best, kept = out, []
                kept.append(r)
        crossings.extend(best)
        # candidates that agree on every rotation still read go on alike
        merged = {}
        for r in kept:
            merged.setdefault(tuple(r[i] for i in read_after[j]), r)
        cands = list(merged.values())
    rotations = [[0 if r is None else r for r in rot] for rot in cands]
    components = tuple(tuple(range(o + 1, o + n + 1)) for o, n in zip(offsets, sizes))
    return tuple(crossings), components, rotations


@lru_cache(maxsize=2048)
def canonical(d: Diagram) -> Diagram:
    """Canonical representative under edge renumbering and cycle rotation.

    Component order is preserved: diagrams are ordered links.  The start
    edge of every cycle is chosen to minimise the sorted crossing list
    lexicographically; edges are then numbered 1..E in walk order, so
    component i is always ``off_i+1 .. off_i+n_i``.

    The minimum is found by refinement, not by trying every product of
    rotations.  Slot-0 labels are distinct, so the sorted list is block 0,
    block 1, ...: block j holds the crossings whose under-strand runs on
    component j, in walk order from its start.  Scanning left to right,
    the first label on a component with no start yet is least only as
    ``off_i+1``, which fixes that start without branching.  A block whose
    own component has no start yet branches over its under-entering
    edges; candidates with a larger block are dropped, and candidates
    that agree on every start a later block still reads are merged.  The
    result is the exact lexicographic minimum, with no size limit.
    """
    crossings, components, _ = _least_labelling(d)
    return Diagram(crossings, components, d.names)


def diagrams_equal(d1: Diagram, d2: Diagram) -> bool:
    """Equality up to edge renumbering and cycle rotation (not isotopy)."""
    if len(d1.crossings) != len(d2.crossings):
        return False
    if tuple(len(c) for c in d1.components) != tuple(len(c) for c in d2.components):
        return False
    c1, c2 = canonical(d1), canonical(d2)
    return c1.crossings == c2.crossings and c1.components == c2.components


def unknot() -> Diagram:
    """The 0-crossing unknot: one free-loop component."""
    return Diagram((), ((1,),))


def connected_sum(d1: Diagram, d2: Diagram, e1: int | None = None, e2: int | None = None) -> Diagram:
    """Connected sum of two knot diagrams, spliced at the chosen edges."""
    from .wires import Builder

    if not d1.is_knot() or not d2.is_knot():
        raise DomainError("connected sum requires one-component diagrams")
    if e1 is None:
        e1 = min(d1.edges())
    if e2 is None:
        e2 = min(d2.edges())
    b1, w1 = Builder.from_diagram(d1)
    b2, w2 = Builder.from_diagram(d2)
    shift = b1.absorb(b2)
    wa = w1[e1]
    wb = shift[w2[e2]]
    tail_a, head_a = b1.cut(wa)
    tail_b, head_b = b1.cut(wb)
    b1.join(tail_a, head_b)
    b1.join(tail_b, head_a)
    seed = b1.any_wire()
    out, _ = b1.to_diagram([(seed, True)])
    return out


def component_subdiagram(d: Diagram, keep) -> Diagram:
    """Delete all components not in ``keep``, healing crossings through."""
    from .wires import Builder

    keep = set(keep)
    for c in keep:
        _check_component(d, c)
    b, wmap = Builder.from_diagram(d)
    orient = _orient(d)
    drop_edges = {e for e, c in orient.edge_component.items() if c not in keep}
    b.remove_edges({wmap[e] for e in drop_edges})
    out, _ = b.to_diagram(b.seeds(wmap, [d.components[c] for c in sorted(keep)]))
    return out


def embedding_genus(d: Diagram) -> int:
    """Total genus of the surfaces the crossing code embeds in.

    Zero for every honestly planar diagram; a positive value means the
    code is virtual (some construction wired strands inconsistently).
    Computed from the face count of the combinatorial map, summed over the
    connected pieces of the underlying 4-valent graph.
    """
    occ = _occurrences(d.crossings)
    if not d.crossings:
        return 0
    darts = [(ci, s) for ci in range(len(d.crossings)) for s in range(4)]

    def alpha(dart):
        ci, s = dart
        pair = occ[d.crossings[ci][s]]
        return pair[1] if pair[0] == dart else pair[0]

    seen = set()
    faces = 0
    for start in darts:
        if start in seen:
            continue
        faces += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            nxt = alpha(cur)
            cur = (nxt[0], (nxt[1] + 1) % 4)

    # connected pieces of the crossing graph (free loops are planar anyway)
    parent = list(range(len(d.crossings)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e, pair in occ.items():
        a, b = find(pair[0][0]), find(pair[1][0])
        if a != b:
            parent[a] = b
    pieces = len({find(i) for i in range(len(d.crossings))})
    v = len(d.crossings)
    e = 2 * v
    return pieces - (v - e + faces) // 2


def simplify(d: Diagram, effort: int | None = None) -> Diagram:
    """Greedy Reidemeister I/II reduction.

    Deterministic: at each step the lowest-index available kink is removed,
    else the lowest-index cancelling bigon.  ``effort`` bounds the number of
    moves; None means run until no move applies.  The link type, hence every
    invariant, is unchanged.
    """
    from .wires import r1_r2_reduce

    budget = effort if effort is not None else 10**9
    return r1_r2_reduce(d, budget)
