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
no crossing tuple.  String links are read by the same validating walk
(``_orient_paths``), with open strands in place of cycles.

Sign convention: a crossing is positive exactly when the over-strand
enters at position 1 and leaves at position 3.  This agrees with the
usual planar-diagram code convention in which ``X[i,j,k,l]`` with
``l == j+1`` along the strand is a positive crossing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
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

    signs: per crossing, +1 when the over-strand enters at position 1 and
        -1 when it enters at position 3 (the under-strand always enters
        at position 0).
    edge_head: edge -> (crossing, slot) occurrence where the edge ends.
        The edge after it starts at the opposite slot, (crossing, slot ^ 2).
    edge_component: edge -> index of the path (component or strand) on it.
    free: the edges that meet no crossing (free loops, bare strands).
    """

    signs: tuple[int, ...]
    edge_head: dict
    edge_component: dict
    free: frozenset


def _occurrences(crossings):
    occ = {}
    for ci, x in enumerate(crossings):
        for s, e in enumerate(x):
            occ.setdefault(e, []).append((ci, s))
    return occ


def _trace(crossings, occ, path, start, steps):
    """The heads of the first ``steps`` edges of ``path``, walking from
    ``start`` as the head of ``path[0]``, or None where the crossings
    lead off the path or into an under-strand at position 2."""
    heads, cur = [], start
    for i in range(steps):
        ci, s = cur
        e = crossings[ci][s ^ 2]
        if s == 2 or e != path[(i + 1) % len(path)]:
            return None
        heads.append(cur)
        where = occ[e]
        cur = where[0] if where[-1] == (ci, s ^ 2) else where[-1]
    return heads


def _orient_paths(crossings, paths, closed):
    """Validate a crossing code and derive its orientation.

    ``paths`` lists each component's edges in flow order: cycles when
    ``closed``, strands from their start otherwise.  A one-edge path that
    meets no crossing is free.  Every other path is walked taking its first
    edge's head at each occurrence of that edge in sorted order, and the
    first walk that follows the whole path wins.  A walk leaves each
    crossing at the slot opposite the one it entered, onto the next edge of
    the path, and never enters an under-strand at position 2.  The
    occurrence counts are checked first (two per edge, one for each end of
    an open strand), so a closed walk that follows its cycle comes back to
    its start, and the walks together use every slot once, giving each
    crossing one under and one over entry.
    """
    occ = _occurrences(crossings)
    declared = [e for path in paths for e in path]
    if not all(paths):
        raise ValidationError("a component path is empty")
    if len(set(declared)) != len(declared):
        raise ValidationError("an edge label appears twice in the component paths")
    for e in declared:
        if e <= 0:
            raise ValidationError(f"edge labels must be positive, got {e}")
    free = frozenset(p[0] for p in paths if len(p) == 1 and p[0] not in occ)
    if set(declared) - free != set(occ):
        raise ValidationError("component paths do not partition the crossing edges")
    # an open path's first edge has no tail and its last edge no head
    ends = Counter() if closed else Counter(e for p in paths for e in (p[0], p[-1]))
    for e, where in occ.items():
        expected = 2 - ends[e]
        if len(where) != expected:
            raise ValidationError(f"edge label {e} occurs {len(where)} times, expected {expected}")

    signs = [0] * len(crossings)
    edge_head, edge_component = {}, {}
    for index, path in enumerate(paths):
        for e in path:
            edge_component[e] = index
        if path[0] in free:
            continue
        steps = len(path) if closed else len(path) - 1
        for start in sorted(occ[path[0]]):
            heads = _trace(crossings, occ, path, start, steps)
            if heads is not None:
                break
        else:
            raise ValidationError(f"component {index} is inconsistent with the crossings")
        for i, (ci, s) in enumerate(heads):
            edge_head[path[i]] = (ci, s)
            if s != 0:
                signs[ci] = 1 if s == 1 else -1
    return _Orientation(tuple(signs), edge_head, edge_component, free)


@lru_cache(maxsize=4096)
def _orient(d: Diagram) -> _Orientation:
    return _orient_paths(d.crossings, d.components, closed=True)


def crossing_signs(d: Diagram) -> tuple[int, ...]:
    """Sign of every crossing: +1 when the over-strand enters at position 1."""
    return _orient(d).signs


def _component_of(orient: _Orientation, edge: int) -> int:
    if edge not in orient.edge_component:
        raise DomainError(f"no edge labelled {edge}")
    return orient.edge_component[edge]


def _check_component(d: Diagram, c: int):
    if not 0 <= c < len(d.components):
        raise DomainError(f"component {c} out of range")


def _crossing_sums(crossings, orient: _Orientation, n: int) -> list[list[int]]:
    """Signed crossing counts by component, from one pass over the
    crossings: entry (c, c) is the writhe of component c, entry (a, b) =
    (b, a) the signed count of the crossings between a and b, twice their
    linking number on a planar code (``_half``)."""
    comp = orient.edge_component
    sums = [[0] * n for _ in range(n)]
    for x, sign in zip(crossings, orient.signs):
        a, b = comp[x[0]], comp[x[1]]
        sums[a][b] += sign
        if a != b:
            sums[b][a] += sign
    return sums


def _half(total: int) -> int:
    """A linking number from its crossing sum, even on every planar code."""
    if total % 2:
        raise ValidationError("odd inter-component crossing sum; diagram is corrupt")
    return total // 2


def writhe(d: Diagram, c: int) -> int:
    """Signed count of the self-crossings of component ``c``."""
    _check_component(d, c)
    return _crossing_sums(d.crossings, _orient(d), len(d.components))[c][c]


def linking_number(d: Diagram, a: int, b: int) -> int:
    """Half the signed count of crossings between components ``a`` and ``b``."""
    _check_component(d, a)
    _check_component(d, b)
    if a == b:
        raise DomainError("linking number needs two distinct components; use writhe")
    return _half(_crossing_sums(d.crossings, _orient(d), len(d.components))[a][b])


def mirror(d: Diagram) -> Diagram:
    """Switch every crossing's over/under roles.  All signs negate."""
    signs = crossing_signs(d)
    new = [(b, c, e, a) if sign > 0 else (e, a, b, c) for (a, b, c, e), sign in zip(d.crossings, signs)]
    return Diagram(new, d.components, d.names)


def reverse(d: Diagram, comp: int) -> Diagram:
    """Reverse the orientation of one component.

    Crossings where the component passes under get rotated by two positions
    so the incoming under-edge stays at position 0; pure over-passages need
    no tuple change.
    """
    _check_component(d, comp)
    comp_of = _orient(d).edge_component
    new = [x[2:] + x[:2] if comp_of[x[0]] == comp else x for x in d.crossings]
    comps = list(d.components)
    cyc = comps[comp]
    comps[comp] = (cyc[0],) + tuple(reversed(cyc[1:]))
    return Diagram(new, comps, d.names)


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
    if (d1.crossings, d1.components) == (d2.crossings, d2.components):
        return True
    if len(d1.crossings) != len(d2.crossings):
        return False
    if tuple(len(c) for c in d1.components) != tuple(len(c) for c in d2.components):
        return False
    c1, c2 = canonical(d1), canonical(d2)
    return c1.crossings == c2.crossings and c1.components == c2.components


def unknot() -> Diagram:
    """The 0-crossing unknot: one free-loop component."""
    return Diagram((), ((1,),))


def connected_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """Connected sum of two knot diagrams, spliced at their lowest edges."""
    from .wires import Builder, swap

    if not d1.is_knot() or not d2.is_knot():
        raise DomainError("connected sum requires one-component diagrams")
    b, w1 = Builder.from_diagram(d1)
    w2 = b.add_diagram(d2)
    swap(b, w1[min(d1.edges())], w2[min(d2.edges())])
    out, _ = b.to_diagram([(next(iter(b.wires)), True)])
    return out


def component_subdiagram(d: Diagram, keep) -> Diagram:
    """Delete all components not in ``keep``, healing crossings through."""
    keep = sorted(set(keep))
    for c in keep:
        _check_component(d, c)
    return _delete_components(d, keep)[0]


def _delete_components(d: Diagram, keep):
    """Delete every component not in ``keep`` (listed in output order):
    each crossing a deleted component passes through goes, and a kept
    strand through it is spliced.  Returns (diagram, old label -> new
    label), as ``_Splice.diagram``."""
    comp = _orient(d).edge_component
    kept = set(keep)
    sp = _Splice(d)
    for ci, x in enumerate(d.crossings):
        under, over = comp[x[0]] in kept, comp[x[1]] in kept
        if not (under and over):
            sp.live[ci] = False
            if under or over:
                s = 0 if under else 1
                sp.join((ci, s), (ci, s + 2))
    for e, c in comp.items():
        if c not in kept:
            sp.delete_edge(e)
    return sp.diagram(keep)


@dataclass(frozen=True)
class _Faces:
    """The faces of the combinatorial map of a crossing code.

    A face is traced from a dart (crossing, slot) by running along its edge
    to the edge's other occurrence and turning to the next slot
    counterclockwise, so the face lies to the right of the walk.
    walks: per face, its darts in walk order as (dart, edge, forward);
        forward: the walk runs along the edge's orientation, that is, the
        dart is not the edge's ``edge_head``.
    face: (edge, forward) -> index of the face that walk lies in.
    piece: edge -> its connected piece, named by one of its components;
        a free loop is a piece of its own and is not listed.
    """

    walks: tuple
    face: dict
    piece: dict

    @property
    def genus(self) -> int:
        """Total genus over the pieces (see ``_genus``)."""
        return _genus(len(set(self.piece.values())), len(self.walks), len(self.face) // 4)

    def shared(self, u, v):
        """The (u forward, v forward) walk directions of each face that runs
        along both edges; all four when they lie on different pieces, as a
        face of either can then hold the other."""
        apart = u not in self.piece or self.piece[u] != self.piece.get(v)
        return [(a, b) for a in (True, False) for b in (True, False)
                if apart or self.face[u, a] == self.face[v, b]]


def _genus(pieces, face_count, crossing_count):
    """Total genus over the pieces, each with V - E + F = 2 - 2g and
    E = 2V, where V is the crossing count."""
    return pieces - (face_count - crossing_count) // 2


def _face_walks(crossings):
    """Every face of the combinatorial map, as its darts in walk order.

    Dart 4 ci + s is slot s of crossing ci.  A walk runs from a dart to its
    partner, the other occurrence of its edge, and turns to the partner's
    next slot counterclockwise; faces start at the lowest dart not yet
    walked."""
    partner = [0] * (4 * len(crossings))
    first = {}
    for p, e in enumerate(e for x in crossings for e in x):
        q = first.pop(e, None)
        if q is None:
            first[e] = p
        else:
            partner[p], partner[q] = q, p
    seen = bytearray(len(partner))
    walks = []
    for start in range(len(partner)):
        if seen[start]:
            continue
        walk, p = [], start
        while not seen[p]:
            seen[p] = 1
            walk.append(p)
            q = partner[p]
            p = q - (q & 3) + ((q + 1) & 3)
        walks.append(walk)
    return walks


def _piece_roots(d: Diagram, comp):
    """Per component, the component naming its connected piece: components
    that cross lie on one piece."""
    root = list(range(len(d.components)))
    for x in d.crossings:
        under, over = root[comp[x[0]]], root[comp[x[1]]]
        if under != over:
            root = [over if r == under else r for r in root]
    return root


def faces(d: Diagram) -> _Faces:
    """The face record of ``d``, from one walk over its darts
    (``_face_walks``)."""
    crossings = d.crossings
    orient = _orient(d)
    head, comp = orient.edge_head, orient.edge_component
    walks, face = [], {}
    for index, darts in enumerate(_face_walks(crossings)):
        walk = []
        for p in darts:
            dart = p >> 2, p & 3
            e = crossings[p >> 2][p & 3]
            forward = head[e] != dart
            face[e, forward] = index
            walk.append((dart, e, forward))
        walks.append(tuple(walk))
    root = _piece_roots(d, comp)
    return _Faces(tuple(walks), face, {e: root[comp[e]] for e in head})


def embedding_genus(d: Diagram) -> int:
    """Total genus of the surfaces the crossing code embeds in.

    Zero for every honestly planar diagram; a positive value means the
    code is virtual (some construction wired strands inconsistently).
    Counted from the same dart walk as the face record (``_face_walks``)
    and the same pieces, without building the record.
    """
    comp = _orient(d).edge_component
    root = _piece_roots(d, comp)
    pieces = len({root[comp[x[0]]] for x in d.crossings})
    return _genus(pieces, len(_face_walks(d.crossings)), len(d.crossings))


class _Splice:
    """The one editor for local moves on a crossing code: Reidemeister
    reduction and insertion, and component deletion.

    Holds the crossings and component cycles as label lists, the
    occurrence map (label -> its (crossing, slot) occurrences; empty for a
    free loop) and the signs.  A crossing is deleted by clearing its
    ``live`` flag; it keeps its labels until its slots are joined, so joins
    through two deleted crossings may come in any order.
    """

    def __init__(self, d: Diagram):
        orient = _orient(d)
        self.components = [list(c) for c in d.components]
        self.crossings = [list(x) for x in d.crossings]
        self.live = [True] * len(d.crossings)
        self.occ = _occurrences(d.crossings)
        self.occ.update((e, []) for e in orient.free)
        self.signs = list(orient.signs)

    def _enters(self, slot):
        return slot[1] in (0, 2 - self.signs[slot[0]])

    def add(self, crossing, sign):
        """A new crossing of the given sign, on labels freed by ``split``."""
        for s, e in enumerate(crossing):
            self.occ[e].append((len(self.crossings), s))
        self.crossings.append(list(crossing))
        self.live.append(True)
        self.signs.append(sign)

    def split(self, e, n):
        """Cut edge ``e`` at ``n`` points; returns its n + 1 pieces in flow
        order.  ``e`` keeps its tail and the last piece takes over its head
        (on a free loop the last piece is ``e``); ``add`` places the rest."""
        if e not in self.occ:
            raise DomainError(f"no edge labelled {e}")
        heads = [o for o in self.occ[e] if self._enters(o)]
        start = max(self.occ) + 1
        new = list(range(start, start + n - 1 + len(heads)))
        cyc = next(c for c in self.components if e in c)
        cyc[cyc.index(e) + 1:cyc.index(e) + 1] = new
        self.occ.update((f, []) for f in new)
        for ci, s in heads:
            self.occ[e].remove((ci, s))
            self.occ[new[-1]].append((ci, s))
            self.crossings[ci][s] = new[-1]
        return [e, *new] if heads else [e, *new, e]

    def delete_edge(self, e):
        del self.occ[e]

    def join(self, a, b):
        """Splice the edges at the freed slots ``a`` and ``b``, one where an
        edge enters its deleted crossing and one where an edge leaves.  The
        entering edge keeps its label; the leaving edge's far occurrence
        takes it over.  An edge joined to itself becomes a free loop."""
        if not self._enters(a):
            a, b = b, a
        keep, gone = self.crossings[a[0]][a[1]], self.crossings[b[0]][b[1]]
        self.occ[keep].remove(a)
        self.occ[gone].remove(b)
        if gone != keep:
            for cj, t in self.occ.pop(gone):
                self.crossings[cj][t] = keep
                self.occ[keep].append((cj, t))

    def diagram(self, keep):
        """The edited code: live crossings in their old order (added ones
        last), the surviving edges of each component in ``keep`` numbered
        consecutively in cycle order.  Returns (diagram, old label -> new label): an edge joined
        away or deleted maps to the surviving edge that now runs where it
        ran, the nearest survivor before it along its cycle."""
        new, comps, n = {}, [], 0
        for c in keep:
            cyc = self.components[c]
            first = next(p for p, e in enumerate(cyc) if e in self.occ)
            comp = []
            for e in cyc[first:] + cyc[:first]:
                if e in self.occ:
                    n += 1
                    comp.append(n)
                new[e] = n
            comps.append(comp)
        crossings = [[new[e] for e in x] for x, live in zip(self.crossings, self.live) if live]
        return Diagram(crossings, comps), new


def _find_kink(sp: _Splice):
    """The lowest kink, a crossing whose label at slot s also sits at slot
    s + 1, as a move (crossings, edges, joins) for ``simplify``."""
    for ci, x in enumerate(sp.crossings):
        if sp.live[ci]:
            for s in range(4):
                if x[s] == x[(s + 1) % 4]:
                    return [ci], [x[s]], [((ci, (s + 2) % 4), (ci, (s + 3) % 4))]
    return None


def _find_bigon(sp: _Splice):
    """The lowest cancelling bigon, as a move for ``simplify``: the label at
    slot si of crossing ci runs to slot sj of another crossing cj with the
    same role (under or over) at both, and the label at slot si + 1 runs
    to slot sj - 1.  Alternating roles make a clasp, which Reidemeister II
    cannot remove."""
    for ci, x in enumerate(sp.crossings):
        if not sp.live[ci]:
            continue
        for si in range(4):
            first, second = sp.occ[x[si]]
            cj, sj = second if first == (ci, si) else first
            if (
                cj != ci
                and si % 2 == sj % 2
                and set(sp.occ[x[(si + 1) % 4]]) == {(ci, (si + 1) % 4), (cj, (sj - 1) % 4)}
            ):
                joins = [
                    ((ci, (si + 2) % 4), (cj, (sj + 2) % 4)),
                    ((ci, (si + 3) % 4), (cj, (sj + 1) % 4)),
                ]
                return [ci, cj], [x[si], x[(si + 1) % 4]], joins
    return None


def simplify(d: Diagram, effort: int | None = None) -> Diagram:
    """Greedy Reidemeister I/II reduction.

    Deterministic: at each step the lowest-index available kink is removed,
    else the lowest-index cancelling bigon.  ``effort`` bounds the number of
    moves; None means run until no move applies.  The link type, hence every
    invariant, is unchanged.
    """
    sp = _Splice(d)
    moves = 0
    while effort is None or moves < effort:
        move = _find_kink(sp) or _find_bigon(sp)
        if move is None:
            break
        crossings, edges, joins = move
        for ci in crossings:
            sp.live[ci] = False
        for e in edges:
            sp.delete_edge(e)
        for a, b in joins:
            sp.join(a, b)
        moves += 1
    return sp.diagram(range(len(d.components)))[0]


def insert_kink(d: Diagram, edge: int, sign: int) -> Diagram:
    """Reidemeister I insertion: a curl of sign +1 or -1 on ``edge``."""
    if sign not in (1, -1):
        raise DomainError(f"kink sign must be +1 or -1, got {sign}")
    sp = _Splice(d)
    a, loop, b = sp.split(edge, 2)
    sp.add((a, loop, loop, b) if sign > 0 else (a, b, loop, loop), sign)
    return sp.diagram(range(len(d.components)))[0]


def insert_poke(d: Diagram, edge_under: int, edge_over: int) -> Diagram:
    """Reidemeister II insertion: push ``edge_under`` beneath ``edge_over``.

    The under-edge crosses at A, then at B, with opposite signs.  The
    bigon lies in a face the two edges share, and the directions in which
    that face's walk runs along them fix its layout: the over-edge runs
    through A first when the directions differ (the edges run the same way
    across the face), and A is negative when the walk runs along the
    over-edge.  Of several shared faces, the layout with the over-edge
    through A first, then with A negative, wins.  Edges on different
    pieces, or on a free loop, take the first layout.  The embedding genus
    of ``d`` is kept.  If the edges share no face, ``DomainError``.
    """
    if edge_under == edge_over:
        raise DomainError("poke needs two distinct edges")
    shared = faces(d).shared(edge_under, edge_over)
    if not shared:
        raise DomainError(f"edges {edge_under} and {edge_over} share no face")
    same, sign = min((fu == fo, 1 - 2 * fo) for fu, fo in shared)
    sp = _Splice(d)
    (ua, um, ub), (oa, om, ob) = sp.split(edge_under, 2), sp.split(edge_over, 2)
    at_a, at_b = ((om, ob), (oa, om)) if same else ((oa, om), (om, ob))
    for (u_in, u_out), (o_in, o_out), sg in (((ua, um), at_a, sign), ((um, ub), at_b, -sign)):
        sp.add((u_in, o_in, u_out, o_out) if sg > 0 else (u_in, o_out, u_out, o_in), sg)
    return sp.diagram(range(len(d.components)))[0]
