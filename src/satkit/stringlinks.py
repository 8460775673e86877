"""String links, stacking, closure, infection operators, winding vectors,
parallels and fusion.

A string link has m strands in a rectangle, strand i joining the i-th
bottom boundary point to the i-th top point.  Strand paths are stored in
flow order; ``directions[i]`` is +1 when the flow runs bottom to top.
An infection operator marks, exactly as a pattern does, the ordered edges
crossed by a disk in the exterior together with passage signs; infecting
ties those strands into a companion knot with the same zero-framing gadget
the satellite construction uses, so the one-strand case reproduces the
pattern operations verbatim.  Fusion bands consecutive strands at the
bottom boundary, where they are face to face below every crossing.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .diagram import Diagram, _crossing_sums, _Orientation, _orient_paths, embedding_genus
from .errors import DomainError, InternalError, Record, ValidationError, built
from .patterns import Pattern, _check_cut, _tie_companion
from .wires import Builder, band, build_cable, swap, twist_chain

Crossing = tuple[int, int, int, int]


class StringLink(Record):
    strand_count: int
    crossings: tuple[Crossing, ...]
    strands: tuple[tuple[int, ...], ...]
    directions: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(tuple(x) for x in self.crossings))
        object.__setattr__(self, "strands", tuple(tuple(s) for s in self.strands))
        if not self.directions:
            object.__setattr__(self, "directions", (1,) * self.strand_count)
        else:
            object.__setattr__(self, "directions", tuple(self.directions))
        if len(self.strands) != self.strand_count or self.strand_count < 1:
            raise ValidationError("strand paths do not match the strand count")
        if len(self.directions) != self.strand_count:
            raise ValidationError("directions do not match the strand count")
        if any(d not in (1, -1) for d in self.directions):
            raise ValidationError("directions must be +1 or -1")
        _orient_tangle(self)  # validates

    def edges(self):
        return tuple(e for path in self.strands for e in path)

    def __repr__(self):
        return f"StringLink({self.strand_count} strands, {len(self.crossings)} crossings)"


@lru_cache(maxsize=4096)
def _orient_tangle(sl: StringLink) -> _Orientation:
    return _orient_paths(sl.crossings, sl.strands, closed=False)


def _strand_index(sl: StringLink) -> dict[int, int]:
    """Edge label -> the index of the strand it lies on."""
    return {e: index for index, path in enumerate(sl.strands) for e in path}


def trivial_string_link(m: int) -> StringLink:
    return StringLink(m, (), tuple((i + 1,) for i in range(m)))


class InfectionOperator(Record):
    link: StringLink
    cut: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "cut", tuple((int(e), int(s)) for e, s in self.cut))
        _check_cut(self.cut, self.link.edges())


# -- builder conversions -----------------------------------------------------


def _add_string_link(b: Builder, sl: StringLink):
    """Import ``sl`` beside what ``b`` holds, its strand ends bound to the
    terminals.  Returns the edge label -> wire id map."""
    wmap = b.add_code(sl.crossings, sl.strands, _orient_tangle(sl))
    for si, path in enumerate(sl.strands):
        first, last = wmap[path[0]], wmap[path[-1]]
        start_key = ("bot", si) if sl.directions[si] > 0 else ("top", si)
        end_key = ("top", si) if sl.directions[si] > 0 else ("bot", si)
        b.wires[first][0] = ("t", start_key)
        b.wires[last][1] = ("t", end_key)
    return wmap


def _walk_out(b: Builder, seeds, directions):
    crossings, paths, labels = b.to_tangle(seeds)
    return built(StringLink, len(paths), crossings, paths, tuple(directions)), labels


def _splice_terminals(b: Builder, directions, lower=None, upper=None):
    """Join each strand's top terminal to its bottom terminal along the
    strand's flow, freeing both through ``Builder._unbind``.  When two
    string links share the builder, the top terminal is taken from the
    wires in ``lower`` and the bottom one from the wires in ``upper``."""

    def free(key, among):
        binding = ("t", key)
        for w, ends in b.wires.items():
            if (among is None or w in among) and binding in ends:
                return b._unbind(w, binding)
        raise DomainError(f"terminal {key} not found")

    for i, direction in enumerate(directions):
        top = free(("top", i), lower)
        bot = free(("bot", i), upper)
        if direction > 0:
            b.fuse(top, bot)  # the top is the flow end: it feeds the bottom
        else:
            b.fuse(bot, top)


# -- operations ---------------------------------------------------------------


def stack(s1: StringLink, s2: StringLink) -> StringLink:
    """Vertical concatenation: s2 on top of s1."""
    if s1.strand_count != s2.strand_count:
        raise DomainError("stacking needs equal strand counts")
    if s1.directions != s2.directions:
        raise DomainError("stacking needs matching strand orientations")
    b = Builder()
    w1 = _add_string_link(b, s1)
    w2 = _add_string_link(b, s2)
    _splice_terminals(b, s1.directions, set(w1.values()), set(w2.values()))
    seeds = []
    for i in range(s1.strand_count):
        if s1.directions[i] > 0:
            seeds.append((w1[s1.strands[i][0]], True))
        else:
            seeds.append((w2[s2.strands[i][0]], True))
    out, _ = _walk_out(b, seeds, s1.directions)
    return out


def closure(sl: StringLink) -> Diagram:
    """Close top to bottom with a trivial string link; component order is
    the strand order, orientations those of the strands."""
    b = Builder()
    wmap = _add_string_link(b, sl)
    _splice_terminals(b, sl.directions)
    d, _ = b.to_diagram([(wmap[path[0]], True) for path in sl.strands])
    return d


def infect(op: InfectionOperator, k: Diagram) -> InfectionOperator:
    """Tie the strands through the marked disk into the companion knot.

    The marking survives; the winding vector is unchanged.
    """
    b = Builder()
    wmap = _add_string_link(b, op.link)
    marked = _tie_companion(b, wmap, op.cut, k)
    seeds = [(wmap[path[0]], True) for path in op.link.strands]
    out, labels = _walk_out(b, seeds, op.link.directions)
    new_cut = tuple((labels[w], s) for w, (_, s) in zip(marked, op.cut))
    return built(InfectionOperator, out, new_cut)


def winding_vector(op: InfectionOperator) -> tuple[int, ...]:
    """Per-strand algebraic passage counts through the marked disk."""
    strand = _strand_index(op.link)
    w = [0] * op.link.strand_count
    for e, s in op.cut:
        w[strand[e]] += s
    return tuple(w)


def winding_gcd(op: InfectionOperator) -> int:
    g = 0
    for x in winding_vector(op):
        g = math.gcd(g, abs(x))
    return g


def parallel(op: InfectionOperator, kvec) -> InfectionOperator:
    """Untwisted parallel copies: |k_i| copies of strand i, reversed when
    k_i is negative, omitted when zero."""
    sl = op.link
    kvec = tuple(int(k) for k in kvec)
    if len(kvec) != sl.strand_count:
        raise DomainError("copy vector length must match the strand count")
    if all(k == 0 for k in kvec):
        raise DomainError("at least one strand must survive")
    orient = _orient_tangle(sl)
    sums = _crossing_sums(orient, sl.strand_count)
    strand = _strand_index(sl)
    widths = {e: abs(kvec[i]) for e, i in strand.items()}
    b = Builder()
    copies = build_cable(b, sl.crossings, orient.signs, widths)
    # a strand that meets no crossing is one bare wire per copy
    copies.update((e, [b.fresh() for _ in range(widths[e])]) for e in orient.free)
    # Two independent orderings.  Strand slots are geometric, west to east:
    # copy offsets run to the left of the flow, so forward copies come out
    # right-to-left and reversed copies left-to-right.  The disk reading
    # order of the expanded passages is reversed in both cases, because
    # reversing a strand also flips which side of the disk it is read from.
    seeds = []
    directions = []
    for si, path in enumerate(sl.strands):
        k = kvec[si]
        # untwisted copies: twist each strand's top copies by its writhe
        top = twist_chain(b, copies[path[-1]][:abs(k)], -sums[si][si])
        # forward copies are seeded where the strand starts, reversed ones
        # at its twisted top
        if k > 0:
            seeds += [(copies[path[0]][j], True) for j in range(k - 1, -1, -1)]
        else:
            seeds += [(w, False) for w in top]
        directions += [sl.directions[si] * (1 if k > 0 else -1)] * abs(k)
    out, labels = _walk_out(b, seeds, directions)
    new_cut = []
    for e, s in op.cut:
        k = kvec[strand[e]]
        for j in range(abs(k) - 1, -1, -1):
            new_cut.append((labels[copies[e][j]], s if k > 0 else -s))
    if not new_cut:
        raise DomainError("every marked strand was omitted")
    return built(InfectionOperator, out, tuple(new_cut))


def fuse(op: InfectionOperator) -> Pattern:
    """Band the strands together, in order, into a tangle whose closure is
    a knot; the marking becomes the pattern's cut.

    Strands i and i + 1 are banded at their bottom-boundary edges (``path[0]``
    of an upward strand, ``path[-1]`` of a downward one): the band lies in
    the boundary face, below every crossing and clear of the marked disk.
    Where a banded edge is marked, the marking stays on the piece away from
    the boundary: an upward strand's moves to the head piece of its first
    band cut, a downward strand's stays on the tail piece.  A fused base
    whose embedding genus differs from the closure's is an
    ``InternalError``."""
    sl = op.link
    b = Builder()
    wmap = _add_string_link(b, sl)
    bottom = [path[0] if d > 0 else path[-1] for path, d in zip(sl.strands, sl.directions)]
    away = {}
    for i in range(sl.strand_count - 1):
        u, v = wmap[bottom[i]], wmap[bottom[i + 1]]
        if sl.directions[i] == sl.directions[i + 1]:
            heads = band(b, u, v, over=True)
        else:
            # antiparallel strands: the band is a plain turn-around
            heads = swap(b, u, v)
        for j, head in zip((i, i + 1), heads):
            if sl.directions[j] > 0:
                away.setdefault(bottom[j], head)
    cut_wires = [(away.get(e, wmap[e]), s) for e, s in op.cut]
    _splice_terminals(b, sl.directions)
    d, labels = b.to_diagram([(cut_wires[0][0], True)])
    genus = embedding_genus(closure(sl))
    if embedding_genus(d) != genus:
        raise InternalError(f"fuse changed the embedding genus from {genus}")
    cut = tuple((labels[w], s) for w, s in cut_wires)
    return built(Pattern, d, cut)


def reduce_to_pattern(op: InfectionOperator, kvec) -> Pattern:
    """Parallels then fusion: the winding number of the resulting pattern
    is the combination sum, which must equal the winding gcd."""
    kvec = tuple(int(k) for k in kvec)
    wv = winding_vector(op)
    total = sum(k * w for k, w in zip(kvec, wv))
    g = winding_gcd(op)
    if g == 0 or total != g:
        raise DomainError(
            f"combination {kvec} against {wv} gives {total}, need the winding gcd {g}"
        )
    return fuse(parallel(op, kvec))


def mirror_reverse(sl: StringLink) -> StringLink:
    """The concordance inverse: flip the rectangle upside down and switch
    every crossing.  All crossing signs negate."""
    new_crossings = tuple((c, bb, a, dd) for (a, bb, c, dd) in sl.crossings)
    new_strands = tuple(tuple(reversed(path)) for path in sl.strands)
    return StringLink(sl.strand_count, new_crossings, new_strands, sl.directions)
