"""Pattern knots in a solid torus and the satellite construction.

A pattern is a knot diagram together with a marked cut: the ordered list
of edges crossed by a vertical interval (the meridional disk of the solid
torus), each with the sign of the strand's passage through the disk.  The
satellite of a companion knot replaces the cut interval by parallel copies
of a one-string tangle presentation of the companion, followed by the
twist correction that restores the preferred (zero) framing.

The equivalent two-component link form (underlying knot, round encircling
curve) is an import/export format handled by ``to_link``/``from_link``.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import (
    Diagram,
    _crossing_sums,
    _delete_components,
    _least_labelling,
    _orient,
    _path_heads,
    _strand_components,
    mirror,
    reverse,
)
from .errors import DomainError, Record, ValidationError, built
from .wires import Builder, build_cable, encircle, swap, twist_chain


class Pattern(Record):
    base: Diagram
    cut: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "cut", tuple((int(e), int(s)) for e, s in self.cut))
        if not self.base.is_knot():
            raise ValidationError("pattern base must be a knot diagram")
        if len(self.cut) < 1:
            raise ValidationError("pattern must cross the disk at least once")
        _check_cut(self.cut, self.base.edges())

    @property
    def strand_count(self) -> int:
        return len(self.cut)

    def __repr__(self):
        return f"Pattern({self.base!r}, cut={self.cut})"


def _check_cut(cut, edges):
    """A marked cut names distinct edges among ``edges``, each with a
    passage sign of +1 or -1."""
    cut_edges = [e for e, _ in cut]
    if len(set(cut_edges)) != len(cut_edges):
        raise ValidationError("cut strands must be pairwise distinct edges")
    edges = set(edges)
    for e, s in cut:
        if e not in edges:
            raise ValidationError(f"cut references missing edge {e}")
        if s not in (1, -1):
            raise ValidationError("cut signs must be +1 or -1")


def winding_number(p: Pattern) -> int:
    """Algebraic count of the pattern's passages through the disk."""
    return sum(s for _, s in p.cut)


def patterns_equal(p1: Pattern, p2: Pattern) -> bool:
    """Equality of the cut-marked diagrams (renumbering and rotation)."""
    return _pattern_key(p1) == _pattern_key(p2)


def _pattern_key(p: Pattern):
    # joint canonicalisation of the diagram and its cut marking: base
    # symmetries may permute edges, so among the rotations that give the
    # least crossing list the cut breaks the tie; its components stay held
    # so no candidate that moves it is merged away
    base = p.base
    where = {e: (i, q) for i, cyc in enumerate(base.components) for q, e in enumerate(cyc)}
    held = {where[e][0] for e, _ in p.cut}
    crossings, components, rotations = _least_labelling(base, held)

    def label(rot, e):
        i, q = where[e]
        return components[i][(q - rot[i]) % len(components[i])]

    cut = min(tuple((label(rot, e), s) for e, s in p.cut) for rot in rotations)
    return crossings, components, cut


# -- the satellite construction ---------------------------------------------


def _tie_companion(b: Builder, wmap, cut, companion: Diagram, extra_twists: int = 0):
    """Cut the marked edges and tie the cut strands into the companion knot.

    ``cut`` lists (edge, passage sign) in transverse order; ``wmap`` maps
    its edges to wires of ``b``.  Each wire is cut where it crosses the
    disk (the old wire id then names its tail piece).  The companion is
    cut open at its lowest-labelled edge, cabled into ``len(cut)``
    parallel copies, given ``-writhe`` correction twists, and spliced in.
    Returns the marked wires crossing the new disk position (entry side
    of the gadget), in order.

    ``extra_twists`` deliberately mis-frames the insertion; it exists so
    negative controls can exercise the formula checks.
    """
    if not companion.is_knot():
        raise DomainError("companion must be a knot diagram")
    pieces = [b.cut(wmap[e]) for e, _ in cut]
    m = len(cut)
    orient = _orient(companion)
    cut_edge = min(companion.edges())
    widths = {e: m for e in companion.edges()}
    copies = build_cable(b, companion.crossings, orient.signs, widths, loops=orient.free)
    # Each copy opens into an exit (tail piece) and an entry (head piece);
    # a free loop opens into one wire serving as both.
    exits, entries = zip(*[b.cut(w) for w in copies[cut_edge]])
    exits = twist_chain(b, exits, -_crossing_sums(orient, 1)[0][0] + extra_twists)
    # cut order and copy offsets run through the disk in opposite transverse
    # directions: cut strand i meets copy m-1-i
    ports = zip(reversed(entries), reversed(exits))

    marked = []
    for (tail_piece, head_piece), (_, sign), (s_port, e_port) in zip(pieces, cut, ports):
        if sign > 0:
            b.join(tail_piece, s_port)
            rest = e_port
        else:
            b.fuse((tail_piece, 1), (e_port, 1))
            rest = s_port
        lsrc = b.live(rest)
        tgt = b.live(head_piece)
        if lsrc == tgt:
            # the whole strand collapsed to one wire: close the circle
            survivor = b.fuse((lsrc, 1), (lsrc, 0))
        else:
            survivor = b.fuse(b.single_dangle(lsrc), b.single_dangle(tgt))
        marked.append(survivor if sign < 0 else tail_piece)
    return marked


@lru_cache(maxsize=512)
def _satellite_parts(p: Pattern, k: Diagram, extra_twists: int = 0):
    """The satellite diagram of ``p`` and ``k`` with the cut it inherits
    from ``p``, as (diagram, cut).  Cached, so that ``satellite`` and
    ``compose`` of one pair share one assembly: the corpus command asks
    for both on each winding-one pair."""
    b, wmap = Builder.from_diagram(p.base)
    marked = _tie_companion(b, wmap, p.cut, k, extra_twists)
    d, labels = b.to_diagram([(wmap[p.cut[0][0]], True)])
    new_cut = tuple((labels[w], s) for w, (_, s) in zip(marked, p.cut))
    return d, new_cut


def satellite(p: Pattern, k: Diagram) -> Diagram:
    """The untwisted satellite with this pattern and companion ``k``."""
    d, _ = _satellite_parts(p, k)
    return d


def misframed_satellite(p: Pattern, k: Diagram) -> Diagram:
    """A deliberately wrong satellite: the framing correction is off by one
    full twist.  Negative-control fixture builder."""
    if p.strand_count < 2:
        raise DomainError("a one-strand insertion cannot be mis-framed")
    d, _ = _satellite_parts(p, k, 1)
    return d


def compose(p: Pattern, a: Diagram) -> Pattern:
    """The satellite, kept as a pattern: same cut, base tied into ``a``.

    Satelliting with the result equals satelliting with ``p`` after
    connect-summing the companions.
    """
    d, cut = _satellite_parts(p, a)
    return built(Pattern, d, cut)


def difference_pattern(p: Pattern, k: Diagram) -> Pattern:
    """Connected sum of the reversed mirror of the satellite with the
    satellite kept as a pattern: the underlying knot is a concordance
    inverse connect-summed with the satellite, hence ribbon; the cut (and
    so the winding number) is inherited from the satellite summand."""
    q = compose(p, k)
    summand = mirror(reverse(q.base, 0))
    b, wmap = Builder.from_diagram(q.base)
    wmaps = b.add_diagram(summand)

    cut_edges = {e for e, _ in q.cut}
    non_cut = sorted(set(q.base.edges()) - cut_edges)
    e2 = non_cut[0] if non_cut else min(q.base.edges())
    e1 = min(summand.edges())

    cut_wires = [wmap[e] for e, _ in q.cut]
    swap(b, wmap[e2], wmaps[e1])
    d, labels = b.to_diagram([(cut_wires[0], True)])
    new_cut = tuple((labels[w], s) for w, (_, s) in zip(cut_wires, q.cut))
    return built(Pattern, d, new_cut)


# -- the two-component link form ----------------------------------------------


def to_link(p: Pattern) -> Diagram:
    """Export as an ordered two-component link: the underlying knot first,
    then the round curve encircling the cut strands.  The curve is oriented
    so its linking number with the knot equals the winding number."""
    b, wmap = Builder.from_diagram(p.base)
    targets = [(wmap[e], s) for e, s in p.cut]
    circle_seed = encircle(b, targets)
    d, _ = b.to_diagram([(wmap[p.cut[0][0]], True), (circle_seed, False)])
    return d


def from_link(d: Diagram, circle: int) -> Pattern:
    """Recover a pattern from a two-component link whose marked component is
    a round curve: no self-crossings, all its crossings consecutive along
    it, over on one arc and under on the other, each strand it encircles
    crossing straight through.  Inputs not in this position are rejected."""
    if not 0 <= circle < len(d.components):
        raise DomainError("circle component out of range")
    if len(d.components) != 2:
        raise DomainError("pattern import needs exactly two components")
    orient = _orient(d)
    under, over = _strand_components(orient)

    passages = []  # (crossing index, circle is over)
    for ci, (u, o) in enumerate(zip(under, over)):
        if u == o == circle:
            raise DomainError("marked component crosses itself; not a round curve")
        if circle in (u, o):
            passages.append((ci, o == circle))
    if not passages:
        raise DomainError("marked component is split from the knot; no passages")
    if len(passages) % 2:
        raise ValidationError("odd passage count")

    # order the passages along the circle
    heads = list(_path_heads(orient, d.components))[circle]
    order = [(ci, over[ci] == circle) for ci, _ in heads]
    # rotate so an over-run starts the list, then demand over^m under^m
    m = len(order) // 2
    starts = [i for i in range(len(order)) if order[i][1] and not order[i - 1][1]]
    if len(starts) != 1:
        raise DomainError("circle passages are not two consecutive runs")
    i0 = starts[0]
    order = order[i0:] + order[:i0]
    if not all(over for _, over in order[:m]) or any(over for _, over in order[m:]):
        raise DomainError("circle passages are not over-run then under-run")
    over_run = [ci for ci, _ in order[:m]]
    under_run = [ci for ci, _ in order[m:]]

    signs = orient.signs
    cut_info = []
    for i, ci in enumerate(over_run):
        cj = under_run[m - 1 - i]
        # an edge met at two distinct crossings runs between them; the
        # circle runs over ci, so its under-strand edges are the knot's
        mids = set(d.crossings[ci][0::2]) & set(d.crossings[cj][0::2] + d.crossings[cj][1::2])
        if not mids:
            raise DomainError("circle passages do not pair up across the disk")
        *_, shared = mids
        if signs[ci] != signs[cj]:
            raise DomainError("paired passages disagree in sign; strand does not cross straight through")
        cut_info.append((shared, signs[ci]))

    base, labels = _delete_components(d, [1 - circle])
    # the circle is oriented to link positively, which walks the over-run
    # against the transverse cut order; flip back
    cut = tuple((labels[e], s) for e, s in reversed(cut_info))
    return Pattern(base, cut)
