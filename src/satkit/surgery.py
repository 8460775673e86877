"""Framed links, surgery descriptions, Kirby moves, and the three-stage
rewrite certifying that zero-surgery on a satellite is reachable from the
split assembly of the pattern's underlying knot and the companion.

The homology of a surgered manifold is read off the linking matrix
(framings on the diagonal, linking numbers off it) through the Smith
normal form.  Handle slides act on the diagram by banding a component
with a framed parallel copy of another, which realises the corresponding
congruence of the linking matrix exactly; the slam-dunk eliminates a
zero-framed meridional pair, strands through the partner passing through
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbelianGroup, cokernel
from .diagram import (
    Diagram,
    component_subdiagram,
    crossing_signs,
    diagrams_equal,
    embedding_genus,
    linking_number,
    writhe,
    _orient,
)
from .errors import DomainError, ValidationError
from .invariants import alexander_poly, equal_up_to_units
from .patterns import Pattern, _tie_companion, satellite, winding_number
from .wires import Builder, band, build_cable, cut_for_passage, encircle, lasso, twist_chain


@dataclass(frozen=True)
class FramedLink:
    diagram: Diagram
    framings: tuple[int, ...]
    roles: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "framings", tuple(int(f) for f in self.framings))
        if len(self.framings) != self.diagram.component_count:
            raise ValidationError("framings must match the component count")
        if self.roles is not None:
            object.__setattr__(self, "roles", tuple(self.roles))
            if len(self.roles) != self.diagram.component_count:
                raise ValidationError("roles must match the component count")

    def __repr__(self):
        return f"FramedLink({self.diagram!r}, framings={self.framings})"


def zero_surgery(k: Diagram) -> FramedLink:
    """The zero-framed surgery description of a knot."""
    if not k.is_knot():
        raise DomainError("zero surgery takes a knot diagram")
    return FramedLink(k, (0,))


def linking_matrix(fl: FramedLink):
    n = fl.diagram.component_count
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = fl.framings[i]
        for j in range(i + 1, n):
            v = linking_number(fl.diagram, i, j)
            m[i][j] = m[j][i] = v
    return m


def h1(fl: FramedLink) -> AbelianGroup:
    """First homology of the surgered manifold: Smith form of the linking
    matrix."""
    n = fl.diagram.component_count
    return cokernel(linking_matrix(fl), n)


def framed_links_equal(a: FramedLink, b: FramedLink) -> bool:
    return a.framings == b.framings and diagrams_equal(a.diagram, b.diagram)


@dataclass(frozen=True)
class BandArc:
    """Band specification for a handle slide: the edge of the sliding
    component and the edge of the handle whose parallel copy is banded in,
    plus the crossing sense of the two band connectors."""

    slide_edge: int | None = None
    handle_edge: int | None = None
    over: bool = True
    orientation: int = 1  # +1: band respects the parallel's orientation


def _slide_assembly(fl, i, j, slide_edge, handle_edge, copy_index, over, orientation):
    d = fl.diagram
    n = d.component_count
    orient = _orient(d)
    # double component j: blackboard parallel plus twists setting the
    # copy's linking with j equal to the framing
    widths = {}
    for c in range(n):
        w = 2 if c == j else 1
        for e in d.components[c]:
            widths[e] = w
    loops = [e for e in d.edges() if e in orient.free]
    gb = Builder()
    copies, _ = build_cable(gb, d.crossings, orient.signs, widths, loops=loops)
    fix = fl.framings[j] - writhe(d, j)
    if fix:
        tails = [gb.cut(w) for w in copies[handle_edge]]
        stubs = twist_chain(gb, [t for t, _ in reversed(tails)], fix)
        for stub, (_, h) in zip(stubs, reversed(tails)):
            gb.fuse(gb.single_dangle(stub), (h, 0))
    su = copies[slide_edge][0]
    sv = copies[handle_edge][copy_index]
    if orientation >= 0:
        band(gb, su, sv, over)
    else:
        # band meeting the reversed parallel: the slide strand enters the
        # copy against its nominal flow, so dangles pair head-to-head and
        # tail-to-tail; the final walk re-orients the copy
        tu, hu = gb.cut(su)
        tv, hv = gb.cut(sv)
        gb.fuse((tu, 1), (tv, 1))
        gb.fuse(gb.single_dangle(hv), gb.single_dangle(hu))

    seeds = []
    new_framings = []
    new_roles = [] if fl.roles else None
    lk_ij = linking_number(d, i, j)
    for c in range(n):
        if c == i:
            seeds.append((copies[slide_edge][0], True))
            new_framings.append(fl.framings[i] + fl.framings[j] + 2 * orientation * lk_ij)
        else:
            e0 = d.components[c][0]
            residual = (1 - copy_index) if c == j else 0
            seeds.append((copies[e0][residual], True))
            new_framings.append(fl.framings[c])
        if new_roles is not None:
            new_roles.append(fl.roles[c])
    out, _ = gb.to_diagram(seeds)
    return FramedLink(out, tuple(new_framings), tuple(new_roles) if new_roles else None)


def handle_slide(fl: FramedLink, i: int, j: int, band: BandArc | None = None) -> FramedLink:
    """Replace component i by its band sum with a framed parallel of j.

    The new framing is f_i + f_j + 2 lk(i, j) for an orientation-respecting
    band (orientation -1 reverses the parallel, giving f_i + f_j - 2 lk).
    The congruence class of the linking matrix, hence the homology, is
    unchanged exactly.

    Attachment edges, the parallel copy banded in and the band's crossing
    sense are searched so the result stays planar, ``band.over`` tried
    first.  Edges named in ``band`` narrow the search to those edges; the
    first attempt is returned when no candidate is planar.
    """
    n = fl.diagram.component_count
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise DomainError("slide needs two distinct components")
    d = fl.diagram
    comp_of = _orient(d).edge_component
    band = band or BandArc()
    orientation = band.orientation
    slide_edges = [band.slide_edge] if band.slide_edge is not None else list(d.components[i])
    handle_edges = [band.handle_edge] if band.handle_edge is not None else list(d.components[j])
    if any(comp_of.get(se) != i for se in slide_edges):
        raise DomainError("band must start on the sliding component")
    if any(comp_of.get(he) != j for he in handle_edges):
        raise DomainError("band must end on the handle component")
    fallback = None
    for se in slide_edges:
        for he in handle_edges:
            for copy_index in (1, 0):
                for over in (band.over, not band.over):
                    out = _slide_assembly(fl, i, j, se, he, copy_index, over, orientation)
                    if fallback is None:
                        fallback = out
                    if embedding_genus(out.diagram) == 0:
                        return out
    return fallback


def slam_dunk(fl: FramedLink, small: int, other: int) -> FramedLink:
    """Eliminate a zero-framed meridional pair.

    ``small`` must be a zero-framed circle meeting the diagram in exactly
    two crossings, both with ``other``, of equal sign, on a shared edge of
    ``other`` (it bounds a disk that ``other`` pierces once and nothing
    else touches).  Absorbing ``small`` sends the partner's surgery
    coefficient to infinity, so both circles disappear; strands through
    the partner are unaffected and the homology is preserved.
    """
    n = fl.diagram.component_count
    if not (0 <= small < n and 0 <= other < n) or small == other:
        raise DomainError("slam dunk needs two distinct components")
    if fl.framings[small] != 0:
        raise DomainError("the meridional circle must be zero framed")
    d = fl.diagram
    orient = _orient(d)
    comp_of = orient.edge_component
    hits = []
    for ci, x in enumerate(d.crossings):
        comps = {comp_of[e] for e in x}
        if small in comps:
            hits.append((ci, comps))
    if len(hits) != 2:
        raise DomainError("the small circle must meet the diagram in exactly two crossings")
    for ci, comps in hits:
        if comps != {small, other}:
            raise DomainError("the small circle must cross only the partner component")
    signs = crossing_signs(d)
    (c1, _), (c2, _) = hits
    if signs[c1] != signs[c2]:
        raise DomainError("passage signs differ: the partner does not pierce the disk once")
    # the partner's passage through the disk: one edge shared by both crossings
    def partner_edges(ci):
        x = d.crossings[ci]
        return {e for e in x if comp_of[e] == other}

    shared = partner_edges(c1) & partner_edges(c2)
    if not shared:
        raise DomainError("the two passages do not share an edge of the partner")

    kept = [c for c in range(n) if c not in (small, other)]
    new_framings = [fl.framings[c] for c in kept]
    new_roles = [fl.roles[c] for c in kept] if fl.roles else None
    out = component_subdiagram(d, kept)
    return FramedLink(out, tuple(new_framings), tuple(new_roles) if new_roles else None)


# -- the three-stage pipeline -----------------------------------------------------


@dataclass(frozen=True)
class PipelineTrace:
    stages: tuple[tuple[str, FramedLink, AbelianGroup], ...]
    moves: tuple[str, ...]
    final: FramedLink
    diagram_certificate: bool
    alexander_certificate: bool


def _split_assembly(p: Pattern, k: Diagram) -> FramedLink:
    """Zero-framed split union of the pattern's underlying knot and the
    companion, plus the zero-framed joining circle that runs once around
    the cut strands (reversed) and once around the companion as a
    meridian."""
    b, wmap = Builder.from_diagram(p.base)
    wk = b.add_diagram(k)

    base_seed_src = wmap[p.cut[0][0]]
    k_seed_src = wk[min(k.edges())]

    passages = []
    for e, s in p.cut:
        west, mid, east = cut_for_passage(b, wmap[e])
        passages.append((west, mid, east, s))
    first, last = lasso(b, passages, over_first=True)
    westk, midk, eastk = cut_for_passage(b, k_seed_src)
    firstk, lastk = lasso(b, [(westk, midk, eastk, 1)], over_first=False)
    b.join(last, firstk)
    b.join(lastk, first)

    d, _ = b.to_diagram([(base_seed_src, True), (k_seed_src, True), (first, True)])
    return FramedLink(d, (0, 0, 0), ("pattern-knot", "companion-handle", "joining-circle"))


def _tied_with_pair(p: Pattern, k: Diagram) -> tuple[FramedLink, int, int]:
    """The satellite picture with the residual zero-framed meridional pair:
    a circle around the tied bundle and its small meridian."""
    b, wmap = Builder.from_diagram(p.base)
    marked = _tie_companion(b, wmap, p.cut, k)

    targets = [(w, s) for w, (_, s) in zip(marked, p.cut)]
    circle_seed = encircle(b, targets)
    mer_seed = encircle(b, [(circle_seed, 1)])
    d, _ = b.to_diagram([(wmap[p.cut[0][0]], True), (circle_seed, False), (mer_seed, False)])
    fl = FramedLink(d, (0, 0, 0), ("satellite", "bundle-circle", "meridian-pair-member"))
    return fl, 2, 1  # (framed link, small index, other index)


def build_pipeline(p: Pattern, k: Diagram) -> PipelineTrace:
    """Replay the surgery rewrite taking the split assembly to the
    zero-surgery on the satellite, certifying every stage's homology and
    the final diagram.

    Requires winding number +-1; every recorded stage has infinite cyclic
    first homology, and the final framed link is the zero surgery on the
    satellite, certified both by exact diagram equality (up to edge
    renumbering, with no reduction) and by the Alexander polynomial.
    """
    n = winding_number(p)
    if n not in (1, -1):
        raise DomainError(f"pipeline needs winding number +-1, got {n}")
    if not k.is_knot():
        raise DomainError("companion must be a knot diagram")

    stages = []
    moves = []

    assembly = _split_assembly(p, k)
    g = h1(assembly)
    stages.append(("split-assembly", assembly, g))

    tied, small, other = _tied_with_pair(p, k)
    for idx in range(len(p.cut)):
        moves.append(f"slide cut strand {idx + 1} over the companion handle")
    g2 = h1(tied)
    stages.append(("companion-tied", tied, g2))

    final = slam_dunk(tied, small, other)
    moves.append("slam dunk the meridional pair")
    g3 = h1(final)
    stages.append(("pair-cancelled", final, g3))

    for name, fl, group in stages:
        if not group.is_infinite_cyclic:
            raise DomainError(f"stage {name} has first homology {group}, expected Z")

    target = zero_surgery(satellite(p, k))
    diagram_ok = framed_links_equal(final, target)
    alexander_ok = equal_up_to_units(
        alexander_poly(final.diagram), alexander_poly(target.diagram)
    )
    return PipelineTrace(tuple(stages), tuple(moves), final, diagram_ok, alexander_ok)
