"""Framed links, surgery descriptions, Kirby moves, and the three-stage
rewrite from the split assembly of the pattern's underlying knot and the
companion to zero-surgery on the satellite.  The first two stages are
drawn with ``wires.encircle``; the handle slides between them are not
executed (the tied stage is built directly), and the slam dunk that ends
the rewrite is.

The homology of a surgered manifold is read off the linking matrix
(framings on the diagonal, linking numbers off it) through the Smith
normal form.  Handle slides act on the diagram by banding a component
with a framed parallel copy of another, which realises the corresponding
congruence of the linking matrix exactly.  The band lies in a face the
two components share, read from ``diagram.faces``, so a slide keeps the
embedding genus by construction; the slam-dunk eliminates a zero-framed
meridional pair, strands through the partner passing through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbelianGroup, cokernel
from .diagram import (
    Diagram,
    component_subdiagram,
    diagrams_equal,
    embedding_genus,
    faces,
    _crossing_sums,
    _half,
    _orient,
)
from .errors import DomainError, InternalError, ValidationError
from .invariants import alexander_poly, equal_up_to_units
from .patterns import Pattern, compose, winding_number
from .wires import Builder, band, build_cable, encircle, swap, twist_chain


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
    """Framings on the diagonal, linking numbers off it."""
    d = fl.diagram
    sums = _crossing_sums(d.crossings, _orient(d), d.component_count)
    return [[fl.framings[i] if j == i else _half(v) for j, v in enumerate(row)] for i, row in enumerate(sums)]


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
    component and the edge of the handle whose parallel copy is banded in
    (None: any that ``handle_slide`` can band), the crossing sense of the
    band's half twist (``over``: the connector out of the left strand
    passes over the other), and the orientation, +1 to respect the
    parallel's orientation or -1 to reverse it."""

    slide_edge: int | None = None
    handle_edge: int | None = None
    over: bool = True
    orientation: int = 1


def _slide_assembly(fl, i, j, slide_edge, handle_edge, copy_index, over, orientation):
    d = fl.diagram
    orient = _orient(d)
    sums = _crossing_sums(d.crossings, orient, len(d.components))
    # double component j: blackboard parallel plus twists setting the
    # copy's linking with j equal to the framing
    widths = {e: 2 if c == j else 1 for e, c in orient.edge_component.items()}
    gb = Builder()
    copies = build_cable(gb, d.crossings, orient.signs, widths, loops=orient.free)
    tails, heads = zip(*[gb.cut(w) for w in copies[handle_edge]])
    for stub, h in zip(twist_chain(gb, tails, fl.framings[j] - sums[j][j]), heads):
        gb.join(stub, h)
    su = copies[slide_edge][0]
    sv = copies[handle_edge][copy_index]
    if orientation > 0:
        # copy 1 runs left of the handle, beside a face on the handle's
        # left and so on the slide strand's right; copy 0 mirrors that
        band(gb, *((su, sv) if copy_index else (sv, su)), over)
    else:
        # band meeting the reversed parallel: the slide strand enters the
        # copy against its nominal flow, so dangles pair head-to-head and
        # tail-to-tail; the final walk re-orients the copy
        tu, hu = gb.cut(su)
        tv, hv = gb.cut(sv)
        gb.fuse((tu, 1), (tv, 1))
        gb.fuse(gb.single_dangle(hv), gb.single_dangle(hu))

    framings = list(fl.framings)
    framings[i] += fl.framings[j] + 2 * orientation * _half(sums[i][j])
    # component j goes on as the copy that was not banded in
    seeds = [(copies[cyc[0]][1 - copy_index if c == j else 0], True) for c, cyc in enumerate(d.components)]
    seeds[i] = (su, True)
    out, _ = gb.to_diagram(seeds)
    return FramedLink(out, tuple(framings), fl.roles)


def handle_slide(fl: FramedLink, i: int, j: int, band: BandArc | None = None) -> FramedLink:
    """Replace component i by its band sum with a framed parallel of j.

    The new framing is f_i + f_j + 2 lk(i, j) for an orientation-respecting
    band (orientation -1 reverses the parallel, giving f_i + f_j - 2 lk).
    The congruence class of the linking matrix, hence the homology, is
    unchanged exactly.

    The band lies in one face: it joins the first (slide edge, handle
    edge) pair, in cycle order and narrowed to the edges ``band`` names,
    that runs the same way across a shared face (the face's walk runs
    along the two in opposite directions), and meets the copy of the
    handle on that face's side.  On different connected pieces the first
    pair is banded in a face that holds both.  The result keeps the
    input's genus; a pair with no such face raises ``DomainError``.
    """
    n = fl.diagram.component_count
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise DomainError("slide needs two distinct components")
    band = band or BandArc()
    if band.orientation not in (1, -1):
        raise DomainError(f"band orientation must be +1 or -1, got {band.orientation}")
    d = fl.diagram
    comp_of = _orient(d).edge_component
    slide_edges = [band.slide_edge] if band.slide_edge is not None else list(d.components[i])
    handle_edges = [band.handle_edge] if band.handle_edge is not None else list(d.components[j])
    if any(comp_of.get(se) != i for se in slide_edges):
        raise DomainError("band must start on the sliding component")
    if any(comp_of.get(he) != j for he in handle_edges):
        raise DomainError("band must end on the handle component")
    f = faces(d)
    # copy 1 runs on the handle's left, beside the face whose walk runs
    # back along the handle (fh False) and on along the slide edge
    attach = next(
        ((se, he, int(fs)) for se in slide_edges for he in handle_edges
         for fs, fh in f.shared(se, he) if fs != fh),
        None,
    )
    if attach is None:
        raise DomainError(f"no band edges of components {i} and {j} run the same way across a shared face")
    out = _slide_assembly(fl, i, j, *attach, band.over, band.orientation)
    if embedding_genus(out.diagram) != f.genus:
        raise InternalError(f"handle slide changed the embedding genus from {f.genus}")
    return out


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
    meets = {ci: {comp_of[e] for e in x} for ci, x in enumerate(d.crossings)}
    hits = [ci for ci, comps in meets.items() if small in comps]
    if len(hits) != 2:
        raise DomainError("the small circle must meet the diagram in exactly two crossings")
    if any(meets[ci] != {small, other} for ci in hits):
        raise DomainError("the small circle must cross only the partner component")
    c1, c2 = hits
    if orient.signs[c1] != orient.signs[c2]:
        raise DomainError("passage signs differ: the partner does not pierce the disk once")
    # the partner's passage through the disk: one edge shared by both crossings
    if not {e for e in d.crossings[c1] if comp_of[e] == other} & set(d.crossings[c2]):
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
    companion, plus the zero-framed joining circle: a round curve around
    the cut strands (reversed) banded to a meridian of the companion.  The
    band joins curves on two connected pieces, so it stays planar."""
    b, wmap = Builder.from_diagram(p.base)
    k_seed = b.add_diagram(k)[min(k.edges())]
    around = encircle(b, [(wmap[e], s) for e, s in p.cut])
    swap(b, around, encircle(b, [(k_seed, -1)]))
    d, _ = b.to_diagram([(wmap[p.cut[0][0]], True), (k_seed, True), (around, True)])
    return FramedLink(d, (0, 0, 0), ("pattern-knot", "companion-handle", "joining-circle"))


def _tied_with_pair(q: Pattern) -> tuple[FramedLink, int, int]:
    """The satellite picture with the residual zero-framed meridional pair:
    a circle around the cut strands of the composed pattern ``q`` and its
    small meridian.  ``q`` is walked out, so every wire runs with its
    flow and the circles are drawn planar."""
    b, wmap = Builder.from_diagram(q.base)
    circle = encircle(b, [(wmap[e], s) for e, s in q.cut])
    meridian = encircle(b, [(circle, 1)])
    d, _ = b.to_diagram([(wmap[min(q.base.edges())], True), (circle, False), (meridian, False)])
    fl = FramedLink(d, (0, 0, 0), ("satellite", "bundle-circle", "meridian-pair-member"))
    return fl, 2, 1  # (framed link, small index, other index)


def build_pipeline(p: Pattern, k: Diagram) -> PipelineTrace:
    """Replay the surgery rewrite taking the split assembly to the
    zero-surgery on the satellite, certifying every stage's homology and
    the final diagram.

    Requires winding number +-1.  The companion-tied stage is built
    directly from ``compose(p, k)``, whose base is the satellite, and is
    recorded as one move; the slam dunk runs.  Every stage is a planar
    diagram with infinite cyclic first homology, and the final framed link
    is the zero surgery on the satellite, certified both by exact diagram
    equality (up to edge renumbering, with no reduction) and by the
    Alexander polynomial.
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

    q = compose(p, k)
    tied, small, other = _tied_with_pair(q)
    moves.append("tie the cut strands into the companion (built directly; slides not executed)")
    g2 = h1(tied)
    stages.append(("companion-tied", tied, g2))

    final = slam_dunk(tied, small, other)
    moves.append("slam dunk the meridional pair")
    g3 = h1(final)
    stages.append(("pair-cancelled", final, g3))

    for name, fl, group in stages:
        if not group.is_infinite_cyclic:
            raise DomainError(f"stage {name} has first homology {group}, expected Z")

    target = zero_surgery(q.base)
    diagram_ok = framed_links_equal(final, target)
    alexander_ok = equal_up_to_units(
        alexander_poly(final.diagram), alexander_poly(target.diagram)
    )
    return PipelineTrace(tuple(stages), tuple(moves), final, diagram_ok, alexander_ok)
