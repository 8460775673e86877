import random

import pytest

from satkit.abelian import AbelianGroup
from satkit.catalog import (
    braid_closure,
    cable_pattern,
    clasp_pattern,
    core_pattern,
    corpus_knots,
    corpus_patterns,
    figure_eight,
    hopf_link,
    kink_base_pattern,
    random_framed_links,
    trefoil,
    wiggle_base_pattern,
    zigzag_pattern,
)
from satkit.diagram import Diagram, diagrams_equal, embedding_genus, relabeled, simplify, unknot
from satkit.errors import DomainError
from satkit.invariants import alexander_poly, equal_up_to_units
from satkit.patterns import Pattern, satellite, winding_number
from satkit.surgery import (
    BandArc,
    FramedLink,
    _slide_assembly,
    build_pipeline,
    framed_links_equal,
    h1,
    handle_slide,
    linking_matrix,
    slam_dunk,
    zero_surgery,
)
from satkit.wires import Builder, cut_for_passage, lasso


def test_zero_surgery_h1():
    for k in (unknot(), trefoil(), figure_eight()):
        fl = zero_surgery(k)
        assert fl.framings == (0,)
        assert h1(fl).is_infinite_cyclic


def test_zero_surgery_rejects_links():
    with pytest.raises(DomainError):
        zero_surgery(hopf_link())


def test_h1_small_matrices():
    assert h1(FramedLink(unknot(), (1,))).is_trivial
    assert h1(FramedLink(unknot(), (-1,))).is_trivial
    assert h1(FramedLink(unknot(), (2,))) == AbelianGroup((2,))
    assert h1(FramedLink(hopf_link(), (0, 0))).is_trivial  # det = -1


def test_linking_matrix_symmetric():
    fl = FramedLink(hopf_link(), (3, -2))
    m = linking_matrix(fl)
    assert m == [[3, 1], [1, -2]]


def test_handle_slide_framing_rule():
    # slide over a zero-framed split unknot: framing unchanged
    d = braid_closure(3, [1, 1])  # hopf + split circle
    fl = FramedLink(d, (1, 0, 0))
    out = handle_slide(fl, 0, 2)
    assert out.framings[0] == 1
    assert h1(out).invariant_factors == h1(fl).invariant_factors

    # slide over a hopf partner with framing 0, lk 1: f' = f + 2
    fl2 = FramedLink(hopf_link(), (1, 0))
    out2 = handle_slide(fl2, 0, 1)
    assert out2.framings == (3, 0)
    assert h1(out2).invariant_factors == h1(fl2).invariant_factors


def test_handle_slide_reversed_band():
    fl = FramedLink(hopf_link(), (1, 0))
    out = handle_slide(fl, 0, 1, BandArc(orientation=-1))
    assert out.framings == (-1, 0)
    assert h1(out).invariant_factors == h1(fl).invariant_factors


def test_handle_slide_preserves_planarity():
    fl = FramedLink(hopf_link(), (2, -1))
    out = handle_slide(fl, 0, 1)
    assert embedding_genus(out.diagram) == 0


def test_named_band_edges_narrow_the_planar_search():
    # on these edges the first candidate (copy 1, band over) is not planar;
    # naming both edges narrows the search to them, it does not fix the band
    fl = FramedLink(hopf_link(), (0, 1))
    candidates = [_slide_assembly(fl, 0, 1, 2, 4, copy_index, over, -1)
                  for copy_index in (1, 0) for over in (True, False)]
    assert embedding_genus(candidates[0].diagram) == 1
    out = handle_slide(fl, 0, 1, BandArc(slide_edge=2, handle_edge=4, orientation=-1))
    assert embedding_genus(out.diagram) == 0
    assert out == next(c for c in candidates if embedding_genus(c.diagram) == 0)
    assert h1(out).invariant_factors == h1(fl).invariant_factors


def test_double_slide_preserves_h1():
    fl = FramedLink(hopf_link(), (1, 2))
    once = handle_slide(fl, 0, 1)
    twice = handle_slide(once, 0, 1, BandArc(orientation=-1))
    assert h1(twice).invariant_factors == h1(fl).invariant_factors


def test_random_slides_preserve_h1():
    rng = random.Random(7)
    count = 0
    for fl in random_framed_links(25, rng):
        n = fl.diagram.component_count
        for _ in range(2):
            i = rng.randrange(n)
            j = (i + rng.randrange(1, n)) % n
            orient = rng.choice([1, -1])
            out = handle_slide(fl, i, j, BandArc(orientation=orient, over=rng.random() < 0.5))
            assert h1(out).invariant_factors == h1(fl).invariant_factors
            count += 1
    assert count == 50


def _meridian_pair_fixture():
    """A 0-framed circle around a trefoil's edge plus its own meridian."""
    b, wmap = Builder.from_diagram(trefoil())
    west, mid, east = cut_for_passage(b, wmap[1])
    first, last = lasso(b, [(west, mid, east, 1)], over_first=True)
    b.fuse((last, 1), (first, 0))
    circle_wire = b.live(first)
    w2, m2, e2 = cut_for_passage(b, circle_wire)
    f2, l2 = lasso(b, [(w2, m2, e2, 1)], over_first=True)
    b.fuse((l2, 1), (f2, 0))
    d, _ = b.to_diagram([
        (b.live(wmap[2]), True),
        (b.live(circle_wire), False),
        (b.live(f2), False),
    ])
    return FramedLink(d, (0, 0, 0))


def test_slam_dunk_cancels_pair():
    fl = _meridian_pair_fixture()
    before = h1(fl)
    out = slam_dunk(fl, small=2, other=1)
    assert out.diagram.component_count == 1
    assert diagrams_equal(out.diagram, trefoil())
    assert out.framings == (0,)
    assert h1(out).invariant_factors == before.invariant_factors


def test_slam_dunk_to_empty():
    # 0-framed unknot with its 0-framed meridian: cancels to the empty link
    b = Builder()
    loop = b.fresh_loop()
    west, mid, east = cut_for_passage(b, loop)
    first, last = lasso(b, [(west, mid, east, 1)], over_first=True)
    b.fuse((last, 1), (first, 0))
    d, _ = b.to_diagram([(b.live(mid), True), (b.live(first), False)])
    fl = FramedLink(d, (0, 0))
    out = slam_dunk(fl, small=1, other=0)
    assert out.diagram.component_count == 0
    assert h1(out).is_trivial


def test_slam_dunk_rejects_nonzero_framing():
    fl = _meridian_pair_fixture()
    bad = FramedLink(fl.diagram, (0, 0, 1))
    with pytest.raises(DomainError):
        slam_dunk(bad, small=2, other=1)


def test_slam_dunk_rejects_linking_zero():
    # a circle poked under the partner crosses it twice with opposite
    # signs: not a meridian
    from satkit.diagram import insert_poke

    d = insert_poke(braid_closure(3, [1, 1]), 5, 1)
    fl = FramedLink(d, (0,) * d.component_count)
    with pytest.raises(DomainError):
        slam_dunk(fl, small=2, other=0)


def test_slam_dunk_rejects_busy_circle():
    # the middle strand's circle crosses two different components
    d = braid_closure(3, [1, 1, 2, 2])
    assert d.component_count == 3
    fl = FramedLink(d, (0, 0, 0))
    with pytest.raises(DomainError):
        slam_dunk(fl, 1, 0)


# -- the pipeline ---------------------------------------------------------------


def test_pipeline_core_unknot_degenerates():
    trace = build_pipeline(core_pattern(), unknot())
    assert framed_links_equal(
        FramedLink(simplify(trace.final.diagram), trace.final.framings),
        zero_surgery(unknot()),
    )
    assert trace.diagram_certificate
    assert trace.alexander_certificate


def _relabelled(d, rng):
    """``d`` with every cycle rotated and its edges renumbered at random;
    returns the copy and the old -> new label map."""
    cycles = []
    for cyc in d.components:
        k = rng.randrange(len(cyc))
        cycles.append(cyc[k:] + cyc[:k])
    mapping = dict(zip(d.edges(), rng.sample(range(1, 4 * len(d.edges()) + 1), len(d.edges()))))
    return relabeled(Diagram(d.crossings, cycles, d.names), mapping), mapping


def test_pipeline_final_stage_is_the_satellite_exactly():
    # the diagram certificate compares the final stage with the target
    # unreduced: they must agree up to renumbering, not just after R1/R2
    rng = random.Random(17)
    cases = 0
    for _, p in corpus_patterns():
        if winding_number(p) not in (1, -1):
            continue
        for _, k in corpus_knots():
            base, m = _relabelled(p.base, rng)
            shuffled = Pattern(base, tuple((m[e], s) for e, s in p.cut))
            for pattern, companion in ((p, k), (shuffled, _relabelled(k, rng)[0])):
                trace = build_pipeline(pattern, companion)
                target = zero_surgery(satellite(pattern, companion))
                assert trace.final.framings == target.framings
                assert diagrams_equal(trace.final.diagram, target.diagram)
                assert trace.diagram_certificate and trace.alexander_certificate
            cases += 1
    assert cases == 132


def test_pipeline_core_trefoil():
    trace = build_pipeline(core_pattern(), trefoil())
    assert trace.diagram_certificate
    assert trace.alexander_certificate
    assert diagrams_equal(simplify(trace.final.diagram), trefoil())


def test_pipeline_stages_have_cyclic_h1():
    trace = build_pipeline(zigzag_pattern(), trefoil())
    assert len(trace.stages) == 3
    for name, fl, group in trace.stages:
        assert group.is_infinite_cyclic, name
    assert trace.diagram_certificate
    assert trace.alexander_certificate


def test_pipeline_records_moves():
    p = zigzag_pattern()
    trace = build_pipeline(p, unknot())
    assert len([m for m in trace.moves if m.startswith("slide")]) == len(p.cut)
    assert trace.moves[-1].startswith("slam dunk")


def test_pipeline_rejects_winding_zero():
    with pytest.raises(DomainError):
        build_pipeline(clasp_pattern(), trefoil())


def test_pipeline_rejects_winding_two():
    with pytest.raises(DomainError):
        build_pipeline(cable_pattern(2, 3), trefoil())


def test_pipeline_stage_planarity():
    trace = build_pipeline(kink_base_pattern(), trefoil())
    for name, fl, _ in trace.stages:
        assert embedding_genus(fl.diagram) == 0, name


def test_split_assembly_h1_cyclic_for_any_winding():
    # the joining circle equates the two homology generators whatever the
    # winding number is, so the assembled matrix always has cyclic cokernel
    from satkit.surgery import _split_assembly

    for p in (core_pattern(), cable_pattern(2, 3), cable_pattern(3, 2), clasp_pattern()):
        fl = _split_assembly(p, trefoil())
        assert h1(fl).is_infinite_cyclic
        assert embedding_genus(fl.diagram) == 0


def test_pipeline_matches_satellite_alexander():
    p, k = wiggle_base_pattern(), figure_eight()
    trace = build_pipeline(p, k)
    assert equal_up_to_units(
        alexander_poly(trace.final.diagram), alexander_poly(satellite(p, k))
    )
