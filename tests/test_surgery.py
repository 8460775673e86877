import random

import pytest

import code_strategies
from code_strategies import relabeled
from satkit import surgery
from satkit.abelian import AbelianGroup
from satkit.catalog import (
    braid_closure,
    cable_pattern,
    clasp_pattern,
    core_pattern,
    corpus_knots,
    corpus_patterns,
    figure_eight,
    kink_base_pattern,
    random_framed_links,
    torus_link,
    trefoil,
    wiggle_base_pattern,
    zigzag_pattern,
)
from satkit.diagram import (
    Diagram,
    crossing_signs,
    diagrams_equal,
    embedding_genus,
    linking_number,
    simplify,
    unknot,
    writhe,
)
from satkit.errors import DomainError, ValidationError
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
from satkit.wires import Builder, encircle


def test_zero_surgery_h1():
    for k in (unknot(), trefoil(), figure_eight()):
        fl = zero_surgery(k)
        assert fl.framings == (0,)
        assert h1(fl).is_infinite_cyclic


def test_zero_surgery_rejects_links():
    with pytest.raises(DomainError):
        zero_surgery(torus_link(2, 2))


def test_h1_small_matrices():
    assert h1(FramedLink(unknot(), (1,))).is_trivial
    assert h1(FramedLink(unknot(), (-1,))).is_trivial
    assert h1(FramedLink(unknot(), (2,))) == AbelianGroup((2,))
    assert h1(FramedLink(torus_link(2, 2), (0, 0))).is_trivial  # det = -1


def test_linking_matrix_symmetric():
    fl = FramedLink(torus_link(2, 2), (3, -2))
    m = linking_matrix(fl)
    assert m == [[3, 1], [1, -2]]


def _pair_sum(d, a, b):
    """Signed count of the crossings whose two strands lie on components
    ``a`` and ``b``, in either order."""
    comp = {e: c for c, cyc in enumerate(d.components) for e in cyc}
    return sum(s for x, s in zip(d.crossings, crossing_signs(d)) if sorted((comp[x[0]], comp[x[1]])) == sorted((a, b)))


def test_crossing_tally_matches_a_per_pair_sum():
    links = [FramedLink(k, (0,)) for _, k in corpus_knots()]
    links += random_framed_links(200)
    links += [FramedLink(d, range(d.component_count)) for d in (torus_link(p, q) for p in (2, 3, 4) for q in range(2, 9))]
    for fl in links:
        d, n = fl.diagram, fl.diagram.component_count
        m = linking_matrix(fl)
        for a in range(n):
            assert writhe(d, a) == _pair_sum(d, a, a), fl
            assert m[a][a] == fl.framings[a], fl
            for b in range(n):
                if a != b:
                    assert 2 * linking_number(d, a, b) == 2 * m[a][b] == _pair_sum(d, a, b), (fl, a, b)


def test_odd_inter_component_sum_is_rejected():
    # a virtual code: one crossing between two loops, on the torus
    d = Diagram(((1, 2, 1, 2),), ((1,), (2,)))
    assert embedding_genus(d) == 1
    fl = FramedLink(d, (0, 0))
    for read in (lambda: linking_number(d, 0, 1), lambda: linking_matrix(fl), lambda: h1(fl),
                 lambda: handle_slide(fl, 0, 1)):
        with pytest.raises(ValidationError, match="odd inter-component crossing sum"):
            read()


def test_handle_slide_framing_rule():
    # slide over a zero-framed split unknot: framing unchanged
    d = braid_closure(3, [1, 1])  # hopf + split circle
    fl = FramedLink(d, (1, 0, 0))
    out = handle_slide(fl, 0, 2)
    assert out.framings[0] == 1
    assert h1(out).invariant_factors == h1(fl).invariant_factors

    # slide over a hopf partner with framing 0, lk 1: f' = f + 2
    fl2 = FramedLink(torus_link(2, 2), (1, 0))
    out2 = handle_slide(fl2, 0, 1)
    assert out2.framings == (3, 0)
    assert h1(out2).invariant_factors == h1(fl2).invariant_factors


def test_handle_slide_reversed_band():
    fl = FramedLink(torus_link(2, 2), (1, 0))
    out = handle_slide(fl, 0, 1, BandArc(orientation=-1))
    assert out.framings == (-1, 0)
    assert h1(out).invariant_factors == h1(fl).invariant_factors


def test_handle_slide_preserves_planarity():
    fl = FramedLink(torus_link(2, 2), (2, -1))
    out = handle_slide(fl, 0, 1)
    assert embedding_genus(out.diagram) == 0


def test_named_band_edges_narrow_the_planar_search():
    # the face walk runs back along edge 2 and forward along edge 4, so the
    # band meets copy 0; copy 1, the first one the old search tried, is
    # not planar.  Edges 1 and 4 (and 2 and 3) share only a face whose walk
    # runs along both the same way: a band between them would cross strands
    fl = FramedLink(torus_link(2, 2), (0, 1))
    assert embedding_genus(_slide_assembly(fl, 0, 1, 2, 4, 1, True, -1).diagram) == 1
    out = handle_slide(fl, 0, 1, BandArc(slide_edge=2, handle_edge=4, orientation=-1))
    assert out == _slide_assembly(fl, 0, 1, 2, 4, 0, True, -1)
    assert embedding_genus(out.diagram) == 0
    assert h1(out).invariant_factors == h1(fl).invariant_factors
    for slide_edge, handle_edge in ((1, 4), (2, 3)):
        for orientation in (1, -1):
            with pytest.raises(DomainError, match="run the same way across a shared face"):
                handle_slide(fl, 0, 1, BandArc(slide_edge, handle_edge, orientation=orientation))


def test_band_orientation_must_be_a_sign():
    # orientation 0 and 2 gave framings (1, 0) and (5, 0) instead of a
    # slide's (3, 0) or (-1, 0); H1 cannot see it, as both linking
    # matrices are unimodular
    fl = FramedLink(torus_link(2, 2), (1, 0))
    for orientation in (0, 2, -2):
        with pytest.raises(DomainError, match="band orientation must be"):
            handle_slide(fl, 0, 1, BandArc(orientation=orientation))


def test_double_slide_preserves_h1():
    fl = FramedLink(torus_link(2, 2), (1, 2))
    once = handle_slide(fl, 0, 1)
    twice = handle_slide(once, 0, 1, BandArc(orientation=-1))
    assert h1(twice).invariant_factors == h1(fl).invariant_factors


def _random_slide_draws():
    rng = random.Random(7)
    draws = []
    for fl in random_framed_links(25, rng):
        n = fl.diagram.component_count
        for _ in range(2):
            i = rng.randrange(n)
            j = (i + rng.randrange(1, n)) % n
            orient = rng.choice([1, -1])
            draws.append((fl, i, j, BandArc(orientation=orient, over=rng.random() < 0.5)))
    return draws


def test_random_slides_preserve_h1():
    draws = _random_slide_draws()
    for fl, i, j, band in draws:
        out = handle_slide(fl, i, j, band)
        assert h1(out).invariant_factors == h1(fl).invariant_factors
    assert len(draws) == 50


def test_slides_keep_the_genus_and_the_framing_formula(monkeypatch):
    # slides 1, 71 and 132 of the suite once came back with genus 1: the
    # band's crossing was drawn with the wrong handedness for their face
    slides, assemblies = [], []
    real_slide, real_assembly = handle_slide, surgery._slide_assembly

    def recorded(fl, i, j, band):
        slides.append((fl, i, j, band, real_slide(fl, i, j, band)))
        return slides[-1][-1]

    monkeypatch.setattr(code_strategies, "handle_slide", recorded)
    monkeypatch.setattr(surgery, "_slide_assembly", lambda *args: assemblies.append(args) or real_assembly(*args))
    code_strategies.kirby_move_suite(200, 20260808)
    # one assembly per slide
    assert len(slides) == len(assemblies) == 200
    slides += [(*draw, handle_slide(*draw)) for draw in _random_slide_draws()]
    for fl, i, j, band, out in slides:
        assert embedding_genus(out.diagram) == embedding_genus(fl.diagram) == 0
        f, lk = fl.framings, linking_number(fl.diagram, i, j)
        assert out.framings == tuple(
            f[i] + f[j] + 2 * band.orientation * lk if c == i else f[c] for c in range(len(f))
        )


def _meridian_pair_fixture():
    """A 0-framed circle around a trefoil's edge plus its own meridian."""
    b, wmap = Builder.from_diagram(trefoil())
    circle = encircle(b, [(wmap[1], 1)])
    meridian = encircle(b, [(circle, 1)])
    d, _ = b.to_diagram([(wmap[2], True), (circle, False), (meridian, False)])
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
    circle = encircle(b, [(loop, 1)])
    d, _ = b.to_diagram([(loop, True), (circle, False)])
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
    # every stage is planar, and the diagram certificate compares the final
    # stage with the target unreduced: they must agree up to renumbering,
    # not just after R1/R2
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
                assert [embedding_genus(fl.diagram) for _, fl, _ in trace.stages] == [0, 0, 0]
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
    # the tied stage is built, not slid to: no slide is recorded
    assert trace.moves == (
        "tie the cut strands into the companion (built directly; slides not executed)",
        "slam dunk the meridional pair",
    )


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
