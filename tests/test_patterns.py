import pytest

from satkit.catalog import (
    cable_pattern,
    clasp_pattern,
    core_pattern,
    figure_eight,
    kink_base_pattern,
    knot_pattern,
    trefoil,
    wiggle_base_pattern,
    zigzag_pattern,
)
from satkit.diagram import (
    canonical,
    connected_sum,
    diagrams_equal,
    linking_number,
    mirror,
    reverse,
    simplify,
    unknot,
    writhe,
)
from satkit.errors import DomainError, ValidationError
from satkit.invariants import (
    alexander_poly,
    determinant,
    equal_up_to_units,
    satellite_formula_report,
)
from satkit.patterns import (
    Pattern,
    compose,
    difference_pattern,
    from_link,
    patterns_equal,
    satellite,
    to_link,
    winding_number,
)


def test_winding_numbers():
    assert winding_number(core_pattern()) == 1
    assert winding_number(cable_pattern(2, 3)) == 2
    assert winding_number(cable_pattern(3, 2)) == 3
    assert winding_number(clasp_pattern()) == 0
    assert winding_number(zigzag_pattern()) == 1


def test_pattern_validation():
    with pytest.raises(ValidationError):
        Pattern(unknot(), ())
    with pytest.raises(ValidationError):
        Pattern(unknot(), ((1, 1), (1, 1)))
    with pytest.raises(ValidationError):
        Pattern(unknot(), ((7, 1),))


def test_pattern_bases_are_expected_knots():
    assert diagrams_equal(simplify(kink_base_pattern().base), unknot())
    assert diagrams_equal(simplify(wiggle_base_pattern().base), unknot())
    assert diagrams_equal(simplify(zigzag_pattern().base), unknot())
    assert equal_up_to_units(alexander_poly(cable_pattern(2, 3).base), alexander_poly(trefoil()))


def test_satellite_with_unknot_returns_base():
    for p in (core_pattern(), cable_pattern(2, 3), zigzag_pattern(), clasp_pattern()):
        assert diagrams_equal(satellite(p, unknot()), p.base)


def test_core_satellite_is_companion():
    t = trefoil()
    assert diagrams_equal(satellite(core_pattern(), t), t)
    f = figure_eight()
    assert diagrams_equal(satellite(core_pattern(), f), f)


def test_knot_pattern_satellite_is_connected_sum():
    t, f = trefoil(), figure_eight()
    s = satellite(knot_pattern(t), f)
    assert equal_up_to_units(alexander_poly(s), alexander_poly(connected_sum(t, f)))
    assert determinant(s) == determinant(t) * determinant(f)


def test_cable_satellite_formula():
    rep = satellite_formula_report(cable_pattern(2, 3), trefoil())
    assert rep["equal_up_to_units"], rep
    expected = (
        alexander_poly(trefoil()) * alexander_poly(trefoil()).compose_power(2)
    ).normalized()
    assert rep["rhs"] == expected


def test_untwisted_double_satellite_has_trivial_alexander():
    # winding zero, unknotted base: the satellite formula degenerates to 1
    for k in (trefoil(), figure_eight()):
        rep = satellite_formula_report(clasp_pattern(), k)
        assert rep["equal_up_to_units"], rep
        assert rep["lhs"] == alexander_poly(unknot())


def test_satellite_formula_three_strands():
    rep = satellite_formula_report(cable_pattern(3, 2), trefoil())
    assert rep["equal_up_to_units"], rep


def test_satellite_formula_mixed_sign_pattern():
    rep = satellite_formula_report(zigzag_pattern(), figure_eight())
    assert rep["equal_up_to_units"], rep


def test_satellite_rejects_links():
    from satkit.catalog import torus_link

    with pytest.raises(DomainError):
        satellite(core_pattern(), torus_link(2, 2))


def test_compose_with_unknot_is_identity():
    for p in (core_pattern(), cable_pattern(2, 1), zigzag_pattern()):
        assert patterns_equal(compose(p, unknot()), p)


def test_compose_preserves_cut():
    p = cable_pattern(2, 3)
    q = compose(p, trefoil())
    assert q.strand_count == p.strand_count
    assert winding_number(q) == winding_number(p)
    assert [s for _, s in q.cut] == [s for _, s in p.cut]


def test_compose_satellite_identity():
    # satellite(p, A # B) and satellite(compose(p, A), B) agree on invariants
    for p in (core_pattern(), cable_pattern(2, 1), zigzag_pattern()):
        a, b = trefoil(), figure_eight()
        lhs = satellite(p, connected_sum(a, b))
        rhs = satellite(compose(p, a), b)
        assert equal_up_to_units(alexander_poly(lhs), alexander_poly(rhs))
        assert determinant(lhs) == determinant(rhs)


def test_difference_pattern_core_unknot():
    r = difference_pattern(core_pattern(), unknot())
    assert winding_number(r) == 1
    assert diagrams_equal(simplify(r.base), unknot())


def test_difference_pattern_alexander_squares():
    p, k = core_pattern(), trefoil()
    r = difference_pattern(p, k)
    q = satellite(p, k)
    assert winding_number(r) == winding_number(p)
    expect = (alexander_poly(q) * alexander_poly(q).compose_power(-1)).normalized()
    assert equal_up_to_units(alexander_poly(r.base), expect)
    assert determinant(r.base) == determinant(q) ** 2


def test_difference_pattern_cable():
    p, k = cable_pattern(2, 1), trefoil()
    r = difference_pattern(p, k)
    assert winding_number(r) == 2
    q = satellite(p, k)
    assert equal_up_to_units(
        alexander_poly(r.base), (alexander_poly(q) * alexander_poly(q)).normalized()
    )


# -- the two-component link form ------------------------------------------------


def test_to_link_core_is_hopf():
    d = to_link(core_pattern())
    assert d.component_count == 2
    assert d.crossing_count == 2
    assert linking_number(d, 0, 1) == 1


def test_to_link_linking_is_winding():
    for p in (core_pattern(), cable_pattern(2, 3), cable_pattern(3, 2), zigzag_pattern(), clasp_pattern()):
        d = to_link(p)
        assert linking_number(d, 0, 1) == winding_number(p)


def test_to_link_circle_unknotted():
    from satkit.diagram import component_subdiagram, embedding_genus

    for p in (core_pattern(), cable_pattern(2, 3), zigzag_pattern(), clasp_pattern()):
        d = to_link(p)
        assert embedding_genus(d) == 0
        circle = component_subdiagram(d, [1])
        assert diagrams_equal(simplify(circle), unknot())


def test_link_round_trip():
    for p in (core_pattern(), cable_pattern(2, 3), zigzag_pattern(), clasp_pattern(), kink_base_pattern()):
        d = to_link(p)
        q = from_link(d, 1)
        assert patterns_equal(p, q)


def test_from_link_rejects_split():
    from satkit.wires import Builder

    d = unknot()
    two = Diagram = None
    from satkit.diagram import Diagram as D

    split = D((), ((1,), (2,)))
    with pytest.raises(DomainError):
        from_link(split, 1)


from hypothesis import given, settings, strategies as st


@st.composite
def small_knot_words(draw):
    strands = draw(st.integers(min_value=2, max_value=3))
    length = draw(st.integers(min_value=1, max_value=5))
    word = [
        draw(st.sampled_from([1, -1])) * draw(st.integers(min_value=1, max_value=strands - 1))
        for _ in range(length)
    ]
    return strands, word


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([1, 2, 3]), small_knot_words())
def test_random_satellites_planar_and_formula(wind, sw):
    from satkit.catalog import braid_closure, braid_permutation, pattern_from_braid
    from satkit.diagram import embedding_genus
    from satkit.invariants import satellite_formula_report

    strands, word = sw
    perm = braid_permutation(strands, word)
    seen, i, cyc = set(), 0, 0
    while i not in seen:
        seen.add(i)
        i = perm[i]
        cyc += 1
    if cyc != strands:
        return  # closure is a link; no companion to draw
    companion = braid_closure(strands, word)
    if wind == 1:
        pattern = core_pattern()
    else:
        pattern = cable_pattern(wind, 1 if wind == 2 else 2)
    s = satellite(pattern, companion)
    assert embedding_genus(s) == 0
    assert satellite_formula_report(pattern, companion)["equal_up_to_units"]


def test_genus_check_flags_inconsistent_cut_order():
    # a cut listed against its planar transverse order wires the insertion
    # as a virtual diagram, and the embedding check reports positive genus
    from satkit.diagram import Diagram, embedding_genus

    z = zigzag_pattern()
    scrambled = Pattern(z.base, tuple(reversed(z.cut)))
    s = satellite(scrambled, trefoil())
    assert embedding_genus(s) > 0
    assert embedding_genus(satellite(z, trefoil())) == 0


def test_from_link_rejects_knotted_circle():
    # both components from a trefoil-cabled picture: circle crosses itself
    from satkit.catalog import braid_closure

    d = braid_closure(2, [1, 1, 1, -1])  # two components, one crossing pair each
    if d.component_count == 2:
        with pytest.raises(DomainError):
            from_link(d, 1)
