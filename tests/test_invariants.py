import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from code_strategies import relabeled
from satkit.abelian import AbelianGroup, cokernel, smith_normal_form
from satkit.catalog import (
    braid_closure,
    cable_pattern,
    core_pattern,
    double_kink_unknot,
    figure_eight,
    positive_kink_unknot,
    torus_knot,
    trefoil,
)
from satkit.diagram import (
    Diagram,
    connected_sum,
    embedding_genus,
    insert_kink,
    insert_poke,
    mirror,
    reverse,
    simplify,
    unknot,
)
from satkit.errors import DomainError
from satkit.groups import wirtinger
from satkit.invariants import (
    Laurent,
    _digit_bytes,
    _pack,
    _unpack,
    alexander_poly,
    determinant,
    equal_up_to_units,
    fox_row_abelian,
    laurent_det_up_to_units,
    satellite_formula_report,
)
from satkit.patterns import satellite


def lp(*coeffs):
    """The polynomial with coefficients ``coeffs`` of t^0, t^1, ..."""
    return Laurent(dict(enumerate(coeffs)))


def terms(p):
    """The nonzero coefficients of ``p`` as a dict exponent -> coefficient."""
    return {p.lo + i: v for i, v in enumerate(p.co) if v}


def value(p, x):
    """``p`` at a nonzero rational point, read off its (lo, co): the oracle
    for the arithmetic."""
    x = Fraction(x)
    return sum((v * x ** (p.lo + i) for i, v in enumerate(p.co)), Fraction(0))


# -- Laurent arithmetic -------------------------------------------------------


def test_laurent_basics():
    t = Laurent.t()
    assert terms(t * t + t) == {1: 1, 2: 1}
    assert (t - t) == Laurent.zero()
    assert value(lp(1, -1, 1), -1) == 3


def test_laurent_normalize():
    p = Laurent({-2: -1, 0: -3})
    n = p.normalized()
    assert terms(n) == {0: 1, 2: 3}
    assert equal_up_to_units(p, Laurent({5: 2 * 1, 7: 6}).exact_div(Laurent({0: 2})))


def test_laurent_exact_div():
    a = lp(1, 2, 1)
    b = lp(1, 1)
    assert a.exact_div(b) == b
    with pytest.raises(Exception):
        lp(1, 0, 1).exact_div(lp(1, 1))


def test_compose_power():
    p = lp(1, -1, 1)
    assert terms(p.compose_power(2)) == {0: 1, 2: -1, 4: 1}
    assert terms(p.compose_power(0)) == {0: 1}
    assert terms(p.compose_power(-1)) == {0: 1, -1: -1, -2: 1}


coeff = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=5), st.lists(coeff, min_size=1, max_size=5),
       st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0))
def test_laurent_mul_matches_evaluation(a, b, x):
    pa, pb = lp(*a), lp(*b)
    assert value(pa * pb, x) == value(pa, x) * value(pb, x)
    assert value(pa + pb, x) == value(pa, x) + value(pb, x)


# Schoolbook references for the packed arithmetic, on dicts exponent -> coefficient.


def school_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def school_exact_div(a, b):
    """Long division from the top term; None when b does not divide a."""
    rem = {e: v for e, v in a.items() if v}
    top_b = max(b)
    out = {}
    while rem:
        top = max(rem)
        if top - top_b < min(rem) - min(b) or rem[top] % b[top_b]:
            return None
        q = rem[top] // b[top_b]
        out[top - top_b] = q
        for e, v in b.items():
            k = e + top - top_b
            rem[k] = rem.get(k, 0) - q * v
            if not rem[k]:
                del rem[k]
    return out


big_coeff = st.one_of(st.integers(min_value=-3, max_value=3),
                      st.integers(min_value=-2**80, max_value=2**80))
laurent_dict = st.dictionaries(st.integers(min_value=-12, max_value=24), big_coeff, max_size=24)


@settings(max_examples=150, deadline=None)
@given(laurent_dict, laurent_dict)
def test_laurent_mul_matches_schoolbook(a, b):
    assert terms(Laurent(a) * Laurent(b)) == school_mul(a, b)


@settings(max_examples=150, deadline=None)
@given(laurent_dict, laurent_dict.filter(lambda d: any(d.values())), st.integers(min_value=-12, max_value=24),
       st.integers(min_value=-2, max_value=2))
def test_laurent_exact_div_matches_schoolbook(a, b, e, nudge):
    pa, pb = Laurent(a), Laurent(b)
    assert (pa * pb).exact_div(pb) == pa
    # the product, knocked off exactness at one exponent (or not, for nudge 0)
    num = pa * pb + Laurent.t(e, nudge)
    expect = school_exact_div(terms(num), terms(pb))
    if expect is None:
        with pytest.raises(DomainError):
            num.exact_div(pb)
    else:
        assert num.exact_div(pb) == Laurent(expect)


@pytest.mark.parametrize("n", [11, 16])
def test_laurent_mul_at_the_coefficient_bound(n):
    # equal coefficients make the middle coefficient of a product reach the
    # digit bound max|a| max|b| min(len a, len b) exactly
    for e in range(1, 90):
        for m in (2**e - 1, 2**e, -(2**e)):
            a = lp(*[m] * n)
            for b in (a, -a, Laurent.t(-3) * lp(*[m] * (n + 5))):
                assert terms(a * b) == school_mul(terms(a), terms(b))
                assert (a * b).exact_div(b) == a


def test_exact_div_when_packed_integers_divide():
    # A = (t+1)(2t^2+t+2) and B = 2(t+1): A(x) / B(x) = x^2 + x/2 + 1, an integer
    # at every x = 2^k, yet B does not divide A over the integers
    a, b = lp(2, 3, 3, 2), lp(2, 2)
    for k in range(1, 200):
        x = 2**k
        assert (2 * x**3 + 3 * x**2 + 3 * x + 2) % (2 * x + 2) == 0
    assert school_exact_div(terms(a), terms(b)) is None
    for shift in (0, -7, 5):
        with pytest.raises(DomainError):
            (Laurent.t(shift) * a).exact_div(Laurent.t(-shift) * b)
    with pytest.raises(DomainError):
        (a * lp(3, 0, 1)).exact_div(b * lp(3, 0, 1))


def test_exact_div_retries_at_the_mignotte_width():
    # the operands' coefficients (binomials up to 70) fit one-byte digits,
    # the quotient's central coefficient 1107 does not: only the retry at
    # Mignotte's width can return it
    a, b, quo = Laurent.one(), Laurent.one(), Laurent.one()
    for _ in range(8):
        a, b, quo = a * lp(1, 0, 0, -1), b * lp(1, -1), quo * lp(1, 1, 1)
    assert _digit_bytes(max(max(a.co), max(b.co))) == 1 and quo.co[8] == 1107
    assert a.exact_div(b) == quo
    # inexact: packed remainder nonzero, and packed integers dividing with a
    # quotient that unpacks (x^2 + x/2 + 1 at every x = 2^k), which only
    # the multiply-back check refuses
    for num, den in ((a + Laurent.t(5), b), (lp(2, 3, 3, 2), lp(2, 2))):
        with pytest.raises(DomainError):
            num.exact_div(den)


@pytest.mark.parametrize("kb", range(1, 17))
def test_pack_round_trip_at_every_width(kb):
    # 1, 2, 4 and 8 bytes go through struct words, the others through bytes
    m = 2 ** (8 * kb - 1) - 1
    co = (m, -m, 0, 1, -1, m, -m)
    x = _pack(co, kb)
    assert x == sum(v * 2 ** (8 * kb * i) for i, v in enumerate(co))
    assert _unpack(x, len(co), kb) == co
    # the n-digit expansions run from all digits -(m + 1) to all digits m
    n = len(co)
    for out in (_pack((m,) * n, kb) + 1, _pack((-m - 1,) * n, kb) - 1):
        with pytest.raises(OverflowError):
            _unpack(out, n, kb)
    # a digit too wide for its width raises, never wraps
    for wide in (m + 1, -m - 2):
        with pytest.raises((OverflowError, struct.error)):
            _pack((0, wide, 0), kb)


# -- Smith normal form ---------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[2, 4], [6, 8]], 2) == [2, 4]
    assert smith_normal_form([[1]], 1) == [1]
    assert smith_normal_form([[0]], 1) == []


def test_cokernel():
    assert cokernel([[2]], 1) == AbelianGroup((2,))
    assert cokernel([], 2) == AbelianGroup((0, 0))
    assert cokernel([[1, 0]], 2) == AbelianGroup((0,))
    assert cokernel([[2, 0], [0, 3]], 2) == AbelianGroup((6,))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_snf_against_sympy(rows):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ours = smith_normal_form(rows, 3)
    m = sympy.Matrix(rows)
    theirs = sympy_snf(m, domain=sympy.ZZ)
    diag = [abs(int(theirs[i, i])) for i in range(min(theirs.shape))]
    diag = [d for d in diag if d != 0]
    assert ours == diag


def test_abelian_group_api():
    g = AbelianGroup((2, 4, 0))
    assert not g.is_trivial
    assert g.invariant_factors.count(0) == 1
    assert AbelianGroup.cyclic(1).is_trivial
    assert AbelianGroup.cyclic(-5) == AbelianGroup((5,))
    assert AbelianGroup((0,)).is_infinite_cyclic
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))


# -- Fox calculus ---------------------------------------------------------------


def test_fox_commutator_abelianized():
    # d(h g h^-1 g^-1)/dg abelianizes to t - 1
    row = fox_row_abelian((2, 1, -2, -1), 2)
    assert row[1] == Laurent({1: 1, 0: -1})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6),
       st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6))
def test_fox_product_rule_property(u, v):
    # d(uv) = du + u dv, abelianized
    left = fox_row_abelian(tuple(u) + tuple(v), 2)
    du = fox_row_abelian(tuple(u), 2)
    dv = fox_row_abelian(tuple(v), 2)
    tu = sum(1 if x > 0 else -1 for x in u)
    for g in (1, 2):
        expect = du.get(g, Laurent()) + Laurent.t(tu) * dv.get(g, Laurent())
        assert left.get(g, Laurent()) == expect


# -- Alexander polynomials -------------------------------------------------------


def test_alexander_unknot():
    assert alexander_poly(unknot()) == Laurent.one()
    assert alexander_poly(positive_kink_unknot()) == Laurent.one()
    assert alexander_poly(double_kink_unknot()) == Laurent.one()


def test_alexander_trefoil():
    assert alexander_poly(trefoil()) == lp(1, -1, 1)


def test_alexander_figure_eight():
    assert alexander_poly(figure_eight()) == lp(1, -3, 1)


def test_alexander_torus_25():
    # (2,5) torus knot: 1 - t + t^2 - t^3 + t^4
    assert alexander_poly(torus_knot(2, 5)) == lp(1, -1, 1, -1, 1)


def test_alexander_mirror_reverse_invariance():
    for d in (trefoil(), figure_eight(), torus_knot(2, 5)):
        assert alexander_poly(mirror(d)) == alexander_poly(d)
        assert alexander_poly(reverse(d, 0)) == alexander_poly(d)


def test_alexander_multiplicative_under_sum():
    t, f = trefoil(), figure_eight()
    s = connected_sum(t, f)
    assert alexander_poly(s) == (alexander_poly(t) * alexander_poly(f)).normalized()


def test_alexander_at_one_is_unit():
    for d in (trefoil(), figure_eight(), torus_knot(3, 4), connected_sum(trefoil(), trefoil())):
        assert abs(value(alexander_poly(d), 1)) == 1


def test_alexander_symmetry():
    for d in (trefoil(), figure_eight(), torus_knot(3, 4)):
        p = alexander_poly(d)
        assert equal_up_to_units(p, p.compose_power(-1))


def test_alexander_stable_under_moves():
    t = trefoil()
    assert alexander_poly(insert_kink(t, 1, -1)) == alexander_poly(t)
    assert alexander_poly(insert_poke(t, 2, 5)) == alexander_poly(t)


# a genus-1 (virtual) knot code: its Fox-calculus value is 1, yet a
# genus-keeping poke of edge 5 under edge 6 gives 1 - t + t^2
VIRTUAL_KNOT = Diagram(((6, 1, 1, 2), (2, 4, 3, 5), (3, 5, 4, 6)), ((1, 2, 3, 4, 5, 6),))


def test_alexander_refuses_virtual_codes():
    assert embedding_genus(VIRTUAL_KNOT) == 1
    for compute in (alexander_poly, determinant, lambda d: satellite_formula_report(core_pattern(), d)):
        with pytest.raises(DomainError, match="planar diagram; this code has genus 1"):
            compute(VIRTUAL_KNOT)


def test_determinants():
    assert determinant(unknot()) == 1
    assert determinant(trefoil()) == 3
    assert determinant(figure_eight()) == 5
    assert determinant(torus_knot(2, 5)) == 5


def test_determinant_multiplicative():
    t, f = trefoil(), figure_eight()
    assert determinant(connected_sum(t, f)) == determinant(t) * determinant(f)


def test_determinant_of_sum_with_inverse_is_square():
    t = trefoil()
    s = connected_sum(t, mirror(reverse(t, 0)))
    assert determinant(s) == determinant(t) ** 2


def test_laurent_det_small():
    one, t = Laurent.one(), Laurent.t()
    rows = [{0: one, 1: t}, {1: one}]
    assert equal_up_to_units(laurent_det_up_to_units(rows), one)
    rows = [{0: t + one}, ]
    assert equal_up_to_units(laurent_det_up_to_units(rows), t + one)


small_entry = st.sampled_from([
    Laurent.zero(), Laurent.zero(), Laurent.zero(), Laurent.one(), -Laurent.one(), Laurent.t(-1),
    -Laurent.t(2), lp(1, -1), lp(-3, 0, 1), Laurent({-1: 2, 1: 1}), lp(0, 1, 1), lp(2),
])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_laurent_det_against_sympy(mat):
    import sympy

    t = sympy.Symbol("t")
    n = len(mat)
    sym = sympy.Matrix([[sum(v * t**e for e, v in terms(x).items()) for x in row] for row in mat])
    det = sympy.Poly(sympy.expand(sym.det(method="berkowitz") * t ** (2 * n)), t)
    theirs = Laurent({e: int(v) for (e,), v in det.as_dict().items()})
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
    ours = laurent_det_up_to_units(rows)
    assert ours.normalized() == theirs.normalized()


def test_alexander_independent_of_companion_labels():
    # the sparse elimination's pivot order follows edge labels; the
    # polynomial of the 211-crossing cable(4,5) satellite of T(2,7) must not
    pattern, companion = cable_pattern(4, 5), torus_knot(2, 7)
    sat = satellite(pattern, companion)
    expect = repr(alexander_poly.__wrapped__(sat))
    rng = random.Random(0)
    for _ in range(3):
        edges = sorted(companion.edges())
        image = edges[:]
        rng.shuffle(image)
        relabelled = satellite(pattern, relabeled(companion, dict(zip(edges, image))))
        assert relabelled.crossing_count == sat.crossing_count == 211
        assert wirtinger(relabelled).relators != wirtinger(sat).relators
        assert repr(alexander_poly.__wrapped__(relabelled)) == expect


def test_unit_pivoting_leaves_the_same_dense_core(monkeypatch):
    # the pivot rule (least Markowitz score, then row, then column order)
    # decides how much is left for fraction-free elimination
    from satkit import invariants

    sizes = []
    bareiss = invariants._bareiss
    monkeypatch.setattr(invariants, "_bareiss", lambda m: sizes.append(len(m)) or bareiss(m))
    for (p, q), k in (((4, 5), 5), ((3, 4), 7)):
        alexander_poly.__wrapped__(satellite(cable_pattern(p, q), torus_knot(2, k)))
    assert sizes == [11, 8]
