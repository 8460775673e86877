import hashlib
import random
import struct
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from code_strategies import relabeled, valid_codes
from satkit import groups, invariants
from satkit.abelian import AbelianGroup, cokernel, smith_normal_form
from satkit.catalog import (
    braid_closure,
    cable_pattern,
    core_pattern,
    corpus_knots,
    corpus_patterns,
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
from satkit.errors import DomainError, InternalError
from satkit.groups import wirtinger
from satkit.invariants import (
    Laurent,
    _digit_bytes,
    _max_abs,
    _pack,
    _trimmed,
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


# the benchmark's formula ladder: (cable p, q), companion T(2, k)
LADDER = (((2, 3), 3), ((3, 2), 5), ((3, 4), 7), ((4, 5), 5), ((4, 5), 7), ((5, 6), 9))


def ladder_and_corpus():
    """The ladder's satellites (21 to 429 crossings), the corpus knots and
    their satellites by the corpus patterns: 303 knot diagrams."""
    knots = [d for _, d in corpus_knots()]
    diagrams = [satellite(cable_pattern(p, q), torus_knot(2, k)) for (p, q), k in LADDER]
    return diagrams + knots + [satellite(p, d) for _, p in corpus_patterns() for d in knots]


# -- the Laurent determinant: the reference for the packed kernel --------------


def exact_div(a, b):
    """Exact division of Laurent polynomials; raises if the quotient is not
    a Laurent polynomial.

    The quotient is read off one big-integer division at t = 2^k, tried
    first with digits as wide as the operands' coefficients and then, if
    that fails, as wide as Mignotte's bound on a factor's.  A try returns
    only when the remainder is zero, the quotient unpacks and the quotient
    times the divisor gives back the dividend; the division is inexact only
    when the Mignotte-width try fails too.
    """
    if not b.co:
        raise ZeroDivisionError("Laurent division by zero")
    if not a.co:
        return Laurent.zero()
    lo = a.lo - b.lo
    if len(b.co) == 1:
        d = b.co[0]
        if any(v % d for v in a.co):
            raise DomainError("inexact Laurent division")
        return Laurent.t(lo) * Laurent(dict(enumerate(v // d for v in a.co)))
    n = len(a.co) - len(b.co) + 1
    if n < 1 or a.co[0] % b.co[0] or a.co[-1] % b.co[-1]:
        raise DomainError("inexact Laurent division")
    # Mignotte: a factor Q of A has sum |q_i| <= 2^deg(Q) ||A||_2, and
    # ||A||_2 <= (isqrt(len A) + 1) max|a_i|.  At either width the divisor's
    # digits fit, so that B(2^k) is nonzero.
    max_a, max_b = _max_abs(a.co), _max_abs(b.co)
    narrow = _digit_bytes(max(max_a, max_b))
    wide = _digit_bytes(max((max_a * (isqrt(len(a.co)) + 1)) << (n - 1), max_b))
    for kb in (narrow, wide) if wide > narrow else (wide,):
        q, r = divmod(_pack(a.co, kb), _pack(b.co, kb))
        if r:
            continue
        try:
            quo = _trimmed(lo, _unpack(q, n, kb))
        except OverflowError:
            continue
        if quo * b == a:
            return quo
    raise DomainError("inexact Laurent division")


def is_unit(p):
    return len(p.co) == 1 and p.co[0] in (1, -1)


def reference_bareiss(mat):
    """Fraction-free determinant of a dense square Laurent matrix."""
    n = len(mat)
    if n == 0:
        return Laurent.one()
    m = [row[:] for row in mat]
    prev = Laurent.one()
    sign = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Laurent.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = Laurent.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def reference_det(rows):
    """Determinant, up to a unit, of a square sparse Laurent matrix: unit
    pivots of least Markowitz score first (then row order, then the row's
    own column order), found by a scan of every live entry at each step,
    then fraction-free elimination of the dense core left."""
    rows = [dict(r) for r in rows]
    live = set(range(len(rows)))
    live_cols = {c for r in rows for c in r}
    if len(live) != len(live_cols) or not all(rows):
        return Laurent.zero()
    while True:
        col_rows = {}
        for i in live:
            for c in rows[i]:
                col_rows.setdefault(c, set()).add(i)
        candidates = [((len(rows[i]) - 1) * (len(col_rows[c]) - 1), i, pos, c)
                      for i in live for pos, c in enumerate(rows[i]) if is_unit(rows[i][c])]
        if not candidates:
            break
        _, pi, _, pc = min(candidates)
        pivot = rows[pi][pc]
        for i in col_rows[pc] - {pi}:
            factor = exact_div(rows[i][pc], pivot)
            for c, v in rows[pi].items():
                if c != pc:
                    cur = rows[i].get(c, Laurent.zero()) - factor * v
                    if cur:
                        rows[i][c] = cur
                    else:
                        rows[i].pop(c, None)
            del rows[i][pc]
            if not rows[i]:
                return Laurent.zero()
        live.discard(pi)
        live_cols.discard(pc)
    return reference_bareiss([[rows[i].get(c, Laurent.zero()) for c in sorted(live_cols)] for i in sorted(live)])


# -- Laurent arithmetic -------------------------------------------------------


def test_laurent_basics():
    t = Laurent.t()
    assert terms(t * t + t) == {1: 1, 2: 1}
    assert (t - t) == Laurent.zero()
    assert value(lp(1, -1, 1), -1) == 3
    assert lp(1, 0, -3) * 3 == 3 * lp(1, 0, -3) == lp(3, 0, -9)
    assert lp(1, 0, -3) * 0 == Laurent.zero()


def test_laurent_normalize():
    p = Laurent({-2: -1, 0: -3})
    n = p.normalized()
    assert terms(n) == {0: 1, 2: 3}
    assert equal_up_to_units(p, exact_div(Laurent({5: 2 * 1, 7: 6}), Laurent({0: 2})))


def test_laurent_exact_div():
    a = lp(1, 2, 1)
    b = lp(1, 1)
    assert exact_div(a, b) == b
    with pytest.raises(Exception):
        exact_div(lp(1, 0, 1), lp(1, 1))


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
    assert exact_div(pa * pb, pb) == pa
    # the product, knocked off exactness at one exponent (or not, for nudge 0)
    num = pa * pb + Laurent.t(e, nudge)
    expect = school_exact_div(terms(num), terms(pb))
    if expect is None:
        with pytest.raises(DomainError):
            exact_div(num, pb)
    else:
        assert exact_div(num, pb) == Laurent(expect)


@pytest.mark.parametrize("n", [11, 16])
def test_laurent_mul_at_the_coefficient_bound(n):
    # equal coefficients make the middle coefficient of a product reach the
    # digit bound max|a| max|b| min(len a, len b) exactly
    for e in range(1, 90):
        for m in (2**e - 1, 2**e, -(2**e)):
            a = lp(*[m] * n)
            for b in (a, -a, Laurent.t(-3) * lp(*[m] * (n + 5))):
                assert terms(a * b) == school_mul(terms(a), terms(b))
                assert exact_div(a * b, b) == a


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
            exact_div(Laurent.t(shift) * a, Laurent.t(-shift) * b)
    with pytest.raises(DomainError):
        exact_div(a * lp(3, 0, 1), b * lp(3, 0, 1))


def test_exact_div_retries_at_the_mignotte_width():
    # the operands' coefficients (binomials up to 70) fit one-byte digits,
    # the quotient's central coefficient 1107 does not: only the retry at
    # Mignotte's width can return it
    a, b, quo = Laurent.one(), Laurent.one(), Laurent.one()
    for _ in range(8):
        a, b, quo = a * lp(1, 0, 0, -1), b * lp(1, -1), quo * lp(1, 1, 1)
    assert _digit_bytes(max(max(a.co), max(b.co))) == 1 and quo.co[8] == 1107
    assert exact_div(a, b) == quo
    # inexact: packed remainder nonzero, and packed integers dividing with a
    # quotient that unpacks (x^2 + x/2 + 1 at every x = 2^k), which only
    # the multiply-back check refuses
    for num, den in ((a + Laurent.t(5), b), (lp(2, 3, 3, 2), lp(2, 2))):
        with pytest.raises(DomainError):
            exact_div(num, den)


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
    assert smith_normal_form([[4, 0], [0, 6]], 2) == [2, 12]
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3) == [1, 30, 30]
    assert smith_normal_form([[-3, 5]], 2) == [1]
    assert smith_normal_form([[0, 0], [0, 5]], 2) == [5]
    assert smith_normal_form([[0, 0, 0]], 3) == []


def test_cokernel():
    assert cokernel([[2]], 1) == AbelianGroup((2,))
    assert cokernel([], 2) == AbelianGroup((0, 0))
    assert cokernel([[1, 0]], 2) == AbelianGroup((0,))
    assert cokernel([[2, 0], [0, 3]], 2) == AbelianGroup((6,))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
                       min_size=1, max_size=6)))
def test_snf_against_sympy(rows):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ours = smith_normal_form(rows, len(rows[0]))
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


def reference_fox_row(word):
    """The abelianized Fox row through a dict exponent -> coefficient per
    generator and ``Laurent.__init__``, as satkit once built it: the
    reference for ``fox_row_abelian``."""
    row = {}
    tpow = 0
    for x in word:
        coeffs = row.setdefault(abs(x), {})
        if x > 0:
            coeffs[tpow] = coeffs.get(tpow, 0) + 1
            tpow += 1
        else:
            tpow -= 1
            coeffs[tpow] = coeffs.get(tpow, 0) - 1
    return {g: v for g, coeffs in row.items() if (v := Laurent(coeffs))}


def test_fox_commutator_abelianized():
    # d(h g h^-1 g^-1)/dg abelianizes to t - 1
    row = fox_row_abelian((2, 1, -2, -1))
    assert row[1] == Laurent({1: 1, 0: -1})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6),
       st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6))
def test_fox_product_rule_property(u, v):
    # d(uv) = du + u dv, abelianized
    left = fox_row_abelian(tuple(u) + tuple(v))
    du = fox_row_abelian(tuple(u))
    dv = fox_row_abelian(tuple(v))
    tu = sum(1 if x > 0 else -1 for x in u)
    for g in (1, 2):
        expect = du.get(g, Laurent()) + Laurent.t(tu) * dv.get(g, Laurent())
        assert left.get(g, Laurent()) == expect


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=12))
def test_fox_row_matches_the_reference(word):
    # same entries in the same column order (first appearance), zero
    # entries (a generator whose letters cancel) omitted
    assert list(fox_row_abelian(word).items()) == list(reference_fox_row(word).items())


def test_fox_rows_of_the_ladder_and_corpus_match_the_reference():
    count = 0
    for d in ladder_and_corpus():
        pres = wirtinger(d)
        for rel in pres.relators:
            row = fox_row_abelian(rel)
            assert list(row.items()) == list(reference_fox_row(rel).items())
            count += 1
    assert count > 10_000


def wirtinger_minor(d):
    """The Fox minor as satkit once built it: ``fox_row_abelian`` of every
    Wirtinger relator but the last, the last generator's column dropped."""
    pres = wirtinger(d)
    return [[(g, v) for g, v in fox_row_abelian(rel).items() if g != pres.generator_count]
            for rel in pres.relators[:-1]]


def test_template_rows_match_the_wirtinger_minor():
    # row for row and column for column, on the ladder, the corpus knots
    # and satellites, and relabelled copies of each
    rng = random.Random(0)
    diagrams = ladder_and_corpus()
    for d in diagrams:
        edges = sorted(d.edges())
        image = edges[:]
        rng.shuffle(image)
        for code in (d, relabeled(d, dict(zip(edges, image)))):
            assert [list(r.items()) for r in invariants._fox_minor(code)] == wirtinger_minor(code)
    assert len(diagrams) == 303


@settings(max_examples=300, deadline=None)
@given(valid_codes())
def test_template_rows_match_the_wirtinger_minor_on_any_code(code):
    # the templates are read off the crossings alone, so they hold on every
    # valid code: planar knots, virtual codes and links alike
    d = Diagram(*code)
    assert [list(r.items()) for r in invariants._fox_minor(d)] == wirtinger_minor(d)


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


@pytest.mark.parametrize("wrong", [lambda det: Laurent.zero(), lambda det: det * 2])
def test_alexander_raises_on_a_wrong_kernel(monkeypatch, wrong):
    # a planar knot's Fox minor is a unit at t = 1: a zero or a doubled
    # determinant is a kernel bug, not a property of the input
    kernel = invariants.laurent_det_up_to_units
    monkeypatch.setattr(invariants, "laurent_det_up_to_units", lambda rows: wrong(kernel(rows)))
    for d in (trefoil(), figure_eight(), torus_knot(2, 5)):
        with pytest.raises(InternalError, match="not \\+-1 at t = 1"):
            alexander_poly.__wrapped__(d)


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
    assert laurent_det_up_to_units([]) == one
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


# -- the packed kernel against the Laurent reference ---------------------------


def wirtinger_row(n, i, j, k):
    """The abelianized Fox row of x_i x_j x_i^-1 x_k^-1 over generators
    1..n+1, the last one's column dropped, as in a Wirtinger minor."""
    return {g: v for g, v in fox_row_abelian((i, j, -i, -k)).items() if g != n + 1}


kernel_entry = st.one_of(
    small_entry.filter(bool),
    st.builds(lambda e, k: Laurent.t(e) * lp(1, 1, 1) * lp(1, 1) * lp(*[1] * k),
              st.integers(-3, 3), st.integers(1, 12)),
    st.builds(lambda v, e: Laurent.t(e, v), st.integers(-2**70, 2**70).filter(bool), st.integers(-3, 3)),
)


@st.composite
def sparse_laurent_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    gens = st.integers(min_value=1, max_value=n + 1)
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            rows.append(wirtinger_row(n, draw(gens), draw(gens), draw(gens)))
        else:
            cols = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=n, unique=True))
            rows.append({c: draw(kernel_entry) for c in cols})
    return rows


@settings(max_examples=300, deadline=None)
@given(sparse_laurent_matrix())
def test_kernel_matches_the_laurent_reference(rows):
    assert laurent_det_up_to_units(rows) == reference_det(rows).normalized()


def phase_runs(monkeypatch):
    """Watch the kernel phases ``_eliminate_units`` and ``_bareiss``.

    Returns {phase name: [one record per call]}.  A record holds ``inputs``,
    the nonzero entries the call was given; ``packed``, the entries it
    packed from its inputs (``_entry``); ``widths``, the digit widths in
    bytes it held them at, the one it packed at and then each one it widened
    to (``_widened``); and ``digits``, its reads of an entry's digits."""
    calls = {"_eliminate_units": [], "_bareiss": []}
    running = []
    for name, runs in calls.items():
        phase = getattr(invariants, name)

        def traced(mat, phase=phase, runs=runs):
            entries = [e for row in mat for e in (row.values() if isinstance(row, dict) else row)]
            runs.append({"inputs": sum(e is not None for e in entries), "packed": 0, "widths": [], "digits": 0})
            running.append(runs[-1])
            try:
                return phase(mat)
            finally:
                running.pop()

        monkeypatch.setattr(invariants, name, traced)

    def held_at(kb):
        if running and running[-1]["widths"][-1:] != [kb]:
            running[-1]["widths"].append(kb)

    entry, widened, digits = invariants._entry, invariants._widened, invariants._digits

    def traced_entry(lo, co, kb):
        held_at(kb)
        running[-1]["packed"] += 1
        return entry(lo, co, kb)

    def traced_widened(e, kb):
        held_at(2 * kb)
        return widened(e, kb)

    def traced_digits(x, kb):
        if running:
            running[-1]["digits"] += 1
        return digits(x, kb)

    monkeypatch.setattr(invariants, "_entry", traced_entry)
    monkeypatch.setattr(invariants, "_widened", traced_widened)
    monkeypatch.setattr(invariants, "_digits", traced_digits)
    return calls


@pytest.mark.parametrize("n, widths, middle", [(2, [1, 2], 252), (4, [1, 2, 4], 184_756)])
def test_dense_core_widens_until_its_bounds_hold(monkeypatch, n, widths, middle):
    # no unit pivots: the core is diag(d, ..., d), d = (1+t)^5, whose
    # coefficients (at most 10) fit one-byte digits; its determinant
    # (1+t)^(5n) has the middle coefficient C(10, 5) = 252 at n = 2, which
    # needs 16 bits, and C(20, 10) = 184 756 at n = 4, which needs 32
    runs = phase_runs(monkeypatch)
    d = lp(1, 5, 10, 10, 5, 1)
    rows = [{i: d} for i in range(n)]
    det = laurent_det_up_to_units(rows)
    assert det == reference_det(rows).normalized()
    assert det.co[5 * n // 2] == middle
    (sparse,), (core,) = runs["_eliminate_units"], runs["_bareiss"]
    assert sparse["widths"] == [8] and core["widths"] == widths
    assert sparse["packed"] == core["packed"] == n


def core_steps(monkeypatch):
    """Watch ``_bareiss_row``: returns a list with (k, digit width in bytes,
    the check that raised _TooNarrow or None) for each row step."""
    steps = []
    step = invariants._bareiss_row

    def traced(pivot_row, row, k, prev, kb):
        try:
            out = step(pivot_row, row, k, prev, kb)
        except invariants._TooNarrow as exc:
            steps.append((k, kb, exc.args[0]))
            raise
        steps.append((k, kb, None))
        return out

    monkeypatch.setattr(invariants, "_bareiss_row", traced)
    return steps


def test_core_widens_where_only_the_quotient_outgrows_the_digits(monkeypatch):
    # at step 1, row 2's numerator is c d with the bound l1(c) l1(d) =
    # 14 * 8 = 112 < 2^7, so one-byte digits hold it; its quotient q has
    # l1(q) = 24, and with the previous pivot p = t (2 - 2t + 2t^2),
    # l1(q) l1(p) = 144 does not fit: only the quotient's check widens
    runs, steps = phase_runs(monkeypatch), core_steps(monkeypatch)
    t = Laurent.t()
    mat = [[t * lp(2, -2, 2), Laurent.t(-1), lp(-1), Laurent.t(-1)],
           [lp(-1, -1), Laurent.zero(), t * lp(-1), Laurent.zero()],
           [Laurent.zero(), Laurent.t(-1) * lp(2, 3), Laurent.zero(), Laurent.zero()],
           [Laurent.zero(), Laurent.t(-1) * lp(-2, -3), Laurent.zero(), t * lp(3, 0, 2)]]
    det = lp(*invariants._bareiss([[(e.lo, e.co) if e else None for e in row] for row in mat]))
    assert det.normalized() == reference_bareiss(mat).normalized()
    assert [check for _, _, check in steps if check] == ["quotient"]
    assert [run["widths"] for run in runs["_bareiss"]] == [[1, 2]]


def test_core_widens_in_place_and_goes_on_at_the_failed_row(monkeypatch):
    # the rows swap (no pivot in column 0), so step 1 divides by the pivot
    # 1 + 2t - 3t^2, a three-digit integer; at step 1 row 2 fits one-byte
    # digits and row 3's numerator does not.  Rows 1 to 3 and that pivot
    # are repacked at two bytes and step 1 goes on at row 3: row 2, already
    # eliminated, is not eliminated again, and each input entry is packed once
    runs, steps = phase_runs(monkeypatch), core_steps(monkeypatch)
    z = Laurent.zero()
    mat = [[z, lp(-1), z, lp(1, 2)],
           [lp(1, 2, -3), lp(2, 2), z, lp(3, 1)],
           [z, z, lp(2, 2), z],
           [lp(-1, 2), z, lp(-2), lp(1, -2)]]
    det = lp(*invariants._bareiss([[(e.lo, e.co) if e else None for e in row] for row in mat]))
    assert det.normalized() == reference_bareiss(mat).normalized()
    assert steps == [(0, 1, None)] * 3 + [(1, 1, None), (1, 1, "numerator"), (1, 2, None), (2, 2, None)]
    (core,) = runs["_bareiss"]
    assert core["widths"] == [1, 2] and core["packed"] == core["inputs"] == 9


def test_unit_pivot_chain_widens_past_eight_byte_digits(monkeypatch):
    # rows e_i + (1+t) e_(i+1), i < 69, and (1+t) e_0: each unit pivot
    # multiplies the last row's entry by 1 + t, so after k pivots its
    # sum |c| is exactly 2^k, and from k = 63 on no tightening brings the
    # bound below 2^63; (1+t)^70's coefficient C(70, 35) passes 2^63 too
    runs = phase_runs(monkeypatch)
    p = lp(1, 1)
    rows = [{i: Laurent.one(), i + 1: p} for i in range(69)] + [{0: p}]
    expect = Laurent.one()
    for _ in range(70):
        expect = expect * p
    assert max(expect.co) > 2**63
    assert laurent_det_up_to_units(rows) == expect
    assert [run["widths"] for run in runs["_eliminate_units"]] == [[8, 16]]


def test_sparse_bound_lost_to_cancellation_stays_at_eight_bytes(monkeypatch):
    # rows e_i - (1+t) e_(i+1) + t e_(i+2): eliminating them one by one
    # sends the last row's entry through a_(i+1) = (1+t) a_i - t a_(i-1),
    # whose tracked bounds on sum |c| grow like (1 + sqrt 2)^i and pass 2^63
    # while a_i = 1 + t + ... + t^i has sum |c| = i + 1.  Bounding the
    # operands by their digits keeps the phase at 8 bytes
    runs = phase_runs(monkeypatch)
    n, t = 64, Laurent.t()
    rows = [{i: Laurent.one(), i + 1: -lp(1, 1), i + 2: t} for i in range(n - 2)]
    rows += [{n - 2: Laurent.one(), n - 1: -lp(1, 1)}, {0: lp(1, 1)}]
    det = laurent_det_up_to_units(rows)
    assert det == reference_det(rows).normalized()
    assert max(map(abs, det.co)) <= 2
    (sparse,) = runs["_eliminate_units"]
    core = sum(run["inputs"] for run in runs["_bareiss"])
    # digits read beyond the dense core handed on: the bound failed and was tightened
    assert sparse["widths"] == [8] and sparse["digits"] > core


def test_sparse_bound_that_never_holds_is_internal(monkeypatch):
    # the chain above with every operand's digits read as sum |c| = 2^1000:
    # its rows' sums of sum |c| are 3 (69 rows) and 2, so every entry a
    # correct phase stores has sum |c| below H = 2^140 and every bound it
    # checks is below 2^282.  A bound failing at 64-byte digits (2^511) is
    # a bug: the phase stops there instead of widening without end
    runs = phase_runs(monkeypatch)
    monkeypatch.setattr(invariants, "_norm", lambda x, kb: 1 << 1000)
    p = lp(1, 1)
    rows = [{i: Laurent.one(), i + 1: p} for i in range(69)] + [{0: p}]
    with pytest.raises(InternalError, match="ceiling"):
        laurent_det_up_to_units(rows)
    assert [run["widths"] for run in runs["_eliminate_units"]] == [[8, 16, 32, 64]]


def test_core_bound_that_never_holds_is_internal(monkeypatch):
    # the core diag(d, d), d = (1+t)^5 with sum |c| = 32: every entry a
    # correct core stores has sum |c| below H = 2^12 and every bound it
    # checks is below 2^26.  A bound failing at 4-byte digits (2^31) is a
    # bug: the core stops there instead of widening without end
    runs = phase_runs(monkeypatch)

    def never(pivot_row, row, k, prev, kb):
        raise invariants._TooNarrow("numerator")

    monkeypatch.setattr(invariants, "_bareiss_row", never)
    d = lp(1, 5, 10, 10, 5, 1)
    with pytest.raises(InternalError, match="ceiling"):
        laurent_det_up_to_units([{0: d}, {1: d}])
    assert [run["widths"] for run in runs["_bareiss"]] == [[1, 2, 4]]


def test_no_phase_runs_twice_on_the_ladder_or_the_corpus(monkeypatch):
    # every determinant of the ladder (21 to 429 crossings), the corpus knots
    # and their satellites by the corpus patterns: each phase packs each input
    # entry once, the sparse phase stays at 8-byte digits (at 429 crossings
    # its tracked bound passes 2^63, no true coefficient does), and each
    # core widens in place, to a wider width each time
    runs = phase_runs(monkeypatch)
    diagrams = ladder_and_corpus()
    for d in diagrams:
        alexander_poly.__wrapped__(d)
    sparse, core = runs["_eliminate_units"], runs["_bareiss"]
    assert len(diagrams) == 303 and len(sparse) == len(core) == 297  # six have no Wirtinger relator
    assert all(run["packed"] == run["inputs"] for run in sparse + core)
    assert all(run["widths"] == [8] for run in sparse)
    assert all(run["widths"] == sorted(set(run["widths"])) for run in core)
    assert max(len(run["widths"]) for run in core) == 3


def test_inexact_fraction_free_division_is_internal(monkeypatch):
    # by Sylvester's identity every Bareiss division is exact: a remainder
    # is a bug in satkit, not a property of the input
    d = lp(1, 1)
    rows = [{0: d, 1: lp(0, 1, 1)}, {0: lp(2, 0, 1), 1: d}]
    assert laurent_det_up_to_units(rows) == reference_det(rows).normalized()
    monkeypatch.setattr(invariants, "divmod", lambda x, y: (x // y, 1), raising=False)
    with pytest.raises(InternalError, match="inexact"):
        laurent_det_up_to_units(rows)


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


# sha256 of the repr of [(size, core)] over the dense cores of
# ``ladder_and_corpus()``, in order: every entry as (lo, coefficients)
_CORES_SHA256 = "1928af071608fef126b3ab765acdbdbe534bf328cf46570dffb7578316d29ee0"


def test_unit_pivoting_leaves_the_same_dense_core(monkeypatch):
    # the pivot rule (least Markowitz score, then row, then column order)
    # decides how much is left for fraction-free elimination; the digest
    # pins the size and entries of every core, so the pivot order too
    cores = []
    bareiss = invariants._bareiss
    monkeypatch.setattr(invariants, "_bareiss", lambda m: cores.append((len(m), m)) or bareiss(m))
    for d in ladder_and_corpus():
        alexander_poly.__wrapped__(d)
    assert len(cores) == 297
    assert [n for n, _ in cores[:6]] == [3, 8, 8, 11, 11, 14]
    assert hashlib.sha256(repr(cores).encode()).hexdigest() == _CORES_SHA256


def test_alexander_builds_no_laurent_from_a_dict(monkeypatch):
    # Fox rows, the kernel and the normalized result build every Laurent
    # from a (lo, coefficients) pair: none goes through the dict constructor
    calls = []
    init = Laurent.__init__
    monkeypatch.setattr(Laurent, "__init__", lambda self, coeffs=None: calls.append(coeffs) or init(self, coeffs))
    d = satellite(cable_pattern(5, 6), torus_knot(2, 9))
    assert d.crossing_count == 429
    # no presentation is built, and each crossing shape's Fox row once
    words = []
    fox = invariants.fox_row_abelian
    monkeypatch.setattr(invariants, "fox_row_abelian", lambda word: words.append(word) or fox(word))
    monkeypatch.setattr(groups, "wirtinger", lambda d: pytest.fail("wirtinger called"))
    invariants._fox_template.cache_clear()
    assert alexander_poly.__wrapped__(d).co
    assert calls == []
    assert len(set(words)) == len(words) == invariants._fox_template.cache_info().currsize
    assert 1 < len(words) <= 10
