"""Exact classical invariants: integer Laurent polynomials, Fox calculus,
Alexander polynomials and determinants.

Everything here is exact integer arithmetic.  The Alexander polynomial is
computed as a maximal minor of the abelianized Fox Jacobian of a Wirtinger
presentation; for a knot all such minors agree up to units, so the
normalized determinant of one minor is the gcd the contract asks for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

# -- Laurent polynomials -----------------------------------------------------


class Laurent:
    """Integer Laurent polynomial in one variable, exponent -> coefficient."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v}

    @staticmethod
    def zero():
        return Laurent()

    @staticmethod
    def one():
        return Laurent({0: 1})

    @staticmethod
    def t(exp=1, coef=1):
        return Laurent({exp: coef})

    @staticmethod
    def of(*coeffs):
        """Polynomial from coefficients of t^0, t^1, ..."""
        return Laurent({i: v for i, v in enumerate(coeffs)})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return Laurent(out)

    def __sub__(self, other):
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) - v
        return Laurent(out)

    def __neg__(self):
        return Laurent({e: -v for e, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return Laurent({e: v * other for e, v in self.c.items()})
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + v1 * v2
        return Laurent(out)

    __rmul__ = __mul__

    def shift(self, k):
        return Laurent({e + k: v for e, v in self.c.items()})

    def min_exp(self):
        return min(self.c) if self.c else 0

    def max_exp(self):
        return max(self.c) if self.c else 0

    def is_unit(self):
        return len(self.c) == 1 and abs(next(iter(self.c.values()))) == 1

    def unit_parts(self):
        (e, v), = self.c.items()
        return e, v

    def compose_power(self, n):
        """Substitute t -> t^n (n may be zero or negative)."""
        out = {}
        for e, v in self.c.items():
            k = e * n
            out[k] = out.get(k, 0) + v
        return Laurent(out)

    def evaluate(self, x):
        """Exact value at a nonzero rational point."""
        total = Fraction(0)
        fx = Fraction(x)
        for e, v in self.c.items():
            total += v * fx**e
        return total

    def normalized(self):
        """Unit normal form: lowest exponent 0, positive constant term."""
        if not self.c:
            return Laurent()
        p = self.shift(-self.min_exp())
        if p.c[0] < 0:
            p = -p
        return p

    def exact_div(self, other):
        """Exact division; raises if the quotient is not a Laurent polynomial."""
        if not other:
            raise ZeroDivisionError("Laurent division by zero")
        if not self:
            return Laurent()
        num = self.shift(-self.min_exp())
        den = other.shift(-other.min_exp())
        shift_back = self.min_exp() - other.min_exp()
        nd = dict(num.c)
        dmax = max(den.c)
        dlead = den.c[dmax]
        out = {}
        while nd:
            nmax = max(nd)
            if nmax < dmax:
                raise DomainError("inexact Laurent division")
            lead = nd[nmax]
            if lead % dlead:
                raise DomainError("inexact Laurent division")
            q = lead // dlead
            qe = nmax - dmax
            out[qe] = q
            for e, v in den.c.items():
                k = e + qe
                nd[k] = nd.get(k, 0) - q * v
                if nd[k] == 0:
                    del nd[k]
        return Laurent(out).shift(shift_back)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append(f"{v}")
            elif e == 1:
                parts.append(f"{v}*t")
            else:
                parts.append(f"{v}*t^{e}")
        return " + ".join(parts).replace("+ -", "- ")


def equal_up_to_units(a: Laurent, b: Laurent) -> bool:
    return a.normalized() == b.normalized()


# -- free differential calculus ----------------------------------------------


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def fox_derivative(word, gen):
    """Fox derivative of a free word with respect to a generator.

    Words are tuples of nonzero signed generator indices.  The result is a
    free group ring element: dict mapping reduced words to coefficients,
    following d(uv) = du + u dv, dg/dg = 1, d(g^-1)/dg = -g^-1.
    """
    terms = {}

    def add(w, c):
        w = free_reduce(w)
        terms[w] = terms.get(w, 0) + c
        if terms[w] == 0:
            del terms[w]

    prefix = ()
    for x in word:
        if x == gen:
            add(prefix, 1)
        elif x == -gen:
            add(prefix + (-gen,), -1)
        prefix = prefix + (x,)
    return terms


def fox_row_abelian(word, ngens):
    """Abelianized Fox derivatives, every generator sent to t.

    Returns {generator index: Laurent}, omitting zero entries.
    """
    row = {}
    tpow = 0
    for x in word:
        g = abs(x)
        if x > 0:
            row[g] = row.get(g, Laurent()) + Laurent.t(tpow)
            tpow += 1
        else:
            row[g] = row.get(g, Laurent()) - Laurent.t(tpow - 1)
            tpow -= 1
    return {g: v for g, v in row.items() if v}


# -- determinants of sparse Laurent matrices ----------------------------------


def _bareiss(mat):
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
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Laurent.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def laurent_det_up_to_units(rows):
    """Determinant, up to a unit, of a square sparse Laurent matrix.

    ``rows`` is a list of {column: Laurent}.  Unit entries are eliminated
    first, which keeps Wirtinger-style matrices sparse; whatever dense core
    remains goes through fraction-free elimination.
    """
    rows = [dict(r) for r in rows]
    live = set(range(len(rows)))
    live_cols = {c for r in rows for c in r}
    if len(live) != len(live_cols):
        return Laurent.zero()

    col_rows = {}
    for i in live:
        for c in rows[i]:
            col_rows.setdefault(c, set()).add(i)

    while live:
        best = None
        for i in live:
            for c, v in rows[i].items():
                if v.is_unit():
                    score = (len(rows[i]) - 1) * (len(col_rows[c]) - 1)
                    if best is None or score < best[0]:
                        best = (score, i, c)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, pi, pc = best
        pivot = rows[pi][pc]
        for i in list(col_rows[pc]):
            if i == pi or i not in live:
                continue
            factor = rows[i][pc].exact_div(pivot)
            for c, v in rows[pi].items():
                if c == pc:
                    continue
                cur = rows[i].get(c, Laurent.zero()) - factor * v
                if cur:
                    rows[i][c] = cur
                    col_rows.setdefault(c, set()).add(i)
                else:
                    rows[i].pop(c, None)
                    col_rows[c].discard(i)
            del rows[i][pc]
            col_rows[pc].discard(i)
        live.discard(pi)
        live_cols.discard(pc)
        for c in rows[pi]:
            col_rows[c].discard(pi)
        if any(not rows[i] for i in live):
            return Laurent.zero()

    if not live:
        return Laurent.one()
    idx = sorted(live)
    cols = sorted(live_cols)
    colpos = {c: j for j, c in enumerate(cols)}
    dense = [[Laurent.zero()] * len(cols) for _ in idx]
    for a, i in enumerate(idx):
        for c, v in rows[i].items():
            dense[a][colpos[c]] = v
    return _bareiss(dense)


# -- knot invariants -----------------------------------------------------------


@lru_cache(maxsize=2048)
def alexander_poly(d) -> Laurent:
    """Normalized Alexander polynomial of a knot diagram."""
    from .groups import wirtinger

    if not d.is_knot():
        raise DomainError("Alexander polynomial implemented for knots only")
    pres = wirtinger(d)
    if not pres.relators:
        return Laurent.one()
    ngens = pres.generator_count
    rows = []
    for rel in pres.relators[:-1]:
        row = fox_row_abelian(rel, ngens)
        rows.append({g: v for g, v in row.items() if g != ngens})
    det = laurent_det_up_to_units(rows)
    if not det:
        raise DomainError("degenerate Alexander matrix; input is not a knot diagram")
    return det.normalized()


def determinant(d) -> int:
    """|Alexander polynomial at -1|."""
    val = alexander_poly(d).evaluate(-1)
    assert val.denominator == 1
    return abs(int(val))


def satellite_formula_report(pattern, companion, declared=None):
    """Check the cabling formula for the Alexander polynomial.

    Computes the polynomial of the satellite diagram (``declared`` when
    given, else the one assembled here) and, independently, the product of
    the pattern's polynomial with the companion's polynomial evaluated at
    t^n, n the winding number.
    """
    from .patterns import satellite, winding_number

    lhs = alexander_poly(declared if declared is not None else satellite(pattern, companion))
    n = winding_number(pattern)
    rhs = (alexander_poly(pattern.base) * alexander_poly(companion).compose_power(n)).normalized()
    return {"lhs": lhs, "rhs": rhs, "equal_up_to_units": equal_up_to_units(lhs, rhs)}
