"""Exact classical invariants: integer Laurent polynomials, Fox calculus,
Alexander polynomials and determinants.

Everything here is exact integer arithmetic.  The Alexander polynomial is
computed as a maximal minor of the abelianized Fox Jacobian of a Wirtinger
presentation; for a knot all such minors agree up to units, so the
normalized determinant of one minor is the gcd the contract asks for.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from heapq import heappop, heappush
from math import isqrt

from .diagram import embedding_genus
from .errors import DomainError
from .groups import wirtinger
from .patterns import satellite, winding_number

# -- Laurent polynomials -----------------------------------------------------

# Products of at most this many term pairs use the schoolbook loop; larger
# ones go through one big-integer product, which costs more to set up but
# far less per term pair.  Measured with word-packed digits (CPython 3.11,
# 2-CPU Xeon): a single product breaks even at about 60-100 pairs, and the
# Alexander polynomials of 155- and 429-crossing satellites take the same
# time within 5% for any value from 25 to 400, against about 10% more at 0
# and 3 to 4.6 times as long with no packed products at all.
_SCHOOLBOOK_PAIRS = 100


def _raw(lo, co):
    """Laurent from a low exponent and a coefficient tuple whose first and
    last entries are nonzero (or which is empty)."""
    p = Laurent.__new__(Laurent)
    p.lo = lo if co else 0
    p.co = co
    return p


def _trimmed(lo, co):
    """Laurent from a low exponent and any coefficient sequence."""
    hi = len(co)
    while hi and not co[hi - 1]:
        hi -= 1
    start = 0
    while start < hi and not co[start]:
        start += 1
    return _raw(lo + start, tuple(co[start:hi]))


def _max_abs(co):
    return max(max(co), -min(co))


def _digit_bytes(bound):
    """Bytes per packed digit so that every |digit| <= bound lies below half
    the digit's range: 8 kb - 1 >= bits(bound).  Up to 8 bytes the width is
    rounded up to a machine word (1, 2, 4 or 8 bytes), which ``struct``
    packs in C."""
    kb = bound.bit_length() // 8 + 1
    return kb if kb > 8 else 1 << (kb - 1).bit_length()


_WORD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


@lru_cache(maxsize=1024)
def _bias(n, kb):
    """Half of each digit's range, in each of n digits of kb bytes."""
    return int.from_bytes((b"\0" * (kb - 1) + b"\x80") * n, "little")


def _pack(co, kb):
    """The polynomial with coefficients co evaluated at t = 2^(8 kb).

    At a word width the digits are packed as signed little-endian words;
    flipping each word's top bit (XOR with the bias) turns its two's
    complement into v + half, the byte loop's biased digit."""
    bias = _bias(len(co), kb)
    code = _WORD_CODES.get(kb)
    if code:
        biased = int.from_bytes(struct.pack(f"<{len(co)}{code}", *co), "little") ^ bias
    else:
        half = 1 << (8 * kb - 1)
        biased = int.from_bytes(b"".join([(v + half).to_bytes(kb, "little") for v in co]), "little")
    return biased - bias


def _unpack(x, n, kb):
    """The n balanced base-2^(8 kb) digits of x, lowest first, as a tuple.
    Raises OverflowError when x has no such n-digit expansion."""
    bias = _bias(n, kb)
    code = _WORD_CODES.get(kb)
    if code:
        return struct.unpack(f"<{n}{code}", ((x + bias) ^ bias).to_bytes(n * kb, "little"))
    half = 1 << (8 * kb - 1)
    bs = (x + bias).to_bytes(n * kb, "little")
    return tuple([int.from_bytes(bs[i:i + kb], "little") - half for i in range(0, n * kb, kb)])


class Laurent:
    """Integer Laurent polynomial in one variable.

    Stored as the lowest exponent ``lo`` and the coefficients ``co`` of
    t^lo, t^(lo+1), ..., with no zero at either end; zero is ``(0, ())``.
    Products and exact quotients of longer polynomials go through single
    big-integer operations at t = 2^k (Kronecker substitution), with k
    taken from a bound that makes the unpacked digits the coefficients.
    Digits of 1, 2, 4 or 8 bytes (every bound below 2^63 is rounded up to
    one) are packed and unpacked as machine words by ``struct``; wider
    ones byte by byte.
    """

    __slots__ = ("lo", "co")

    def __init__(self, coeffs=None):
        """From a dict exponent -> coefficient (zero coefficients allowed)."""
        items = [(e, v) for e, v in (coeffs or {}).items() if v]
        if not items:
            self.lo, self.co = 0, ()
            return
        lo = min(e for e, _ in items)
        co = [0] * (max(e for e, _ in items) - lo + 1)
        for e, v in items:
            co[e - lo] = v
        self.lo, self.co = lo, tuple(co)

    @staticmethod
    def zero():
        return _raw(0, ())

    @staticmethod
    def one():
        return _raw(0, (1,))

    @staticmethod
    def t(exp=1, coef=1):
        return _raw(exp, (coef,) if coef else ())

    def __bool__(self):
        return bool(self.co)

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.lo == other.lo and self.co == other.co

    def __hash__(self):
        return hash((self.lo, self.co))

    def _combine(self, other, sign):
        if not other.co:
            return self
        if not self.co:
            return other if sign > 0 else -other
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.lo + len(self.co), other.lo + len(other.co)) - lo)
        i = self.lo - lo
        out[i:i + len(self.co)] = self.co
        for j, v in enumerate(other.co, other.lo - lo):
            out[j] += sign * v
        return _trimmed(lo, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _raw(self.lo, tuple([-v for v in self.co]))

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Laurent.zero()
            return _raw(self.lo, tuple([v * other for v in self.co]))
        a, b = self.co, other.co
        if not a or not b:
            return Laurent.zero()
        if len(a) > len(b):
            a, b = b, a
        lo = self.lo + other.lo
        # the ends of a product of trimmed polynomials are nonzero
        if len(a) == 1:
            s = a[0]
            return _raw(lo, b if s == 1 else tuple([s * v for v in b]))
        if len(a) * len(b) <= _SCHOOLBOOK_PAIRS:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b, i):
                    out[j] += x * y
            return _raw(lo, tuple(out))
        # every product coefficient is a sum of len(a) terms |x y|
        kb = _digit_bytes(_max_abs(a) * _max_abs(b) * len(a))
        prod = _pack(a, kb) * _pack(b, kb)
        return _raw(lo, _unpack(prod, len(a) + len(b) - 1, kb))

    __rmul__ = __mul__

    def max_exp(self):
        return self.lo + len(self.co) - 1 if self.co else 0

    def is_unit(self):
        return len(self.co) == 1 and (self.co[0] == 1 or self.co[0] == -1)

    def compose_power(self, n):
        """Substitute t -> t^n (n may be zero or negative)."""
        if not self.co:
            return self
        if n == 0:
            return Laurent.t(0, sum(self.co))
        co = self.co if n > 0 else self.co[::-1]
        out = [0] * ((len(co) - 1) * abs(n) + 1)
        out[::abs(n)] = co
        return _raw(self.max_exp() * n if n < 0 else self.lo * n, tuple(out))

    def normalized(self):
        """Unit normal form: lowest exponent 0, positive constant term."""
        if self.co and self.co[0] < 0:
            return _raw(0, tuple([-v for v in self.co]))
        return _raw(0, self.co)

    def exact_div(self, other):
        """Exact division; raises if the quotient is not a Laurent polynomial.

        The quotient is read off one big-integer division at t = 2^k, tried
        first with digits as wide as the operands' coefficients and then,
        if that fails, as wide as Mignotte's bound on a factor's.  A try
        returns only when the remainder is zero, the quotient unpacks and
        the quotient times the divisor gives back the dividend; the
        division is inexact only when the Mignotte-width try fails too.
        """
        b = other.co
        if not b:
            raise ZeroDivisionError("Laurent division by zero")
        a = self.co
        if not a:
            return Laurent.zero()
        lo = self.lo - other.lo
        if len(b) == 1:
            d = b[0]
            if d == 1:
                return _raw(lo, a)
            if d == -1:
                return _raw(lo, tuple([-v for v in a]))
            if any(v % d for v in a):
                raise DomainError("inexact Laurent division")
            return _raw(lo, tuple([v // d for v in a]))
        n = len(a) - len(b) + 1
        if n < 1 or a[0] % b[0] or a[-1] % b[-1]:
            raise DomainError("inexact Laurent division")
        # First at the operands' own digit width, which holds the quotient
        # whenever its coefficients fit there (in every division of the
        # Alexander polynomials measured); then at Mignotte's width, which
        # always does: a factor Q of A has sum |q_i| <= 2^deg(Q) ||A||_2,
        # and ||A||_2 <= (isqrt(len A) + 1) max|a_i|.  At either width the
        # divisor's digits fit, so that B(2^k) is nonzero.
        max_a, max_b = _max_abs(a), _max_abs(b)
        narrow = _digit_bytes(max(max_a, max_b))
        wide = _digit_bytes(max((max_a * (isqrt(len(a)) + 1)) << (n - 1), max_b))
        for kb in (narrow, wide) if wide > narrow else (wide,):
            q, r = divmod(_pack(a, kb), _pack(b, kb))
            if r:
                continue
            try:
                quo = _trimmed(lo, _unpack(q, n, kb))
            except OverflowError:
                continue
            if quo * other == self:
                return quo
        raise DomainError("inexact Laurent division")

    def __repr__(self):
        if not self.co:
            return "0"
        parts = []
        for i, v in enumerate(self.co):
            if not v:
                continue
            e = self.lo + i
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


def fox_row_abelian(word, ngens):
    """Abelianized Fox derivatives, every generator sent to t.

    Returns {generator index: Laurent}, omitting zero entries, generators
    in order of first appearance.
    """
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

    Each step pivots on the unit entry of least Markowitz score
    (row entries - 1) * (column entries - 1), the first such entry in
    row order and then in the row's own column order.
    """
    rows = [dict(r) for r in rows]
    live = set(range(len(rows)))
    live_cols = {c for r in rows for c in r}
    if len(live) != len(live_cols) or not all(rows):
        return Laurent.zero()

    col_rows = {}
    for i in live:
        for c in rows[i]:
            col_rows.setdefault(c, set()).add(i)

    def unit_cols(row):
        return [c for c, v in row.items() if v.is_unit()]

    def score(i, c):
        return (len(rows[i]) - 1) * (len(col_rows[c]) - 1)

    # units: the unit columns of every live row that has one.  queue: a heap
    # of (score, row, position in units[row], column) holding every such
    # entry at its current score, beside outdated ones skipped when popped.
    # A step changes only the rows it modifies and the counts of the pivot
    # row's columns, so only their entries are queued again.
    units, queue = {}, []

    def enqueue(i):
        for pos, c in enumerate(units[i]):
            heappush(queue, (score(i, c), i, pos, c))

    for i in live:
        cols = unit_cols(rows[i])
        if cols:
            units[i] = cols
            enqueue(i)

    while queue:
        s, pi, pos, pc = heappop(queue)
        cols = units.get(pi)
        if cols is None or pos >= len(cols) or cols[pos] != pc or s != score(pi, pc):
            continue
        pivot = rows[pi][pc]
        modified = col_rows[pc] - {pi}
        for i in modified:
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
            if not rows[i]:
                return Laurent.zero()
            units.pop(i, None)
            cols = unit_cols(rows[i])
            if cols:
                units[i] = cols
        live.discard(pi)
        live_cols.discard(pc)
        del units[pi]
        for c in rows[pi]:
            col_rows[c].discard(pi)
        for i in modified:
            if i in units:
                enqueue(i)
        for c in rows[pi]:
            for i in col_rows[c] - modified:
                if c in units.get(i, ()):
                    heappush(queue, (score(i, c), i, units[i].index(c), c))

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
    """Normalized Alexander polynomial of a planar knot diagram.

    Virtual (non-planar) codes are refused: the Fox minor drops one
    Wirtinger relation, which is redundant only on planar codes.
    """
    if not d.is_knot():
        raise DomainError("Alexander polynomial implemented for knots only")
    genus = embedding_genus(d)
    if genus:
        raise DomainError(f"Alexander polynomial needs a planar diagram; this code has genus {genus}")
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
    """|Alexander polynomial at -1|, summed in integers."""
    p = alexander_poly(d)
    return abs(sum(-v if (p.lo + i) % 2 else v for i, v in enumerate(p.co)))


def satellite_formula_report(pattern, companion, declared=None):
    """Check the cabling formula for the Alexander polynomial.

    Computes the polynomial of the satellite diagram (``declared`` when
    given, else the one assembled here) and, independently, the product of
    the pattern's polynomial with the companion's polynomial evaluated at
    t^n, n the winding number.
    """
    lhs = alexander_poly(declared if declared is not None else satellite(pattern, companion))
    n = winding_number(pattern)
    rhs = (alexander_poly(pattern.base) * alexander_poly(companion).compose_power(n)).normalized()
    return {"lhs": lhs, "rhs": rhs, "equal_up_to_units": equal_up_to_units(lhs, rhs)}
