"""Exact classical invariants: integer Laurent polynomials, Fox calculus,
Alexander polynomials and determinants.

Everything here is exact integer arithmetic.  The Alexander polynomial is
computed as a maximal minor of the abelianized Fox Jacobian of a Wirtinger
presentation; for a knot all such minors agree up to units, so the
normalized determinant of one minor is the gcd the contract asks for.  The
minor's rows are read off the crossings: each crossing shape's Fox row is
built once and filled in with the crossing's arcs.  The
determinant takes Laurent rows in and gives a normalized Laurent out; in
between, both of its phases (unit pivots, then fraction-free elimination of
the dense core) hold each entry as one packed integer with proved bounds on
its coefficients.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from heapq import heappop, heappush

from .diagram import embedding_genus
from .errors import DomainError, InternalError
from .groups import wirtinger_crossings, wirtinger_relator
from .patterns import satellite, winding_number

# -- Laurent polynomials -----------------------------------------------------


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


class Laurent:
    """Integer Laurent polynomial in one variable.

    Stored as the lowest exponent ``lo`` and the coefficients ``co`` of
    t^lo, t^(lo+1), ..., with no zero at either end; zero is ``(0, ())``.
    Products are schoolbook: the determinant, which does the heavy
    arithmetic, works on packed integers instead (see below).
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
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return _raw(lo, tuple(out))

    __rmul__ = __mul__

    def max_exp(self):
        return self.lo + len(self.co) - 1 if self.co else 0

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


def fox_row_abelian(word):
    """Abelianized Fox derivatives, every generator sent to t.

    Returns {generator index: Laurent}, omitting zero entries, generators
    in order of first appearance.  Each letter adds one term +-t^e; a
    generator met once is that term.
    """
    terms = {}
    tpow = 0
    for x in word:
        if x > 0:
            terms.setdefault(x, []).append((tpow, 1))
            tpow += 1
        else:
            tpow -= 1
            terms.setdefault(-x, []).append((tpow, -1))
    row = {}
    for g, ts in terms.items():
        if len(ts) == 1:
            (e, v), = ts
            row[g] = _raw(e, (v,))
            continue
        lo = min(ts)[0]
        co = [0] * (max(ts)[0] - lo + 1)
        for e, v in ts:
            co[e - lo] += v
        p = _trimmed(lo, co)
        if p.co:
            row[g] = p
    return row


# -- determinants of sparse Laurent matrices ----------------------------------


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


@lru_cache(maxsize=1024)
def _pack(co, kb):
    """The polynomial with coefficients co evaluated at t = 2^(8 kb).

    At a word width the digits are packed as signed little-endian words;
    flipping each word's top bit (XOR with the bias) turns its two's
    complement into v + half, the byte loop's biased digit.  Cached: the
    entries of a Fox minor repeat a handful of coefficient tuples."""
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


# Both elimination phases hold a nonzero entry t^lo (c_0 + c_1 t + ...), c_0
# != 0, as a tuple (lo, x, l1) at a digit width of W = 8 kb bits:
# x = c_0 + c_1 2^W + ..., the polynomial at t = 2^W with its low zero digits
# stripped, and a bound l1 >= sum |c_i|.  The integer is exact at any width;
# its digits are the coefficients, and zero, unit and low exponent can be
# read off it, only while every |c_i| < 2^(W-1), and every stored entry has
# l1 < 2^(W-1).  A product is bounded by l1_a l1_b, a sum by l1_a + l1_b.
# When an update's bound reaches 2^(W-1), the sparse phase first bounds its
# operands by their digits, which are exact.  A bound that still fails
# repacks the stored entries at twice the width (``_widened``) and the
# update goes on there; nothing already computed is recomputed.  A failed
# result is never tightened from its own digits: past 2^(W-1) they prove
# nothing.  Every stored entry is, up to a unit, a minor of the phase's
# input, so no correct bound fails past ``_width_limit``.


class _TooNarrow(Exception):
    """A coefficient bound in the dense core reached half the digit range;
    its argument names the check, "numerator" or "quotient"."""


@lru_cache(maxsize=1024)
def _entry(lo, co, kb):
    """The packed entry of the polynomial t^lo (co[0] + co[1] t + ...).
    Cached: the Fox rows of a diagram share a handful of entries."""
    return lo, _pack(co, kb), sum(map(abs, co))


def _digits(x, kb):
    """The balanced digits of a packed entry.  With n digits, each below
    2^(W-1) and the top one nonzero, x has between W(n-1) and Wn - 1 bits."""
    return _unpack(x, x.bit_length() // (8 * kb) + 1, kb)


def _norm(x, kb):
    """sum |c| over the digits of a packed entry."""
    return sum(map(abs, _digits(x, kb)))


def _widened(e, kb):
    """A stored entry at kb-byte digits, repacked at twice the width: its
    bound is below 2^(W-1), so its digits are its coefficients."""
    lo, x, l1 = e
    return lo, _pack(_digits(x, kb), 2 * kb), l1


def _width_limit(rows):
    """Digit width in bits past which no bound of a correct kernel fails,
    for rows of packed entries (None for zero).

    Each entry a phase stores is, up to a unit, a minor of its input: unit
    pivots divide only by units, and a Bareiss entry is a minor by
    Sylvester's identity.  So its sum |c| is at most H, the product over
    rows of the row's sum of sum |c|, and H < 2^b with b the sum of those
    row totals' bit lengths.  Every bound checked after tightening is at
    most 2 H^2 + H < 2^(2b + 2), so below 2^(W-1) once W >= 2b + 3."""
    return 2 * sum(sum(e[2] for e in row if e).bit_length() for row in rows) + 3


def _eliminate_units(rows):
    """Eliminate unit pivots, at 8-byte digits or wider if a coefficient
    needs it, widening in place when a bound fails.

    Returns None when a row empties (the determinant is zero), else the
    dense core left over, as rows of (lo, co) entries with None for zero.
    Each step pivots on the unit entry of least Markowitz score
    (row entries - 1) * (column entries - 1), the first such entry in
    row order and then in the row's own column order.
    """
    # the widest coefficient, read from the distinct coefficient tuples
    kb = max(8, _digit_bytes(max(map(_max_abs, {v.co for r in rows for v in r.values()}), default=0)))
    w = 8 * kb
    rows = [{c: _entry(v.lo, v.co, kb) for c, v in r.items()} for r in rows]
    limit = _width_limit([r.values() for r in rows])
    live = set(range(len(rows)))

    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)

    # units: the unit columns of every live row that has one.  queue: a heap
    # of (score, row, position in units[row], column) holding every such
    # entry at its current score (row entries - 1) * (column entries - 1),
    # beside outdated ones skipped when popped.  A step changes only the
    # rows it modifies and the counts of the pivot row's columns, so only
    # their entries are queued again: in another row, only at a column
    # whose count moved, and only in a row of two or more entries (a
    # one-entry row scores 0 whatever the count).
    units, queue = {}, []
    for i, row in enumerate(rows):
        cols = [c for c, v in row.items() if v[1] == 1 or v[1] == -1]
        if cols:
            units[i] = cols
            n = len(row) - 1
            for pos, c in enumerate(cols):
                heappush(queue, (n * (len(col_rows[c]) - 1), i, pos, c))

    while queue:
        s, pi, pos, pc = heappop(queue)
        cols = units.get(pi)
        if (cols is None or pos >= len(cols) or cols[pos] != pc
                or s != (len(rows[pi]) - 1) * (len(col_rows[pc]) - 1)):
            continue
        plo, px = rows[pi][pc][:2]
        pivot_row = [(c, v) for c, v in rows[pi].items() if c != pc]
        counts = [len(col_rows[c]) for c, _ in pivot_row]
        # column pc goes with this step: every other row in it is modified
        modified = col_rows.pop(pc)
        modified.discard(pi)
        for i in modified:
            row = rows[i]
            # minus the factor row[pc] / pivot: row[pc]'s integer up to sign;
            # row[pc] stays stored, and so repacked, until the row is done
            flo, fx, fl1 = row[pc]
            flo -= plo
            if px == 1:
                fx = -fx
            for c, (vlo, vx, vl1) in pivot_row:
                # row[c] + (-factor) v; only equal low exponents can cancel
                lo, x, l1 = flo + vlo, fx * vx, fl1 * vl1
                cur = row.get(c)
                if cur is not None:
                    alo, ax, al1 = cur
                    l1 += al1
                if l1 >> (w - 1):
                    # the operands passed their checks: bound them by their digits
                    fl1, vl1 = _norm(fx, kb), _norm(vx, kb)
                    l1 = fl1 * vl1 + (_norm(ax, kb) if cur is not None else 0)
                    if l1 >> (w - 1):
                        # true growth: repack every live row at twice the
                        # width until the bound holds, and read the operands
                        # (and the rest of the pivot row, in place) from them
                        while l1 >> (w - 1):
                            if w >= limit:
                                raise InternalError("unit elimination's coefficient bound fails past its ceiling")
                            for r in live:
                                rows[r] = {c2: _widened(e, kb) for c2, e in rows[r].items()}
                            kb, w = 2 * kb, 2 * w
                        row = rows[i]
                        pivot_row[:] = [(c2, rows[pi][c2]) for c2, _ in pivot_row]
                        fx, vx = -px * row[pc][1], rows[pi][c][1]
                        x = fx * vx
                        if cur is not None:
                            ax = row[c][1]
                if cur is None:
                    col_rows[c].add(i)
                elif alo > lo:
                    x += ax << w * (alo - lo)
                elif alo < lo:
                    x, lo = ax + (x << w * (lo - alo)), alo
                else:
                    x += ax
                    if not x:
                        del row[c]
                        col_rows[c].discard(i)
                        continue
                    strip = ((x & -x).bit_length() - 1) // w
                    x >>= w * strip
                    lo += strip
                row[c] = lo, x, l1
            del row[pc]
            if not row:
                return None
            cols = [c for c, v in row.items() if v[1] == 1 or v[1] == -1]
            if cols:
                units[i] = cols
            else:
                units.pop(i, None)
        live.discard(pi)
        del units[pi]
        for (c, _), count in zip(pivot_row, counts):
            rest = col_rows[c]
            rest.discard(pi)
            if len(rest) == count:
                continue
            n = len(rest) - 1
            for i in rest:
                if i not in modified and len(rows[i]) > 1 and c in units.get(i, ()):
                    heappush(queue, ((len(rows[i]) - 1) * n, i, units[i].index(c), c))
        for i in modified:
            cols = units.get(i)
            if cols:
                n = len(rows[i]) - 1
                for pos, c in enumerate(cols):
                    heappush(queue, (n * (len(col_rows[c]) - 1), i, pos, c))

    # each step pops its pivot column from col_rows, so its keys are the core's columns
    colpos = {c: j for j, c in enumerate(sorted(col_rows))}
    core = []
    for i in sorted(live):
        dense = [None] * len(colpos)
        for c, (lo, x, _) in rows[i].items():
            dense[colpos[c]] = lo, _digits(x, kb)
        core.append(dense)
    return core


def _bareiss_row(pivot_row, row, k, prev, kb):
    """``row`` after step k of fraction-free elimination at kb-byte digits,
    as a new list: entry j > k becomes (a b - c d) / p, with a = row[j],
    b = pivot_row[k], c = row[k], d = pivot_row[j] and p = prev, the
    previous pivot.  Raises _TooNarrow when a bound fails."""
    w = 8 * kb
    n = len(row)
    blo, bx, bl1 = pivot_row[k]
    plo, px, pl1 = prev
    c = row[k]
    out = [None] * n
    for j in range(k + 1, n):
        a, d = row[j], pivot_row[j]
        if c is None or d is None:
            if a is None:
                continue
            lo, x, l1 = a[0] + blo, a[1] * bx, a[2] * bl1
        else:
            clo, cx, cl1 = c
            dlo, dx, dl1 = d
            lo, x, l1 = clo + dlo, -cx * dx, cl1 * dl1
            if a is not None:
                alo, ax, al1 = a
                l1 += al1 * bl1
                if alo + blo > lo:
                    x += ax * bx << w * (alo + blo - lo)
                else:
                    x, lo = ax * bx + (x << w * (lo - alo - blo)), alo + blo
        if l1 >> (w - 1):
            raise _TooNarrow("numerator")
        if not x:
            continue
        strip = ((x & -x).bit_length() - 1) // w
        x, r = divmod(x >> w * strip, px)
        if r:
            raise InternalError("fraction-free elimination met an inexact division")
        try:
            ql1 = _norm(x, kb)
        except OverflowError:
            raise _TooNarrow("quotient") from None
        if ql1 * pl1 >> (w - 1):
            raise _TooNarrow("quotient")
        out[j] = lo + strip - plo, x, ql1
    return out


def _bareiss(mat):
    """The determinant's coefficients, up to a unit, of a dense square
    matrix of (lo, co) entries (None for zero), () for zero: fraction-free
    elimination from the digit width of the largest coefficient.

    Each new entry is (a b - c d) / p, p the previous pivot, and Sylvester's
    identity makes it a polynomial.  Once l1(a) l1(b) + l1(c) l1(d) <
    2^(W-1), the numerator's digits are its coefficients, so the quotient
    divides exactly as integers; and once the quotient's digits q satisfy
    l1(q) l1(p) < 2^(W-1), q p and the numerator have the same digits, so
    q is the quotient polynomial.  When a bound fails at step k, row i, the
    rows k to n - 1 and the previous pivot are repacked at twice the width
    and step k goes on at row i: the rows above it are done, and row i is
    left as it was until all of it passes.
    """
    if not mat:
        return (1,)
    n = len(mat)
    kb = _digit_bytes(max(_max_abs(e[1]) for row in mat for e in row if e))
    m = [[e and _entry(*e, kb) for e in row] for row in mat]
    limit = _width_limit(m)
    prev = 0, 1, 1
    for k in range(n - 1):
        if m[k][k] is None:
            for i in range(k + 1, n):
                if m[i][k] is not None:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                return ()
        i = k + 1
        while i < n:
            try:
                m[i] = _bareiss_row(m[k], m[i], k, prev, kb)
            except _TooNarrow:
                if 8 * kb >= limit:
                    raise InternalError("fraction-free elimination's coefficient bound fails past its ceiling")
                m[k:] = [[e and _widened(e, kb) for e in row] for row in m[k:]]
                prev = _widened(prev, kb)
                kb *= 2
            else:
                i += 1
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return _digits(det[1], kb) if det else ()


def laurent_det_up_to_units(rows):
    """Normalized determinant, up to a unit, of a square sparse Laurent
    matrix.

    ``rows`` is a list of {column: Laurent}.  Unit entries are eliminated
    first, which keeps Wirtinger-style matrices sparse, at 8-byte digits;
    whatever dense core remains goes through fraction-free elimination from
    the width of its largest coefficient.  Both certify their digits by one
    bound per entry, on sum |c|.  Each phase runs once: a failed bound
    widens the digits of the entries it holds, in place, and raises
    InternalError past ``_width_limit``, where no correct bound fails.
    """
    if len(rows) != len({c for r in rows for c in r}) or not all(rows):
        return Laurent.zero()
    core = _eliminate_units(rows)
    if core is None:
        return Laurent.zero()
    return _raw(0, _bareiss(core)).normalized()


# -- knot invariants -----------------------------------------------------------


@lru_cache(maxsize=64)
def _fox_template(over, g_in, s):
    """The abelianized Fox row of one crossing shape, as (position in
    (out, over, in), Laurent) pairs in column order; empty when the
    relator is.

    A Wirtinger relator is (-out, s over, in, -s over), freely reduced, so
    its Fox row depends only on the sign s and on which of the three arcs
    coincide.  The shape names each arc by the first of (out, over, in)
    it equals, numbered 1 to 3: out is 1, ``over`` is 1 or 2, ``g_in`` is
    1, 2 or 3.  The row is built once, from that relator itself.
    """
    row = fox_row_abelian(wirtinger_relator(1, over, g_in, s))
    return tuple((g - 1, v) for g, v in row.items())


def _fox_minor(d):
    """The abelianized Fox Jacobian of ``wirtinger(d)`` less its last
    relator and last generator, as rows of {generator: Laurent}.

    Each crossing's row is its shape's template (``_fox_template``) with
    the crossing's arcs filled in, so its columns come in the order
    ``fox_row_abelian`` gives the relator itself; rows share their
    entries.  A crossing whose relator reduces away has no row.
    """
    crossings, ngens = wirtinger_crossings(d)
    rows = []
    for g_out, g_over, g_in, s in crossings:
        template = _fox_template(1 if g_over == g_out else 2,
                                 1 if g_in == g_out else 2 if g_in == g_over else 3, s)
        if template:
            arcs = g_out, g_over, g_in
            rows.append({arcs[i]: v for i, v in template if arcs[i] != ngens})
    return rows[:-1]


@lru_cache(maxsize=2048)
def alexander_poly(d) -> Laurent:
    """Normalized Alexander polynomial of a planar knot diagram: the
    determinant of its Fox minor (``_fox_minor``).

    Virtual (non-planar) codes are refused: the minor drops one Wirtinger
    relation, which is redundant only on planar codes.  On a planar knot
    the minor is Δ up to a unit, so Δ(1) = ±1; any other value, zero
    included, is a kernel bug and raises InternalError.
    """
    if not d.is_knot():
        raise DomainError("Alexander polynomial implemented for knots only")
    genus = embedding_genus(d)
    if genus:
        raise DomainError(f"Alexander polynomial needs a planar diagram; this code has genus {genus}")
    rows = _fox_minor(d)
    if not rows:
        return Laurent.one()
    det = laurent_det_up_to_units(rows)
    if sum(det.co) not in (1, -1):
        raise InternalError(f"the Alexander minor of a planar knot diagram is {det!r}, not +-1 at t = 1")
    return det


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
