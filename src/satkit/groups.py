"""Finitely presented groups from diagrams: Wirtinger presentations,
quotients, abelianization, and coset enumeration.

Words are tuples of nonzero signed generator indices (1-based); the text
rendering writes generators as letters with capitals for inverses, e.g.
``a b A b``.

The enumerator is a relator-based (HLT) Todd-Coxeter with a union-find
coincidence queue and periodic lookahead, after Holt's "Handbook of
Computational Group Theory".  Enumeration of a presentation of the trivial
group is a proof of triviality; hitting the coset limit proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbelianGroup, cokernel
from .diagram import Diagram, _orient, crossing_signs
from .errors import DomainError, InternalError


@dataclass(frozen=True)
class GroupPresentation:
    generator_count: int
    relators: tuple[tuple[int, ...], ...]
    marked_words: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        for w in list(self.relators) + [w for _, w in self.marked_words]:
            for x in w:
                if x == 0 or abs(x) > self.generator_count:
                    raise DomainError(f"letter {x} out of range in word {w}")

    def marked(self, name):
        for n, w in self.marked_words:
            if n == name:
                return w
        raise KeyError(name)


def word_to_text(word):
    letters = "abcdefghijklmnopqrstuvwxyz"

    def enc(x):
        g = abs(x) - 1
        if g < 26:
            ch = letters[g]
        else:
            ch = f"g{abs(x)}"
        return ch.upper() if x < 0 and g < 26 else (f"G{abs(x)}" if x < 0 else ch)

    return " ".join(enc(x) for x in word)


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# -- Wirtinger presentations ---------------------------------------------------


def arc_data(d: Diagram):
    """Arcs of a diagram: maximal runs of edges between under-passages.

    Returns (arc_of_edge, arc_count, first_arc_of_component) with arcs
    numbered deterministically component by component.
    """
    orient = _orient(d)
    arc_of_edge = {}
    arc_count = 0
    first_arc = []
    for cyc in d.components:
        first_arc.append(arc_count)
        if cyc[0] in orient.free:
            arc_of_edge[cyc[0]] = arc_count
            arc_count += 1
            continue
        breaks = [i for i, e in enumerate(cyc) if orient.edge_head[e][1] == 0]
        if not breaks:
            for e in cyc:
                arc_of_edge[e] = arc_count
            arc_count += 1
            continue
        # the arc starting after break position b runs through the next break
        n = len(cyc)
        for k, b in enumerate(breaks):
            nxt = breaks[(k + 1) % len(breaks)]
            i = (b + 1) % n
            while True:
                arc_of_edge[cyc[i]] = arc_count
                if i == nxt:
                    break
                i = (i + 1) % n
            arc_count += 1
    return arc_of_edge, arc_count, first_arc


def wirtinger(d: Diagram) -> GroupPresentation:
    """One generator per arc, one conjugation relator per crossing, and a
    marked meridian (the first arc's generator) per component."""
    signs = crossing_signs(d)
    arc_of_edge, arc_count, first_arc = arc_data(d)
    relators = []
    for ci, x in enumerate(d.crossings):
        g_in = arc_of_edge[x[0]] + 1
        g_out = arc_of_edge[x[2]] + 1
        g_over = arc_of_edge[x[1]] + 1
        if arc_of_edge[x[3]] + 1 != g_over:
            raise DomainError("over-strand arc mismatch; corrupt diagram")
        s = signs[ci]
        rel = free_reduce((-g_out, s * g_over, g_in, -s * g_over))
        if rel:
            relators.append(rel)
    marks = tuple(
        (f"meridian_{k}", (first_arc[k] + 1,)) for k in range(len(d.components))
    )
    return GroupPresentation(arc_count, tuple(relators), marks)


def cut_loop_word(pattern) -> tuple[int, ...]:
    """Wirtinger word of the round curve encircling a pattern's cut strands:
    the product of the cut arcs' generators with the cut signs, in cut order."""
    arc_of_edge = arc_data(pattern.base)[0]
    return tuple((arc_of_edge[e] + 1) * s for e, s in pattern.cut)


# -- presentation manipulation --------------------------------------------------


def quotient(g: GroupPresentation, extra_words) -> GroupPresentation:
    extra = tuple(free_reduce(tuple(w)) for w in extra_words)
    return GroupPresentation(
        g.generator_count, g.relators + tuple(w for w in extra if w), g.marked_words
    )


def abelianization(g: GroupPresentation) -> AbelianGroup:
    rows = []
    for rel in g.relators:
        row = [0] * g.generator_count
        for x in rel:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return cokernel(rows, g.generator_count)


def _invert(word):
    return tuple(-x for x in reversed(word))


def _cyc_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def simplify_presentation(g: GroupPresentation, target_generators=8, length_cap=6000):
    """Tietze elimination: repeatedly solve a relator for a generator that
    occurs in it exactly once and substitute it away.

    Each step eliminates the pair (relator r, generator g) of least score
    ``(len(r) - 1) * (occurrences of +-g in every relator and marked word,
    less one)``; ties go to the first relator, then to the generator that
    appears first in it.  Stops at ``target_generators``, or when the chosen
    elimination would take the total relator length past ``length_cap``.
    Marked words are rewritten alongside the relators, so quotients taken
    afterwards stay meaningful.
    """
    relators = [_cyc_reduce(r) for r in g.relators]
    relators = [r for r in relators if r]
    marked = {n: free_reduce(w) for n, w in g.marked_words}
    live = list(range(1, g.generator_count + 1))

    while len(live) > target_generators:
        # occ[g]: letters +-g over every relator and marked word
        occ = [0] * (g.generator_count + 1)
        for w in relators + list(marked.values()):
            for x in w:
                occ[abs(x)] += 1
        best = None
        for ri, rel in enumerate(relators):
            counts = {}
            for x in rel:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for gen, cnt in counts.items():
                if cnt != 1:
                    continue
                score = (len(rel) - 1) * (occ[gen] - 1)
                if best is None or score < best[0]:
                    best = (score, ri, gen)
        if best is None:
            break
        _, ri, gen = best
        rel = relators[ri]
        pos = next(i for i, x in enumerate(rel) if abs(x) == gen)
        u, v = rel[:pos], rel[pos + 1:]
        # u g v = 1  =>  g = u^-1 v^-1 ; u g^-1 v = 1  =>  g = v u
        if rel[pos] > 0:
            replacement = free_reduce(_invert(u) + _invert(v))
        else:
            replacement = free_reduce(v + u)

        def substitute(word):
            out = []
            for x in word:
                if x == gen:
                    out.extend(replacement)
                elif x == -gen:
                    out.extend(_invert(replacement))
                else:
                    out.append(x)
            return free_reduce(tuple(out))

        new_relators = [
            _cyc_reduce(substitute(r)) for i, r in enumerate(relators) if i != ri
        ]
        new_relators = [r for r in new_relators if r]
        total = sum(len(r) for r in new_relators)
        if total > length_cap:
            break
        relators = new_relators
        marked = {n: substitute(w) for n, w in marked.items()}
        live.remove(gen)

    # number the surviving generators 1..k in their old order
    remap = {old: new for new, old in enumerate(live, 1)}

    def renumber(word):
        return tuple(remap[x] if x > 0 else -remap[-x] for x in word)

    return GroupPresentation(
        len(live), tuple(renumber(r) for r in relators),
        tuple(sorted((n, renumber(w)) for n, w in marked.items())),
    )


# -- Todd-Coxeter ---------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    outcome: str  # "trivial" | "finite" | "exceeded"
    order: int | None
    cosets_used: int
    limit: int

    @property
    def closed(self) -> bool:
        return self.outcome in ("trivial", "finite")


class _CosetTable:
    """Coset table stored by column: ``table[l][a]`` is coset ``a`` times
    letter ``l`` (``2(g-1)`` for generator g, ``2(g-1)+1`` for its inverse,
    so ``l ^ 1`` inverts), or None while undefined.  Coset ``a`` is live when
    ``p[a] == a``; ``len(p)`` counts the cosets defined so far."""

    def __init__(self, ngens, limit):
        self.width = 2 * ngens
        self.limit = limit
        self.table = [[None] for _ in range(self.width)]
        self.p = [0]
        self.queue = []

    @staticmethod
    def letter(x):
        return 2 * (abs(x) - 1) + (0 if x > 0 else 1)

    def rep(self, k):
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, a, l):
        b = len(self.p)
        if b >= self.limit:
            raise _Overflow
        for col in self.table:
            col.append(None)
        self.p.append(b)
        self.table[l][a] = b
        self.table[l ^ 1][b] = a
        return b

    def merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            self.queue.append(b)

    def process_coincidences(self):
        table = self.table
        while self.queue:
            b = self.queue.pop()
            for l in range(self.width):
                col = table[l]
                c = col[b]
                if c is None:
                    continue
                col[b] = None
                icol = table[l ^ 1]
                if icol[c] == b:
                    icol[c] = None
                a = self.rep(b)
                c = self.rep(c)
                if col[a] is not None:
                    self.merge(c, col[a])
                elif icol[c] is not None:
                    self.merge(a, icol[c])
                else:
                    col[a] = c
                    icol[c] = a

    def scan_and_fill(self, a, rel, fill=True):
        """Scan relator ``rel`` from coset ``a`` in both directions, merging
        on a coincidence and deducing a one-gap completion; with ``fill``
        define new cosets until the scan completes, else stop at the gap."""
        table = self.table
        f, i = a, 0
        b, j = a, len(rel) - 1
        while True:
            while i <= j and table[rel[i]][f] is not None:
                f = table[rel[i]][f]
                i += 1
            if i > j:
                if f != b:
                    self.merge(f, b)
                    self.process_coincidences()
                return
            while j >= i and table[rel[j] ^ 1][b] is not None:
                b = table[rel[j] ^ 1][b]
                j -= 1
            if j < i:
                self.merge(f, b)
                self.process_coincidences()
                return
            if j == i:
                table[rel[i]][f] = b
                table[rel[i] ^ 1][b] = f
                return
            if not fill:
                return
            f = self.define(f, rel[i])
            i += 1

    def lookahead(self, rels):
        for a in range(len(self.p)):
            if self.p[a] != a:
                continue
            for rel in rels:
                self.scan_and_fill(a, rel, fill=False)
                if self.p[a] != a:
                    break


class _Overflow(Exception):
    pass


def todd_coxeter(g: GroupPresentation, limit: int = 10**6) -> EnumerationResult:
    """Enumerate cosets of the trivial subgroup by the HLT strategy.

    Returns trivial/finite with the group order when the table closes
    within ``limit`` defined cosets, else "exceeded" (no conclusion).
    """
    if limit < 1:
        raise DomainError("coset limit must be at least 1")
    if g.generator_count == 0:
        return EnumerationResult("trivial", 1, 1, limit)
    rels = [
        tuple(_CosetTable.letter(x) for x in _cyc_reduce(r))
        for r in g.relators
    ]
    rels = [r for r in rels if r]
    ct = _CosetTable(g.generator_count, limit)
    next_lookahead = 4096
    try:
        a = 0
        while a < len(ct.p):
            if ct.p[a] == a:
                for rel in rels:
                    ct.scan_and_fill(a, rel)
                    if ct.p[a] != a:
                        break
                if ct.p[a] == a:
                    for l in range(ct.width):
                        if ct.table[l][a] is None:
                            ct.define(a, l)
            if len(ct.p) >= next_lookahead:
                ct.lookahead(rels)
                next_lookahead *= 2
            a += 1
    except _Overflow:
        return EnumerationResult("exceeded", None, len(ct.p), limit)
    live = sum(1 for i, r in enumerate(ct.p) if r == i)
    outcome = "trivial" if live == 1 else "finite"
    return EnumerationResult(outcome, live, len(ct.p), limit)


# -- the semi-decision procedure -------------------------------------------------


@dataclass(frozen=True)
class StrongWindingResult:
    verified: bool
    enumeration: EnumerationResult
    presentation: GroupPresentation  # the quotient presentation enumerated
    wirtinger_presentation: GroupPresentation  # of the pattern's base, before the quotient

    @property
    def outcome(self) -> str:
        return "verified" if self.verified else "inconclusive"


def strong_winding_check(pattern, limit: int = 10**6) -> StrongWindingResult:
    """Semi-decide whether the marked curve around the cut normally
    generates the fundamental group of the complement of the pattern's
    underlying knot.

    Verified means the quotient by the curve's normal closure enumerated to
    the trivial group: a proof.  Inconclusive carries no conclusion.
    """
    pres = wirtinger(pattern.base)
    word = cut_loop_word(pattern)
    q = simplify_presentation(quotient(pres, [word]))
    result = todd_coxeter(q, limit)
    verified = result.outcome == "trivial"
    if verified and not abelianization(q).is_trivial:
        raise InternalError("enumeration claims trivial but abelianization is not")
    return StrongWindingResult(verified, result, q, pres)
