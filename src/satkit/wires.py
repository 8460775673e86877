"""Mutable crossing/slot graph used to assemble diagrams.

The Builder only assembles: connected sums, cabling a strand into parallel
copies, twist regions, band connectors, and encircling a bundle with a
round curve.  ``Diagram`` stays immutable; each construction pulls its
diagrams into one ``Builder``, appends crossings and splices wires, and
walks the result back out.  Local moves (Reidemeister reduction and
insertion, component deletion) edit the crossing code itself, in
``diagram._Splice``.

Call sites share one vocabulary.  ``add_diagram`` and ``add_code`` import
a crossing code beside what the Builder holds (``from_diagram`` starts a
new Builder that way); ``add_crossing`` binds the four ends of a new
crossing; ``cut``, ``join`` and ``fuse`` split and splice wires, and
``swap`` cuts two wires and cross-joins their ends; ``to_diagram``/
``to_tangle`` walk the result back out, once, from one seed wire per
component (``to_diagram`` refuses a dangling wire end).  Seeds may be any
wire id the Builder issued, and the returned labels cover them all.
Every gadget (``braid``, ``twist_chain``, ``build_cable``, ``band``,
``encircle``) draws into the Builder it is given.  ``build_cable``
returns closed copies in copy order; opening one is ``cut``.  A gadget
that takes a bundle (``twist_chain``) takes it in that copy order.
``encircle`` is the one round curve.

Draw a gadget only on wires that run with their flow: its crossing layouts
read a wire's tail and head as the strand's, and on a wire that runs the
other way the drawing is still a valid code but need not be planar.  After
a head-to-head join (``fuse`` of two heads), walk out first and draw on
the imported result.

Conventions
-----------
A wire is a future edge.  Its two ends are positional: ``ends[0]`` is the
tail (where the strand leaves a crossing), ``ends[1]`` the head.  Ends are
either ``None`` (dangling), ``('x', ci, slot)`` or ``('t', key)`` for a
tangle terminal.  A crossing-free circle is a wire whose ends hold the
``LOOP`` sentinel.

Crossing tuples are stored with the nominal convention that the strand
through slots 0/2 is the under-strand.  The walk out rotates tuples by
two positions whenever the under-strand is traversed against that
convention, so gadgets built for one nominal orientation stay correct when
spliced into strands that run the other way.  The validating walk of the
``Diagram`` or ``StringLink`` built from the result checks it; a failure
there is an ``InternalError``.
"""

from __future__ import annotations

from .diagram import Diagram, _orient, _path_heads
from .errors import DomainError, InternalError, built

LOOP = ("loop",)


class Builder:
    def __init__(self):
        self.crossings = []  # list of [w0, w1, w2, w3]
        self.wires = {}  # id -> [end0, end1] or [LOOP, LOOP]
        self._alias = {}
        self._next = 0

    # -- wire bookkeeping ------------------------------------------------

    def fresh(self):
        w = self._next
        self._next += 1
        self.wires[w] = [None, None]
        return w

    def fresh_loop(self):
        w = self.fresh()
        self.wires[w] = [LOOP, LOOP]
        return w

    def live(self, w):
        while w in self._alias:
            w = self._alias[w]
        return w

    def single_dangle(self, w):
        """The one dangling end of wire ``w``, as (live wire, end index)."""
        lw = self.live(w)
        free = [i for i in (0, 1) if self.wires[lw][i] is None]
        if len(free) != 1:
            raise DomainError("expected exactly one dangling end")
        return (lw, free[0])

    def _bind(self, w, end, binding):
        w = self.live(w)
        if self.wires[w][end] is not None:
            raise DomainError("wire end already bound")
        self.wires[w][end] = binding

    def add_crossing(self, a, b, c, d, over_entry):
        """New crossing with the under-strand entering at slot 0 via ``a``.

        ``over_entry`` is 1 or 3: the slot at which the over-strand enters,
        i.e. the over-strand runs b->d when 1 and d->b when 3.  Head/tail
        ends of the four wires are bound accordingly.
        """
        ci = len(self.crossings)
        a, b, c, d = (self.live(w) for w in (a, b, c, d))
        self.crossings.append([a, b, c, d])
        b_end = int(over_entry == 1)  # b's head when the over-strand enters at slot 1
        for w, end, slot in ((a, 1, 0), (c, 0, 2), (b, b_end, 1), (d, 1 - b_end, 3)):
            self._bind(w, end, ("x", ci, slot))
        return ci

    # -- conversions -----------------------------------------------------

    @classmethod
    def from_diagram(cls, d):
        """A new builder holding ``d``.  Returns (builder, edge label -> wire id)."""
        b = cls()
        return b, b.add_diagram(d)

    def add_diagram(self, d):
        """Import a diagram beside what the builder holds.  Returns its
        edge label -> wire id map."""
        orient = _orient(d)
        wmap = self.add_code(d.crossings, d.components, orient)
        for e in orient.free:
            self.wires[wmap[e]] = [LOOP, LOOP]
        return wmap

    def add_code(self, crossings, paths, orient):
        """Import a crossing code beside what the builder holds: one wire
        per edge, path after path, where ``orient`` is the code's record
        walked from ``paths``.  Each edge's head is bound at its (crossing,
        slot) in the record, and the edge leaving that crossing opposite
        it has its tail bound there.  Returns the edge label -> wire id
        map."""
        off = len(self.crossings)
        wmap = {e: self.fresh() for path in paths for e in path}
        for x in crossings:
            self.crossings.append([wmap[e] for e in x])
        for path, heads in zip(paths, _path_heads(orient, paths)):
            for e, h in zip(path, heads):
                if h is not None:
                    ci, s = h
                    self.wires[wmap[e]][1] = ("x", ci + off, s)
                    self.wires[wmap[crossings[ci][s ^ 2]]][0] = ("x", ci + off, s ^ 2)
        return wmap

    def cut(self, w):
        """Split a wire at an interior point.

        Returns (tail_piece, head_piece): the tail piece keeps the original
        tail end and dangles at its head; symmetrically for the head piece.
        Cutting a free loop yields a single open wire, returned twice.
        """
        w = self.live(w)
        ends = self.wires[w]
        if ends[0] == LOOP:
            self.wires[w] = [None, None]
            return w, w
        wa = self.fresh()
        wb = self.fresh()
        self.wires[wa] = [ends[0], None]
        self.wires[wb] = [None, ends[1]]
        for piece, end in ((wa, ends[0]), (wb, ends[1])):
            if end is not None and end[0] == "x":
                self.crossings[end[1]][end[2]] = piece
        del self.wires[w]
        self._alias[w] = wa  # callers holding the old id get the tail piece
        return wa, wb

    def fuse(self, end_a, end_b):
        """Concatenate two wires at the given dangling ends.

        ``end_a``/``end_b`` are (wire, end_index).  Fusing a wire to itself
        closes it into a free loop.  For flow coherence fuse a head-side
        dangle (index 1) to a tail-side dangle (index 0).
        """
        wa, ia = end_a
        wb, ib = end_b
        wa, wb = self.live(wa), self.live(wb)
        if self.wires[wa][ia] is not None or self.wires[wb][ib] is not None:
            raise DomainError("fuse requires dangling ends")
        if wa == wb:
            self.wires[wa] = [LOOP, LOOP]
            return wa
        far = self.wires[wb][1 - ib]
        self.wires[wa][ia] = far
        if far is not None and far[0] == "x":
            self.crossings[far[1]][far[2]] = wa
        del self.wires[wb]
        self._alias[wb] = wa
        return wa

    def join(self, tail_piece, head_piece):
        """Flow-coherent fuse: out of ``tail_piece`` into ``head_piece``."""
        return self.fuse((tail_piece, 1), (head_piece, 0))

    # -- walking back out ------------------------------------------------

    def to_tangle(self, seeds):
        """The one walk out of the Builder.  ``seeds``: one (wire, forward)
        per path, in order; forward walks toward the wire's head.  A path
        leaves each crossing opposite the slot it entered, and ends back at
        its seed or at an end that is no crossing slot (terminal, dangle,
        free loop).  Wires are labelled 1, 2, ... in path order; a crossing
        whose under-strand is entered at slot 2 is rotated by two positions.
        Returns (crossings, paths, wire -> label), the labels covering every
        wire id issued, aliases included.  Only coverage and path length are
        checked here; the ``Diagram`` or ``StringLink`` validating walk
        checks the rest."""
        order, paths, rotate = [], [], set()
        for w, forward in seeds:
            w, end = self.live(w), 1 if forward else 0
            start, path = (w, end), [w]
            while True:
                at = self.wires[w][end]
                if not at or at[0] != "x":
                    break
                _, ci, s = at
                if s == 2:
                    rotate.add(ci)
                w = self.crossings[ci][s ^ 2]
                end = 1 if self.wires[w][0] == ("x", ci, s ^ 2) else 0
                if (w, end) == start:
                    break
                if len(path) == len(self.wires):
                    raise InternalError("walk ran past every wire; crossings and wire ends disagree")
                path.append(w)
            paths.append(path)
            order += path
        label = {w: i for i, w in enumerate(order, 1)}
        if label.keys() != self.wires.keys():
            raise InternalError("walk did not cover every wire; missing seeds?")
        label.update((a, label[lw]) for a in self._alias if (lw := self.live(a)) in label)
        crossings = tuple(
            tuple(label[w] for w in (x[2:] + x[:2] if ci in rotate else x))
            for ci, x in enumerate(self.crossings)
        )
        return crossings, tuple(tuple(label[w] for w in path) for path in paths), label

    def to_diagram(self, seeds):
        """Walk out a diagram, one closed path per component.  Returns
        (Diagram, wire -> label).  A dangling wire end, or a code the
        walk-out gets wrong, is an ``InternalError``."""
        if any(None in ends for ends in self.wires.values()):
            raise InternalError("a closed diagram has a dangling wire end")
        crossings, components, label = self.to_tangle(seeds)
        return built(Diagram, crossings, components), label

    # -- structural surgery ----------------------------------------------

    def _unbind(self, w, end_binding):
        w = self.live(w)
        ends = self.wires[w]
        hits = [i for i in (0, 1) if ends[i] == end_binding]
        if not hits:
            raise DomainError("end not bound as stated")
        ends[hits[0]] = None
        return (w, hits[0])

# -- gadget constructions --------------------------------------------------


def braid_step(b: Builder, cur, pos, positive):
    """One braid letter on the strand list ``cur`` between ``pos`` and
    ``pos+1``.  ``cur`` holds the dangling top stubs of the strands in
    left-to-right order; entries are replaced by the new stubs.

    Positive means the strand entering bottom-right passes over.
    """
    bl, br = cur[pos], cur[pos + 1]
    tl, tr = b.fresh(), b.fresh()
    if positive:
        # under-strand: bottom-left -> top-right
        b.add_crossing(bl, br, tr, tl, over_entry=1)
    else:
        # under-strand: bottom-right -> top-left
        b.add_crossing(br, tr, tl, bl, over_entry=3)
    cur[pos], cur[pos + 1] = tl, tr


def braid(b: Builder, strands, word):
    """Lay out a braid word (letters +-1..+-(strands-1)) on fresh strands.

    Every letter is range-checked before any crossing is built.  Returns
    (bottom, top): the strands' dangling bottom tails and top heads, left
    to right.
    """
    for x in word:
        if x == 0 or abs(x) >= strands:
            raise DomainError(f"braid letter {x} out of range for {strands} strands")
    bottom = [b.fresh() for _ in range(strands)]
    top = list(bottom)
    for x in word:
        braid_step(b, top, abs(x) - 1, positive=x > 0)
    return bottom, top


def braid_permutation(strands, word):
    perm = list(range(strands))
    for x in word:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def twist_chain(b: Builder, stubs, count):
    """Append ``count`` full twists to a bundle of dangling stubs in copy
    order (copy j sits j units to the left of travel, as ``build_cable``
    returns them), threading the region against that order.  Returns the
    new stubs in copy order.  Positive count inserts positive crossings,
    adding +1 per twist to the pairwise linking of coherently oriented
    copies; an empty or single-copy bundle, or a count of 0, adds none."""
    cur = list(reversed(stubs))
    for _ in range(len(cur) * abs(count)):
        for pos in range(len(cur) - 1):
            braid_step(b, cur, pos, count > 0)
    return cur[::-1]


def build_cable(b: Builder, crossings, signs, widths, loops=()):
    """Cable every strand of a closed crossing code into parallel copies,
    drawn into ``b`` beside what it holds.

    crossings: iterable of 4-tuples of edge labels.
    signs: crossing sign per crossing (fixes the grid geometry).
    widths: edge label -> copy count (constant along each component).
    loops: crossing-free circle labels (each becomes widths[e] free loops).

    Returns copies: edge label -> its copy wires, in transverse order (copy
    j sits j units to the left of the direction of travel).  Where a strand
    has width 0 the other strand's copies pass straight through.  A caller
    that needs a copy open cuts it.
    """
    edges = {e for x in crossings for e in x}
    copies = {e: [b.fresh() for _ in range(widths[e])] for e in edges}
    copies.update((e, [b.fresh_loop() for _ in range(widths[e])]) for e in loops)
    for ci, (ea, eb, ec, ed) in enumerate(crossings):
        p = widths[ea]
        q = widths[eb]
        if widths[ec] != p or widths[ed] != q:
            raise DomainError("cable widths differ along a strand")
        s = signs[ci]
        over_in, over_out = (eb, ed) if s > 0 else (ed, eb)
        if p == 0 or q == 0:
            for win, wout in zip(copies[ea] + copies[over_in], copies[ec] + copies[over_out]):
                b.join(win, wout)
            continue
        us = [[copies[ea][u], *(b.fresh() for _ in range(q - 1)), copies[ec][u]] for u in range(p)]
        os_ = [[copies[over_in][v], *(b.fresh() for _ in range(p - 1)), copies[over_out][v]] for v in range(q)]
        for u in range(1, p + 1):
            for v in range(1, q + 1):
                if s > 0:
                    b.add_crossing(
                        us[u - 1][q - v], os_[v - 1][u - 1],
                        us[u - 1][q - v + 1], os_[v - 1][u],
                        over_entry=1,
                    )
                else:
                    b.add_crossing(
                        us[u - 1][v - 1], os_[v - 1][p - u + 1],
                        us[u - 1][v], os_[v - 1][p - u],
                        over_entry=3,
                    )
    return copies


def band(b: Builder, u, v, over):
    """Band two wires running the same way: cut both and swap their ends
    across one new crossing.  The connector out of ``u`` into ``v``
    passes over the one out of ``v`` into ``u`` when ``over``.  Returns
    the head pieces (hu, hv) of the two cuts; the old ids name the tail
    pieces."""
    tu, hu = b.cut(u)
    tv, hv = b.cut(v)
    if over:
        b.add_crossing(tv, hv, hu, tu, over_entry=3)
    else:
        b.add_crossing(tu, tv, hv, hu, over_entry=1)
    return hu, hv


def swap(b: Builder, u, v):
    """Cut two wires and cross-join the ends: out of ``u`` into ``v``
    and out of ``v`` into ``u``.  Returns the head pieces (hu, hv) of the
    two cuts, as ``band`` does."""
    tu, hu = b.cut(u)
    tv, hv = b.cut(v)
    b.join(tu, hv)
    b.join(tv, hu)
    return hu, hv


def encircle(b: Builder, targets):
    """Draw a round curve around the target wires: cut each twice around a
    passage point, pass over each in order, turn around, pass back under
    each in reverse order, and close.  ``targets`` is a list of (wire,
    sign), the sign being the strand's through the marked interval.
    Returns the circle's seed wire: walked with forward=False it orients
    the circle so its linking with the encircled strands is the sum of the
    signs.

    Each target is cut into ``west_in`` (carrying its tail), ``mid`` and
    ``east_out`` (carrying its head); a free loop opens into one outer arc
    that serves as both.  The four crossing layouts, with the curve
    descending on the way out and ascending on the way back:
      over an eastward strand:   (west_in, nxt, mid, cur)  entry 3
      over a westward strand:    (mid, cur, east_out, nxt) entry 1
      under an eastward strand:  (cur, east_out, nxt, mid) entry 3
      under a westward strand:   (cur, west_in, nxt, mid)  entry 1
    A strand of positive sign runs eastward.
    """
    passages = []
    for w, sign in targets:
        west_in, rest = b.cut(w)
        mid, east_out = b.cut(rest)
        if west_in == rest:  # a free loop: one outer arc holds both ends
            west_in = east_out
        passages.append((west_in, mid, east_out, sign))
    first = cur = b.fresh()
    for west_in, mid, east_out, sign in passages:
        nxt = b.fresh()
        if sign > 0:
            b.add_crossing(west_in, nxt, mid, cur, over_entry=3)
        else:
            b.add_crossing(mid, cur, east_out, nxt, over_entry=1)
        cur = nxt
    for west_in, mid, east_out, sign in reversed(passages):
        nxt = b.fresh()
        if sign > 0:
            b.add_crossing(cur, east_out, nxt, mid, over_entry=3)
        else:
            b.add_crossing(cur, west_in, nxt, mid, over_entry=1)
        cur = nxt
    b.join(cur, first)
    return first
