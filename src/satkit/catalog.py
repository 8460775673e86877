"""Standard diagrams, patterns and corpora used by tests, suites and docs.

Braid closures are the workhorse: positive generator i crosses strand i+1
over strand i (the planar-diagram positive crossing for upward strands).
Hand-coded fixtures carry their derivations in comments.
"""

from __future__ import annotations

import random

from .diagram import Diagram, connected_sum, insert_kink, insert_poke, mirror, unknot
from .errors import DomainError, built
from .patterns import Pattern
from .stringlinks import InfectionOperator, StringLink, trivial_string_link
from .surgery import FramedLink
from .wires import Builder, braid, braid_permutation


def _closed_braid(strands, word):
    """Trace closure of a braid word, walked out from one bottom strand per
    cycle of its permutation.  Returns (diagram, wire -> label, closing
    wires): one closing wire per strand, left to right, each running from
    the braid's top back to its bottom."""
    b = Builder()
    bottom, top = braid(b, strands, word)
    closing = [b.join(t, s) for t, s in zip(top, bottom)]
    perm = braid_permutation(strands, word)
    seeds = []
    seen = set()
    for i in range(strands):
        if i in seen:
            continue
        j = i
        while j not in seen:
            seen.add(j)
            j = perm[j]
        seeds.append((bottom[i], True))
    d, labels = b.to_diagram(seeds)
    return d, labels, closing


def braid_closure(strands, word) -> Diagram:
    """Trace closure of a braid word (letters +-1..+-(strands-1))."""
    return _closed_braid(strands, word)[0]


def string_link_from_braid(strands, word) -> StringLink:
    """A pure braid as a string link; a braid word whose strands do not
    each return to their own slot is rejected."""
    b = Builder()
    bottom, _ = braid(b, strands, word)
    if braid_permutation(strands, word) != list(range(strands)):
        raise DomainError("braid must induce the identity permutation")
    crossings, paths, _ = b.to_tangle([(w, True) for w in bottom])
    return built(StringLink, len(paths), crossings, paths)


def trefoil() -> Diagram:
    """The right-handed trefoil."""
    return braid_closure(2, [1, 1, 1])


def figure_eight() -> Diagram:
    return braid_closure(3, [1, -2, 1, -2])


def torus_knot(p, q) -> Diagram:
    """Closure of the standard (p,q) torus braid; a knot iff gcd(p,q)=1."""
    word = list(range(1, p)) * q
    d = braid_closure(p, word)
    if not d.is_knot():
        raise DomainError(f"({p},{q}) torus braid closes to a link")
    return d


def torus_link(p, q) -> Diagram:
    word = list(range(1, p)) * q
    return braid_closure(p, word)


def positive_kink_unknot() -> Diagram:
    # one-crossing unknot, writhe +1
    return Diagram(((1, 2, 2, 1),), ((1, 2),))


def double_kink_unknot() -> Diagram:
    # two opposite kinks on one circle, writhe 0
    return Diagram(((1, 2, 2, 3), (3, 1, 4, 4)), ((1, 2, 3, 4),))


# -- patterns -----------------------------------------------------------------


def pattern_from_braid(strands, word) -> Pattern:
    """Pattern whose base is the braid closure, cut on the closure arcs.

    All strands run coherently through the disk, so the winding number is
    the strand count; the closure must be a knot.
    """
    d, labels, closing = _closed_braid(strands, word)
    if not d.is_knot():
        raise DomainError("closure is a link; pattern base must be a knot")
    return built(Pattern, d, tuple((labels[w], 1) for w in closing))


def core_pattern() -> Pattern:
    """The identity (connected-sum) operator: one coherent strand."""
    return Pattern(unknot(), ((1, 1),))


def cable_pattern(p, q) -> Pattern:
    """The (p,q) cable pattern: winding number p, underlying knot the
    (p,q) torus knot."""
    return pattern_from_braid(p, list(range(1, p)) * q)


def kink_base_pattern() -> Pattern:
    """Winding one, one-strand cut, underlying knot a one-kink unknot."""
    return Pattern(positive_kink_unknot(), ((1, 1),))


def wiggle_base_pattern() -> Pattern:
    """Winding one, one-strand cut, underlying knot a two-kink unknot."""
    return Pattern(double_kink_unknot(), ((2, 1),))


def clasp_pattern() -> Pattern:
    """Winding zero: the strand doubles back through the disk and the two
    returning arcs clasp.  Satellites with this pattern are untwisted
    doubles, so their Alexander polynomial is 1.

    Derivation: the return arc threads through the outgoing arc (over at
    one crossing, under at the other: the roles alternate, so the bigon is
    not a cancelling pair).  Reading the circle from the first pass gives
    edges 1..4, both crossings negative.
    """
    d = Diagram(((3, 1, 4, 4), (1, 3, 2, 2)), ((1, 2, 3, 4),))
    return Pattern(d, ((4, 1), (2, -1)))


def zigzag_pattern() -> Pattern:
    """Winding one with three passes (+,+,-): a finger through the disk and
    back, plus the coherent pass, underlying knot a reducible unknot.

    Derivation: the finger's return arc crosses the through-strand once
    (the essential crossing); a kink on the finger splits the cut edges
    apart.  Reading the circle gives edges 1..4 with the kink on (1,2,3)
    and the essential crossing on (3,4,4,1); the disk meets edges 3, 1, 4
    in that transverse order.
    """
    d = Diagram(((1, 2, 2, 3), (3, 4, 4, 1)), ((1, 2, 3, 4),))
    return Pattern(d, ((3, -1), (1, 1), (4, 1)))


def knot_pattern(k: Diagram) -> Pattern:
    """One-strand pattern over an arbitrary knot diagram, cut at its
    lowest edge: the satellite is then a connected sum with that knot."""
    if not k.is_knot():
        raise DomainError("pattern base must be a knot")
    return Pattern(k, ((min(k.edges()), 1),))


# -- corpora ------------------------------------------------------------------


def corpus_knots():
    """Named knot diagrams with at most 12 crossings; at least 30 of them."""
    out = []

    def add(name, d):
        out.append((name, d))

    add("unknot", unknot())
    add("kink+", positive_kink_unknot())
    add("double-kink", double_kink_unknot())
    for q in (3, 5, 7, 9, 11):
        add(f"torus(2,{q})", torus_knot(2, q))
        add(f"torus(2,{q})-mirror", mirror(torus_knot(2, q)))
    add("figure8", figure_eight())
    add("figure8-mirror", mirror(figure_eight()))
    add("torus(3,2)", torus_knot(3, 2))
    add("torus(3,4)", torus_knot(3, 4))
    add("torus(3,5)", torus_knot(3, 5))
    t, f = trefoil(), figure_eight()
    add("granny", connected_sum(t, t))
    add("square", connected_sum(t, mirror(t)))
    add("trefoil+t25", connected_sum(t, torus_knot(2, 5)))
    add("trefoil+t27", connected_sum(t, torus_knot(2, 7)))
    add("trefoil+fig8", connected_sum(t, f))
    add("fig8+fig8", connected_sum(f, f))
    add("granny+trefoil", connected_sum(connected_sum(t, t), t))
    add("trefoil-kinked", insert_kink(t, 1, 1))
    add("trefoil-kinked-neg", insert_kink(t, 2, -1))
    add("fig8-kinked", insert_kink(f, 1, 1))
    add("trefoil-poked", insert_poke(t, 4, 1))
    add("fig8-poked", insert_poke(f, 4, 1))
    for word in (
        (1, 1, 1, 2),
        (1, 1, 2, 1, 1, 2),
        (1, -2, 1, 1, -2, 1),
        (1, 1, 1, -2, 1, -2),
        (1, 1, 1, 1, 1, 2),
        (1, 2, -1, 2, 1, 2),
    ):
        d = braid_closure(3, list(word))
        if d.is_knot():
            add("braid" + "".join("p" if x > 0 else "n" for x in word), d)
    return out


def corpus_patterns():
    return [
        ("core", core_pattern()),
        ("kink-base", kink_base_pattern()),
        ("wiggle-base", wiggle_base_pattern()),
        ("zigzag", zigzag_pattern()),
        ("clasp", clasp_pattern()),
        ("cable(2,1)", cable_pattern(2, 1)),
        ("cable(2,3)", cable_pattern(2, 3)),
        ("cable(3,2)", cable_pattern(3, 2)),
    ]


# -- string link operators ------------------------------------------------------


def strand_meridian_operator(m=2, strand=0):
    """Marked disk around a single strand of the trivial string link: the
    local-knotting operator."""
    sl = trivial_string_link(m)
    return InfectionOperator(sl, ((sl.strands[strand][0], 1),))


def both_strands_operator():
    """Trivial two-strand link, disk around both strands: winding (1,1)."""
    sl = trivial_string_link(2)
    return InfectionOperator(sl, ((1, 1), (2, 1)))


def winding_two_three_operator():
    """Two strands through one disk with windings (2, 3); the gcd is one.

    Strand 1 passes twice, winding back around the west end of the disk
    interval; its return crosses its own approach once.  Strand 2 passes
    three times winding around the east end, each return crossing its
    approach: two more crossings.  The two strands never meet.  Reading
    each strand from the bottom gives the paths below; the disk meets the
    passes in the transverse order recorded in the cut.
    """
    sl = StringLink(
        2,
        ((2, 1, 3, 2), (6, 6, 7, 5), (7, 5, 8, 4)),
        ((1, 2, 3), (4, 5, 6, 7, 8)),
    )
    return InfectionOperator(sl, ((2, 1), (3, 1), (8, 1), (7, 1), (6, 1)))


def random_framed_links(count, rng=None):
    """Deterministic stream of small framed links for move tests: closures
    of braids on 2 to 4 strands with at least two components."""
    rng = rng or random.Random(20260808)
    out = []
    while len(out) < count:
        strands = rng.randint(2, 4)
        length = rng.randint(2, 7)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
        d = braid_closure(strands, word)
        if d.component_count < 2:
            continue
        framings = tuple(rng.randint(-3, 3) for _ in range(d.component_count))
        out.append(FramedLink(d, framings))
    return out
