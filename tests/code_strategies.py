"""Helpers shared by the tests: hypothesis strategies for random crossing
codes, an edge relabelling, and the randomised handle-slide suite."""

import random

from hypothesis import strategies as st

from satkit.catalog import random_framed_links
from satkit.diagram import Diagram
from satkit.surgery import BandArc, h1, handle_slide


def relabeled(d, mapping):
    """``d`` with an edge-label bijection applied."""
    cr = tuple(tuple(mapping[e] for e in x) for x in d.crossings)
    comps = tuple(tuple(mapping[e] for e in cyc) for cyc in d.components)
    return Diagram(cr, comps, d.names)


def kirby_move_suite(slide_count=200, seed=20260808):
    """Randomised handle slides preserve the homology exactly: one case
    dict {"name", "ok", "detail"} per slide, as the property suites give."""
    rng = random.Random(seed)
    out = []
    for index, fl in enumerate(random_framed_links(slide_count, rng)):
        n = fl.diagram.component_count
        i = rng.randrange(n)
        j = (i + rng.randrange(1, n)) % n
        orientation = rng.choice([1, -1])
        before = h1(fl).invariant_factors
        out_fl = handle_slide(fl, i, j, BandArc(orientation=orientation, over=rng.random() < 0.5))
        after = h1(out_fl).invariant_factors
        out.append({"name": f"slide-{index}", "ok": before == after, "detail": f"{before} -> {after}"})
    return out


@st.composite
def random_codes(draw):
    """0-4 crossings over a small label pool, which sometimes starts at 0
    or -1, and a random split of the labels into paths.  Most of these
    codes are not valid diagrams."""
    n = draw(st.integers(min_value=0, max_value=4))
    low = draw(st.sampled_from([1, 1, 1, 0, -1]))
    pool = st.sampled_from(range(low, low + 2 * n + 2))
    slots = draw(st.lists(pool, min_size=4 * n, max_size=4 * n))
    crossings = tuple(tuple(slots[4 * i:4 * i + 4]) for i in range(n))
    labels = {e for x in crossings for e in x} | set(draw(st.lists(pool, min_size=1, max_size=2)))
    labels = draw(st.permutations(sorted(labels)))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=len(labels)), max_size=3))
    bounds = sorted({0, len(labels), *cuts})
    paths = tuple(tuple(labels[a:b]) for a, b in zip(bounds, bounds[1:]))
    return crossings, paths


@st.composite
def valid_codes(draw, max_crossings=6):
    """A valid closed code, planar or not, as (crossings, components).

    Each crossing gets a sign, which fixes the slots where its strands
    enter (0 and 2 - sign) and leave (2 and 2 + sign).  A random matching
    of leaving slots to entering slots gives the edges, and following it
    gives the component cycles.  Sometimes a free loop is added."""
    n = draw(st.integers(min_value=0, max_value=max_crossings))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    leaving = [(ci, s) for ci in range(n) for s in (2, 2 + signs[ci])]
    entering = draw(st.permutations([(ci, s) for ci in range(n) for s in (0, 2 - signs[ci])]))
    runs_to = dict(zip(leaving, entering))
    crossings = [[0] * 4 for _ in range(n)]
    components = []
    label = 0
    for start in leaving:
        if crossings[start[0]][start[1]]:
            continue
        cycle, cur = [], start
        while not crossings[cur[0]][cur[1]]:
            label += 1
            cycle.append(label)
            (ci, s), (cj, t) = cur, runs_to[cur]
            crossings[ci][s] = crossings[cj][t] = label
            cur = (cj, t ^ 2)
        components.append(tuple(cycle))
    if n == 0 or draw(st.booleans()):
        components.append((label + 1,))
    components = draw(st.permutations(components))
    return tuple(map(tuple, crossings)), tuple(components)
