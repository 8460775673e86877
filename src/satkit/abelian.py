"""Integer Smith normal form and finitely generated abelian groups."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def smith_normal_form(rows, ncols):
    """Diagonal of the Smith normal form of an integer matrix.

    ``rows`` is a list of length-``ncols`` integer lists.  Returns the
    nonnegative diagonal entries d1 | d2 | ... (zeros trimmed).

    Two phases.  Diagonalize: an entry of least magnitude in the block
    below and right of (t, t) moves to (t, t) and reduces its column and
    row by floor division; a remainder is smaller than that pivot, so
    picking again ends.  Normalize: each pair (di, dj), i < j, becomes
    (gcd, lcm), since Z/a + Z/b = Z/gcd + Z/lcm; for every prime this
    sorts the exponents.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    diag = []
    t = 0
    while t < nrows and t < ncols:
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = m[i][j]
                if v and (best is None or abs(v) < best):
                    best, pr, pc = abs(v), i, j
        if best is None:
            break
        m[t], m[pr] = m[pr], m[t]
        for row in m:
            row[t], row[pc] = row[pc], row[t]
        top, *rest = m[t:]
        pivot = top[t]
        for row in rest:
            q = row[t] // pivot
            if q:
                for j in range(t, ncols):
                    row[j] -= q * top[j]
        for j in range(t + 1, ncols):
            q = top[j] // pivot
            if q:
                for row in m[t:]:
                    row[j] -= q * row[t]
        if not any(top[t + 1:]) and not any(row[t] for row in rest):
            diag.append(best)
            t += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant factors d1 | d2 | ..., with 0 for an infinite cyclic summand."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        torsion = [f for f in fs if f != 0]
        if any(f == 1 or f < 0 for f in fs):
            raise ValueError("invariant factors must be 0 or > 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(f == 0 for f in fs) and fs[: fs.index(0)] != tuple(torsion):
            raise ValueError("zero factors must come last")

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.invariant_factors == (0,)

    @staticmethod
    def cyclic(n: int) -> "AbelianGroup":
        n = abs(n)
        if n == 1:
            return AbelianGroup(())
        return AbelianGroup((n,))

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " + ".join("Z" if f == 0 else f"Z/{f}" for f in self.invariant_factors)


def cokernel(rows, ngens) -> AbelianGroup:
    """Z^ngens modulo the row space of the given relation matrix."""
    diag = smith_normal_form(rows, ngens) if rows else []
    torsion = tuple(d for d in diag if d > 1)
    rank = ngens - len(diag)
    return AbelianGroup(torsion + (0,) * rank)
