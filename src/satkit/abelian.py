"""Integer Smith normal form and finitely generated abelian groups."""

from __future__ import annotations

from dataclasses import dataclass


def smith_normal_form(rows, ncols):
    """Diagonal of the Smith normal form of an integer matrix.

    ``rows`` is a list of length-``ncols`` integer lists.  Returns the
    nonnegative diagonal entries d1 | d2 | ... (zeros trimmed).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    diag = []
    t = 0
    while t < nrows and t < ncols:
        # find the entry of least magnitude in the remaining block
        pr = pc = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best, pr, pc = abs(v), i, j
        if best is None:
            break
        m[t], m[pr] = m[pr], m[t]
        for row in m:
            row[t], row[pc] = row[pc], row[t]
        while True:
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // pivot
                    for j in range(t, ncols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // pivot
                    for i in range(t, nrows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot
        pivot = m[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, ncols):
                m[t][j] += m[offender][j]
            continue
        diag.append(abs(pivot))
        t += 1
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
