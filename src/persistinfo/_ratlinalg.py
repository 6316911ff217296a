"""Exact rational linear algebra for small matrices.

Gauss-Jordan elimination over ``fractions.Fraction``; sizes here are at
most a few hundred, where exact elimination is instant and avoids any
eigenvalue drift in places the rest of the package promises exactness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["rational_nullspace"]


def rational_nullspace(A: Sequence[Sequence]) -> list:
    """Basis of the nullspace of A over the rationals.

    Returns a list of tuples of Fractions (possibly empty).  Rows need
    not be independent; entries may be ints or Fractions.
    """
    rows = [[Fraction(x) for x in row] for row in A]
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis

