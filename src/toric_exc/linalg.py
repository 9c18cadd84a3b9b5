"""Exact linear algebra over the integers.

Everything is computed with Python ints; no floats, and no fractions:
rank and kernels over the rationals come from fraction-free elimination.
The Smith normal form routine is tuned for the sparse, small-entry boundary
matrices that show up in simplicial homology: it peels off unit pivots
sparsely and only falls back to a dense algorithm for the residue. No
command loads this module: the pattern homology table and the circuit
relations are closed forms, and the Smith form on the induced complexes
and `kernel_basis` are the references the tests compare them with.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Sequence


class SmithResult(NamedTuple):
    factors: list[int]
    rank: int


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithResult:
    """Nonzero invariant factors and rank of an integer matrix.

    Parameters
    ----------
    matrix : rows of ints (may be empty, or have zero columns)

    Returns
    -------
    SmithResult
        ``factors`` lists the nonzero invariant factors d_1 | d_2 | ... | d_r
        (all positive), and ``rank`` equals len(factors).
    """
    rows = {}
    cols = {}
    for i, row in enumerate(matrix):
        entries = {j: int(v) for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)

    ones = _peel_unit_pivots(rows, cols)

    # Dense residue: whatever survived has no +-1 entries left.
    residual_factors = _dense_invariant_factors(_compact(rows))

    factors = [1] * ones + residual_factors
    return SmithResult(factors, len(factors))


def _peel_unit_pivots(rows, cols):
    """Eliminate +-1 pivots in place, returning how many were peeled.

    Each peel removes one row and one column; the invariant factors of the
    original matrix are 1 (once per peel) followed by those of the residue.
    """
    count = 0
    while True:
        pivot = _best_unit_pivot(rows, cols)
        if pivot is None:
            return count
        i, j = pivot
        v = rows[i][j]
        if v not in (1, -1):
            raise RuntimeError(f"pivot {v} at ({i}, {j}) is not a unit")
        pivot_row = rows[i]
        for i2 in list(cols[j]):
            if i2 == i:
                continue
            f = rows[i2][j] * v
            target = rows[i2]
            for j2, w in pivot_row.items():
                new = target.get(j2, 0) - f * w
                if new:
                    if j2 not in target:
                        cols.setdefault(j2, set()).add(i2)
                    target[j2] = new
                else:
                    if j2 in target:
                        del target[j2]
                        cols[j2].discard(i2)
            if not target:
                del rows[i2]
        # Column j is now zero off the pivot; drop row i and column j.
        for j2 in pivot_row:
            s = cols.get(j2)
            if s is not None:
                s.discard(i)
                if not s:
                    del cols[j2]
        del rows[i]
        count += 1


def _best_unit_pivot(rows, cols):
    # Markowitz-style: among +-1 entries, least (nnz_row-1)*(nnz_col-1) fill.
    best = None
    best_cost = None
    for i, row in rows.items():
        r = len(row) - 1
        for j, v in row.items():
            if v == 1 or v == -1:
                cost = r * (len(cols[j]) - 1)
                if cost == 0:
                    return (i, j)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = (i, j)
    return best


def _compact(rows):
    """Reindex surviving sparse rows into dense rows over surviving columns."""
    live_cols = sorted({j for r in rows.values() for j in r})
    return [[r.get(j, 0) for j in live_cols] for r in rows.values()]


def _dense_invariant_factors(a):
    """Classical Smith elimination for a small dense integer matrix."""
    a = [list(row) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while t < m and t < n:
        pivot = _smallest_entry(a, t, m, n)
        if pivot is None:
            break
        i0, j0 = pivot
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            p = a[t][t]
            again = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        again = True
                        break
            if again:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        again = True
                        break
            if not again:
                break
        t += 1
    diag = [abs(a[i][i]) for i in range(t) if a[i][i]]
    return _divisibility_chain(diag)


def _smallest_entry(a, t, m, n):
    best = None
    where = None
    for i in range(t, m):
        for j in range(t, n):
            v = a[i][j]
            if v and (best is None or abs(v) < best):
                best = abs(v)
                where = (i, j)
                if best == 1:
                    return where
    return where


def _divisibility_chain(diag):
    """Rebalance a diagonal so d_i | d_{i+1} (gcd/lcm passes)."""
    d = sorted(abs(x) for x in diag if x)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] // g * d[j]
                    changed = True
        d.sort()
    return d


def _row_reduce(matrix: Sequence[Sequence[int]]):
    """Fraction-free Gauss-Jordan elimination: (rows, pivot columns).

    Row r is a nonzero integer multiple of row r of the reduced row echelon
    form over the rationals; a changed row is divided by its gcd.
    """
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pivot_row = a[r]
        p = pivot_row[col]
        for i in range(m):
            f = a[i][col]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(a[i], pivot_row)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == m:
            break
    return a, pivots


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals via fraction-free Gaussian elimination."""
    return len(_row_reduce(matrix)[1])


def kernel_basis(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the rational kernel (column null space)."""
    a, pivots = _row_reduce(matrix)
    n = len(a[0]) if a else 0
    free = [j for j in range(n) if j not in pivots]
    scale = lcm(*(a[r][col] for r, col in enumerate(pivots)))  # clears the pivots
    basis = []
    for j in free:
        v = [0] * n
        v[j] = scale
        for r, col in enumerate(pivots):
            v[col] = -a[r][j] * scale // a[r][col]
        basis.append(primitive_vector(v))
    return basis


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a rational vector (ints or Fractions) to a primitive integer vector.

    The sign is normalized so the first nonzero entry is positive.
    """
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = gcd(*ints) or 1
    ints = [x // g for x in ints]
    first = next((x for x in ints if x), 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)
