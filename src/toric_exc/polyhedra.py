"""Rational polyhedra: exact feasibility and lattice point enumeration.

Constraints are linear inequalities ``coeffs . x >= bound`` (optionally
strict) with Fraction coefficients. Feasibility runs a two-phase simplex
with Bland's rule over exact rationals, so there is no cycling and no
rounding. Strict systems are decided by maximizing a slack margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class Unbounded(Exception):
    """A coordinate of the polyhedron has no finite bound."""

    def __init__(self, coordinate: int):
        self.coordinate = coordinate
        super().__init__(f"polyhedron is unbounded in coordinate {coordinate}")


@dataclass(frozen=True)
class Constraint:
    """coeffs . x >= bound, with > instead when strict."""

    coeffs: tuple[Fraction, ...]
    bound: Fraction
    strict: bool = False

    def holds(self, point: Sequence[int | Fraction]) -> bool:
        value = sum(c * x for c, x in zip(self.coeffs, point))
        return value > self.bound if self.strict else value >= self.bound


@dataclass(frozen=True)
class RationalPolyhedron:
    dim: int
    constraints: tuple[Constraint, ...]

    def contains(self, point: Sequence[int | Fraction]) -> bool:
        if len(point) != self.dim:
            raise ValueError(f"point of length {len(point)} in dimension {self.dim}")
        return all(c.holds(point) for c in self.constraints)


def constraint(coeffs: Iterable, bound, strict: bool = False) -> Constraint:
    return Constraint(tuple(Fraction(c) for c in coeffs), Fraction(bound), strict)


def polyhedron(dim: int, rows: Iterable) -> RationalPolyhedron:
    """Build a polyhedron from (coeffs, bound) or (coeffs, bound, strict) rows."""
    cons = []
    for row in rows:
        coeffs, bound, *rest = row
        coeffs = tuple(coeffs)
        strict = rest[0] if rest else False
        if len(coeffs) != dim:
            raise ValueError(f"row with {len(coeffs)} coefficients in dimension {dim}")
        cons.append(constraint(coeffs, bound, strict))
    return RationalPolyhedron(dim, tuple(cons))


def equality_rows(coeffs: Iterable, bound) -> list[tuple]:
    """Two inequality rows expressing coeffs . x == bound."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    bound = Fraction(bound)
    return [(coeffs, bound), (tuple(-c for c in coeffs), -bound)]


# -- simplex core ------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows, basis, leave, enter):
    row = rows[leave]
    inv = _ONE / row[enter]
    rows[leave] = [x * inv for x in row]
    for i, other in enumerate(rows):
        if i != leave and other[enter]:
            f = other[enter]
            base = rows[leave]
            rows[i] = [x - f * y for x, y in zip(other, base)]
    basis[leave] = enter


def _run_simplex(rows, basis, ncols):
    """Maximize the objective in the last row; Bland's rule, exact pivots."""
    while True:
        obj = rows[-1]
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i in range(len(rows) - 1):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(rows, basis, leave, enter)


def solve_lp(a_rows, b, objective):
    """Maximize objective . z subject to a_rows z = b, z >= 0.

    Returns (status, value) with status one of "optimal", "unbounded",
    "infeasible"; value is the exact optimum when status is "optimal".
    """
    m = len(a_rows)
    n = len(objective)
    rows = []
    for i in range(m):
        r = [Fraction(x) for x in a_rows[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            r = [-x for x in r]
            rhs = -rhs
        rows.append(r + [_ZERO] * m + [rhs])
    for i in range(m):
        rows[i][n + i] = _ONE
    basis = [n + i for i in range(m)]
    # phase 1: maximize minus the sum of artificials
    obj = [_ZERO] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] += rows[i][j]
    for i in range(m):
        obj[n + i] = _ZERO
    rows.append(obj)
    _run_simplex(rows, basis, n + m)
    if rows[-1][-1] != 0:
        return "infeasible", None
    rows.pop()
    # drive surviving artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j]), None)
            if enter is not None:
                _pivot(rows, basis, i, enter)
    keep = [i for i in range(m) if basis[i] < n]
    rows = [[rows[i][j] for j in range(n)] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2; objective row stores reduced costs with rhs = -(current value)
    obj = [Fraction(c) for c in objective] + [_ZERO]
    for i, bj in enumerate(basis):
        f = Fraction(objective[bj])
        if f:
            obj = [x - f * y for x, y in zip(obj, rows[i])]
    rows.append(obj)
    status = _run_simplex(rows, basis, n)
    if status == "unbounded":
        return "unbounded", None
    return "optimal", -rows[-1][-1]


def _standard_form(poly: RationalPolyhedron, margin: bool):
    """Encode the polyhedron in equality standard form.

    Free coordinates are split into positive parts; every inequality gets a
    slack. With margin=True a variable t in [0,1] is subtracted from each
    strict inequality, so the system is strictly feasible iff max t > 0.
    """
    d = poly.dim
    m = len(poly.constraints)
    t_col = 2 * d
    nvars = 2 * d + (1 if margin else 0) + m + (1 if margin else 0)
    a_rows = []
    b = []
    slack0 = 2 * d + (1 if margin else 0)
    for i, con in enumerate(poly.constraints):
        row = [_ZERO] * nvars
        for j, c in enumerate(con.coeffs):
            row[j] = c
            row[d + j] = -c
        if margin and con.strict:
            row[t_col] = -_ONE
        row[slack0 + i] = -_ONE
        a_rows.append(row)
        b.append(con.bound)
    if margin:
        row = [_ZERO] * nvars
        row[t_col] = _ONE
        row[slack0 + m] = _ONE
        a_rows.append(row)
        b.append(_ONE)
    return a_rows, b, nvars, t_col


def feasible(poly: RationalPolyhedron) -> bool:
    """Exact feasibility, honoring strict inequalities."""
    has_strict = any(c.strict for c in poly.constraints)
    a_rows, b, nvars, t_col = _standard_form(poly, margin=has_strict)
    if not has_strict:
        objective = [_ZERO] * nvars
        status, _ = solve_lp(a_rows, b, objective)
        return status != "infeasible"
    objective = [_ZERO] * nvars
    objective[t_col] = _ONE
    status, value = solve_lp(a_rows, b, objective)
    if status == "infeasible":
        return False
    if status != "optimal":  # t <= 1 keeps the objective bounded
        raise RuntimeError(f"margin LP is {status}")
    return value > 0


def coordinate_range(poly: RationalPolyhedron, j: int):
    """Exact (min, max) of coordinate j over the closure; None marks unbounded.

    Returns "empty" when the closure is infeasible.
    """
    a_rows, b, nvars, _ = _standard_form(poly, margin=False)
    lohi = []
    for sense in (-1, 1):
        objective = [_ZERO] * nvars
        objective[j] = Fraction(sense)
        objective[poly.dim + j] = Fraction(-sense)
        status, value = solve_lp(a_rows, b, objective)
        if status == "infeasible":
            return "empty"
        lohi.append(None if status == "unbounded" else sense * value)
    return lohi[0], lohi[1]


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def lattice_points(poly: RationalPolyhedron) -> list[tuple[int, ...]]:
    """All integer points of a bounded polyhedron, lexicographically sorted.

    Raises Unbounded(j) when coordinate j has no finite bound (checked on
    the closure, before any strictness filtering).
    """
    d = poly.dim
    box = []
    for j in range(d):
        rng = coordinate_range(poly, j)
        if rng == "empty":
            return []
        lo, hi = rng
        if lo is None or hi is None:
            raise Unbounded(j)
        box.append((_ceil(lo), _floor(hi)))
    if any(lo > hi for lo, hi in box):
        return []

    out = []
    point = [0] * d

    def descend(k: int):
        if k == d:
            if poly.contains(point):
                out.append(tuple(point))
            return
        lo, hi = box[k]
        lo_f, hi_f = Fraction(lo), Fraction(hi)
        # tighten with constraints using interval arithmetic on open coords
        for con in poly.constraints:
            ck = con.coeffs[k]
            if not ck:
                continue
            residual = con.bound
            for j, c in enumerate(con.coeffs):
                if j == k or not c:
                    continue
                if j < k:
                    residual -= c * point[j]
                else:
                    blo, bhi = box[j]
                    residual -= c * (bhi if c > 0 else blo)
            # ck * x_k >= residual
            if ck > 0:
                lo_f = max(lo_f, residual / ck)
            else:
                hi_f = min(hi_f, residual / ck)
        for v in range(max(lo, _ceil(lo_f)), min(hi, _floor(hi_f)) + 1):
            point[k] = v
            descend(k + 1)

    descend(0)
    return out
