"""The fan of V_n: faces, primitive collections, induced subcomplexes, circuits.

The dimension-n centrally symmetric fan has 2(n+1) rays indexed in a fixed
order: e_0 = (-1, ..., -1), e_i = the i-th standard vector for 1 <= i <= n,
followed by their negatives ebar_0, ..., ebar_n. Maximal cones are spanned
by {e_i : i in A} and {ebar_i : i in B} for disjoint slot sets A, B of size
n/2 each, giving (n+1)! / ((n/2)!)^2 cones. Rays come in antipodal pairs
(index i versus i + n + 1), and a subset of rays spans a cone exactly when
it avoids every antipodal pair and uses at most n/2 slots on each side.

`Fan` is this fan and no other. Its face test, antipodes and primitive
collections are closed forms, so the maximal cones are listed only when
something reads them. Other fans live in `toric_exc.reference`;
`complex_CI`, `circuits` and `circuit_relation` read only `rank`, `rays`
and `is_face`, so they serve those fans as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .linalg import kernel_basis, rank
from .simplicial import SimplicialComplex


class OddDimension(Exception):
    """The centrally symmetric family is only defined in even dimensions."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"dimension must be even, got {n}")


@dataclass(frozen=True)
class Fan:
    """The fan of V_n, for the even dimension n = rank >= 2."""

    rank: int

    def __post_init__(self):
        if self.rank % 2:
            raise OddDimension(self.rank)
        if self.rank < 2:
            raise ValueError(f"dimension must be at least 2, got {self.rank}")

    @property
    def slots(self) -> int:
        """Number of antipodal ray pairs; the rays i and i + slots share slot i."""
        return self.rank + 1

    @property
    def nrays(self) -> int:
        return 2 * self.slots

    @cached_property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        plus = [tuple(-1 for _ in range(n))]
        for i in range(1, n + 1):
            plus.append(tuple(1 if j == i - 1 else 0 for j in range(n)))
        return tuple(plus + [tuple(-x for x in r) for r in plus])

    @cached_property
    def max_cones(self) -> tuple[frozenset, ...]:
        half = self.slots
        cones = []
        for a_set in combinations(range(half), self.rank // 2):
            rest = [i for i in range(half) if i not in a_set]
            for b_set in combinations(rest, self.rank // 2):
                cones.append(frozenset(a_set) | frozenset(i + half for i in b_set))
        cones.sort(key=sorted)
        return tuple(cones)

    def antipode(self, i: int) -> int:
        if not 0 <= i < self.nrays:
            raise ValueError(f"ray {i} not in 0..{self.nrays - 1}")
        half = self.slots
        return i - half if i >= half else i + half

    def is_face(self, indices) -> bool:
        """Whether the given ray indices span a cone of the fan."""
        s = frozenset(indices)
        if not s:
            return True
        if not all(0 <= i < self.nrays for i in s):
            raise ValueError(f"ray indices {sorted(s)} not all in 0..{self.nrays - 1}")
        half = self.slots
        plus = {i for i in s if i < half}
        minus = {i - half for i in s if i >= half}
        if plus & minus:
            return False
        cap = self.rank // 2
        return len(plus) <= cap and len(minus) <= cap


def require_Vn(fan) -> None:
    """Raise ValueError unless fan is a `Fan`, the fan of some V_n."""
    if not isinstance(fan, Fan):
        raise ValueError(
            f"{type(fan).__name__} is not the centrally symmetric fan of a V_n; "
            "other fans are served by toric_exc.reference")


def build_Vn(n: int) -> Fan:
    """The n-dimensional centrally symmetric fan; n must be even and >= 2."""
    return Fan(n)


def primitive_collections(fan: Fan) -> list[frozenset]:
    """Minimal sets of rays that do not span a cone, sorted by size.

    These are the antipodal pairs and the (n/2 + 1)-sets of rays on one side.
    """
    require_Vn(fan)
    half = fan.slots
    k = fan.rank // 2 + 1
    out = [frozenset({i, i + half}) for i in range(half)]
    out += [frozenset(c) for c in combinations(range(half), k)]
    out += [frozenset(i + half for i in c) for c in combinations(range(half), k)]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def complex_CI(fan: Fan, indices) -> SimplicialComplex:
    """The subcomplex of the fan induced on a set of ray indices.

    Vertices keep their ray indices; a subset is a face exactly when it
    spans a cone of the fan.
    """
    elems = sorted(set(indices))
    faces = [frozenset()]
    stack = [((), -1)]
    while stack:
        current, pos = stack.pop()
        for q in range(pos + 1, len(elems)):
            ext = current + (elems[q],)
            if fan.is_face(ext):
                faces.append(frozenset(ext))
                stack.append((ext, q))
    return SimplicialComplex(frozenset(faces))


def circuits(fan: Fan) -> list[frozenset]:
    """Minimal linearly dependent sets of rays, sorted by size.

    Walks sorted independent subsets depth-first, carrying an echelon basis
    so each extension costs one reduction; a dependent extension is kept
    when dropping any single element leaves an independent set.
    """
    rays = [tuple(Fraction(x) for x in r) for r in fan.rays]
    m = len(rays)
    found = []
    stack = [((), [])]
    while stack:
        current, basis = stack.pop()
        start = current[-1] + 1 if current else 0
        for j in range(start, m):
            vec = _reduce_against(rays[j], basis)
            pivot = next((p for p, x in enumerate(vec) if x), None)
            if pivot is not None:
                inv = Fraction(1) / vec[pivot]
                row = tuple(x * inv for x in vec)
                stack.append((current + (j,), basis + [(pivot, row)]))
            else:
                cand = current + (j,)
                vs = [rays[i] for i in cand]
                if all(
                    rank([v for t, v in enumerate(vs) if t != drop]) == len(cand) - 1
                    for drop in range(len(cand))
                ):
                    found.append(frozenset(cand))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _reduce_against(vec, basis):
    v = list(vec)
    for pivot, row in basis:
        if v[pivot]:
            f = v[pivot]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def circuit_relation(fan: Fan, circuit) -> tuple[int, ...]:
    """Primitive integer dependence among the circuit's rays.

    Coefficients align with the sorted circuit indices; the kernel of the
    ray matrix is one-dimensional for a genuine circuit.
    """
    idx = sorted(circuit)
    matrix = [[fan.rays[i][r] for i in idx] for r in range(fan.rank)]
    basis = kernel_basis(matrix)
    if len(basis) != 1:
        raise ValueError(f"{idx} is not a circuit: its dependence space "
                         f"has dimension {len(basis)}")
    return basis[0]
