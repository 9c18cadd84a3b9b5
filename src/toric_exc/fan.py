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
something reads them. Slot permutations act on it by lattice
automorphisms, so a ray set is determined up to symmetry by its slot
class: the numbers of pair, plus-only and minus-only slots it uses.
`Fan.class_rays` builds one representative per class for the wall
check, and `circuit_relation` reads a circuit's relation off its shape.
No command loads `linalg` or `simplicial`: the pattern homology and the
circuit relations are closed forms. The generic `complex_CI` and `circuits`
(with its helper `_reduce_against`) read only `rank`, `rays` and
`is_face`; they stay here only because the benchmark's tracer binds them,
and the tests compare the closed forms with them. Other fans live in
`toric_exc.reference`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .record import Record


class OddDimension(Exception):
    """The centrally symmetric family is only defined in even dimensions."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"dimension must be even, got {n}")


class Fan(Record):
    """The fan of V_n, for the even dimension n = rank >= 2.

    The cached properties live in the instance `__dict__` beside `rank`.
    """

    _fields = ("rank",)

    def __init__(self, rank: int):
        if rank % 2:
            raise OddDimension(rank)
        if rank < 2:
            raise ValueError(f"dimension must be at least 2, got {rank}")
        object.__setattr__(self, "rank", rank)

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

    def class_rays(self, pairs: int, nplus: int, nminus: int) -> tuple[int, ...]:
        """Sorted ray indices of the representative of a slot class.

        The first `pairs` slots hold both of their rays, the next `nplus`
        slots their plus ray and the next `nminus` slots their minus ray.
        Slot permutations act on the fan by lattice automorphisms, so this
        set stands for every ray set with the same three slot counts.
        """
        half = self.slots
        if min(pairs, nplus, nminus) < 0 or pairs + nplus + nminus > half:
            raise ValueError(f"slot counts ({pairs}, {nplus}, {nminus}) do not fit "
                             f"in {half} slots")
        plus_end = pairs + nplus
        minus_slots = [*range(pairs), *range(plus_end, plus_end + nminus)]
        return tuple(range(plus_end)) + tuple(i + half for i in minus_slots)

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
    from .simplicial import SimplicialComplex  # reference only: keep it off the command path

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
    from fractions import Fraction  # reference only: keep these off the command path

    from .linalg import rank

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
                vs = [fan.rays[i] for i in cand]
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
    """Primitive integer dependence among the circuit's rays, in closed form.

    Coefficients align with the sorted indices: (1, 1) for an antipodal
    pair, and for one ray per slot +1 on each plus ray and -1 on each minus
    ray, or all 1 with no plus ray. These are the circuits
    (`windows._circuit_classes`); anything else, a repeated index or one
    outside 0..2n+1 raises ValueError. Proof: a ray and its antipode sum to
    zero, and the plus rays less the minus rays of a slot choice sum to
    e_0 + ... + e_n = 0. Entries +-1 make these primitive, a circuit's
    relations form a line, and the sorted plus rays come first, so this is
    the sign with the first entry positive, exact elimination's.
    """
    require_Vn(fan)
    idx = sorted(circuit)
    half = fan.slots
    if len(set(idx)) != len(idx) or not all(0 <= i < 2 * half for i in idx):
        raise ValueError(f"ray indices {idx} are not distinct and in 0..{2 * half - 1}")
    slots = len({i % half for i in idx})
    if len(idx) == 2 and slots == 1:
        return (1, 1)
    if len(idx) == slots == half:  # +1 on the side of the first ray
        return tuple(1 if (i < half) == (idx[0] < half) else -1 for i in idx)
    raise ValueError(f"{idx} is not a circuit: neither an antipodal pair nor one ray per slot")
