"""Reference layer: fans other than V_n and the general algorithms.

The production path (`cohomology`, `cones`, `collection`, `windows`,
`cli`) serves only the fans of V_n, through closed forms on slots. This
module keeps the general algorithms those closed forms replace, as the
cross-check for the tests and as the home for other fans:

- `GenericFan`, a complete simplicial fan given by its maximal cones, and
  `build_Pn`, projective space as such a fan;
- `primitive_collections` by brute force over ray subsets;
- `cohomology`, which enumerates every ray subset and counts the lattice
  points of each character region with the exact LP of `polyhedra`;
- `enumerate_forbidden` over unions of primitive collections or over all
  ray subsets, `in_forbidden_cone` as an LP feasibility test, and the
  `forbidden_witness` walk with the certificates built on it.

Every function reads a fan only through `rank`, `rays`, `nrays` and
`is_face`, so it also takes the production `Fan` of a V_n. Divisors are
per-ray coefficient sequences; a DivisorClass raises ValueError. The
production path never imports this module or `polyhedra`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .cohomology import (
    GradedCohomology,
    TorsionEncountered,
    UnboundedRegionWithHomology,
    _subcomplex_homology,
)
from .cones import ForbiddenConeSpec
from .picard import DivisorClass
from .polyhedra import coordinate_range, feasible, lattice_points, polyhedron


@dataclass(frozen=True)
class GenericFan:
    """A complete simplicial fan given by its rays and maximal cones."""

    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[frozenset, ...]

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def is_face(self, indices) -> bool:
        """Whether the given ray indices lie in one maximal cone."""
        s = frozenset(indices)
        if not s:
            return True
        if not all(0 <= i < self.nrays for i in s):
            raise ValueError(f"ray indices {sorted(s)} not all in 0..{self.nrays - 1}")
        return any(s <= cone for cone in self.max_cones)


def build_Pn(n: int) -> GenericFan:
    """The fan of n-dimensional projective space."""
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [frozenset(c) for c in combinations(range(n + 1), n)]
    return GenericFan(n, tuple(rays), tuple(cones))


def _require_small(fan, limit: int, what: str) -> None:
    if fan.nrays > limit:
        raise ValueError(f"{what} needs at most {limit} rays, got {fan.nrays}")


def primitive_collections(fan) -> list[frozenset]:
    """Minimal sets of rays that do not span a cone, sorted by size."""
    _require_small(fan, 16, "the brute-force search")
    out = []
    for size in range(1, fan.nrays + 1):
        for cand in combinations(range(fan.nrays), size):
            if fan.is_face(cand):
                continue
            if all(fan.is_face(cand[:i] + cand[i + 1 :]) for i in range(size)):
                out.append(frozenset(cand))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _coefficients(fan, divisor) -> tuple[int, ...]:
    if isinstance(divisor, DivisorClass):
        raise ValueError("divisor classes need the centrally symmetric basis of V_n "
                         "and its production path; pass per-ray coefficients")
    coeffs = tuple(map(int, divisor))
    if len(coeffs) != fan.nrays:
        raise ValueError(f"{len(coeffs)} coefficients for {fan.nrays} rays")
    return coeffs


def _region_rows(fan, rays, coeffs):
    """Closed rows of the character region of a ray pattern."""
    return [((tuple(-x for x in ray), coeffs[i] + 1) if i in rays
             else (ray, -coeffs[i])) for i, ray in enumerate(fan.rays)]


def cohomology(fan, divisor) -> GradedCohomology:
    """All cohomology ranks of O(divisor), one ray subset at a time."""
    coeffs = _coefficients(fan, divisor)
    _require_small(fan, 16, "the subset engine")
    n = fan.rank
    h = [0] * (n + 1)
    for mask in range(1 << fan.nrays):
        inside = [i for i in range(fan.nrays) if mask >> i & 1]
        ranks, torsion = _subcomplex_homology(fan, inside)
        if not any(ranks) and not torsion:
            continue
        region = polyhedron(n, _region_rows(fan, inside, coeffs))
        spans = [coordinate_range(region, j) for j in range(n)]
        if "empty" in spans:
            continue
        if any(lo is None or hi is None for lo, hi in spans):
            raise UnboundedRegionWithHomology(f"ray subset {inside}")
        count = len(lattice_points(region))
        if not count:
            continue
        if torsion:
            warnings.warn(f"torsion at ray subset {inside}", TorsionEncountered)
        for p, r in enumerate(ranks):
            h[p] += count * r
    return GradedCohomology(tuple(h))


@lru_cache(maxsize=8)
def enumerate_forbidden(fan, restrict_to_primitive_unions: bool = True):
    """All homologically visible ray patterns, as ForbiddenConeSpec objects.

    With the default restriction the patterns run over unions of primitive
    collections, which is exhaustive: any other ray set has a contractible
    subcomplex. Passing False enumerates every ray subset instead, which
    exists to validate that claim.
    """
    _require_small(fan, 12, "subset enumeration")
    candidates = [frozenset(i for i in range(fan.nrays) if mask >> i & 1)
                  for mask in range(1 << fan.nrays)]
    if restrict_to_primitive_unions:
        collections = primitive_collections(fan)
        candidates = [s for s in candidates
                      if s == frozenset().union(*(p for p in collections if p <= s))]
    out = []
    for s in candidates:
        profile, _ = _subcomplex_homology(fan, s)
        if any(profile):
            out.append(ForbiddenConeSpec(s, profile))
    out.sort(key=lambda spec: (len(spec.rays), sorted(spec.rays)))
    return tuple(out)


def in_forbidden_cone(fan, spec: ForbiddenConeSpec, divisor) -> bool:
    """Whether the pattern's closed character region has a real point (LP)."""
    coeffs = _coefficients(fan, divisor)
    return feasible(polyhedron(fan.rank, _region_rows(fan, spec.rays, coeffs)))


def forbidden_witness(fan, divisor, higher_only: bool = False):
    """First forbidden cone hit by the divisor, or None if all are avoided."""
    coeffs = _coefficients(fan, divisor)
    for spec in enumerate_forbidden(fan):
        if higher_only and not spec.rays:
            continue
        if in_forbidden_cone(fan, spec, coeffs):
            return spec
    return None


def certify_acyclic(fan, divisor) -> bool:
    """True guarantees every cohomology group of O(divisor) vanishes."""
    return forbidden_witness(fan, divisor) is None


def certify_higher_acyclic(fan, divisor) -> bool:
    """True guarantees H^p(O(divisor)) = 0 for all p >= 1."""
    return forbidden_witness(fan, divisor, higher_only=True) is None
