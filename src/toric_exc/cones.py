"""Forbidden cones: regions of the Picard lattice with visible cohomology.

Cohomology of O(D) decomposes over ray patterns I; only patterns whose
induced subcomplex has reduced homology can contribute. For each such
pattern the divisors whose character region is nonempty over the reals
form a cone in the Picard lattice, and a divisor avoiding every cone is
certified acyclic. The real relaxation is one-sided by design: a miss
proves vanishing, a hit proves nothing.

Membership is tested with closed inequalities. The boundary matters: on
the hexagon the class -H - E_0 + E_1 + E_2 has h^1 = 1 carried by a
single character sitting exactly on the boundary of a pair cone, so a
strict test would wrongly certify it acyclic. The strict variant is kept
as an explicit option only.

The inequality predicates at the bottom certify vanishing for every
member of a whole (c, k, l) family at once, with no region sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .cohomology import _pattern_homology
from .fan import Fan, complex_CI, primitive_collections
from .picard import DivisorClass, ray_coefficients
from .polyhedra import feasible, polyhedron
from .simplicial import reduced_homology


class HypothesisViolated(Exception):
    """Family parameters outside the stated hypotheses of the predicate."""


@dataclass(frozen=True)
class ForbiddenConeSpec:
    """One contributing ray pattern and its cohomology profile."""

    rays: frozenset
    profile: tuple[int, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p for p, r in enumerate(self.profile) if r)


def _profile_of(fan: Fan, rays) -> tuple[int, ...]:
    hom = reduced_homology(complex_CI(fan, rays))
    ranks = [0] * (fan.rank + 1)
    for degree, (rank, _) in hom.items():
        if 0 <= degree + 1 <= fan.rank:
            ranks[degree + 1] = rank
    return tuple(ranks)


@lru_cache(maxsize=8)
def enumerate_forbidden(fan: Fan, restrict_to_primitive_unions: bool = True):
    """All homologically visible ray patterns, as ForbiddenConeSpec objects.

    With the default restriction the patterns run over unions of primitive
    collections, which is exhaustive: any other ray set has a contractible
    subcomplex. Passing False enumerates every ray subset instead, which
    is only feasible for small fans and exists to validate the claim.
    """
    if restrict_to_primitive_unions and fan.kind == "centrally-symmetric":
        return _symmetric_specs(fan)
    if restrict_to_primitive_unions:
        assert fan.nrays <= 12, "primitive-union enumeration needs a small fan"
        collections = primitive_collections(fan)
        candidates = []
        for mask in range(1 << fan.nrays):
            s = frozenset(i for i in range(fan.nrays) if mask >> i & 1)
            inside = [p for p in collections if p <= s]
            covered = frozenset().union(*inside) if inside else frozenset()
            if s == covered:
                candidates.append(s)
        return _filter_visible(fan, candidates)
    assert fan.nrays <= 12, "subset enumeration needs a small fan"
    candidates = [
        frozenset(i for i in range(fan.nrays) if mask >> i & 1)
        for mask in range(1 << fan.nrays)
    ]
    return _filter_visible(fan, candidates)


def _filter_visible(fan, candidates):
    out = []
    for s in candidates:
        profile = _profile_of(fan, s)
        if any(profile):
            out.append(ForbiddenConeSpec(s, profile))
    out.sort(key=lambda spec: (len(spec.rays), sorted(spec.rays)))
    return tuple(out)


def _symmetric_specs(fan: Fan):
    """Closed-form union-of-primitive-collections enumeration by slots.

    A union assigns each slot one of: untouched, full pair, plus ray only,
    minus ray only. One-sided rays need a one-sided collection inside the
    set, so each used side must reach n/2 + 1 slots counting the pairs.
    """
    half = fan.slots
    need = fan.rank // 2 + 1
    out = []
    slots = range(half)
    for p in range(half + 1):
        for pair_set in combinations(slots, p):
            rest = [i for i in slots if i not in pair_set]
            for a in range(len(rest) + 1):
                if a and p + a < need:
                    continue
                for plus_set in combinations(rest, a):
                    rest2 = [i for i in rest if i not in plus_set]
                    for b in range(len(rest2) + 1):
                        if b and p + b < need:
                            continue
                        profile = _pattern_homology(fan.rank, p, a, b)[0]
                        if not any(profile):
                            continue
                        for minus_set in combinations(rest2, b):
                            rays = frozenset(pair_set) \
                                | frozenset(i + half for i in pair_set) \
                                | frozenset(plus_set) \
                                | frozenset(i + half for i in minus_set)
                            out.append(ForbiddenConeSpec(rays, profile))
    out.sort(key=lambda spec: (len(spec.rays), sorted(spec.rays)))
    return tuple(out)


def in_forbidden_cone(fan: Fan, spec: ForbiddenConeSpec, divisor, strict: bool = False) -> bool:
    """Whether the divisor's character region for this pattern has a real point.

    Closed inequalities by default; strict=True uses the open version,
    which is unsound as a vanishing certificate (see the module docstring).
    """
    if isinstance(divisor, DivisorClass):
        assert fan.kind == "centrally-symmetric"
        coeffs = ray_coefficients(fan.rank, divisor)
    else:
        coeffs = tuple(int(x) for x in divisor)
    assert len(coeffs) == fan.nrays
    if fan.kind == "centrally-symmetric" and not strict:
        return _interval_hit(fan, spec.rays, coeffs)
    rows = []
    for i in range(fan.nrays):
        if i in spec.rays:
            rows.append((tuple(-x for x in fan.rays[i]), coeffs[i] + 1, strict))
        else:
            rows.append((fan.rays[i], -coeffs[i], strict))
    return feasible(polyhedron(fan.rank, rows))


def _interval_hit(fan: Fan, rays, coeffs) -> bool:
    """Exact real feasibility through per-slot intervals; O(n)."""
    half = fan.slots
    lo_total = 0
    hi_total = 0
    lo_open = hi_open = False
    for i in range(half):
        ap, am = coeffs[i], coeffs[i + half]
        e_in = i in rays
        m_in = (i + half) in rays
        if e_in and m_in:
            lo, hi = am + 1, -ap - 1
        elif e_in:
            lo, hi = None, min(-ap - 1, am)
        elif m_in:
            lo, hi = max(-ap, am + 1), None
        else:
            lo, hi = -ap, am
        if lo is not None and hi is not None and lo > hi:
            return False
        if lo is None:
            lo_open = True
        else:
            lo_total += lo
        if hi is None:
            hi_open = True
        else:
            hi_total += hi
    ok_lo = lo_open or lo_total <= 0
    ok_hi = hi_open or hi_total >= 0
    return ok_lo and ok_hi


def forbidden_witness(fan: Fan, divisor, higher_only: bool = False):
    """First forbidden cone hit by the divisor, or None if all are avoided."""
    for spec in enumerate_forbidden(fan):
        if higher_only and not spec.rays:
            continue
        if in_forbidden_cone(fan, spec, divisor):
            return spec
    return None


def certify_acyclic(fan: Fan, divisor) -> bool:
    """True guarantees every cohomology group of O(divisor) vanishes."""
    return forbidden_witness(fan, divisor) is None


def certify_higher_acyclic(fan: Fan, divisor) -> bool:
    """True guarantees H^p(O(divisor)) = 0 for all p >= 1; h^0 is unconstrained."""
    return forbidden_witness(fan, divisor, higher_only=True) is None


# -- family-level inequality predicates ---------------------------------------


def _check_shape(n: int, k: int, ell: int):
    if k < 0 or ell < 0 or k + ell > n + 1:
        raise HypothesisViolated(f"invalid family shape ({k}, {ell}) in dimension {n}")


def lemma_acyclic_predicate(n: int, c: int, k: int, ell: int) -> bool:
    """Full-vanishing certificate for every member of the (c, k, l) family.

    Requires k <= l and (c, k, l) != (0, 0, 0); outside those hypotheses
    the question is not posed and HypothesisViolated is raised. A True
    answer means every cohomology group of every member vanishes.
    """
    _check_shape(n, k, ell)
    if k > ell:
        raise HypothesisViolated(f"predicate needs k <= l, got ({k}, {ell})")
    if (c, k, ell) == (0, 0, 0):
        raise HypothesisViolated("the trivial class is never acyclic")
    if ell <= n // 2:
        return -(n // 2) + ell <= c <= n // 2 - k
    return 1 <= c <= ell - k - 1


def higher_acyclic_predicate(n: int, c: int, k: int, ell: int) -> bool:
    """Positive-degree vanishing certificate for the whole (c, k, l) family.

    No constraint relating k and l; a True answer means h^p = 0 for all
    p >= 1 for every member, leaving h^0 free.
    """
    _check_shape(n, k, ell)
    half = n // 2
    if ell >= half + 1:
        plus_ok = c >= 1
    elif k <= half:
        plus_ok = c >= ell - half
    else:
        plus_ok = c >= ell - k
    if ell >= half + 1:
        minus_ok = c <= ell - k - 1
    elif k <= half:
        minus_ok = c <= half - k
    else:
        minus_ok = c <= 0
    return plus_ok and minus_ok
