"""Forbidden cones: regions of the Picard lattice with visible cohomology.

Cohomology of O(D) decomposes over ray patterns I; only patterns whose
induced subcomplex has reduced homology can contribute. For each such
pattern the divisors whose character region is nonempty over the reals
form a cone in the Picard lattice, and a divisor avoiding every cone is
certified acyclic. The real relaxation is one-sided by design: a miss
proves vanishing, a hit proves nothing.

Membership is tested with closed inequalities only. The boundary
matters: on the hexagon the class -H - E_0 + E_1 + E_2 has h^1 = 1
carried by a single character sitting exactly on the boundary of a pair
cone, so a strict test would wrongly certify it acyclic.

On the centrally symmetric fan every slot of a pattern is untouched,
a full pair, a plus ray or a minus ray, and its interval of admissible
values is the one `cohomology._slot_states` gives for that state, so
the region is non-empty exactly when no slot's state is infeasible and
the summed interval ends admit zero. The certificates run the same
slot-class walk as the cohomology engine,
`cohomology._visible_classes`: per coefficient group it chooses how
many slots take each state, enters only choices whose class can still
be a union of primitive collections with a non-empty closed region
(the higher certificate also skips the empty class), and reads the
closed-form homology of `cohomology._pattern_homology` for only the
classes that pass. A divisor is certified when the walk yields nothing.
`enumerate_forbidden`, `in_forbidden_cone` and `forbidden_witness` walk
the ray sets one by one; they name the cone that is hit and serve as
the reference the certificates are tested against. Other fans, and the
LP membership test these are checked against, are in
`toric_exc.reference`.

The inequality predicates at the bottom certify vanishing for every
member of a whole (c, k, l) family at once, with no region sweeps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .cohomology import (
    _MINUS,
    _PLUS,
    _meets,
    _pattern_homology,
    _slot_states,
    _sum_bounds,
    _visible_classes,
    divisor_coefficients,
)
from .fan import Fan, require_Vn
from .record import Record


class HypothesisViolated(Exception):
    """Family parameters outside the stated hypotheses of the predicate."""


class ForbiddenConeSpec(Record):
    """One contributing ray pattern and its cohomology profile."""

    _fields = ("rays", "profile")

    def __init__(self, rays: frozenset, profile: tuple[int, ...]):
        vars(self).update(rays=rays, profile=profile)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p for p, r in enumerate(self.profile) if r)


@lru_cache(maxsize=8)
def enumerate_forbidden(fan: Fan):
    """All homologically visible ray patterns, as ForbiddenConeSpec objects.

    The patterns run over unions of primitive collections, which is
    exhaustive: any other ray set has a contractible subcomplex. A union
    assigns each slot one of: untouched, full pair, plus ray only, minus
    ray only. One-sided rays need a one-sided collection inside the set,
    so each used side must reach n/2 + 1 slots counting the pairs.
    """
    require_Vn(fan)
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
                        profile = _pattern_homology(fan.rank, p, a, b)
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


def in_forbidden_cone(fan: Fan, spec: ForbiddenConeSpec, divisor) -> bool:
    """Whether the divisor's character region for this pattern has a real point.

    The test uses closed inequalities (see the module docstring) on the
    per-slot intervals of `_slot_states`, in O(n). Input of the wrong type
    or length raises ValueError.
    """
    coeffs = divisor_coefficients(fan, divisor)
    half = fan.slots
    los = []
    his = []
    for i in range(half):
        state = _PLUS * (i in spec.rays) + _MINUS * ((i + half) in spec.rays)
        for viable, lo, hi in _slot_states(coeffs[i], coeffs[i + half]):
            if viable == state:
                los.append(lo)
                his.append(hi)
                break
        else:
            return False
    return _meets(_sum_bounds(los), _sum_bounds(his))


def forbidden_witness(fan: Fan, divisor, higher_only: bool = False):
    """First forbidden cone hit by the divisor, or None if all are avoided."""
    coeffs = divisor_coefficients(fan, divisor)
    for spec in enumerate_forbidden(fan):
        if higher_only and not spec.rays:
            continue
        if in_forbidden_cone(fan, spec, coeffs):
            return spec
    return None


def _certify(fan: Fan, divisor, higher_only: bool) -> bool:
    coeffs = divisor_coefficients(fan, divisor)
    return next(_visible_classes(fan.rank, coeffs, higher_only), None) is None


def certify_acyclic(fan: Fan, divisor) -> bool:
    """True guarantees every cohomology group of O(divisor) vanishes."""
    return _certify(fan, divisor, higher_only=False)


def certify_higher_acyclic(fan: Fan, divisor) -> bool:
    """True guarantees H^p(O(divisor)) = 0 for all p >= 1; h^0 is unconstrained."""
    return _certify(fan, divisor, higher_only=True)


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
