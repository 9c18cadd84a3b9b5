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
a full pair, a plus ray or a minus ray. `cohomology._slot_intervals`
gives a slot's plus, minus and third interval of admissible values, the
third for the pair or the untouched state, whichever the slot admits, so
the region is non-empty exactly when every slot's state has its interval
and the summed interval ends admit zero. The certificates run the same
slot-class walk as the cohomology engine,
`cohomology._visible_classes`: it checks the class with every slot in its
third state in closed form, then on each open side chooses one count per
slot group, its slots on that side, entering only counts whose class can
still be a union of primitive collections with a non-empty closed region
(the higher certificate also skips the empty class), and reads the
closed-form homology of `cohomology._pattern_homology` for only the
classes that pass. Slot groups are certified when the walk yields nothing
(`certify_groups`); the forbidden sweep makes them from a family (c, k, l).
`enumerate_forbidden`, `in_forbidden_cone` and `forbidden_witness` walk
the ray sets one by one; they name the cone that is hit and serve as
the reference the certificates are tested against. Other fans, and the
LP membership test these are checked against, are in
`toric_exc.reference`.

The family-level inequality predicates live in `picard`, beside the
(c, k, l) families they grade, so the inequality method loads neither
this module nor the cohomology engine. The two predicates are imported
here too, only for `perfbench/tracer.py`, which binds them by these
names.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .cohomology import (_pattern_homology, _slot_groups, _slot_intervals, _visible_classes,
                         divisor_coefficients)
from .fan import Fan, require_Vn
from .picard import higher_acyclic_predicate, lemma_acyclic_predicate
from .record import Record


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
    per-slot intervals of `_slot_intervals`, in O(n): a slot holding one
    of its rays takes that ray's interval, and a slot holding both or
    neither takes the third interval if its third state is that one.
    Input of the wrong type or length raises ValueError.
    """
    coeffs = divisor_coefficients(fan, divisor)
    half = fan.slots
    ends = []
    for i in range(half):
        plus, minus, third, pair = _slot_intervals(coeffs[i], coeffs[i + half])
        has_plus, has_minus = i in spec.rays, (i + half) in spec.rays
        if has_plus != has_minus:
            ends.append(plus if has_plus else minus)
        elif third is not None and pair == has_plus:
            ends.append(third)
        else:
            return False
    los, his = zip(*ends)
    return (None in los or sum(los) <= 0) and (None in his or sum(his) >= 0)


def forbidden_witness(fan: Fan, divisor, higher_only: bool = False):
    """First forbidden cone hit by the divisor, or None if all are avoided."""
    coeffs = divisor_coefficients(fan, divisor)
    for spec in enumerate_forbidden(fan):
        if higher_only and not spec.rays:
            continue
        if in_forbidden_cone(fan, spec, coeffs):
            return spec
    return None


def certify_groups(n: int, groups, higher_only: bool) -> bool:
    """The certificate of the slot groups on V_n: True when the walk yields no class."""
    return next(_visible_classes(n, groups, higher_only), None) is None


def certify_acyclic(fan: Fan, divisor) -> bool:
    """True guarantees every cohomology group of O(divisor) vanishes."""
    return certify_groups(fan.rank, _slot_groups(divisor_coefficients(fan, divisor)), False)


def certify_higher_acyclic(fan: Fan, divisor) -> bool:
    """True guarantees H^p(O(divisor)) = 0 for all p >= 1; h^0 is unconstrained."""
    return certify_groups(fan.rank, _slot_groups(divisor_coefficients(fan, divisor)), True)
