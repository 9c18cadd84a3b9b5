"""Sheaf cohomology of line bundles on V_n.

Cohomology is graded by lattice characters: each character m contributes
to H^p exactly the reduced homology in degree p - 1 of the subcomplex of
the fan induced on the rays where <m, u> <= -a - 1. The engine partitions
M by that ray pattern and counts characters per pattern. The engine for
other fans, which enumerates every ray subset and counts lattice points
in a polytope, is `toric_exc.reference.cohomology`.

On the centrally symmetric fan the pattern factors through slots: with
z_i = <m, u_{e_i}> every slot independently lands in one of at most three
viable states, the induced subcomplex depends only on how many slots hold
a full antipodal pair, a plus ray, or a minus ray, and the character
count is a sum-zero lattice count, read from its closed side. Slots with
the same pair of coefficients (a_plus, a_minus) have the same viable
states, so the walk groups them and enumerates only how many slots of
each group take each state. A slot has at most one state besides plus and
minus (`_slot_intervals`), so a group of s slots with p plus and m minus
slots puts the other s - p - m in that third state: the choice has
C(s, p) C(s - p, m) slot assignments, and its bounds are p, m and
s - p - m copies of the three slot intervals. A difference of two members
of G_n has at most four groups, so the loop is polynomial in n where a
walk over slot assignments takes up to 3^(n+1) steps, and keeps no table.

That walk, `_visible_classes`, serves both the engine here and the
forbidden-cone certificates in `cones`. It takes slot groups
{(a_plus, a_minus): slots}, which `cohomology` and the certificates count
off per-ray coefficients (`_slot_groups`) and the oracle and forbidden
sweeps make from a family (c, k, l) (`picard.family_slots`), and reads
each slot kind's option once from a bounded memo (`_slot_option`). A class
with both a plus and a minus slot has no homology, so the walk takes the
class with every slot in its third state as one closed-form check, and
on each open side one count per group, its slots on that side. Three
bounds keep it to the counts that can still end in a class with homology
and a character: at most n/2 pairs, pairs and open slots reaching
n/2 + 1 (below that the set is not a union of primitive collections and
has a cone point), and what the closed side's summed ends can spend. A
class reads its homology from `_pattern_homology`, a closed form on the
three slot counts; the Smith form on the induced complex that it replaces
is the reference in `toric_exc.reference`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .fan import Fan, require_Vn
from .picard import DivisorClass, ray_coefficients
from .record import Record


class GradedCohomology(Record):
    """Ranks (h^0, ..., h^n)."""

    _fields = ("ranks",)

    def __init__(self, ranks: tuple[int, ...]):
        object.__setattr__(self, "ranks", ranks)

    def __getitem__(self, p: int) -> int:
        return self.ranks[p]

    @property
    def total(self) -> int:
        return sum(self.ranks)

    @property
    def euler(self) -> int:
        return sum(r if p % 2 == 0 else -r for p, r in enumerate(self.ranks))

    def is_zero(self) -> bool:
        return not any(self.ranks)


def cohomology(fan: Fan, divisor) -> GradedCohomology:
    """All cohomology ranks of O(divisor) on V_n.

    The divisor is either a DivisorClass or a sequence of per-ray
    coefficients in the fan's ray order. Another fan, or input of the
    wrong type or length, raises ValueError.
    """
    return _symmetric_engine(fan.rank, _slot_groups(divisor_coefficients(fan, divisor)))


def divisor_coefficients(fan: Fan, divisor) -> tuple[int, ...]:
    """Per-ray coefficients of a DivisorClass or of a coefficient sequence.

    Raises ValueError for a fan other than that of a V_n, a class of
    another dimension, a coefficient that is not an int, or a number of
    coefficients other than the fan's number of rays.
    """
    require_Vn(fan)
    if isinstance(divisor, DivisorClass):
        coeffs = ray_coefficients(fan.rank, divisor)
    else:
        coeffs = tuple(divisor)
        if not all(isinstance(x, int) for x in coeffs):
            raise ValueError(f"non-integer coefficients {coeffs}")
    if len(coeffs) != fan.nrays:
        raise ValueError(f"{len(coeffs)} coefficients for {fan.nrays} rays")
    return coeffs


def euler_pairing(fan: Fan, first: DivisorClass, second: DivisorClass) -> int:
    """Alternating sum of the Ext ranks from O(first) to O(second)."""
    return cohomology(fan, second - first).euler


# -- centrally symmetric engine ----------------------------------------------


def _pattern_homology(n: int, pairs: int, nplus: int, nminus: int) -> tuple[int, ...]:
    """Ranks of H^0..H^n fed by one character of the pattern class.

    A character m feeds H^p with the reduced homology in degree p - 1 of
    the subcomplex D_S of the fan induced on its ray set S. Swapping the
    sides and permuting the slots are fan automorphisms, so the class
    decides D_S. Normalize to plus <= minus and let h = n/2:

    - a mixed class (plus >= 1 and minus >= 1) has no homology;
    - (p, 0, 0) has rank 1 in H^p for p <= h and in H^(p-1) for p > h
      (the empty class feeds H^0);
    - (p, 0, b) with b >= 1 has rank C(b - 1, h - p) in H^h, which is 0
      for p > h;

    and no class has torsion. The proof reads the fan alone (a face is a
    ray set with no antipodal pair and at most h rays on each side), never
    the paper's inequalities, so the oracle stays independent of them.

    Mixed classes. Put -1 on both rays of each pair slot of the class and
    0 on every other ray. Then a pair or untouched slot takes z = 0, a
    plus-only slot any z <= -1 and a minus-only slot any z >= 1, so the
    class has a character, and moving one plus-only slot down by t and one
    minus-only slot up by t keeps the sum at zero: it has infinitely many.
    Over any field k each of them adds the reduced cohomology of D_S to
    H^*(V_n, O(D)), which is finite because V_n is complete. So D_S has
    no reduced homology over any field, hence none over Z.

    One side, p <= h. Only minus rays are capped (there are at most p <= h
    plus rays). Let K_c(p, b) be the complex on p pair slots and b
    minus-only slots with at most c minus rays; the class is K_h(p, b).
    Claim: for b >= 1 its reduced homology is free, lies in degree c - 1
    only, and has rank C(b - 1, c - p). By induction on p:
    - p = 0: K_c is the (c - 1)-skeleton of a simplex on b vertices (and
      for c = 0, p >= 1 it is the simplex on the p plus rays).
    - Link and deletion at the plus ray of one pair slot give K_c(p, b) as
      the cofibre of K_c(p - 1, b) -> K_c(p - 1, b + 1): deleting the ray
      leaves that slot's minus ray alone, and its link may not hold it.
    - Link and deletion at that minus ray of K_c(p - 1, b + 1) give the
      exact sequence 0 = H_(c-1)(K_(c-1)(p - 1, b)) -> H_(c-1)(K_c(p - 1, b))
      -> H_(c-1)(K_c(p - 1, b + 1)) -> H_(c-2)(K_(c-1)(p - 1, b)) -> 0, so
      the inclusion is injective on H_(c-1) with free cokernel. The rank
      is C(b, c - p + 1) - C(b - 1, c - p + 1) = C(b - 1, c - p) by
      Pascal's rule, and no other degree survives.
    For b = 0 the complex is the boundary of the p-cross-polytope, a
    (p - 1)-sphere.

    One side, p > h. The face complex of a complete simplicial fan is a
    simplicial (n - 1)-sphere, so Alexander duality gives
    H_i(D_S) = H^(n-2-i)(D_T) in reduced groups, for the complement T of
    S (an empty T induces the complex of the empty face alone). T has
    class (q, 0, b) with q = n + 1 - p - b <= h, which the case above
    covers: for b = 0 its (q - 1)-sphere puts S's homology in degree
    p - 2, and for b >= 1 its group in degree h - 1 has rank
    C(b - 1, p + b - h - 1) = 0.
    """
    ranks = [0] * (n + 1)
    half = n // 2
    if not nplus and not nminus:
        ranks[pairs if pairs <= half else pairs - 1] = 1
    elif not (nplus and nminus) and pairs <= half:
        # one side is empty, so b is the other side's count
        ranks[half] = comb(nplus + nminus - 1, half - pairs)
    return tuple(ranks)


def _slot_intervals(aplus: int, aminus: int):
    """A slot's plus, minus and third (lo, hi), and whether the third is the
    pair state, not neither; None is an open end, or a slot with no third.
    """
    plus, minus = (None, min(-aplus - 1, aminus)), (max(-aplus, aminus + 1), None)
    if -aplus <= aminus:
        return plus, minus, (-aplus, aminus), False
    if aminus + 1 <= -aplus - 1:
        return plus, minus, (aminus + 1, -aplus - 1), True
    return plus, minus, None, False


@lru_cache(maxsize=1024)
def _slot_option(aplus: int, aminus: int):
    """The walk's option for a slot kind: its (plus, minus, third) intervals,
    its reach, its cost and whether its third is the pair state (`_visible_classes`).
    """
    plus, minus, third, pair_third = _slot_intervals(aplus, aminus)
    if third is None:  # only plus and minus: an open side takes every slot at no cost
        return (plus, minus, None), (minus[0], plus[1]), 0, False
    return (plus, minus, third), third, third[1] - plus[1], pair_third


def _count_sum_zero(bounds) -> int:
    """Number of integer tuples with given bounds summing to zero.

    bounds holds ((lo, hi), k) pairs, k > 0 entries bounded by each; an
    end may be None (open), on one side only. Shift each entry by its
    closed end: y = hi - x if some lo is open, else y = x - lo. Then
    y >= 0, the y sum to target (sum hi k, or -sum lo k), and an entry
    closed at both ends has y <= len = hi - lo, so the count is the
    coefficient of x^target in prod (1 - x^(len + 1))^k over the closed
    entries, over (1 - x)^m for all m entries. The numerator is expanded
    sparsely, one group of equal lengths at a time, dropping exponents
    above the target, so it holds at most min(target + 1, prod (m_g + 1))
    terms for m_g closed entries of each length; 1 / (1 - x)^m then gives
    each surviving exponent e the weight C(target - e + m - 1, m - 1).
    """
    if not bounds:
        return 1
    open_lo = any(lo is None for (lo, _), _ in bounds)
    target = sum(hi * k if open_lo else -lo * k for (lo, hi), k in bounds)
    lengths = {}
    for (lo, hi), k in bounds:
        if lo is not None and hi is not None:
            lengths[hi - lo] = lengths.get(hi - lo, 0) + k
    if target < 0 or any(length < 0 for length in lengths):
        return 0
    poly = {0: 1}
    for length, count in lengths.items():
        expanded = {}
        for e, coeff in poly.items():
            for i in range(min(count, (target - e) // (length + 1)) + 1):
                f = e + i * (length + 1)
                expanded[f] = expanded.get(f, 0) + (-1) ** i * comb(count, i) * coeff
        poly = expanded
    m = sum(k for _, k in bounds)
    return sum(coeff * comb(target - e + m - 1, m - 1) for e, coeff in poly.items())


def _slot_groups(coeffs) -> dict:
    """{(a_plus, a_minus): slots} of per-ray coefficients, in order of first slot."""
    half = len(coeffs) // 2
    groups = {}
    for slot in zip(coeffs[:half], coeffs[half:]):
        groups[slot] = groups.get(slot, 0) + 1
    return groups


def _visible_classes(n: int, groups, higher_only: bool = False):
    """Pattern classes of the slot groups on V_n with characters and homology.

    groups maps each (a_plus, a_minus) to its number of slots. One choice
    of per-group state counts is one pattern class. The closed test holds
    exactly when the class has a character, because every slot interval is
    non-empty with integer ends. Yields (pairs, nplus, nminus,
    ranks, combo) for each class with non-zero ranks, combo holding one
    (size, p, m, (plus, minus, third)) per group: its p plus and m minus
    slots and the (lo, hi) of each of its states, third None for a group
    with only plus and minus. higher_only skips the empty class.

    The closed test splits by the open sides, plus slots opening the lo
    sum and minus slots the hi sum: with no minus slot the summed hi ends
    must reach 0, with no plus slot the summed lo ends must stay at most
    0, and with both it holds. A class with both sides open is mixed and
    has no homology (`_pattern_homology`), so every class yielded has at
    most one open side. Let top and bottom be the summed hi and lo ends
    with every slot in its third state (neither or pair), a group with
    only plus and minus counted on plus for top and on minus for bottom.

    - Both sides closed: every slot is in its third state. That is one
      class, with a character exactly when every group has a third state
      and bottom <= 0 <= top, and its homology is the pairs' sphere. It is
      yielded without a walk, unless higher_only and it has no pairs.
    - One side open: take plus; the minus side is its mirror image, with
      -bottom for top. No slot is minus, so a group with a third state
      chooses one count x of plus slots, the rest staying third, and a
      group with only plus and minus puts every slot on plus. A plus slot's
      hi end lies cost = |a_plus + a_minus + 1| >= 1 below the third
      state's (a minus slot's lo end as far above it), so the class has a
      character exactly when the groups' x * cost sum to at most top; a
      two-state group's plus end is in top already.

    An open class (pairs, x, 0) has homology exactly when pairs <= n/2 and
    pairs + x >= need = n/2 + 1 (`_pattern_homology`; the second bound
    makes x >= 1, so the class is open). The walk bounds each count so
    that every choice it enters can still end in such a class, and every
    class it ends in is one:

    - A pair-third group adds size - x pairs, so x starts at
      pairs + size - n/2: pairs only grow down the walk, and no later
      choice can bring them back to n/2.
    - A pair-third or two-state group adds size to pairs + opened whatever
      its x, so only a neither-third group can fall short of need: its x
      starts at need - pairs - opened - left, with left slots in the
      groups after it. So pairs + opened + size + left >= need holds at
      every group: at the first it reads n + 1 >= need, and each group's
      x keeps it for the next.
    - Each group after the current one can open at most min(size,
      room // cost) slots on the room left (all its slots at no cost for a
      two-state group, and a pair-third group adds size whatever it
      opens). A choice after which pairs + opened cannot reach need even
      so is skipped; the sum stops as soon as it reaches need.
    """
    half = n // 2
    need = half + 1
    top = bottom = pairs = 0
    closed = True  # every group has a third state
    options = []
    for slot, size in groups.items():
        intervals, reach, cost, pair_third = _slot_option(*slot)
        closed = closed and cost > 0
        pairs += size if pair_third else 0
        top += size * reach[1]
        bottom += size * reach[0]
        options.append((size, intervals, cost, pair_third))
    if closed and bottom <= 0 <= top and (pairs or not higher_only):
        yield pairs, 0, 0, _pattern_homology(n, pairs, 0, 0), tuple(
            (size, 0, 0, intervals) for size, intervals, _, _ in options)
    last = len(options) - 1

    # left counts the slots after group g and room what the closed side's
    # sum can still spend
    def walk(g, minus_side, room, pairs, opened, left, combo):
        size, intervals, cost, pair_third = options[g]
        left -= size
        if not cost:  # only plus and minus: every slot opens
            low = high = size
        else:
            low = pairs + size - half if pair_third else need - pairs - opened - left
            high = size if room >= size * cost else room // cost
        for x in range(max(low, 0), high + 1):
            paired = pairs + size - x if pair_third else pairs
            spare = room - x * cost
            if g < last:
                # the most that the later groups can open on the spare room
                total = paired + opened + x
                for later, _, later_cost, later_pair in options[g + 1:]:
                    total += later if later_pair or spare >= later * later_cost \
                        else spare // later_cost
                    if total >= need:
                        break
                else:
                    continue
            chosen = combo + ((size, 0, x, intervals) if minus_side else (size, x, 0, intervals),)
            if g < last:
                yield from walk(g + 1, minus_side, spare, paired, opened + x, left, chosen)
            else:
                up, down = (0, opened + x) if minus_side else (opened + x, 0)
                yield paired, up, down, _pattern_homology(n, paired, up, down), chosen

    if top >= 0:
        yield from walk(0, False, top, 0, 0, n + 1, ())
    if bottom <= 0:
        yield from walk(0, True, -bottom, 0, 0, n + 1, ())


def _symmetric_engine(n: int, groups) -> GradedCohomology:
    """Cohomology ranks on V_n summed over slot multisets of the slot groups.

    Slots with equal (a_plus, a_minus) have the same viable states, and
    both the pattern class and the character count are symmetric in the
    slots, so one combination of per-group state counts stands for all
    its multinomially many slot assignments. The weight and the bounds,
    one ((lo, hi), slots) pair per state a group uses, are built only for
    the classes the walk yields. Every one of them has at least one
    character, so each count here is positive, and at most one open side,
    so each count is finite: a plus slot opens the lo side and a minus
    slot the hi side, and a class with both is mixed and has no homology.
    `_count_sum_zero` counts from the closed side, so an open end costs
    it no factor of the numerator.
    """
    h = [0] * (n + 1)
    for *_, ranks, combo in _visible_classes(n, groups):
        weight, bounds = 1, []
        for size, p, m, (plus, minus, third) in combo:
            weight *= comb(size, p) * comb(size - p, m)
            if p:
                bounds.append((plus, p))
            if m:
                bounds.append((minus, m))
            if size - p - m:
                bounds.append((third, size - p - m))
        count = _count_sum_zero(bounds) * weight
        for p, r in enumerate(ranks):
            if r:
                h[p] += count * r
    return GradedCohomology(tuple(h))
