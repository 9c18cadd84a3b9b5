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
count is a bounded sum-zero lattice count. Slots with the same pair of
coefficients (a_plus, a_minus) have the same viable states, so the walk
groups them and enumerates only how many slots of each group take each
state, weighting each choice by its multinomial number of slot
assignments. A difference of two members of G_n has at most four groups,
so the loop is polynomial in n where a walk over slot assignments takes
up to 3^(n+1) steps.

That walk, `_visible_classes`, serves both the engine here and the
forbidden-cone certificates in `cones`. It runs its filters cheapest
first: the one-sided filter (a set that is not a union of primitive
collections has a cone point), then the closed test on the summed slot
bounds, and only then the pattern homology table, so a Smith form runs
only for a class that has characters.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import factorial, prod

from .fan import Fan, complex_CI, require_Vn
from .picard import DivisorClass, ray_coefficients
from .simplicial import reduced_homology


class TorsionEncountered(UserWarning):
    """Integral homology of a contributing pattern has torsion."""


class UnboundedRegionWithHomology(Exception):
    """A character region is infinite but homologically visible."""


@dataclass(frozen=True)
class GradedCohomology:
    """Ranks (h^0, ..., h^n)."""

    ranks: tuple[int, ...]

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
    return _symmetric_engine(fan, divisor_coefficients(fan, divisor))


def divisor_coefficients(fan: Fan, divisor) -> tuple[int, ...]:
    """Per-ray coefficients of a DivisorClass or of a coefficient sequence.

    Raises ValueError for a fan other than that of a V_n, a class of
    another dimension, or a number of coefficients other than the fan's
    number of rays.
    """
    require_Vn(fan)
    if isinstance(divisor, DivisorClass):
        if divisor.n != fan.rank:
            raise ValueError(
                f"divisor class of dimension {divisor.n} on a rank {fan.rank} fan"
            )
        coeffs = ray_coefficients(fan.rank, divisor)
    else:
        coeffs = tuple(map(int, divisor))
    if len(coeffs) != fan.nrays:
        raise ValueError(f"{len(coeffs)} coefficients for {fan.nrays} rays")
    return coeffs


def euler_pairing(fan: Fan, first: DivisorClass, second: DivisorClass) -> int:
    """Alternating sum of the Ext ranks from O(first) to O(second)."""
    return cohomology(fan, second - first).euler


# -- centrally symmetric engine ----------------------------------------------

# a slot's state is the sum of the codes of its rays in the pattern
_NEITHER, _PLUS, _MINUS = 0, 1, 2
_PAIR = _PLUS + _MINUS


@lru_cache(maxsize=None)
def _pattern_homology(n: int, pairs: int, nplus: int, nminus: int):
    """Contribution profile of the pattern class: (ranks by degree, torsion).

    Swapping the two sides is a fan automorphism, so the key is normalized
    with nplus <= nminus; slot permutations are automorphisms as well, so
    a single representative subcomplex decides the whole class.
    """
    if nplus > nminus:
        nplus, nminus = nminus, nplus
    fan = Fan(n)
    half = n + 1
    assert pairs + nplus + nminus <= half
    indices = []
    slot = 0
    for _ in range(pairs):
        indices += [slot, slot + half]
        slot += 1
    for _ in range(nplus):
        indices.append(slot)
        slot += 1
    for _ in range(nminus):
        indices.append(slot + half)
        slot += 1
    return _subcomplex_homology(fan, indices)


def _subcomplex_homology(fan: Fan, rays):
    """(ranks by degree, torsion) of the subcomplex induced on the rays.

    Reduced homology in degree p - 1 feeds H^p, so the ranks run over
    H^0..H^n; torsion tells whether any degree has torsion.
    """
    hom = reduced_homology(complex_CI(fan, rays))
    ranks = [0] * (fan.rank + 1)
    torsion = False
    for degree, (rank, tors) in hom.items():
        if 0 <= degree + 1 <= fan.rank:
            ranks[degree + 1] = rank
        if tors:
            torsion = True
    return tuple(ranks), torsion


def _slot_states(aplus: int, aminus: int):
    """Viable (state, lo, hi) triples for one slot; None is an open end."""
    states = []
    if -aplus <= aminus:
        states.append((_NEITHER, -aplus, aminus))
    states.append((_PLUS, None, min(-aplus - 1, aminus)))
    states.append((_MINUS, max(-aplus, aminus + 1), None))
    if aminus + 1 <= -aplus - 1:
        states.append((_PAIR, aminus + 1, -aplus - 1))
    return states


def _count_sum_zero(bounds) -> int:
    """Number of integer tuples with given finite bounds summing to zero."""
    target = -sum(lo for lo, _ in bounds)
    if target < 0:
        return 0
    lengths = []
    for lo, hi in bounds:
        if hi < lo:
            return 0
        lengths.append(hi - lo)
    dp = [0] * (target + 1)
    dp[0] = 1
    for length in lengths:
        out = [0] * (target + 1)
        running = 0
        for t in range(target + 1):
            running += dp[t]
            if t - length - 1 >= 0:
                running -= dp[t - length - 1]
            out[t] = running
        dp = out
    return dp[target]


def _meets(lo_total, hi_total) -> bool:
    """Closed test on summed slot bounds; None marks an open end."""
    return (lo_total is None or lo_total <= 0) and (hi_total is None or hi_total >= 0)


def _sum_bounds(ends):
    """Sum of interval ends, or None when any of them is open."""
    return None if None in ends else sum(ends)


def _group_options(states, size: int, base: int):
    """Ways to spread `size` slots with the same viable states over them.

    Each option is (weight, key, bounds, lo, hi): the weight is the number
    of slot assignments with these state counts, key holds the numbers of
    pair, plus and minus slots as three digits in base `base`, bounds
    holds one (lo, hi) per slot, and lo and hi are their summed ends.
    """
    options = []
    for chosen in combinations_with_replacement(states, size):
        tally = Counter(state for state, _, _ in chosen)
        weight = factorial(size)
        for k in tally.values():
            weight //= factorial(k)
        key = (tally[_PAIR] * base + tally[_PLUS]) * base + tally[_MINUS]
        bounds = [(lo, hi) for _, lo, hi in chosen]
        options.append((weight, key, bounds,
                        _sum_bounds([lo for lo, _ in bounds]),
                        _sum_bounds([hi for _, hi in bounds])))
    return options


def _visible_classes(n: int, coeffs, higher_only: bool = False):
    """Pattern classes of O(coeffs) on V_n with characters and homology.

    One combination of per-group state counts is one pattern class. The
    closed test holds exactly when the class has a character, because
    every slot interval is non-empty with integer ends. Yields (pairs,
    nplus, nminus, ranks, torsion, combo) for each class with non-zero
    ranks, combo holding the chosen _group_options entries; higher_only
    skips the empty class.
    """
    half = n + 1
    need = n // 2 + 1
    # no slot count reaches the base, so the keys of a combination add
    # digit by digit and one sum gives its pattern class
    base = half + 1
    options = [_group_options(_slot_states(ap, am), size, base)
               for (ap, am), size in Counter(zip(coeffs[:half], coeffs[half:])).items()]
    for combo in product(*options):
        _, keys, _, los, his = zip(*combo)
        key = sum(keys)
        if higher_only and not key:
            continue
        pairs, rest = divmod(key, base * base)
        nplus, nminus = divmod(rest, base)
        # not a union of primitive collections: a cone point, no homology
        if nplus and pairs + nplus < need or nminus and pairs + nminus < need:
            continue
        if not _meets(_sum_bounds(los), _sum_bounds(his)):
            continue
        ranks, torsion = _pattern_homology(n, pairs, nplus, nminus)
        if any(ranks):
            yield pairs, nplus, nminus, ranks, torsion, combo


def _symmetric_engine(fan: Fan, coeffs) -> GradedCohomology:
    """Cohomology ranks summed over slot multisets.

    Slots with equal (a_plus, a_minus) have the same viable states, and
    both the pattern class and the character count are symmetric in the
    slots, so one combination of per-group state counts stands for all
    its multinomially many slot assignments. Every class the walk yields
    has at least one character, so each count here is positive.
    """
    n = fan.rank
    h = [0] * (n + 1)
    for pairs, nplus, nminus, ranks, torsion, combo in _visible_classes(n, coeffs):
        weights, _, group_bounds, group_los, group_his = zip(*combo)
        los = [lo for bounds in group_bounds for lo, _ in bounds]
        his = [hi for bounds in group_bounds for _, hi in bounds]
        open_below = None in group_los
        open_above = None in group_his
        if open_below and open_above:
            # both ends open and slotwise nonempty: infinitely many characters
            raise UnboundedRegionWithHomology(
                f"pattern with {pairs} pairs, {nplus} plus, {nminus} minus slots"
            )
        if open_below:
            total_hi = sum(his)
            los = [
                hi - total_hi if lo is None else max(lo, hi - total_hi)
                for lo, hi in zip(los, his)
            ]
        elif open_above:
            total_lo = sum(los)
            his = [
                lo - total_lo if hi is None else min(hi, lo - total_lo)
                for lo, hi in zip(los, his)
            ]
        if torsion:
            warnings.warn(
                f"torsion in a contributing pattern on V_{n}", TorsionEncountered
            )
        count = _count_sum_zero(list(zip(los, his))) * prod(weights)
        for p, r in enumerate(ranks):
            if r:
                h[p] += count * r
    return GradedCohomology(tuple(h))
