"""Cohomology engine against Riemann-Roch, Serre duality, Bott, and itself."""

import importlib
import inspect
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc.cohomology import (
    GradedCohomology,
    _pattern_homology,
    cohomology,
    euler_pairing,
)
from toric_exc import reference
from toric_exc.reference import TorsionEncountered, UnboundedRegionWithHomology
from toric_exc.collection import apply_mutation, build_Gn, verify_exceptional
from toric_exc.fan import build_Vn, complex_CI
from toric_exc.picard import (
    DivisorClass,
    canonical_class,
    divisor,
    make_F,
    ray_coefficients,
)
from toric_exc.polyhedra import lattice_points, polyhedron
from toric_exc.simplicial import reduced_homology


def h0_by_polytope(fan, coeffs):
    rows = [(fan.rays[i], -coeffs[i]) for i in range(fan.nrays)]
    return len(lattice_points(polyhedron(fan.rank, rows)))


def chi_riemann_roch(D):
    """Euler characteristic on the degree six del Pezzo surface."""

    def dot(a, b):
        return a.coeffs[0] * b.coeffs[0] - sum(
            x * y for x, y in zip(a.coeffs[1:], b.coeffs[1:])
        )

    K = canonical_class(2)
    num = dot(D, D) - dot(D, K)
    assert num % 2 == 0
    return 1 + num // 2


def small_divisors(n, lo=-4, hi=4):
    return st.tuples(*(st.integers(lo, hi) for _ in range(n + 2))).map(DivisorClass)


def test_structure_sheaf():
    for n in (2, 4, 6):
        fan = build_Vn(n)
        h = cohomology(fan, DivisorClass((0,) * (n + 2)))
        assert h.ranks == (1,) + (0,) * n


def test_anticanonical_sections_hexagon():
    fan = build_Vn(2)
    h = cohomology(fan, -canonical_class(2))
    assert h.ranks == (7, 0, 0)


def test_canonical_top_cohomology():
    for n in (2, 4):
        fan = build_Vn(n)
        h = cohomology(fan, canonical_class(n))
        assert h.ranks == (0,) * n + (1,)


def test_graded_cohomology_helpers():
    h = GradedCohomology((2, 1, 0))
    assert h[0] == 2 and h[1] == 1
    assert h.total == 3
    assert h.euler == 1
    assert not h.is_zero()
    assert GradedCohomology((0, 0, 0)).is_zero()


@settings(max_examples=100, deadline=None)
@given(small_divisors(2))
def test_euler_matches_riemann_roch(D):
    assert cohomology(build_Vn(2), D).euler == chi_riemann_roch(D)


@settings(max_examples=60, deadline=None)
@given(small_divisors(2))
def test_h0_matches_section_polytope_hexagon(D):
    fan = build_Vn(2)
    coeffs = ray_coefficients(2, D)
    assert cohomology(fan, D)[0] == h0_by_polytope(fan, coeffs)


@settings(max_examples=15, deadline=None)
@given(small_divisors(4, -3, 3))
def test_h0_matches_section_polytope_V4(D):
    fan = build_Vn(4)
    coeffs = ray_coefficients(4, D)
    assert cohomology(fan, D)[0] == h0_by_polytope(fan, coeffs)


@settings(max_examples=60, deadline=None)
@given(small_divisors(2))
def test_serre_duality_hexagon(D):
    fan = build_Vn(2)
    h = cohomology(fan, D)
    dual = cohomology(fan, canonical_class(2) - D)
    assert h.ranks == tuple(reversed(dual.ranks))


@settings(max_examples=15, deadline=None)
@given(small_divisors(4, -3, 3))
def test_serre_duality_V4(D):
    fan = build_Vn(4)
    h = cohomology(fan, D)
    dual = cohomology(fan, canonical_class(4) - D)
    assert h.ranks == tuple(reversed(dual.ranks))


@settings(max_examples=40, deadline=None)
@given(small_divisors(2), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_lift_independence(D, m):
    # adding a principal divisor must not change cohomology
    fan = build_Vn(2)
    coeffs = ray_coefficients(2, D)
    shifted = tuple(
        c + sum(mm * u for mm, u in zip(m, fan.rays[i]))
        for i, c in enumerate(coeffs)
    )
    assert cohomology(fan, coeffs) == cohomology(fan, shifted)


@settings(max_examples=30, deadline=None)
@given(small_divisors(2, -3, 3))
def test_symmetric_engine_matches_generic(D):
    fan = build_Vn(2)
    clone = reference.GenericFan(fan.rank, fan.rays, fan.max_cones)
    coeffs = ray_coefficients(2, D)
    assert cohomology(fan, coeffs) == reference.cohomology(clone, coeffs)


def test_symmetric_engine_matches_generic_V4():
    fan = build_Vn(4)
    clone = reference.GenericFan(fan.rank, fan.rays, fan.max_cones)
    for D in [
        make_F(4, 2, {0, 1}) - make_F(4, 0, set()),
        canonical_class(4),
        divisor(-2, (1, 0, -1, 2, 0)),
    ]:
        coeffs = ray_coefficients(4, D)
        assert cohomology(fan, coeffs) == reference.cohomology(clone, coeffs)


# -- slot-multiset engine against the per-slot product ----------------------

coh = importlib.import_module("toric_exc.cohomology")

# a slot's state is the sum of the codes of its rays in the pattern
NEITHER, PLUS, MINUS = 0, 1, 2
PAIR = PLUS + MINUS


def slot_states_reference(aplus, aminus):
    """Viable (state, lo, hi) triples for one slot, one test per state; None is open."""
    states = []
    if -aplus <= aminus:
        states.append((NEITHER, -aplus, aminus))
    states.append((PLUS, None, min(-aplus - 1, aminus)))
    states.append((MINUS, max(-aplus, aminus + 1), None))
    if aminus + 1 <= -aplus - 1:
        states.append((PAIR, aminus + 1, -aplus - 1))
    return tuple(states)


def test_slot_intervals_match_slot_states_reference():
    for aplus, aminus in product(range(-6, 7), repeat=2):
        plus, minus, third, pair = coh._slot_intervals(aplus, aminus)
        states = {(PLUS, *plus), (MINUS, *minus)}
        if third is not None:
            states.add((PAIR if pair else NEITHER, *third))
        assert states == set(slot_states_reference(aplus, aminus)), (aplus, aminus)


def test_slot_options_read_off_slot_intervals():
    # the walk's option for a slot kind: a kind with a third state opens a
    # plus slot cost >= 1 below the third's hi end and a minus slot as far
    # above its lo end; a kind without one reaches from minus lo to plus hi
    rng = random.Random(29)
    huge = [(rng.randint(-10**29, 10**29), rng.randint(-10**29, 10**29)) for _ in range(300)]
    for aplus, aminus in list(product(range(-12, 13), repeat=2)) + huge:
        plus, minus, third, pair = coh._slot_intervals(aplus, aminus)
        intervals, reach, cost, pair_third = coh._slot_option(aplus, aminus)
        assert intervals == (plus, minus, third) and pair_third == pair
        if third is None:
            assert (reach, cost) == ((minus[0], plus[1]), 0)
        else:
            assert reach == third and cost == third[1] - plus[1] == minus[0] - third[0] >= 1


def test_slot_option_memo_stays_bounded():
    coh._slot_option.cache_clear()
    rng = random.Random(30)
    fan = build_Vn(4)
    for _ in range(300):
        coeffs = tuple(rng.randint(-10**29, 10**29) for _ in range(fan.nrays))
        dual = tuple(-1 - a for a in coeffs)  # K - D, K = -(sum of the rays)
        assert cohomology(fan, coeffs).ranks == cohomology(fan, dual).ranks[::-1]
    info = coh._slot_option.cache_info()
    # 300 vectors of 5 slots meet more kinds than the memo keeps
    assert info.currsize == info.maxsize == 1024 < info.misses


def per_slot_reference(fan, coeffs):
    """The engine before slot grouping: one step per slot assignment."""
    n = fan.rank
    half = n + 1
    plus, minus = coeffs[:half], coeffs[half:]
    options = [slot_states_reference(plus[i], minus[i]) for i in range(half)]
    h = [0] * (n + 1)
    for combo in product(*options):
        pairs = nplus = nminus = 0
        for state, _, _ in combo:
            if state == PAIR:
                pairs += 1
            elif state == PLUS:
                nplus += 1
            elif state == MINUS:
                nminus += 1
        ranks = coh._pattern_homology(n, pairs, nplus, nminus)
        if not any(ranks):
            continue
        los = [lo for _, lo, _ in combo]
        his = [hi for _, _, hi in combo]
        open_below = any(lo is None for lo in los)
        open_above = any(hi is None for hi in his)
        if open_below and open_above:
            raise UnboundedRegionWithHomology(
                f"pattern with {pairs} pairs, {nplus} plus, {nminus} minus slots"
            )
        count = count_sum_zero_by_table(close_open_ends(los, his))
        if not count:
            continue
        for p, r in enumerate(ranks):
            if r:
                h[p] += count * r
    return GradedCohomology(tuple(h))


def close_open_ends(los, his):
    """(lo, hi) per entry with each open end clipped to what a zero sum allows.

    On an open lo side no entry can lie below its hi end less the sum of
    all hi ends, and likewise above; at most one side is open.
    """
    if None in los:
        total_hi = sum(his)
        los = [hi - total_hi if lo is None else max(lo, hi - total_hi)
               for lo, hi in zip(los, his)]
    elif None in his:
        total_lo = sum(los)
        his = [lo - total_lo if hi is None else min(hi, lo - total_lo)
               for lo, hi in zip(los, his)]
    return list(zip(los, his))


def outcome(engine, fan, coeffs):
    try:
        return engine(fan, coeffs)
    except UnboundedRegionWithHomology:
        return UnboundedRegionWithHomology


def assert_engines_agree(members, pairs):
    n = members[0].n
    fan = build_Vn(n)
    for i, j in pairs:
        coeffs = ray_coefficients(n, members[j] - members[i])
        assert outcome(cohomology, fan, coeffs) == outcome(
            per_slot_reference, fan, coeffs
        ), (i, j)


def count_sum_zero_by_table(bounds):
    """The same count by a running-sum table of target + 1 entries per slot."""
    target = -sum(lo for lo, _ in bounds)
    if target < 0 or any(hi < lo for lo, hi in bounds):
        return 0
    table = [1] + [0] * target
    for lo, hi in bounds:
        out, running = [], 0
        for t in range(target + 1):
            running += table[t]
            if t > hi - lo:
                running -= table[t - (hi - lo) - 1]
            out.append(running)
        table = out
    return table[target]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 6), st.integers(-1, 12)), max_size=8))
def test_count_sum_zero_matches_table(spans):
    bounds = [(lo, lo + width) for lo, width in spans]
    assert coh._count_sum_zero(list(Counter(bounds).items())) == count_sum_zero_by_table(bounds)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 6), st.integers(-1, 12), st.booleans()),
                max_size=8), st.booleans())
def test_count_sum_zero_counts_open_ends_from_the_closed_side(spans, open_lo):
    # open ends on one side only, against the table after clipping them
    bounds = [((None, lo + width) if open_lo else (lo, None)) if opened else (lo, lo + width)
              for lo, width, opened in spans]
    closed = close_open_ends([lo for lo, _ in bounds], [hi for _, hi in bounds])
    assert coh._count_sum_zero(list(Counter(bounds).items())) == count_sum_zero_by_table(closed)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_count_sum_zero_memory_is_bounded_by_the_slots():
    # the target here is 10^9; a table of target + 1 entries would need GBs,
    # so the child's address space is capped to fail fast instead. The child
    # reports its own peak (VmHWM, in kB): ru_maxrss can carry the forking
    # parent's high-water mark across exec.
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from toric_exc.cli import main\n"
            "main(['cohomology', '--dim', '2', '--coeffs=1000000000,0,0,0'])\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    sections, maxrss_kb = proc.stdout.splitlines()
    h0 = (10**9 + 1) * (10**9 + 2) // 2
    assert sections.startswith(f"h^0 = {h0}  h^1 = 0  h^2 = 0")
    assert elapsed < 1.0
    assert int(maxrss_kb) < 100 * 1024


def test_engine_matches_per_slot_all_pairs_G4():
    members = build_Gn(4).members
    size = len(members)
    assert_engines_agree(
        members, [(i, j) for i in range(size) for j in range(size) if i != j]
    )


@pytest.mark.parametrize("n, count", [(6, 300), (8, 100)])
def test_engine_matches_per_slot_seeded_pairs(n, count):
    members = build_Gn(n).members
    rng = random.Random(n)
    assert_engines_agree(
        members, [rng.sample(range(len(members)), 2) for _ in range(count)]
    )


@pytest.mark.parametrize("n, mutation, placed, count", [
    # the added member sits at the end of block 0; a swap moves two members
    (6, "add:1,0-1-2", (2,), None),
    (8, "swap:0,600", (0, 600), 60),
])
def test_engine_matches_per_slot_mutated_members(n, mutation, placed, count):
    original = build_Gn(n).members
    members = apply_mutation(build_Gn(n), mutation).members
    assert all(members[k] != original[k] for k in placed)
    pairs = [(k, j) for k in placed for j in range(len(members)) if j != k]
    pairs += [(j, k) for k, j in pairs]
    if count is not None:
        pairs = random.Random(n).sample(pairs, count)
    assert_engines_agree(members, pairs)


def test_engine_matches_per_slot_on_many_groups_V8():
    # per-ray vectors split the slots into many groups, where an open side
    # holds entries of several groups at once
    n = 8
    fan = build_Vn(n)
    rng = random.Random(n)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(fan.nrays)) for _ in range(3)]
    for coeffs in vectors:
        assert len(set(zip(coeffs[:n + 1], coeffs[n + 1:]))) >= 5, coeffs
        assert outcome(cohomology, fan, coeffs) == outcome(per_slot_reference, fan, coeffs)


@pytest.mark.parametrize("n", [2, 4, 6])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_per_slot_random_vectors(n, data):
    fan = build_Vn(n)
    coeffs = data.draw(st.tuples(*(st.integers(-3, 3) for _ in range(fan.nrays))))
    assert outcome(cohomology, fan, coeffs) == outcome(
        per_slot_reference, fan, coeffs
    )


# -- the bounded class walk against the full product of group options ---------


def group_options(states, size):
    """Ways to spread `size` slots over the same viable states, one by one.

    Maps (plus slots, minus slots) to (pair slots, weight, bounds): the
    weight counts the slot assignments with these state counts, and bounds
    is the multiset of the slots' (lo, hi), as a set of (interval, count).
    """
    options = {}
    for chosen in combinations_with_replacement(states, size):
        tally = Counter(state for state, _, _ in chosen)
        weight = math.factorial(size)
        for k in tally.values():
            weight //= math.factorial(k)
        bounds = frozenset(Counter((lo, hi) for _, lo, hi in chosen).items())
        options[tally[PLUS], tally[MINUS]] = (tally[PAIR], weight, bounds)
    return options


def product_walk_reference(n, coeffs, higher_only=False):
    """The walk before bounding: every combination of group options, then the filters.

    Yields each class with one (weight, bounds) per group.
    """
    half = n + 1
    need = n // 2 + 1
    groups = []
    for (ap, am), size in Counter(zip(coeffs[:half], coeffs[half:])).items():
        groups.append([((pairs, p, m), (weight, bounds)) for (p, m), (pairs, weight, bounds)
                       in group_options(slot_states_reference(ap, am), size).items()])
    for chosen in product(*groups):
        classes, combo = zip(*chosen)
        pairs, nplus, nminus = map(sum, zip(*classes))
        if higher_only and not (pairs or nplus or nminus):
            continue
        if nplus and pairs + nplus < need or nminus and pairs + nminus < need:
            continue
        bounds = [b for _, group_bounds in combo for b in group_bounds]
        los = [lo for (lo, _), _ in bounds]
        his = [hi for (_, hi), _ in bounds]
        lo_total = None if None in los else sum(lo * k for (lo, _), k in bounds)
        hi_total = None if None in his else sum(hi * k for (_, hi), k in bounds)
        if lo_total is not None and lo_total > 0 or hi_total is not None and hi_total < 0:
            continue
        ranks = coh._pattern_homology(n, pairs, nplus, nminus)
        if any(ranks):
            yield pairs, nplus, nminus, ranks, combo


def weighed(found):
    """A walked class with each group's (size, p, m, intervals) read as (weight, bounds)."""
    *cls, combo = found
    groups = []
    for size, p, m, (plus, minus, third) in combo:
        bounds = Counter({plus: p, minus: m})
        if third is not None:
            bounds[third] += size - p - m
        groups.append((math.comb(size, p) * math.comb(size - p, m),
                       frozenset((+bounds).items())))
    return (*cls, tuple(groups))


def assert_walks_agree(n, coeffs):
    for higher_only in (False, True):
        walked = Counter(map(weighed, coh._visible_classes(n, coh._slot_groups(coeffs),
                                                           higher_only)))
        assert walked == Counter(product_walk_reference(n, coeffs, higher_only)), \
            (coeffs, higher_only)


@pytest.mark.parametrize("n, count", [(4, 300), (6, 200), (8, 150), (10, 40)])
def test_walk_matches_product_walk_on_Gn_differences(n, count):
    members = build_Gn(n).members
    rng = random.Random(n)
    for _ in range(count):
        i, j = rng.sample(range(len(members)), 2)
        assert_walks_agree(n, ray_coefficients(n, members[j] - members[i]))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_walk_matches_product_walk_random_vectors(n, data):
    bound = 6 if n == 8 else 4
    coeffs = data.draw(st.tuples(*(st.integers(-bound, bound) for _ in range(2 * n + 2))))
    assert_walks_agree(n, coeffs)


@pytest.mark.parametrize("n, count", [(4, 40), (6, 40), (8, 15)])
def test_walk_matches_product_walk_with_pair_thirds(n, count):
    # a_plus + a_minus <= -2 gives a slot a pair third state, so the walk's
    # bound of n/2 pairs and the budget of the closed side both cut
    rng = random.Random(n)
    for _ in range(count):
        slots = []
        for _ in range(n + 1):
            a_plus = rng.randint(-4, 4)
            slots.append((a_plus, rng.randint(-6, -2 - a_plus) if rng.random() < 0.7
                          else rng.randint(-4, 4)))
        assert_walks_agree(n, tuple(a for a, _ in slots) + tuple(b for _, b in slots))


def test_walk_matches_product_walk_with_two_state_groups():
    # a_minus = -a_plus - 1 leaves a slot only its plus and minus states
    n = 4
    assert [state for state, _, _ in slot_states_reference(2, -3)] == [PLUS, MINUS]
    for coeffs in [(2, 2, 0, 0, 1, -3, -3, 0, 0, -2),
                   (2, -3, 2, 3, -3, -3, -3, -3, -4, 0),
                   (-2, 1, 1, -2, -1, 0, -3, 3, 1, -2),
                   (0, 0, -1, -1, -1, -1, -1, 0, 0, 0)]:
        assert_walks_agree(n, coeffs)
    # every slot two-state: only the all-minus class has homology
    only = (2, 2, 2, 2, 2, -3, -3, -3, -3, -3)
    assert_walks_agree(n, only)
    assert [found[:3] for found in coh._visible_classes(n, coh._slot_groups(only))] \
        == [(0, 0, 5)]


def test_oracle_sweep_G8_enters_few_group_options():
    # every count the walk takes in a group is one node it enters, counted
    # here at the line that extends the chosen counts; the full product of
    # the sweep's group options has 78,723 combinations. The walk enters 35;
    # the walk over both counts of every group that it replaced entered 975.
    walk = next(code for code in coh._visible_classes.__code__.co_consts
                if getattr(code, "co_name", None) == "walk")
    lines, first = inspect.getsourcelines(coh._visible_classes)
    node = first + next(i for i, line in enumerate(lines) if "chosen = combo +" in line)
    entered = [0]

    def count_node(frame, event, arg):
        if event == "line" and frame.f_lineno == node:
            entered[0] += 1
        return count_node

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_node if frame.f_code is walk else None)
    try:
        report = verify_exceptional(build_Gn(8), "oracle")
    finally:
        sys.settrace(previous)
    assert report.ok and report.pairs_checked == 396_270
    assert 0 < entered[0] <= 100


@pytest.mark.parametrize("method", ["oracle", "forbidden"])
def test_sweep_G20_allocates_little(method):
    # the walk keeps no table of group options; a cached table holding one
    # (lo, hi) per slot put the traced peak at 6.1 (oracle) and 5.4 MB
    # (forbidden), so the bound shows such a table coming back
    code = ("import tracemalloc\n"
            "from toric_exc.collection import build_Gn, verify_exceptional\n"
            "collection = build_Gn(20)\n"
            "tracemalloc.start()\n"
            f"assert verify_exceptional(collection, {method!r}).ok\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 3 * 2**20


def test_oracle_sweep_peak_follows_the_forbidden_sweep():
    # both sweeps grade the same keys; the oracle's grades of acyclic keys
    # share one tuple of zero ranks, where one tuple per key put the n = 30
    # oracle peak at 4.4 MiB against 2.3 MiB for the forbidden sweep
    peaks = {}
    for method in ("oracle", "forbidden"):
        code = ("import tracemalloc\n"
                "from toric_exc.collection import build_Gn, verify_exceptional\n"
                "collection = build_Gn(30)\n"
                "tracemalloc.start()\n"
                f"assert verify_exceptional(collection, {method!r}).ok\n"
                "print(tracemalloc.get_traced_memory()[1])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        peaks[method] = int(proc.stdout)
    assert peaks["oracle"] <= 1.25 * peaks["forbidden"] + 2**18, peaks


def test_cohomology_rejects_divisor_class_on_other_fans():
    with pytest.raises(ValueError, match="centrally symmetric"):
        cohomology(reference.build_Pn(2), DivisorClass((0, 0, 0, 0)))
    with pytest.raises(ValueError, match="dimension 4"):
        cohomology(build_Vn(2), DivisorClass((0,) * 6))


@pytest.mark.parametrize("length", [5, 7, 0])
def test_cohomology_rejects_wrong_length(length):
    with pytest.raises(ValueError, match=f"{length} coefficients for 6 rays"):
        cohomology(build_Vn(2), (0,) * length)


def test_bott_formula_line_bundles():
    for n in (1, 2, 3):
        fan = reference.build_Pn(n)
        for d in range(0, 5):
            coeffs = (d,) + (0,) * n
            h = reference.cohomology(fan, coeffs)
            assert h[0] == math.comb(n + d, n)
            assert sum(h.ranks[1:]) == 0
        for d in range(-n, 0):
            # acyclic range
            assert reference.cohomology(fan, (d,) + (0,) * n).is_zero()
        for d in range(-n - 4, -n):
            h = reference.cohomology(fan, (d,) + (0,) * n)
            assert h[n] == math.comb(-d - 1, n)
            assert sum(h.ranks[:-1]) == 0


def test_pattern_side_swap_is_isomorphism():
    fan = build_Vn(4)
    half = 5
    # one pair, two plus, one minus versus its mirror
    left = [0, 0 + half, 1, 2, 3 + half]
    right = [0, 0 + half, 1 + half, 2 + half, 3]
    assert reduced_homology(complex_CI(fan, left)) == reduced_homology(
        complex_CI(fan, right)
    )


def test_pattern_slot_permutation_is_isomorphism():
    fan = build_Vn(4)
    half = 5
    base = [0, 1, 2, 3 + half]
    moved = [4, 2, 1, 0 + half]
    assert reduced_homology(complex_CI(fan, base)) == reduced_homology(
        complex_CI(fan, moved)
    )


def test_pattern_homology_profiles():
    # empty pattern feeds h^0; a full one-sided overflow feeds h^{n/2}
    assert _pattern_homology(2, 0, 0, 0) == (1, 0, 0)
    assert _pattern_homology(2, 0, 2, 0) == (0, 1, 0)
    assert _pattern_homology(4, 0, 3, 0) == (0, 0, 1, 0, 0)
    # all antipodal pairs give the boundary sphere
    assert _pattern_homology(2, 3, 0, 0) == (0, 0, 1)


def pattern_classes(n, max_pairs):
    """Every (pairs, plus, minus) class of V_n with plus <= minus."""
    return [(p, a, b) for p in range(max_pairs + 1) for a in range(n + 2)
            for b in range(a, n + 2) if p + a + b <= n + 1]


@pytest.mark.parametrize("n, max_pairs", [(2, 3), (4, 5), (6, 7), (8, 4)])
def test_pattern_homology_matches_smith_form(n, max_pairs):
    # the closed form against the Smith form on each class's complex: mixed
    # classes, (p, 0, 0) on both sides of n/2 and (p, 0, b) with b >= 1
    fan = build_Vn(n)
    for cls in pattern_classes(n, max_pairs):
        ranks, torsion = reference._subcomplex_homology(fan, fan.class_rays(*cls))
        assert not torsion, cls
        assert _pattern_homology(n, *cls) == ranks, cls
        assert _pattern_homology(n, cls[0], cls[2], cls[1]) == ranks, cls


def test_oracle_on_G4_runs_no_smith_form(monkeypatch):
    # The pattern table is a closed form, so the oracle builds no boundary
    # matrix, and on G_4 its walk reads only the empty class.
    simplicial = importlib.import_module("toric_exc.simplicial")

    def refuse(matrix):
        raise RuntimeError("Smith form reached")

    monkeypatch.setattr(simplicial, "smith_normal_form", refuse)
    report = verify_exceptional(build_Gn(4), "oracle")
    assert report.ok and report.pairs_checked == 870


def test_unbounded_region_raises():
    line = reference.GenericFan(1, ((1,),), (frozenset({0}),))
    with pytest.raises(UnboundedRegionWithHomology):
        reference.cohomology(line, (0,))


def test_incomplete_combinatorics_refused():
    # hexagon rays but projective-plane face combinatorics: some induced
    # circle has an unbounded character region, which must be an error
    facets = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    rays = ((-1, -1), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1))
    fake = reference.GenericFan(2, rays, tuple(frozenset(f) for f in facets))
    with pytest.raises(UnboundedRegionWithHomology):
        reference.cohomology(fake, (-2, -2, -2, -2, -2, -2))


def test_torsion_warning_generic_engine(monkeypatch):
    real = reference.reduced_homology

    def with_fake_torsion(complex_):
        hom = dict(real(complex_))
        if len(complex_.vertices) == 6:
            rank, _ = hom[1]
            hom[1] = (rank, (2,))
        return hom

    monkeypatch.setattr(reference, "reduced_homology", with_fake_torsion)
    fan = build_Vn(2)
    clone = reference.GenericFan(fan.rank, fan.rays, fan.max_cones)
    with pytest.warns(TorsionEncountered):
        reference.cohomology(clone, (-1,) * 6)


def test_euler_pairing_values():
    fan = build_Vn(2)
    O = DivisorClass((0, 0, 0, 0))
    assert euler_pairing(fan, O, O) == 1
    A = make_F(2, 1, {0, 1})
    assert euler_pairing(fan, A, A) == 1
    # pairing only depends on the difference
    B = make_F(2, 0, {2})
    shift = divisor(1, (0, -1, 2))
    assert euler_pairing(fan, A + shift, B + shift) == euler_pairing(fan, A, B)


@settings(max_examples=40, deadline=None)
@given(small_divisors(2), small_divisors(2))
def test_euler_pairing_riemann_roch(D1, D2):
    assert euler_pairing(build_Vn(2), D1, D2) == chi_riemann_roch(D2 - D1)
