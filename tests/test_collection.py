"""Collection construction, pairwise verification, stability, mutations."""

import ast
import copy
import gc
import importlib
import math
import pathlib
import random
from bisect import bisect_right
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_exc import reference
from toric_exc.cohomology import cohomology, euler_pairing
from toric_exc.collection import (
    METHODS,
    Block,
    Collection,
    PairResult,
    StabilityReport,
    VerificationFailed,
    apply_mutation,
    build_Fn,
    build_Gn,
    collection_to_dict,
    expected_size,
    gram_matrix,
    labeled_blocks,
    verify_exceptional,
    verify_stability,
)
from toric_exc.cones import certify_acyclic, certify_higher_acyclic
from toric_exc.fan import build_Vn, circuit_relation
from toric_exc.picard import (
    DivisorClass,
    HypothesisViolated,
    act,
    antipodal_involution,
    difference_family,
    divisor,
    family_of_parsed,
    group_generators,
    higher_acyclic_predicate,
    lemma_acyclic_predicate,
    make_F,
    parse_F,
)
from toric_exc.windows import (
    KoszulEscape,
    WindowViolation,
    build_certificate,
    verify_generation,
)
from test_windows import flat_outcomes, generation_outcome

# the module itself: the package attribute of the same name may be shadowed
collection_module = importlib.import_module("toric_exc.collection")

DIMS = (2, 4, 6, 8)


def table_of(collection):
    return [[(parse_F(m)[0], tuple(sorted(parse_F(m)[1]))) for m in b.members]
            for b in collection.blocks]


# -- parameter tables ----------------------------------------------------------


def test_admissible_pairs_frozen():
    assert build_Fn(2) == ((0, 0), (1, 2), (1, 3), (2, 3))
    assert build_Fn(4) == ((-1, 0), (0, 0), (1, 0), (0, 1), (1, 1), (1, 2),
                           (2, 4), (2, 5), (3, 5))
    assert build_Fn(6) == ((-1, 0), (0, 0), (1, 0), (0, 1), (1, 1), (1, 2),
                           (2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (4, 6),
                           (2, 7), (3, 7), (4, 7), (5, 7))


def test_admissible_pairs_dim8():
    f8 = build_Fn(8)
    assert len(f8) == len(set(f8)) == 25
    by_ell = {}
    for c, ell in f8:
        by_ell.setdefault(ell, []).append(c)
    assert by_ell[0] == [-2, -1, 0, 1, 2]
    assert by_ell[4] == [2]
    assert 5 not in by_ell
    assert by_ell[6] == [3]
    assert by_ell[9] == [3, 4, 5, 6]


def test_admissible_pairs_closed_under_involution():
    for n in DIMS:
        pairs = set(build_Fn(n))
        assert {(ell - c, ell) for c, ell in pairs} == pairs


def test_bad_dimension():
    with pytest.raises(ValueError):
        build_Fn(3)
    with pytest.raises(ValueError):
        build_Fn(0)


# -- the collections -----------------------------------------------------------


def test_expected_size_formula():
    assert [expected_size(n) for n in DIMS] == [6, 30, 140, 630]
    for n in DIMS:
        assert expected_size(n) == math.comb(n + 1, n // 2) * (n // 2 + 1)


def test_collection_sizes():
    for n in DIMS:
        col = build_Gn(n)
        assert col.size == expected_size(n)
        members = col.members
        assert len(set(members)) == len(members)
        assert all(parse_F(m) is not None for m in members)


def test_block_table_hexagon():
    col = build_Gn(2)
    assert [b.ell for b in col.blocks] == [3, 2, 0]
    assert table_of(col) == [
        [(1, (0, 1, 2)), (2, (0, 1, 2))],
        [(1, (0, 1)), (1, (0, 2)), (1, (1, 2))],
        [(0, ())],
    ]


def test_block_table_dim4():
    col = build_Gn(4)
    assert [b.ell for b in col.blocks] == [5, 4, 2, 1, 0, 0]
    assert [len(b.members) for b in col.blocks] == [2, 5, 10, 10, 2, 1]
    assert table_of(col) == [
        [(2, (0, 1, 2, 3, 4)), (3, (0, 1, 2, 3, 4))],
        [(2, (0, 1, 2, 3)), (2, (0, 1, 2, 4)), (2, (0, 1, 3, 4)),
         (2, (0, 2, 3, 4)), (2, (1, 2, 3, 4))],
        [(1, (0, 1)), (1, (0, 2)), (1, (0, 3)), (1, (0, 4)), (1, (1, 2)),
         (1, (1, 3)), (1, (1, 4)), (1, (2, 3)), (1, (2, 4)), (1, (3, 4))],
        [(0, (0,)), (0, (1,)), (0, (2,)), (0, (3,)), (0, (4,)),
         (1, (0,)), (1, (1,)), (1, (2,)), (1, (3,)), (1, (4,))],
        [(-1, ()), (1, ())],
        [(0, ())],
    ]


def test_block_ells_weakly_decreasing():
    for n in DIMS:
        ells = [b.ell for b in build_Gn(n).blocks]
        assert ells == sorted(ells, reverse=True)


# -- verification --------------------------------------------------------------


def test_inequalities_pass_every_dimension():
    for n in DIMS:
        col = build_Gn(n)
        report = verify_exceptional(col, "inequalities")
        assert report.ok and report.complete and not report.sampled
        assert report.pairs_checked == col.size * (col.size - 1)
        report.raise_if_failed()


def test_oracle_passes_small_dimensions():
    for n in (2, 4):
        assert verify_exceptional(build_Gn(n), "oracle").ok


def test_forbidden_passes_small_dimensions():
    for n in (2, 4):
        assert verify_exceptional(build_Gn(n), "forbidden").ok


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        verify_exceptional(build_Gn(2), "guesswork")


def test_full_report_relations():
    report = verify_exceptional(build_Gn(2), "oracle", full_report=True)
    assert len(report.pair_results) == 30
    assert all(r.ok for r in report.pair_results)
    counts = {}
    for r in report.pair_results:
        counts[r.relation] = counts.get(r.relation, 0) + 1
    assert counts == {"same-block": 8, "backward": 11, "forward": 11}


def test_sample_restricts_pair_sweep():
    col = build_Gn(2)
    report = verify_exceptional(col, "oracle", sample=[(0, 1), (5, 0)])
    assert report.sampled and report.pairs_checked == 2 and report.ok
    assert report.headline() == "ok: 6 members, 2 pairs checked (sampled)"
    assert verify_exceptional(col, "oracle").headline() == "ok: 6 members, 30 pairs checked"
    dropped = apply_mutation(col, "drop:0")
    report = verify_exceptional(dropped, "oracle", sample=[(0, 1)])
    assert not report.complete and not report.ok


@pytest.mark.parametrize("pair", [(0, 6), (6, 0), (-1, 0), (0, -6), (2, 2),
                                  (0.9, 1.7), (True, 2), (1, 2.0)])
def test_sample_rejects_bad_pairs(pair):
    # G_2 has positions 0..5: out of range, negative, i == j, and not an int
    # (int() would read 0.9 as 0 and True as 1)
    with pytest.raises(ValueError, match=rf"\({pair[0]}, {pair[1]}\)"):
        verify_exceptional(build_Gn(2), "oracle", sample=[(0, 1), pair])


# -- the reduced sweep against a flat per-pair sweep -------------------------------


def reference_sweep(col, method, pairs):
    """Grade each pair on its own, with no grouping by family."""
    fan = build_Vn(col.n)
    members = col.members
    block_of = [bi for bi, block in enumerate(col.blocks) for _ in block.members]
    out = []
    for i, j in pairs:
        bs, bt = block_of[i], block_of[j]
        relation = ("same-block" if bs == bt
                    else "forward" if bs < bt else "backward")
        need_all = relation != "forward"
        D = members[j] - members[i]
        if method == "oracle":
            ranks = cohomology(fan, D).ranks
            ok = not (any(ranks) if need_all else any(ranks[1:]))
            detail = f"h = {ranks}"
        elif method == "forbidden":
            certify = certify_acyclic if need_all else certify_higher_acyclic
            ok, detail = certify(fan, D), "forbidden-cone sweep"
        else:
            c, k, ell = difference_family(col.n, members[j], members[i])
            detail = f"(c, k, l) = ({c}, {k}, {ell})"
            try:
                ok = (lemma_acyclic_predicate(col.n, c, k, ell) if need_all
                      else higher_acyclic_predicate(col.n, c, k, ell))
            except HypothesisViolated as e:
                ok, detail = False, f"{detail}: {e}"
        out.append(PairResult(i, j, relation, ok, detail))
    return tuple(out)


def all_pairs(col):
    return [(i, j) for i in range(col.size) for j in range(col.size) if i != j]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n, mutation", [
    (n, m) for n in (2, 4)
    for m in (None, "drop:3", "add:1,0-1", "swap:0,5", "swap:1,20")
    if not (n == 2 and m == "swap:1,20")  # G_2 has only 6 positions
])
def test_reduced_sweep_matches_flat_sweep(method, n, mutation):
    col = build_Gn(n)
    if mutation:
        col = apply_mutation(col, mutation)
    report = verify_exceptional(col, method, full_report=True)
    reference = reference_sweep(col, method, all_pairs(col))
    assert report.pair_results == reference
    assert report.violations == tuple(r for r in reference if not r.ok)


@pytest.mark.parametrize("method", METHODS)
def test_reduced_sweep_matches_flat_sweep_on_sampled_dim6_mutant(method):
    col = apply_mutation(build_Gn(6), "add:1,0-1-2")
    pairs = random.Random(7).sample(all_pairs(col), 300)
    report = verify_exceptional(col, method, sample=pairs, full_report=True)
    assert report.pair_results == reference_sweep(col, method, pairs)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n, mutation", [
    (n, m) for n in (2, 4, 6) for m in ("add:1,0-1", "add:2,0-1-2-3-4", "swap:1,20", "drop:3")
    if n > 2 or m in ("add:1,0-1", "drop:3")  # G_2 has labels 0..2 and 6 positions
])
def test_sampled_overlap_keys_match_flat_sweep(method, n, mutation):
    # an added member repeats a J, so a sampled pair between the two has
    # overlap l: the zero class
    col = mutant(n, mutation)
    labels = [col.at(p)[1] for p in range(col.size)]
    repeated = [(i, j) for i, j in all_pairs(col) if labels[i] == labels[j]]
    assert bool(repeated) == mutation.startswith("add")
    pairs = repeated + random.Random(n).sample(all_pairs(col), min(300, col.size * (col.size - 1)))
    report = verify_exceptional(col, method, sample=pairs, full_report=True)
    assert report.pair_results == reference_sweep(col, method, pairs)


def mutant(n, mutation):
    col = build_Gn(n)
    return apply_mutation(col, mutation) if mutation else col


COUNTED_MUTANTS = [
    (n, m) for n in (2, 4)
    for m in (None, "drop:3", "add:1,0-1", "add:0,0", "swap:0,5", "swap:1,20")
    if not (n == 2 and m == "swap:1,20")
] + [(6, m) for m in ("add:1,0-1-2", "drop:17", "swap:0,100")]


@pytest.mark.parametrize("method, n, mutation", [
    (method, n, m) for method in METHODS
    for n, m in COUNTED_MUTANTS + [(4, "add:2,0-1-2-3-4")] if n < 6
] + [("inequalities", n, m) for n, m in COUNTED_MUTANTS if n == 6])
def test_counted_sweep_matches_flat_sweep(method, n, mutation):
    col = mutant(n, mutation)
    report = verify_exceptional(col, method)
    reference = reference_sweep(col, method, all_pairs(col))
    assert report.pairs_checked == len(reference) == col.size * (col.size - 1)
    assert report.violations == tuple(r for r in reference if not r.ok)
    assert report.pair_results is None and not report.sampled


def flat_key_tally(col, unit_of):
    """(source unit, target unit) -> {(family, need_all): pairs}, over every pair of units."""
    parsed = [parse_F(m) for m in col.members]
    block_of = [bi for bi, block in enumerate(col.blocks) for _ in block.members]
    tally = {}
    for i, j in all_pairs(col):
        key = (family_of_parsed(parsed[j], parsed[i]), block_of[i] >= block_of[j])
        counts = tally.setdefault((unit_of[i], unit_of[j]), {})
        counts[key] = counts.get(key, 0) + 1
    return tally


@pytest.mark.parametrize("n, mutation", [pytest.param(n, None, id=str(n)) for n in DIMS] + [
    (n, m) for n, m in COUNTED_MUTANTS if m] + [(4, "add:2,0-1-2-3-4")])
def test_counted_keys_match_flat_tally(n, mutation):
    # add:2,0-1-2-3-4 duplicates the one member of block 0's (2, 5) cell
    col = mutant(n, mutation)
    units = collection_module._units(n, col.cells)
    unit_of = {p: u for u, unit in enumerate(units) for cell in unit.cells for p in cell.positions}
    assert sorted(unit_of) == list(range(col.size))
    assert any(unit.repeats for unit in units) == (mutation == "add:2,0-1-2-3-4")
    flat = flat_key_tally(col, unit_of)
    intact = [unit.size == math.comb(n + 1, unit.ell) and not unit.repeats for unit in units]
    for s, source in enumerate(units):
        for t, target in enumerate(units):
            dc, l_s, l_t, need_all, diagonal = collection_module._shape(source, target)
            ks = collection_module._span(n, l_s, l_t, diagonal)
            found = flat.get((s, t), {})
            # every key that has pairs lies on the shape's line, with k in its range
            assert all((c, ell - k, relation) == (dc, l_t - l_s, need_all) and k in ks
                       for (c, k, ell), relation in found)
            if intact[s] and intact[t]:
                assert sorted(k for (_, k, _), _ in found) == list(ks)
            if s == t:
                # the diagonal key, k = 0, appears exactly when the unit repeats a J
                assert (((0, 0, 0), True) in found) == (0 in ks) == source.repeats


@pytest.mark.parametrize("n, mutation", [pytest.param(n, None, id=str(n)) for n in range(2, 22, 2)]
                         + [(n, m) for n, m in COUNTED_MUTANTS if m] + [(8, "swap:0,600")])
def test_shapes_from_ell_groups_match_unit_pair_shapes(n, mutation):
    col = mutant(n, mutation)
    units = collection_module._units(n, col.cells)
    by_ell = {}
    for unit in units:
        by_ell.setdefault(unit.ell, []).append(unit)
    listed = [((dc, l_s, l_t, need_all, diagonal), ks)
              for l_s, l_t, need_all, diagonal, dcs, ks in collection_module._shapes(n, by_ell)
              for dc in dcs]
    shapes = {collection_module._shape(s, t) for s in units for t in units}
    # each shape once, with its keys' range; a shape whose range is empty (a
    # unit of l = 0 or n + 1 against itself) has no key and is left out
    assert len(listed) == len(dict(listed))
    assert all(ks == collection_module._span(n, *shape[1:3], shape[4]) for shape, ks in listed)
    assert {shape for shape, _ in listed} == {
        shape for shape in shapes if collection_module._span(n, *shape[1:3], shape[4])}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n, keys, same_ell", [(6, 129, 44), (8, 256, 85)])
def test_intact_sweep_grades_each_key_once(monkeypatch, method, n, keys, same_ell):
    # G_8 has 25 units, so 625 unit pairs; only the 85 within one l read
    # their shape one by one, and the 256 keys on their lines are graded once
    col = build_Gn(n)
    units = collection_module._units(n, col.cells)
    assert same_ell == sum(s.ell == t.ell for s in units for t in units)
    grades = count_grades(monkeypatch)
    shapes = count_calls(monkeypatch, ["_shape"])
    assert verify_exceptional(col, method).ok
    assert len(grades) == len(set(grades)) == keys
    assert len(shapes) == same_ell


def count_grades(monkeypatch):
    """The keys (c, k, l, need_all) that the grade of each _class_grader is asked for."""
    keys, original = [], collection_module._class_grader

    def counted_grader(method, n):
        grade = original(method, n)

        def counted(*key):
            keys.append(key)
            return grade(*key)

        return counted

    monkeypatch.setattr(collection_module, "_class_grader", counted_grader)
    return keys


def test_cells_of_a_mutant():
    col = apply_mutation(build_Gn(4), "add:1,0-1")
    cells = col.cells
    assert sum(len(cell.positions) for cell in cells) == col.size
    # the added F_{1,{0,1}} sits alone in block 0, with |J| = 2 and the rank
    # of {0, 1}, and every other cell keeps the whole order at shifted positions
    (added,) = [cell for cell in cells if len(cell.ranks) < math.comb(5, cell.ell)]
    assert (added.block, added.c, added.ell, added.positions, added.ranks) == (
        0, 1, 2, range(2, 3), range(0, 1))
    assert all(cell.ranks == range(math.comb(5, cell.ell)) for cell in cells if cell is not added)
    # a swap inside the cell at 7..16 cuts it into three slices of the order
    # that hold every J between them
    swapped = [(cell.positions, cell.ranks) for cell in apply_mutation(build_Gn(4), "swap:7,8").cells
               if cell.positions.start in range(7, 17)]
    assert swapped == [(range(7, 8), range(1, 2)), (range(8, 9), range(0, 1)),
                       (range(9, 17), range(2, 10))]


def make_F_blocks(n):
    """G_n's blocks as (ell, members), its members as make_F builds them."""
    orbits = sorted({(ell, frozenset({c, ell - c})) for c, ell in build_Fn(n)},
                    key=lambda key: (-key[0], min(key[1])))
    return [(ell, [make_F(n, c, j) for c in sorted(cs) for j in combinations(range(n + 1), ell)])
            for ell, cs in orbits]


def make_F_members(n):
    """G_n's members as make_F builds them, in block order."""
    return tuple(m for _, members in make_F_blocks(n) for m in members)


def test_recorded_cells_match_parsed_cells():
    for n in range(2, 14, 2):
        col = build_Gn(n)
        assert "blocks" not in vars(col)  # held as cells: no member was made
        # each cell is the whole lexicographic order, at consecutive positions
        assert all(cell.ranks == range(math.comb(n + 1, cell.ell))
                   and isinstance(cell.positions, range) for cell in col.cells)
        # its members, ranked and grouped back, give the same cells
        assert Collection(n, col.blocks).cells == col.cells


def test_members_made_on_read_match_make_F():
    for n in range(2, 12, 2):
        col = build_Gn(n)
        assert col.members == make_F_members(n)
        assert [b.ell for b in col.blocks] == [ell for ell, _ in col.shape]


def test_rth_member_of_every_cell_matches_the_listed_one():
    for n in range(2, 14, 2):
        col = build_Gn(n)
        members = make_F_members(n)
        for cell in col.cells:
            for r, j in enumerate(combinations(range(n + 1), cell.ell)):
                p = cell.positions[r]
                assert col.member(p) == members[p] == make_F(n, cell.c, j)
                assert col.at(p) == (cell.block, (cell.c, frozenset(j)))
        assert "blocks" not in vars(col)  # each was made from its cell alone
        for p in (-1, col.size):
            with pytest.raises(IndexError):
                col.member(p)
        # the rank of a J and the r-th subset invert each other, for every l
        for ell in range(n + 2):
            for r, j in enumerate(combinations(range(n + 1), ell)):
                assert collection_module._nth_subset(n + 1, ell, r) == j
                assert collection_module._rank(n + 1, j) == r


def test_views_agree_with_a_collection_that_holds_its_members():
    for n in (2, 4, 6):
        col, grouped = build_Gn(n), Collection(n, build_Gn(n).blocks)
        for p in range(col.size):
            assert col.at(p) == grouped.at(p)
            assert col.member(p) == grouped.member(p)
        assert col.size == grouped.size == expected_size(n)
        assert col.shape == grouped.shape
        assert "blocks" not in vars(col)
        assert col == grouped


@pytest.mark.parametrize("n", [16, 40])
def test_one_member_mutation_cuts_only_what_it_damages(n):
    # G_40's largest cell holds 2.7 * 10^11 members; a drop, add or swap cuts
    # its rank range at the touched positions and lists none of its J
    g = build_Gn(n)
    big = max(g.cells, key=lambda cell: len(cell.positions))
    if n == 40:
        assert big.positions == range(2276098026922, 2545226964142)
    first, last = big.positions[0], big.positions[-1]
    mid = first + len(big.positions) // 2
    block0 = g.shape[0][1]

    def intact(p):  # what the parent holds at p: the subset of rank p - first
        return big.block, (big.c, frozenset(collection_module._nth_subset(
            n + 1, big.ell, p - first)))

    j0 = "-".join(map(str, sorted(intact(first)[1][1])))
    cases = [
        # text, size change, cells added, stable, mutant position -> parent's
        (f"drop:{mid}", -1, 1, False, {mid - 1: mid - 1, mid: mid + 1}),
        (f"add:{big.c},{j0}", 1, 1, False, {first + 1: first, last + 1: last}),
        (f"swap:{first},{last}", 0, 2, True,
         {first: last, first + 1: first + 1, last - 1: last - 1, last: first}),
    ]
    for text, grown, cut, stable, edges in cases:
        mutant = apply_mutation(g, text)
        assert len(mutant.cells) - len(g.cells) == cut <= 4
        assert mutant.size == g.size + grown
        assert (mutant.size == expected_size(n)) == (grown == 0)
        assert verify_stability(mutant).ok == stable
        for p, parent in edges.items():
            assert mutant.at(p) == intact(parent)
        if text.startswith("add"):
            assert mutant.at(block0) == (0, intact(first)[1])


def count_made(monkeypatch):
    """Every DivisorClass made from now on."""
    made = []
    init = DivisorClass.__init__

    def counted(self, coeffs):
        init(self, coeffs)
        made.append(self)

    monkeypatch.setattr(DivisorClass, "__init__", counted)
    return made


def test_mutations_record_no_cells(monkeypatch):
    # a mutation cuts its parent's rank ranges: it makes no member
    g4 = build_Gn(4)
    made = count_made(monkeypatch)
    for text in ("drop:0", "add:0,0", "add:1,0-1", "swap:0,5", "swap:3,3"):
        mutated = apply_mutation(g4, text)
        assert made == []
        assert mutated.cells == Collection(4, mutated.blocks).cells
        made.clear()
    assert "blocks" not in vars(g4)


def test_unmutated_checks_parse_few_members(monkeypatch):
    # windows has no parse_F to call: its checks read shapes, not classes
    assert not hasattr(importlib.import_module("toric_exc.windows"), "parse_F")
    calls = count_calls(monkeypatch, ["parse_F"])
    g8 = build_Gn(8)
    assert verify_exceptional(g8, "inequalities").ok
    assert verify_stability(g8).ok
    assert verify_generation(8, g8).walls == 256
    assert len(calls) < 100


def test_sampled_oracle_sweep_parses_no_member(monkeypatch):
    calls = count_calls(monkeypatch, ["parse_F"])
    pairs = random.Random(0).sample([(i, j) for i in range(630) for j in range(630)
                                     if i != j], 100)
    assert verify_exceptional(build_Gn(8), "oracle", sample=pairs).ok
    assert calls == []


@pytest.mark.parametrize("text", ["drop:0", "add:1,0-1", "swap:0,29"])
def test_checks_on_a_mutant_parse_each_member_once(monkeypatch, text):
    # the mutant is regrouped from G_8's cells, so neither the mutation nor
    # the checks parse a member, and windows has no parse_F to call
    assert not hasattr(importlib.import_module("toric_exc.windows"), "parse_F")
    in_collection = count_calls(monkeypatch, ["parse_F"])
    mutant = apply_mutation(build_Gn(8), text)
    assert not verify_exceptional(mutant).ok
    assert not verify_stability(mutant).ok
    try:
        verify_generation(8, mutant)
    except (KoszulEscape, WindowViolation):
        pass
    assert in_collection == []


def test_intact_checks_make_no_member(monkeypatch):
    made = count_made(monkeypatch)
    g8 = build_Gn(8)
    assert verify_exceptional(g8).pairs_checked == 396270
    assert verify_stability(g8).ok
    assert verify_generation(8, g8).walls == 256
    # a few classes per cell and per wall size, against 630 members
    assert len(made) < 315
    assert "blocks" not in vars(g8)


@pytest.mark.parametrize("method", METHODS)
def test_counted_sweep_reads_no_members(monkeypatch, method):
    def unread(self):
        raise AssertionError("Collection.members was read")

    monkeypatch.setattr(Collection, "members", property(unread))
    g8 = build_Gn(8)
    assert verify_exceptional(g8, method).ok


@pytest.mark.parametrize("text", ["drop:0", "add:1,0-1", "swap:0,29"])
def test_stability_on_a_mutant_reads_no_members(monkeypatch, text):
    # a damaged block is worded from its J sets, not member by member
    def unread(self):
        raise AssertionError("Collection.members was read")

    mutant = apply_mutation(build_Gn(8), text)
    monkeypatch.setattr(Collection, "members", property(unread))
    assert not verify_stability(mutant).ok


def count_walked(monkeypatch):
    """The pairs of each unit pair walked from now on: its source's size times its target's."""
    walked, original = [], collection_module._unit_violations

    def counted(n, source, target, keys):
        walked.append(source.size * target.size)
        return original(n, source, target, keys)

    monkeypatch.setattr(collection_module, "_unit_violations", counted)
    return walked


def test_unmutated_dim8_sweep_walks_no_pair(monkeypatch):
    walked = count_walked(monkeypatch)
    report = verify_exceptional(build_Gn(8), "inequalities")
    assert report.ok and report.pairs_checked == 396270
    assert sum(walked) < 10000


def test_swap_inside_a_block_walks_no_pair(monkeypatch):
    # positions 313 and 397 start the two cells of G_8's block 7: the swap
    # cuts them, but the parts of each still hold every label once, so they
    # are counted as whole cells and no pair is walked
    walked = count_walked(monkeypatch)
    report = verify_exceptional(apply_mutation(build_Gn(8), "swap:313,397"))
    assert report.ok and report.pairs_checked == 396270
    assert walked == []


def test_damaged_sweep_walks_about_its_violations(monkeypatch):
    # the swap trades F_{6,{0..10}}, alone in block 2, with one of the 330
    # members of block 10's (3, 7) cell; only the unit pairs whose keys fail
    # are walked, so the pairs read track the violations, not that cell
    col = apply_mutation(build_Gn(10), "swap:5,900")
    small = apply_mutation(build_Gn(4), "swap:1,20")  # across blocks too
    views = {"shape", "members", "blocks"}  # the public cached views

    def held(c):
        return {key: copy.copy(value) for key, value in vars(c).items() if key not in views}

    before = {id(c): held(c) for c in (col, small)}
    walked = count_walked(monkeypatch)
    report = verify_exceptional(col)
    assert report.pairs_checked == col.size * (col.size - 1)
    # every violation is found on a walked pair, so the count cannot read 0
    assert report.violations and len(report.violations) <= sum(walked) <= 2 * len(report.violations)
    # no check keeps a position it reads: the full report and the Gram
    # matrix pair every position, so they run on the smaller mutant only
    sample = [(5, 20), (20, 5), (0, 1), (5, 1)]
    reads = count_calls(monkeypatch, ["_nth_subset"])
    for c in (col, small):
        verify_exceptional(c)
        reads.clear()
        verify_exceptional(c, "oracle", sample=sample)
        assert len(reads) == 4  # each sampled position once
        verify_stability(c)
        if c is small:
            verify_exceptional(c, full_report=True)
            gram_matrix(c)
        assert held(c) == before[id(c)]


@pytest.mark.parametrize("n, mutation", [(2, "swap:0,5"), (4, "swap:1,20"), (8, "swap:0,600")])
def test_failing_sweep_leaves_no_reference_cycle(n, mutation):
    # a grade keeps a violated hypothesis's message: the exception's traceback
    # would hold the sweep's frame, and all it made, until a cyclic collection
    col = apply_mutation(build_Gn(n), mutation)
    gc.collect()
    gc.disable()
    try:
        report = verify_exceptional(col)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert any("predicate needs k <= l" in r.detail for r in report.violations)
    assert unreachable == 0


def count_calls(monkeypatch, names):
    calls = []
    for name in names:
        original = getattr(collection_module, name)

        def counted(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(collection_module, name, counted)
    return calls


def test_full_dim6_oracle_sweep_grades_each_family_once(monkeypatch):
    # the sweep loads the engine when it is called, so the engine is counted
    # in its own module
    col = build_Gn(6)
    calls = []
    engine = importlib.import_module("toric_exc.cohomology")
    original = engine._symmetric_engine

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, "_symmetric_engine", counted)
    report = verify_exceptional(col, "oracle")
    assert report.ok and report.pairs_checked == 19460
    assert len(calls) <= 129


# -- mutations are caught --------------------------------------------------------


def test_drop_caught_by_size_check():
    col = apply_mutation(build_Gn(2), "drop:0")
    assert col.size == 5
    report = verify_exceptional(col, "oracle")
    assert not report.complete and not report.ok
    with pytest.raises(VerificationFailed):
        report.raise_if_failed()
    assert "size 5 != expected 6" in report.headline()


@pytest.mark.parametrize("method, count, detail", [
    ("inequalities", 8, "(c, k, l) = (-1, 3, 0): predicate needs k <= l, got (3, 0)"),
    ("oracle", 6, "h = (3, 0, 0, 0, 0)"),
    ("forbidden", 6, "forbidden-cone sweep"),
])
def test_failing_headline_names_the_count_and_the_first_pair(method, count, detail):
    report = verify_exceptional(apply_mutation(build_Gn(4), "add:1,0-1"), method)
    assert report.headline() == (f"size 31 != expected 30; {count} violating pairs, "
                                 f"first 0->2: {detail}")


def test_add_duplicate_caught_by_pair_sweep():
    col = apply_mutation(build_Gn(2), "add:0,")
    assert col.size == 7
    for method in ("inequalities", "oracle"):
        report = verify_exceptional(col, method)
        assert not report.ok and report.violations
    # the duplicate pair itself is among the witnesses
    report = verify_exceptional(col, "oracle")
    assert any({v.source, v.target} == {2, 6} for v in report.violations)


def test_add_stranger_caught_by_pair_sweep():
    col = apply_mutation(build_Gn(2), "add:3,0-1-2")
    report = verify_exceptional(col, "inequalities")
    assert not report.ok and report.violations
    oracle = verify_exceptional(col, "oracle")
    assert oracle.violations


def test_swap_across_blocks_caught():
    col = apply_mutation(build_Gn(2), "swap:0,5")
    for method in ("inequalities", "oracle", "forbidden"):
        report = verify_exceptional(col, method)
        assert not report.ok
        assert report.violations, method


def test_swap_within_block_is_harmless():
    col = apply_mutation(build_Gn(2), "swap:2,3")
    assert verify_exceptional(col, "oracle").ok


def test_mutation_grammar_errors():
    col = build_Gn(2)
    for bad in ("drop:99", "swap:0,99", "frob:1", "drop:x", "add:0,7"):
        with pytest.raises(ValueError):
            apply_mutation(col, bad)


def test_repeated_label_refused():
    # a repeated label used to collapse into a set: add:1,0-0 added F_{1,{0}}
    with pytest.raises(ValueError, match="repeated label"):
        apply_mutation(build_Gn(4), "add:1,0-0")
    with pytest.raises(ValueError, match="repeated label"):
        make_F(4, 1, (2, 3, 2))


@st.composite
def mutation_sequences(draw):
    """One to three drop/add/swap mutations, each valid for the collection it meets."""
    size = expected_size(4)
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "add", "swap"]))
        if kind == "drop" and size > 1:
            texts.append(f"drop:{draw(st.integers(0, size - 1))}")
            size -= 1
        elif kind == "swap":
            i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            texts.append(f"swap:{i},{j}")
        else:
            c = draw(st.integers(-1, 3))
            labels = draw(st.sets(st.integers(0, 4), max_size=5))
            texts.append(f"add:{c},{'-'.join(map(str, sorted(labels)))}")
            size += 1
    return texts


def flat_mutation(n, entries, text):
    """Reference: the mutation on a flat list of (block, member) entries."""
    kind, _, arg = text.partition(":")
    entries = list(entries)
    if kind == "drop":
        del entries[int(arg)]
    elif kind == "add":
        c_text, _, j_text = arg.partition(",")
        member = make_F(n, int(c_text), [int(x) for x in j_text.split("-") if x != ""])
        entries.insert(sum(block == 0 for block, _ in entries), (0, member))
    else:
        i, j = map(int, arg.split(","))
        (bi, mi), (bj, mj) = entries[i], entries[j]
        entries[i], entries[j] = (bi, mj), (bj, mi)
    return entries


def assert_views_match_flat(col, ells, entries):
    """Every view of col against a flat list of (block, member) entries."""
    assert col.size == len(entries)
    assert col.members == tuple(m for _, m in entries)
    for p, (block, m) in enumerate(entries):
        parsed = parse_F(m)
        assert col.at(p) == (block, parsed)
        assert col.member(p) == m
    assert col.shape == tuple((ell, sum(block == bi for block, _ in entries))
                              for bi, ell in enumerate(ells))
    assert labeled_blocks(col) == [
        (ell, [(parse_F(m)[0], sorted(parse_F(m)[1])) for block, m in entries
               if block == bi]) for bi, ell in enumerate(ells)]


@settings(max_examples=25, deadline=None)
@given(texts=mutation_sequences())
@example(texts=["swap:2,9", "add:1,0-1", "drop:0"])
@example(texts=["drop:7"] * 6)  # 4 of the 10 J of the l = 2 cell left
def test_mutation_sequences_match_flat_references(texts):
    col = build_Gn(4)
    ells = [block.ell for block in col.blocks]
    entries = [(bi, m) for bi, block in enumerate(col.blocks) for m in block.members]
    for text in texts:
        col = apply_mutation(col, text)
        entries = flat_mutation(4, entries, text)
    assert col.cells == Collection(4, col.blocks).cells
    assert_views_match_flat(col, ells, entries)
    pairs = all_pairs(col)
    for method in ("inequalities", "oracle"):
        report = verify_exceptional(col, method)
        reference = reference_sweep(col, method, pairs)
        assert report.pairs_checked == len(reference)
        assert report.violations == tuple(r for r in reference if not r.ok)
    assert verify_stability(col) == flat_stability(col)
    certificate, check = flat_outcomes(4, col)
    assert generation_outcome(lambda: build_certificate(4, col)) == certificate
    assert generation_outcome(lambda: verify_generation(4, col)) == check


def test_certificates_never_contradict_oracle_on_mutants():
    for text in ("add:3,0-1-2", "swap:0,5", "swap:1,4"):
        col = apply_mutation(build_Gn(2), text)
        oracle = {(r.source, r.target): r.ok for r in verify_exceptional(
            col, "oracle", full_report=True).pair_results}
        for method in ("inequalities", "forbidden"):
            report = verify_exceptional(col, method, full_report=True)
            for r in report.pair_results:
                if r.ok:
                    assert oracle[(r.source, r.target)], (text, method, r)


# -- stability --------------------------------------------------------------------


def test_stability_every_dimension():
    for n in DIMS:
        report = verify_stability(build_Gn(n))
        assert report.ok and not report.failures
        report.raise_if_failed()


def test_dim80_builds_and_checks_past_the_longest_range_length():
    # C(81, 40) > 2^63 - 1 ranks fill a cell of G_80: len() of a range that
    # long raises OverflowError, so lengths are read as stop - start
    n = 80
    col = build_Gn(n)
    assert col.size == expected_size(n) > 2**63 + 12345
    for p in (col.size - 1, 2**63 + 12345):
        cell = col.cells[bisect_right(col._starts, p) - 1]
        r = cell.ranks[p - cell.positions.start]
        block, (c, j) = col.at(p)
        assert (block, c, len(j)) == (cell.block, cell.c, cell.ell)
        assert collection_module._rank(n + 1, j) == r
        assert collection_module._nth_subset(n + 1, cell.ell, r) == tuple(sorted(j))
    assert verify_stability(col).ok
    assert verify_generation(n, col).pieces == col.size
    # a drop near the end cuts a cell whose positions lie past 2^63
    p = col.size - 6
    block = col.at(p)[0]
    dropped = apply_mutation(col, f"drop:{p}")
    assert dropped.size == col.size - 1
    assert dropped.shape[block][1] == col.shape[block][1] - 1
    report = verify_stability(dropped)
    assert not report.ok
    assert f"moves block {block} off itself" in report.failures[0]


def test_stability_broken_by_drop():
    report = verify_stability(apply_mutation(build_Gn(2), "drop:2"))
    assert not report.ok
    assert any("moves block" in f for f in report.failures)
    with pytest.raises(VerificationFailed):
        report.raise_if_failed()
    # dropping one of the twisted pair breaks the involution instead
    report = verify_stability(apply_mutation(build_Gn(2), "drop:0"))
    assert not report.ok


def flat_stability(col):
    """Reference: every generator on every block, the involution on every member."""
    n = col.n
    failures = []
    for gi, g in enumerate(group_generators(n)):
        for bi, block in enumerate(col.blocks):
            if {act(g, m) for m in block.members} != set(block.members):
                failures.append(f"generator {gi} moves block {bi} off itself")
    for m in col.members:
        c, j = parse_F(m)
        if act((tuple(range(n + 1)), True), m) != make_F(n, len(j) - c, j):
            failures.append(f"involution breaks closed form on {m.coeffs}")
    return StabilityReport(n, not failures, tuple(failures))


def with_duplicate(col):
    """col with a second copy of its first member, appended to the first block."""
    c, j = parse_F(col.members[0])
    return apply_mutation(col, f"add:{c},{'-'.join(map(str, sorted(j)))}")


def stability_cases():
    g4 = build_Gn(4)
    yield from (build_Gn(n) for n in (2, 4, 6, 8))
    yield from (apply_mutation(g4, f"drop:{i}") for i in range(g4.size))
    yield from (apply_mutation(g4, m) for m in ("add:0,0", "add:1,0-1"))
    yield with_duplicate(g4)
    starts = [0]
    for block in g4.blocks:
        starts.append(starts[-1] + len(block.members))
    for a, b in combinations(starts[:-1], 2):  # first members of two blocks
        yield apply_mutation(g4, f"swap:{a},{b}")
        yield apply_mutation(g4, f"swap:{a + 1},{b - 1}")
    yield apply_mutation(build_Gn(8), "swap:0,600")


def test_cell_stability_matches_flat_loop():
    outcomes = set()
    for col in stability_cases():
        report = verify_stability(col)
        assert report == flat_stability(col)
        outcomes.add(report.ok)
    assert outcomes == {True, False}


def test_stability_member_of_another_dimension_raises():
    # the flat loop cannot permute it; the collection refuses it before any
    # cell can wave it through
    g2 = build_Gn(2)
    last = g2.blocks[-1]
    assert parse_F(last.members[0]) == (0, frozenset())
    with pytest.raises(ValueError):
        verify_stability(Collection(2, g2.blocks[:-1]
                                    + (Block(last.ell, last.members + (make_F(4, 0, ()),)),)))


def g4_with_member_of_dim6():
    """G_4 with its first member F_{c,J} replaced by the F_{c,J} of dimension 6."""
    g4 = build_Gn(4)
    first = g4.blocks[0]
    c, j = parse_F(first.members[0])
    moved = Block(first.ell, first.members[1:] + (make_F(6, c, j),))
    return Collection(4, (moved,) + g4.blocks[1:])


@pytest.mark.parametrize("method", METHODS)
def test_sweep_member_of_another_dimension_raises(method):
    # its cell would read complete by labels: the collection refuses it, so
    # neither sweep can wave it through
    for full_report in (False, True):
        with pytest.raises(ValueError):
            verify_exceptional(g4_with_member_of_dim6(), method, full_report=full_report)


def test_stability_acts_once_per_cell(monkeypatch):
    # the generators act on the J sets of the cells; only the involution's
    # closed form is applied to classes
    module = importlib.import_module("toric_exc.collection")
    calls = []

    def counted(D):
        calls.append(D)
        return antipodal_involution(D)

    monkeypatch.setattr(module, "antipodal_involution", counted)
    g8 = build_Gn(8)
    assert verify_stability(g8).ok
    assert len(calls) < 100
    # the flat loop compares sets, so a duplicated member passes, by cells too
    duplicated = with_duplicate(g8)
    assert duplicated.size == g8.size + 1
    assert verify_stability(duplicated).ok
    assert len(calls) < 200
    # a broken collection is worded on the cells too: no member is acted on
    # one by one (the flat loop made over 1,000 calls)
    assert not verify_stability(apply_mutation(build_Gn(8), "drop:0")).ok
    assert len(calls) < 300


@pytest.mark.parametrize("broken", [
    lambda D: D,  # fixes every class: wrong wherever l != 2c
    lambda D: D if D.h == -1 else antipodal_involution(D),  # wrong on c = 1 only
], ids=["identity", "c=1"])
@pytest.mark.parametrize("n", [4, 6])
def test_stability_reports_a_broken_involution(monkeypatch, broken, n):
    # the closed form is proved on the involution at each call: every member
    # it breaks is named, as the flat loop names it
    module = importlib.import_module("toric_exc.collection")
    col = build_Gn(n)
    assert verify_stability(col).ok
    expected = []
    for m in col.members:
        c, j = parse_F(m)
        if broken(m) != make_F(n, len(j) - c, j):
            expected.append(f"involution breaks closed form on {m.coeffs}")
    assert expected
    monkeypatch.setattr(module, "antipodal_involution", broken)
    report = verify_stability(col)
    assert report == StabilityReport(n, False, tuple(expected))


# -- numerics ----------------------------------------------------------------------


def test_gram_matrix_hexagon():
    assert gram_matrix(build_Gn(2)) == (
        (1, 0, 1, 1, 1, 3),
        (0, 1, 1, 1, 1, 3),
        (0, 0, 1, 0, 0, 2),
        (0, 0, 0, 1, 0, 2),
        (0, 0, 0, 0, 1, 2),
        (0, 0, 0, 0, 0, 1),
    )


def test_gram_matrix_dim4_unitriangular():
    g = gram_matrix(build_Gn(4))
    for i, row in enumerate(g):
        assert row[i] == 1
        assert all(row[j] == 0 for j in range(i))


def test_gram_matrix_matches_flat_euler_pairings():
    col = build_Gn(4)
    fan = build_Vn(4)
    flat = tuple(tuple(euler_pairing(fan, a, b) for b in col.members)
                 for a in col.members)
    assert gram_matrix(col) == flat


# -- serialization ------------------------------------------------------------------


@pytest.mark.parametrize("n, mutation", [
    (2, None), (4, None), (4, "add:1,0-2"), (4, "swap:0,5"), (4, "drop:3")])
def test_collection_json_lists_every_member(n, mutation):
    # each block's l and its members' (c, sorted J) in flat order, against
    # make_F's G_n with the mutation applied to a flat list of members
    blocks = make_F_blocks(n)
    entries = [(bi, m) for bi, (_, members) in enumerate(blocks) for m in members]
    col = build_Gn(n)
    if mutation:
        col = apply_mutation(col, mutation)
        entries = flat_mutation(n, entries, mutation)
    expected = [{"ell": ell, "members": [{"c": parse_F(m)[0], "J": sorted(parse_F(m)[1])}
                                         for block, m in entries if block == bi]}
                for bi, (ell, _) in enumerate(blocks)]
    assert collection_to_dict(col) == {
        "schema": "toric-exc/collection/1", "n": n, "blocks": expected}


# -- input validation -----------------------------------------------------------------


@pytest.mark.parametrize("n, member", [
    (2, divisor(0, (1, 0, 0))), (4, make_F(6, 1, (0, 1, 2))), (4, make_F(2, 0, ())),
], ids=["not-F", "F-of-dimension-n-plus-2", "F-on-V2"])
def test_collection_refuses_a_member_outside_F(n, member):
    # a collection holds cells alone; F_{0,{}} on V_2 would pass every
    # class check on V_4, so only the dimension check catches it
    first, *rest = build_Gn(n).blocks
    with pytest.raises(ValueError, match=r"not an F_\{c,J\} class"):
        Collection(n, [Block(first.ell, first.members + (member,)), *rest])


@pytest.mark.parametrize("call", [
    lambda: build_Vn(2).is_face([99]),
    lambda: build_Vn(2).is_face([-1]),
    lambda: build_Vn(2).antipode(6),
    lambda: reference.build_Pn(2).is_face([3]),
    lambda: circuit_relation(build_Vn(2), {0, 1}),
], ids=["face-99", "face-minus-1", "antipode-6", "generic-face-3", "not-a-circuit"])
def test_public_inputs_checked_without_assert(call):
    # a real check, not an assert: python -O must not strip it
    with pytest.raises(ValueError):
        call()


def test_no_check_depends_on_assert():
    # python -O strips every assert statement, so no module may rely on one
    package = pathlib.Path(collection_module.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
