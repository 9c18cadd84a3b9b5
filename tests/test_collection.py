"""Collection construction, pairwise verification, stability, mutations."""

import importlib
import math
import random

import pytest

from toric_exc import reference
from toric_exc.cohomology import cohomology, euler_pairing
from toric_exc.collection import (
    METHODS,
    Block,
    Collection,
    PairResult,
    VerificationFailed,
    apply_mutation,
    build_Fn,
    build_Gn,
    collection_from_dict,
    collection_to_dict,
    expected_size,
    gram_matrix,
    verify_exceptional,
    verify_stability,
)
from toric_exc.cones import (
    HypothesisViolated,
    certify_acyclic,
    certify_higher_acyclic,
    higher_acyclic_predicate,
    lemma_acyclic_predicate,
)
from toric_exc.fan import build_Vn, circuit_relation
from toric_exc.picard import NotInFamily, difference_family, divisor, make_F, parse_F
from toric_exc.windows import Certificate, WallPiece, WallRecord, certificate_to_dict

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
    dropped = apply_mutation(col, "drop:0")
    report = verify_exceptional(dropped, "oracle", sample=[(0, 1)])
    assert not report.complete and not report.ok


@pytest.mark.parametrize("pair", [(0, 6), (6, 0), (-1, 0), (0, -6), (2, 2)])
def test_sample_rejects_bad_pairs(pair):
    # G_2 has positions 0..5: out of range, negative, and i == j
    with pytest.raises(ValueError, match=rf"\({pair[0]}, {pair[1]}\)"):
        verify_exceptional(build_Gn(2), "oracle", sample=[(0, 1), pair])


# -- the reduced sweep against a flat per-pair sweep -------------------------------


def reference_sweep(col, method, pairs):
    """Grade each pair on its own, with no grouping by family."""
    fan = build_Vn(col.n)
    members = col.members
    block_of = [bi for bi, _ in col.positions()]
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
            try:
                c, k, ell = difference_family(col.n, members[j], members[i])
            except NotInFamily:
                ok, detail = False, "member outside the F_{c,J} family"
            else:
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


def with_stranger(col):
    """col with a member that is not an F_{c,J} appended to its first block."""
    stranger = divisor(0, (1,) + (0,) * col.n)
    assert parse_F(stranger) is None
    first = col.blocks[0]
    blocks = (Block(first.ell, first.members + (stranger,)),) + col.blocks[1:]
    return Collection(col.n, blocks)


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


def count_calls(monkeypatch, names):
    calls = []
    for name in names:
        original = getattr(collection_module, name)

        def counted(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(collection_module, name, counted)
    return calls


@pytest.mark.parametrize("method, graders", [
    ("oracle", ["cohomology"]),
    ("forbidden", ["certify_acyclic", "certify_higher_acyclic"]),
])
def test_stranger_pairs_graded_one_by_one(monkeypatch, method, graders):
    col = build_Gn(2)
    strange = with_stranger(col)
    calls = count_calls(monkeypatch, graders)
    verify_exceptional(col, method)
    intact = len(calls)
    calls.clear()
    report = verify_exceptional(strange, method, full_report=True)
    # the 12 ordered pairs with the stranger add one call each, no family
    assert len(calls) == intact + 2 * col.size
    assert report.pair_results == reference_sweep(strange, method, all_pairs(strange))


def test_stranger_pairs_fail_the_inequalities():
    strange = with_stranger(build_Gn(2))
    report = verify_exceptional(strange, "inequalities", full_report=True)
    at = len(strange.blocks[0].members) - 1
    outside = [r for r in report.pair_results if at in (r.source, r.target)]
    assert len(outside) == 12
    assert all(not r.ok and r.detail == "member outside the F_{c,J} family"
               for r in outside)
    assert report.pair_results == reference_sweep(strange, "inequalities",
                                                  all_pairs(strange))


def test_full_dim6_oracle_sweep_grades_each_family_once(monkeypatch):
    col = build_Gn(6)
    calls = count_calls(monkeypatch, ["cohomology"])
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


def test_stability_broken_by_drop():
    report = verify_stability(apply_mutation(build_Gn(2), "drop:2"))
    assert not report.ok
    assert any("moves block" in f for f in report.failures)
    with pytest.raises(VerificationFailed):
        report.raise_if_failed()
    # dropping one of the twisted pair breaks the involution instead
    report = verify_stability(apply_mutation(build_Gn(2), "drop:0"))
    assert not report.ok


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


def test_roundtrip():
    for n in (2, 4):
        col = build_Gn(n)
        again = collection_from_dict(collection_to_dict(col))
        assert again == col
    mutated = apply_mutation(build_Gn(2), "add:1,0-2")
    assert collection_from_dict(collection_to_dict(mutated)) == mutated


def test_schema_guard():
    data = collection_to_dict(build_Gn(2))
    data["schema"] = "something/9"
    with pytest.raises(ValueError):
        collection_from_dict(data)


# -- input validation -----------------------------------------------------------------


def _stranger_certificate():
    piece = WallPiece(0, 0, "base", (divisor(0, (1, 0, 0)),))
    return Certificate(2, 0, (WallRecord(frozenset(), (0, 0), (0, 0), (piece,)),))


@pytest.mark.parametrize("call", [
    lambda: build_Vn(2).is_face([99]),
    lambda: build_Vn(2).is_face([-1]),
    lambda: build_Vn(2).antipode(6),
    lambda: reference.build_Pn(2).is_face([3]),
    lambda: circuit_relation(build_Vn(2), {0, 1}),
    lambda: collection_to_dict(with_stranger(build_Gn(2))),
    lambda: certificate_to_dict(_stranger_certificate()),
], ids=["face-99", "face-minus-1", "antipode-6", "generic-face-3",
        "not-a-circuit", "collection-stranger", "certificate-stranger"])
def test_public_inputs_checked_without_assert(call):
    # a real check, not an assert: python -O must not strip it
    with pytest.raises(ValueError):
        call()
