"""Collection construction, pairwise verification, stability, mutations."""

import math

import pytest

from toric_exc.collection import (
    Block,
    Collection,
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
from toric_exc.picard import make_F, parse_F

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
