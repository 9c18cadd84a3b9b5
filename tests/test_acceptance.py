"""Acceptance suite.

Fourteen end-to-end checks, one test per criterion, each printing a single
PASS line with its runtime (run with -s to see them). Time budgets are
asserted where a criterion carries one. Every expected value here is either
a published invariant of the varieties or was frozen from an independent
reference computation; nothing is backfilled from the code under test.
"""

import json
import math
import pathlib
import random
import time

import pytest

from toric_exc import reference
from toric_exc.cli import main, sample_pairs
from toric_exc.cohomology import cohomology, euler_pairing
from toric_exc.collection import (
    apply_mutation,
    build_Fn,
    build_Gn,
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
from toric_exc.fan import build_Vn, circuits
from toric_exc.picard import (
    antipodal_involution,
    canonical_class,
    divisor,
    make_F,
    parse_F,
    ray_coefficients,
)
from toric_exc.polyhedra import lattice_points, polyhedron
from toric_exc.windows import build_certificate, verify_walls, wall_record

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIMS = (2, 4, 6, 8)


def report(number: int, label: str, started: float, budget=None):
    elapsed = time.perf_counter() - started
    print(f"criterion {number:2d} {label}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_cardinality():
    t0 = time.perf_counter()
    sizes = {}
    for n in DIMS:
        collection = build_Gn(n)
        assert collection.size == expected_size(n)
        assert collection.size == math.factorial(n + 1) // math.factorial(n // 2) ** 2
        sizes[n] = collection.size
    assert sizes == {2: 6, 4: 30, 6: 140, 8: 630}
    report(1, "cardinality", t0, budget=1.0)


# Full block tables: (ell, ((c, J), ...)) per block, in emission order.
BLOCKS_N2 = (
    (3, ((1, (0, 1, 2)), (2, (0, 1, 2)))),
    (2, ((1, (0, 1)), (1, (0, 2)), (1, (1, 2)))),
    (0, ((0, ()),)),
)

BLOCKS_N4 = (
    (5, ((2, (0, 1, 2, 3, 4)), (3, (0, 1, 2, 3, 4)))),
    (4, ((2, (0, 1, 2, 3)), (2, (0, 1, 2, 4)), (2, (0, 1, 3, 4)),
         (2, (0, 2, 3, 4)), (2, (1, 2, 3, 4)))),
    (2, ((1, (0, 1)), (1, (0, 2)), (1, (0, 3)), (1, (0, 4)), (1, (1, 2)),
         (1, (1, 3)), (1, (1, 4)), (1, (2, 3)), (1, (2, 4)), (1, (3, 4)))),
    (1, ((0, (0,)), (0, (1,)), (0, (2,)), (0, (3,)), (0, (4,)),
         (1, (0,)), (1, (1,)), (1, (2,)), (1, (3,)), (1, (4,)))),
    (0, ((-1, ()), (1, ()))),
    (0, ((0, ()),)),
)


def test_criterion_02_block_tables():
    t0 = time.perf_counter()
    for n, table in ((2, BLOCKS_N2), (4, BLOCKS_N4)):
        collection = build_Gn(n)
        got = tuple(
            (block.ell,
             tuple((c, tuple(sorted(j)))
                   for c, j in (parse_F(m) for m in block.members)))
            for block in collection.blocks)
        assert got == table
    report(2, "block tables", t0, budget=1.0)


def test_criterion_03_figures(capsys):
    t0 = time.perf_counter()
    counts = {2: 4, 4: 9, 6: 16, 8: 25}
    for n in DIMS:
        assert main(["figure", "--dim", str(n), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        golden = (GOLDEN / f"fig_n{n}.csv").read_text()
        assert captured.out == golden
        assert len(captured.out.strip().splitlines()) == counts[n] + 1
        if n == 8:
            assert "25 distinct" in captured.err
        else:
            assert captured.err == ""
    with capsys.disabled():
        report(3, "figures", t0)


def test_criterion_04_inequality_sweeps():
    for n in DIMS:
        t0 = time.perf_counter()
        collection = build_Gn(n)
        result = verify_exceptional(collection, "inequalities")
        assert result.ok
        assert result.pairs_checked == collection.size * (collection.size - 1)
        assert not result.violations
        if n == 8:
            assert time.perf_counter() - t0 < 10.0
    report(4, "inequality sweeps", t0)


def test_criterion_05_oracle_sweeps():
    t0 = time.perf_counter()
    for n in (2, 4):
        started = time.perf_counter()
        result = verify_exceptional(build_Gn(n), "oracle")
        assert result.ok and not result.violations and not result.sampled
        if n == 4:
            assert time.perf_counter() - started < 300.0
    for n in (6, 8):
        collection = build_Gn(n)
        pairs = sample_pairs(collection.size, 500, seed=0)
        result = verify_exceptional(collection, "oracle", sample=pairs)
        assert result.ok and not result.violations and result.sampled
        assert result.pairs_checked == 500
    report(5, "oracle sweeps", t0, budget=1800.0)


def test_criterion_06_certificate_chain():
    t0 = time.perf_counter()
    for n in (2, 4):
        fan = build_Vn(n)
        members = build_Gn(n).members
        parsed = [parse_F(m) for m in members]
        for i, source in enumerate(members):
            cs, js = parsed[i]
            for j, target in enumerate(members):
                if i == j:
                    continue
                ct, jt = parsed[j]
                t = len(js & jt)
                c, k, ell = ct - cs, len(js) - t, len(jt) - t
                difference = target - source
                graded = cohomology(fan, difference)
                try:
                    lemma = lemma_acyclic_predicate(n, c, k, ell)
                except HypothesisViolated:
                    lemma = False
                if lemma:
                    assert certify_acyclic(fan, difference)
                if certify_acyclic(fan, difference):
                    assert graded.is_zero()
                if higher_acyclic_predicate(n, c, k, ell):
                    assert certify_higher_acyclic(fan, difference)
                if certify_higher_acyclic(fan, difference):
                    assert not any(graded.ranks[1:])
    report(6, "certificate chain", t0)


def _section_count(n, fan, D):
    rows = [(ray, -a) for ray, a in zip(fan.rays, ray_coefficients(n, D))]
    return len(lattice_points(polyhedron(n, rows)))


def test_criterion_07_duality_and_sections():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    for n in (2, 4):
        fan = build_Vn(n)
        K = canonical_class(n)
        for _ in range(200):
            coeffs = tuple(rng.randint(-4, 4) for _ in range(n + 2))
            D = divisor(coeffs[0], coeffs[1:])
            forward = cohomology(fan, D)
            backward = cohomology(fan, K - D)
            assert forward.ranks == tuple(reversed(backward.ranks))
            assert forward[0] == _section_count(n, fan, D)
    report(7, "duality and sections", t0)


def test_criterion_08_classical_values():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        fan = reference.build_Pn(n)
        for d in range(0, 5):
            graded = reference.cohomology(fan, (d,) + (0,) * n)
            assert graded[0] == math.comb(n + d, n)
            assert not any(graded.ranks[1:])
        for d in (-1, -2, -3):
            assert reference.cohomology(fan, (d,) + (0,) * n)[0] == 0
    hexagon = build_Vn(2)
    anticanonical = -canonical_class(2)
    assert cohomology(hexagon, anticanonical)[0] == 7
    for n in DIMS:
        fan = build_Vn(n)
        structure = cohomology(fan, divisor(0, [0] * (n + 1)))
        assert structure.euler == 1
        assert structure.ranks == (1,) + (0,) * n
    report(8, "classical values", t0)


def test_criterion_09_stability():
    t0 = time.perf_counter()
    for n in DIMS:
        collection = build_Gn(n)
        assert verify_stability(collection).ok
        for member in collection.members:
            c, J = parse_F(member)
            assert antipodal_involution(member) == make_F(n, len(J) - c, J)
    report(9, "stability", t0, budget=1.0)


def test_criterion_10_circuits():
    t0 = time.perf_counter()
    for n, count in ((2, 11), (4, 37)):
        assert len(circuits(build_Vn(n))) == count
    for n in (2, 4, 6, 8, 10, 12, 14):
        check = verify_walls(n)
        assert check.circuit_count == (n + 1) + 2 ** (n + 1)
        assert check.pair_count == n + 1
        assert check.sign_choice_count == 2 ** (n + 1)
    report(10, "circuits", t0, budget=60.0)


def test_criterion_11_window_lemma():
    t0 = time.perf_counter()
    from itertools import combinations
    from toric_exc.windows import weight
    for n in DIMS:
        members = build_Gn(n).members
        for size in range(n // 2 + 1):
            for J in combinations(range(n + 1), size):
                record = wall_record(n, J)
                lo, hi = record.window
                for member in members:
                    assert lo <= weight(n, J, member) <= hi
    report(11, "window lemma", t0, budget=10.0)


def test_criterion_12_certificates():
    t0 = time.perf_counter()
    walls = {}
    for n in DIMS:
        certificate = build_certificate(n)
        walls[n] = sum(r.walls for r in certificate.sizes)
        assert [r.size for r in certificate.sizes] == list(range(n // 2, -1, -1))
        assert certificate.base_case == "empty"
        assert sum(r.walls * len(r.pieces) for r in certificate.sizes) == expected_size(n)
    assert walls == {2: 4, 4: 16, 6: 64, 8: 256}
    report(12, "certificates", t0, budget=30.0)


def test_criterion_13_gram():
    t0 = time.perf_counter()
    for n in (2, 4):
        matrix = gram_matrix(build_Gn(n))
        for i, row in enumerate(matrix):
            assert row[i] == 1
            assert all(row[j] == 0 for j in range(i))
    report(13, "gram", t0, budget=600.0)


def test_criterion_14_mutations_caught(capsys):
    t0 = time.perf_counter()

    def run_json(*argv):
        code = main(list(argv) + ["--format", "json"])
        return code, json.loads(capsys.readouterr().out)

    code, doc = run_json("verify", "--dim", "2", "--mutate", "drop:0")
    assert code == 1 and doc["ok"] is False
    assert doc["size"] == 5 and doc["expected"] == 6

    for method in ("inequalities", "forbidden", "oracle"):
        code, doc = run_json("verify", "--dim", "2", "--method", method,
                             "--mutate", "add:0,0")
        assert code == 1 and doc["violations"]
        witness = doc["violations"][0]
        assert 0 <= witness["source"] < 7 and 0 <= witness["target"] < 7

    code, doc = run_json("verify", "--dim", "2", "--mutate", "swap:0,5")
    assert code == 1 and doc["violations"]
    positions = {doc["violations"][0]["source"], doc["violations"][0]["target"]}
    assert positions & {0, 5}

    code, doc = run_json("verify", "--dim", "2", "--what", "stability",
                         "--mutate", "drop:2")
    assert code == 1 and doc["failures"]

    code, doc = run_json("verify", "--dim", "2", "--what", "generation",
                         "--mutate", "drop:5")
    assert code == 1 and "error" in doc
    with capsys.disabled():
        report(14, "mutations caught", t0)
