"""Weight windows, wall records, generation certificates, circuit matching."""

import ast
import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toric_exc.fan as fan_module
import toric_exc.linalg as linalg
import toric_exc.windows as win
from toric_exc.cohomology import euler_pairing
from toric_exc.cli import main
from toric_exc.collection import Collection, _gaps, apply_mutation, build_Gn, expected_size
from toric_exc.fan import build_Vn, circuit_relation, circuits
from toric_exc.linalg import rank, smith_normal_form
from toric_exc.picard import divisor, make_F, parse_F
from toric_exc.windows import (
    JTooLarge,
    KoszulEscape,
    WallMismatch,
    WallRecord,
    WindowViolation,
    build_certificate,
    certificate_to_dict,
    default_gauge,
    koszul_components,
    verify_generation,
    verify_walls,
    wall_record,
    weight,
    weight_matrix,
)

DIMS = (2, 4, 6, 8)


def test_gauge_values():
    assert [default_gauge(n) for n in DIMS] == [1, 2, 2, 3]


# -- weights -------------------------------------------------------------------


def test_weight_matrix_hexagon():
    assert weight_matrix(2) == (
        (1, 1, 1, 0, 0, 0),
        (0, -1, -1, 1, 0, 0),
        (-1, 0, -1, 0, 1, 0),
        (-1, -1, 0, 0, 0, 1),
    )


def test_weight_matrix_surjective():
    for n in DIMS:
        rows = [list(r) for r in weight_matrix(n)]
        assert rank(rows) == n + 2
        result = smith_normal_form(rows)
        assert tuple(result.factors) == (1,) * (n + 2)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((2, 4)), c=st.integers(min_value=-5, max_value=5),
       data=st.data())
def test_weight_closed_form(n, c, data):
    labels = list(range(n + 1))
    ell = data.draw(st.integers(min_value=0, max_value=n + 1))
    size = data.draw(st.integers(min_value=0, max_value=n + 1))
    big = data.draw(st.permutations(labels))
    l_set, j_set = frozenset(big[:ell]), frozenset(data.draw(st.permutations(labels))[:size])
    assert weight(n, j_set, make_F(n, c, l_set)) == len(l_set & j_set) - c


def test_weight_is_linear():
    a = divisor(2, [1, -1, 0])
    b = divisor(-1, [0, 3, 1])
    j = frozenset({0, 2})
    assert weight(2, j, a + b) == weight(2, j, a) + weight(2, j, b)


# -- wall records ---------------------------------------------------------------


def test_wall_record_rejects_large_subgroups():
    with pytest.raises(JTooLarge):
        wall_record(2, {0, 1})
    with pytest.raises(JTooLarge):
        wall_record(4, {0, 1, 2})
    wall_record(4, {0, 1})


def test_wall_record_hexagon_single():
    record = wall_record(2, {0})
    assert record.window == (-1, 0)
    assert record.wall_range == (-1, -1)
    (piece,) = record.pieces
    assert (piece.a, piece.w, piece.branch) == (-1, 1, "high")
    assert [(parse_F(c)[0], sorted(parse_F(c)[1])) for c in piece.components] \
        == [(1, [1, 2]), (1, [0, 1, 2])]


def test_wall_record_hexagon_empty():
    record = wall_record(2, frozenset())
    assert record.window == (-2, 0)
    assert record.wall_range == (-2, 0)
    assert [(p.a, p.w, p.branch) for p in record.pieces] \
        == [(-2, 2, "high"), (-1, 1, "high"), (0, 0, "low")]
    assert [parse_F(p.components[0]) for p in record.pieces] \
        == [(2, frozenset({0, 1, 2})), (1, frozenset({0, 1, 2})), (0, frozenset())]


def test_koszul_components_frozen():
    comps = koszul_components((0, 1), make_F(2, 1, []))
    assert [c.coeffs for c in comps] \
        == [(-1, 1, 1, 1), (-1, 0, 1, 1), (-1, 1, 0, 1), (-1, 0, 0, 1)]


def test_pieces_structurally_sound():
    for n in DIMS:
        cert = build_certificate(n)
        for record in cert.sizes:
            for a, w, branch, terms in record.pieces:
                assert w == -a
                low = 4 * w <= n
                high = 4 * w >= n + 2
                assert low != high
                assert branch == ("low" if low else "high")
                assert {c for c, _, _ in terms} == {w}
                assert sum(count for _, _, count in terms) == 2 ** record.size


# -- certificates ----------------------------------------------------------------


def test_certificate_counts():
    for n, walls in zip(DIMS, (4, 16, 64, 256)):
        cert = build_certificate(n)
        assert sum(r.walls for r in cert.sizes) == walls
        assert cert.base_case == "empty"
        assert cert.d == default_gauge(n)
        # one Koszul piece per member of the collection, across all walls
        assert sum(r.walls * len(r.pieces) for r in cert.sizes) == expected_size(n)


def test_certificate_wall_order():
    assert [(r.size, r.walls) for r in build_certificate(2).sizes] == [(1, 3), (0, 1)]
    assert [(r.size, r.walls) for r in build_certificate(4).sizes] == [(2, 10), (1, 5), (0, 1)]


def test_window_lemma_exhaustive():
    # every member weight sits inside every wall window
    for n in DIMS:
        members = build_Gn(n).members
        for size in range(n // 2 + 1):
            for j in combinations(range(n + 1), size):
                lo, hi = wall_record(n, frozenset(j)).window
                for m in members:
                    assert lo <= weight(n, j, m) <= hi


def test_out_of_window_member_caught():
    col = apply_mutation(build_Gn(2), "add:3,0-1-2")
    with pytest.raises(WindowViolation):
        build_certificate(2, col)


def test_missing_component_caught():
    col = apply_mutation(build_Gn(2), "drop:5")
    with pytest.raises(KoszulEscape):
        build_certificate(2, col)


def flat_certificate(n, collection):
    """Reference: every wall against every member and every Koszul term, in
    chain order; the wall records on a pass."""
    members = collection.members
    member_set = set(members)
    walls = []
    for size in range(n // 2, -1, -1):
        for j in combinations(range(n + 1), size):
            record = wall_record(n, frozenset(j))
            lo, hi = record.window
            for m in members:
                lam = weight(n, record.J, m)
                if not lo <= lam <= hi:
                    raise WindowViolation(
                        f"weight {lam} of {m.coeffs} outside [{lo}, {hi}] "
                        f"at wall J = {sorted(record.J)}")
            for piece in record.pieces:
                for component in piece.components:
                    if component not in member_set:
                        raise KoszulEscape(
                            f"component {component.coeffs} of the weight "
                            f"{piece.a} piece at wall J = {sorted(record.J)} "
                            f"is not in the collection")
            walls.append(record)
    return tuple(walls)


def size_records(walls):
    """The wall records grouped by size, in chain order, each size as one SizeRecord.

    Every wall of a size must give the same window, wall range and pieces
    (a, w, branch, and a (c, |K|, count) per shape of its terms).
    """
    def shape(record):
        pieces = []
        for p in record.pieces:
            counts = Counter((c, len(k)) for c, k in map(parse_F, p.components))
            pieces.append((p.a, p.w, p.branch,
                           tuple((c, ell, count) for (c, ell), count in sorted(counts.items()))))
        return record.window, record.wall_range, tuple(pieces)

    by_size = {}
    for record in walls:
        by_size.setdefault(len(record.J), []).append(shape(record))
    sizes = []
    for size, shapes in by_size.items():
        (one,) = set(shapes)
        sizes.append(win.SizeRecord(size, len(shapes), *one))
    return tuple(sizes)


def random_mutation(rng, col):
    """One drop, add or swap valid for col; an add may leave every window."""
    n, size = col.n, col.size
    kind = rng.choice(("drop", "add", "swap"))
    if kind == "drop" and size > 1:
        return f"drop:{rng.randrange(size)}"
    if kind == "swap":
        return f"swap:{rng.randrange(size)},{rng.randrange(size)}"
    labels = sorted(rng.sample(range(n + 1), rng.randint(0, n + 1)))
    return f"add:{rng.randint(-2, n // 2 + 2)},{'-'.join(map(str, labels))}"


def generation_cases():
    cases = [(f"G_{n}", build_Gn(n)) for n in DIMS]
    cases += [(f"drop:{i}", apply_mutation(build_Gn(4), f"drop:{i}")) for i in range(30)]
    cases += [(text, apply_mutation(build_Gn(n), text))
              for n, text in ((4, "add:5,0"), (2, "add:3,0-1-2"), (2, "add:-2,"),
                              (4, "swap:0,5"), (6, "swap:0,5"))]
    return cases


def seeded_mutants(count=60, seed=17):
    """Seeded sequences of one to three mutations at n <= 8."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        col = build_Gn(rng.choice((2, 4, 4, 6, 6, 8)))
        texts = []
        for _ in range(rng.randint(1, 3)):
            texts.append(random_mutation(rng, col))
            col = apply_mutation(col, texts[-1])
        cases.append((f"n={col.n} {' '.join(texts)}", col))
    return cases


def generation_outcome(check):
    try:
        return check()
    except (WindowViolation, KoszulEscape) as exc:
        return type(exc).__name__, str(exc)


def flat_outcomes(n, collection):
    """The flat walk's outcome as build_certificate and verify_generation give it.

    A failure is (exception name, message) for both; a pass is the wall
    records grouped by size, and their wall and piece counts.
    """
    flat = generation_outcome(lambda: flat_certificate(n, collection))
    if not isinstance(flat[0], WallRecord):
        return flat, flat
    return (win.Certificate(n, default_gauge(n), size_records(flat)),
            win.GenerationCheck(n, len(flat), sum(len(r.pieces) for r in flat)))


def test_generation_classes_match_flat_certificate():
    kinds = Counter()
    for name, col in generation_cases() + seeded_mutants():
        n = col.n
        certificate, check = flat_outcomes(n, col)
        kinds[check[0] if isinstance(check[0], str) else "ok"] += 1
        assert generation_outcome(lambda: build_certificate(n, col)) == certificate, name
        assert generation_outcome(lambda: verify_generation(n, col)) == check, name
    # the cases reach both failures as well as passes
    assert set(kinds) == {"ok", "WindowViolation", "KoszulEscape"}, kinds


def test_generation_reads_no_members(monkeypatch):
    # a failing check names its first failure from the cells, and a certificate
    # takes its verdict from the check: neither makes the member list
    drop = apply_mutation(build_Gn(8), "drop:0")
    flat = generation_outcome(lambda: flat_certificate(8, drop))
    assert flat[0] == "KoszulEscape"
    intact, _ = flat_outcomes(8, build_Gn(8))

    def unread(self):
        raise AssertionError("Collection.members was read")

    monkeypatch.setattr(Collection, "members", property(unread))
    assert generation_outcome(lambda: verify_generation(8, drop)) == flat
    assert build_certificate(8) == intact


def test_size_records_match_every_wall():
    # each size's record is the window, wall range and piece shapes of every
    # wall J of that size, with C(n + 1, size) walls
    branches = Counter()
    for n in range(2, 12, 2):
        walls = [wall_record(n, j) for size in range(n // 2, -1, -1)
                 for j in combinations(range(n + 1), size)]
        sizes = build_certificate(n).sizes
        assert sizes == size_records(walls)
        assert sum(r.walls for r in sizes) == 2 ** n
        assert sum(r.walls * len(r.pieces) for r in sizes) == expected_size(n)
        branches.update(branch for r in sizes for _, _, branch, _ in r.pieces)
    assert set(branches) == {"low", "high"}


def test_certificate_memory_is_bounded_by_the_sizes(capsys):
    # the certificate holds n/2 + 1 size records, not 2^n walls with their terms
    col = build_Gn(10)
    tracemalloc.start()
    try:
        build_certificate(10, col)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert main(["certificate", "--dim", "20", "--format", "json"]) == 0
    sizes = json.loads(capsys.readouterr().out)["sizes"]
    assert sum(r["walls"] for r in sizes) == 2 ** 20
    assert sum(r["walls"] * len(r["pieces"]) for r in sizes) == expected_size(20)


def test_failing_walk_ranks_each_koszul_term_once(monkeypatch):
    # dropping the last and third-to-last members of G_6's (2, 5) cell leaves
    # two missing ranges in one (c, l); the walk ranks each term it reads
    # once, not once per missing range it tests, and only the terms whose
    # (c, |K|) misses some rank
    col = apply_mutation(apply_mutation(build_Gn(6), "drop:45"), "drop:43")
    gaps = {key: found for key, (_, found, _) in _gaps(6, col.cells, lambda cell: cell[1:3]).items()}
    assert gaps[2, 5] == [range(18, 19), range(20, 21)]
    ranked, rank = [], win._rank
    monkeypatch.setattr(win, "_rank", lambda *args: ranked.append(args) or rank(*args))
    with pytest.raises(KoszulEscape) as failure:
        verify_generation(6, col)
    text = str(failure.value)
    J = ast.literal_eval(text[text.index("J = ") + 4:text.index("]") + 1])

    def terms():  # wall_record's terms of the failing size, in the walk's order
        for j in combinations(range(7), len(J)):
            for piece in wall_record(6, j).pieces:
                for term in piece.components:
                    yield parse_F(term), (f"component {term.coeffs} of the weight {piece.a} "
                                          f"piece at wall J = {list(j)} is not in the collection")

    read = []
    for shape, message in terms():
        read.append(shape)
        if message == text:
            break
    assert read[-1] == (2, frozenset({2, 3, 4, 5, 6}))
    assert 0 < len(ranked) == sum(gaps.get((c, len(k))) != [] for c, k in read)


def test_generation_counts_in_closed_form():
    for n, walls in zip(DIMS + (10, 12), (4, 16, 64, 256, 1024, 4096)):
        assert verify_generation(n, build_Gn(n)) == win.GenerationCheck(
            n, walls, expected_size(n))
    with pytest.raises(ValueError):
        verify_generation(4, build_Gn(2))


def test_koszul_shapes_match_wall_record_terms():
    # the closed-form (c, |K|) shapes, C(size, t) terms each, are the terms' own
    branches = Counter()
    for n in range(2, 14, 2):
        for size in range(n // 2 + 1):
            record = wall_record(n, range(size))
            shapes = win._wall_shape(n, size)[2]
            assert len(shapes) == len(record.pieces)
            for (w, base), piece in zip(shapes, record.pieces):
                branches[piece.branch] += 1
                assert (w, base == 0) == (piece.w, piece.branch == "low")
                closed = Counter({(w, base + t): math.comb(size, t) for t in range(size + 1)})
                assert Counter((c, len(k)) for c, k in map(parse_F, piece.components)) == closed
        assert verify_generation(n, build_Gn(n)).pieces == sum(
            math.comb(n + 1, size) * len(wall_record(n, range(size)).pieces)
            for size in range(n // 2 + 1))
    assert set(branches) == {"low", "high"}


def test_generation_command_walks_no_wall(monkeypatch, capsys):
    def flat(*args, **kwargs):
        raise AssertionError("the flat certificate walk ran")

    monkeypatch.setattr(win, "build_certificate", flat)
    monkeypatch.setattr(win, "_walk_walls", flat)
    assert main(["verify", "--dim", "8", "--what", "generation"]) == 0
    assert capsys.readouterr().out == (
        "generation ok: 256 walls, 630 pieces, base case empty\n")


def test_circuit_checks():
    assert verify_walls(2) == win.WallCheck(2, 11, 3, 8)
    assert verify_walls(4) == win.WallCheck(4, 37, 5, 32)


def test_circuit_mismatch_raises(monkeypatch):
    monkeypatch.setattr(win, "circuit_relation", lambda fan, c: (9, 9))
    with pytest.raises(WallMismatch):
        verify_walls(2)

    def crooked(fan, circuit):
        return (1, 1) if len(circuit) == 2 else (1,) * len(circuit)

    monkeypatch.setattr(win, "circuit_relation", crooked)
    with pytest.raises(WallMismatch):
        verify_walls(2)


def kernel_relation(fan, circuit):
    """The circuit's relation by exact elimination: the reference for the closed form."""
    idx = sorted(circuit)
    basis = linalg.kernel_basis([[fan.rays[i][r] for i in idx] for r in range(fan.rank)])
    assert len(basis) == 1, idx
    return basis[0]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_circuit_relation_matches_elimination_on_every_circuit(n):
    fan = build_Vn(n)
    for circuit in circuits(fan):
        assert circuit_relation(fan, circuit) == kernel_relation(fan, circuit)


def test_circuit_relation_matches_elimination_on_class_representatives():
    for n in range(2, 14, 2):
        fan = build_Vn(n)
        for _, _, _, rays, _ in win._circuit_classes(fan):
            assert circuit_relation(fan, rays) == kernel_relation(fan, rays)


@pytest.mark.parametrize("rays", [
    {0, 1}, {0, 4}, {0, 3, 1}, [0, 1, 2, 2], [-3, 1, 2], [1, 2, 6],
], ids=["two-plus", "slot-short", "pair-and-ray", "repeated", "negative", "past-end"])
def test_circuit_relation_rejects_non_circuits(rays):
    # [-3, 1, 2] read through fan.rays[-3] would be the circuit {3, 1, 2}
    with pytest.raises(ValueError):
        circuit_relation(build_Vn(2), rays)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_class_walk_matches_generic_circuits(n):
    fan = build_Vn(n)
    half = n + 1
    walk = {(p, a, b): (rays, count)
            for p, a, b, rays, count in win._circuit_classes(fan)}
    flat = Counter()
    for circuit in circuits(fan):
        pair_slots = [i for i in range(half) if {i, i + half} <= circuit]
        plus_slots = [i for i in range(half) if i in circuit and i + half not in circuit]
        minus_slots = [i for i in range(half) if i + half in circuit and i not in circuit]
        key = (len(pair_slots), len(plus_slots), len(minus_slots))
        assert key in walk, f"circuit {sorted(circuit)} in a class the walk skipped"
        flat[key] += 1
        # carry the representative onto this circuit by a slot permutation
        rep, _ = walk[key]
        slots = pair_slots + plus_slots + minus_slots
        image = [slots[i] if i < half else slots[i - half] + half for i in rep]
        assert sorted(image) == sorted(circuit)
        relation = dict(zip(sorted(circuit), kernel_relation(fan, circuit)))
        moved = tuple(relation[i] for i in image)
        expected = kernel_relation(fan, rep)
        assert moved in (expected, tuple(-x for x in expected))
    # every class counts its flat circuits; a class the walk skips has none
    assert flat == {key: count for key, (_, count) in walk.items()}


def test_walls_never_reach_the_generic_search(monkeypatch):
    def generic(*args, **kwargs):
        raise AssertionError("the generic circuit search ran")

    for module in (fan_module, linalg, win):
        for name in ("circuits", "_reduce_against", "rank"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, generic)
    assert verify_walls(6) == win.WallCheck(6, 135, 7, 128)


# -- Koszul exactness against the oracle ------------------------------------------


def test_koszul_alternating_euler_sum_vanishes():
    # two blown-up centers never meet, so the rank-2 Koszul complex is exact
    # and its alternating Euler pairing against any probe cancels
    fan = build_Vn(2)
    twist = make_F(2, 1, [])
    comps = koszul_components((0, 1), twist)
    signs = [1, -1, -1, 1]
    rng = random.Random(0)
    for _ in range(5):
        probe = divisor(rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(3)])
        assert sum(s * euler_pairing(fan, probe, c)
                   for s, c in zip(signs, comps)) == 0


def test_koszul_rank_one_is_not_exact():
    # a single center is a curve, so the length-1 complex has a real quotient:
    # against the probe -E_0 it restricts to degree -2 on a line, Euler -1
    fan = build_Vn(2)
    twist = make_F(2, 1, [])
    comps = koszul_components((0,), twist)
    probe = divisor(0, [-1, 0, 0])
    assert euler_pairing(fan, probe, comps[0]) \
        - euler_pairing(fan, probe, comps[1]) == -1


# -- serialization ------------------------------------------------------------------


def test_certificate_dict_shape():
    data = certificate_to_dict(build_certificate(2))
    assert data["schema"] == "toric-exc/certificate/2"
    assert (data["n"], data["d"], data["base_case"]) == (2, 1, "empty")
    assert [r["size"] for r in data["sizes"]] == [1, 0]
    assert data["sizes"][0] == {
        "size": 1, "walls": 3, "window": [-1, 0], "wall_range": [-1, -1],
        "pieces": [{"a": -1, "w": 1, "branch": "high",
                    "terms": [{"c": 1, "ell": 2, "count": 1}, {"c": 1, "ell": 3, "count": 1}]}]}


@pytest.mark.parametrize("call", [
    lambda: weight(4, [0, 0], make_F(4, 1, [0])),
    lambda: koszul_components([1, 1], make_F(4, 1, [0])),
    lambda: wall_record(4, [2, 2]),
], ids=["weight", "koszul", "wall"])
def test_repeated_wall_label_refused(call):
    # a repeated label is malformed input, as in make_F, not a smaller set
    with pytest.raises(ValueError, match="repeated label"):
        call()
