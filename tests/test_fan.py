"""Fan construction, face tests, collections, subcomplexes, circuits."""

from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc import reference
from toric_exc.fan import (
    OddDimension,
    build_Vn,
    circuit_relation,
    circuits,
    complex_CI,
    primitive_collections,
)
from toric_exc.polyhedra import equality_rows, feasible, polyhedron
from toric_exc.simplicial import homology_ranks


def test_hexagon_rays_and_cones():
    fan = build_Vn(2)
    assert fan.rank == 2
    assert fan.rays == (
        (-1, -1), (1, 0), (0, 1),
        (1, 1), (-1, 0), (0, -1),
    )
    expected = {
        frozenset(c) for c in [{0, 4}, {0, 5}, {1, 3}, {1, 5}, {2, 3}, {2, 4}]
    }
    assert set(fan.max_cones) == expected


def test_max_cone_counts():
    assert [len(build_Vn(n).max_cones) for n in (2, 4, 6, 8)] == [6, 30, 140, 630]


def test_odd_or_tiny_dimension_rejected():
    for n in (3, 5, 7):
        with pytest.raises(OddDimension):
            build_Vn(n)
    with pytest.raises(ValueError):
        build_Vn(0)


def test_antipode_pairing():
    fan = build_Vn(4)
    for i in range(fan.nrays):
        j = fan.antipode(i)
        assert fan.rays[j] == tuple(-x for x in fan.rays[i])
        assert fan.antipode(j) == i


def test_projective_space_fans():
    p1 = reference.build_Pn(1)
    assert p1.rays == ((1,), (-1,))
    assert set(p1.max_cones) == {frozenset({0}), frozenset({1})}
    p2 = reference.build_Pn(2)
    assert p2.rays == ((1, 0), (0, 1), (-1, -1))
    assert len(p2.max_cones) == 3
    assert p2.is_face({0, 1})
    assert not p2.is_face({0, 1, 2})


def test_max_cones_are_unimodular():
    for n in (2, 4):
        fan = build_Vn(n)
        for cone in fan.max_cones:
            m = sympy.Matrix([list(fan.rays[i]) for i in sorted(cone)])
            assert abs(m.det()) == 1


def test_face_shortcut_matches_subset_test_exhaustively():
    fan = build_Vn(2)
    for size in range(7):
        for s in combinations(range(6), size):
            expected = any(frozenset(s) <= c for c in fan.max_cones)
            assert fan.is_face(s) == expected


@settings(max_examples=80, deadline=None)
@given(st.sets(st.integers(0, 9), max_size=6))
def test_face_shortcut_matches_subset_test_sampled(s):
    fan = build_Vn(4)
    expected = any(frozenset(s) <= c for c in fan.max_cones)
    assert fan.is_face(s) == expected


def test_primitive_collections_hexagon():
    fan = build_Vn(2)
    expected = [
        {0, 3}, {1, 4}, {2, 5},          # antipodal pairs
        {0, 1}, {0, 2}, {1, 2},          # too many rays on the plus side
        {3, 4}, {3, 5}, {4, 5},          # and on the minus side
    ]
    assert primitive_collections(fan) == sorted(
        (frozenset(s) for s in expected), key=lambda s: (len(s), sorted(s))
    )


def test_primitive_collection_counts():
    # n+1 pairs plus two one-sided families of (n/2+1)-subsets
    assert len(primitive_collections(build_Vn(4))) == 5 + 2 * 10
    assert len(primitive_collections(build_Vn(6))) == 7 + 2 * 35
    assert len(reference.primitive_collections(reference.build_Pn(3))) == 1
    assert reference.primitive_collections(reference.build_Pn(2)) == [frozenset({0, 1, 2})]


def test_primitive_collections_match_brute_force():
    for n in (2, 4):
        fan = build_Vn(n)
        clone = reference.GenericFan(fan.rank, fan.rays, fan.max_cones)
        assert primitive_collections(fan) == reference.primitive_collections(clone)


def test_primitive_collections_independent_oracle():
    fan = build_Vn(2)
    cones = [set(c) for c in fan.max_cones]
    minimal = []
    for size in range(1, 7):
        for cand in combinations(range(6), size):
            s = set(cand)
            if any(s <= c for c in cones):
                continue
            proper = [set(cand[:i]) | set(cand[i + 1 :]) for i in range(size)]
            if all(any(p <= c for c in cones) for p in proper):
                minimal.append(frozenset(s))
    assert sorted(minimal, key=lambda s: (len(s), sorted(s))) == primitive_collections(fan)


def test_induced_complex_on_empty_set():
    k = complex_CI(build_Vn(2), set())
    assert homology_ranks(k) == {-1: 1}


def test_induced_complex_on_antipodal_pair():
    k = complex_CI(build_Vn(2), {0, 3})
    assert homology_ranks(k) == {-1: 0, 0: 1}


def test_induced_complex_two_plus_rays():
    # both rays are vertices but their union is not a cone
    k = complex_CI(build_Vn(2), {1, 2})
    assert homology_ranks(k) == {-1: 0, 0: 1}


def test_induced_complex_on_max_cone_is_acyclic():
    fan = build_Vn(4)
    ranks = homology_ranks(complex_CI(fan, set(fan.max_cones[0])))
    assert all(r == 0 for r in ranks.values())


def test_induced_complex_full_fan_is_sphere():
    for n in (2, 4):
        fan = build_Vn(n)
        ranks = homology_ranks(complex_CI(fan, range(fan.nrays)))
        expected = {p: 0 for p in range(-1, n)}
        expected[n - 1] = 1
        assert ranks == expected


def test_induced_complex_one_sided_wedges():
    # a one-sided set of k > n/2 slots is the (n/2-1)-skeleton of a
    # (k-1)-simplex: a wedge of binomial(k-1, n/2) spheres
    cases = [
        (2, {0, 1, 2}, 0, 2),
        (4, {0, 1, 2}, 1, 1),
        (4, {5, 6, 7, 8, 9}, 1, 6),
    ]
    for n, rays, degree, count in cases:
        ranks = homology_ranks(complex_CI(build_Vn(n), rays))
        assert ranks[degree] == count
        assert all(r == 0 for p, r in ranks.items() if p != degree)


def test_circuits_hexagon_exact():
    fan = build_Vn(2)
    pairs = [{0, 3}, {1, 4}, {2, 5}]
    transversals = []
    for signs in range(8):
        pick = {i if signs >> i & 1 else i + 3 for i in range(3)}
        transversals.append(pick)
    expected = sorted(
        (frozenset(s) for s in pairs + transversals),
        key=lambda s: (len(s), sorted(s)),
    )
    assert circuits(fan) == expected


def test_circuit_counts():
    assert len(circuits(build_Vn(2))) == 11
    assert len(circuits(build_Vn(4))) == 37
    assert circuits(reference.build_Pn(2)) == [frozenset({0, 1, 2})]


def test_circuit_sizes():
    fan = build_Vn(4)
    sizes = {len(c) for c in circuits(fan)}
    assert sizes == {2, 5}


def test_circuits_minimal_dependent_by_sympy():
    for n in (2, 4):
        fan = build_Vn(n)
        for circ in circuits(fan):
            idx = sorted(circ)
            m = sympy.Matrix([list(fan.rays[i]) for i in idx]).T
            assert m.rank() == len(idx) - 1
            for drop in range(len(idx)):
                sub = sympy.Matrix(
                    [list(fan.rays[i]) for t, i in enumerate(idx) if t != drop]
                ).T
                assert sub.rank() == len(idx) - 1


def test_circuits_complete_against_exhaustive_search():
    fan = build_Vn(2)
    expected = []
    for size in range(2, 7):
        for cand in combinations(range(6), size):
            m = sympy.Matrix([list(fan.rays[i]) for i in cand]).T
            if m.rank() == size:
                continue
            if all(
                sympy.Matrix(
                    [list(fan.rays[i]) for t, i in enumerate(cand) if t != d]
                ).T.rank()
                == len(cand) - 1
                for d in range(size)
            ):
                expected.append(frozenset(cand))
    assert circuits(fan) == sorted(expected, key=lambda s: (len(s), sorted(s)))


def test_circuit_relations():
    fan = build_Vn(2)
    assert circuit_relation(fan, {0, 3}) == (1, 1)
    assert circuit_relation(fan, {0, 1, 2}) == (1, 1, 1)
    assert circuit_relation(fan, {0, 4, 5}) == (1, -1, -1)
    # relation really annihilates the rays
    for circ in circuits(fan):
        rel = circuit_relation(fan, circ)
        total = [0] * fan.rank
        for coeff, i in zip(rel, sorted(circ)):
            for r in range(fan.rank):
                total[r] += coeff * fan.rays[i][r]
        assert all(x == 0 for x in total)


def _in_some_max_cone(fan, vector):
    for cone in fan.max_cones:
        idx = sorted(cone)
        rows = []
        for r in range(fan.rank):
            rows.extend(equality_rows([fan.rays[i][r] for i in idx], vector[r]))
        rows.extend(
            (tuple(1 if t == s else 0 for t in range(len(idx))), 0)
            for s in range(len(idx))
        )
        if feasible(polyhedron(len(idx), rows)):
            return True
    return False


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_hexagon_fan_is_complete(vector):
    assert _in_some_max_cone(build_Vn(2), vector)


@settings(max_examples=10, deadline=None)
@given(st.tuples(*(st.integers(-3, 3) for _ in range(4))))
def test_V4_fan_is_complete(vector):
    assert _in_some_max_cone(build_Vn(4), vector)


def test_determinism():
    assert build_Vn(4) == build_Vn(4)
    assert circuits(build_Vn(2)) == circuits(build_Vn(2))
