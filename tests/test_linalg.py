"""Exact linear algebra: Smith form, rank, kernels."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc.linalg import (
    kernel_basis,
    primitive_vector,
    rank,
    smith_normal_form,
)


def oracle_invariant_factors(matrix):
    """Independent Smith form via sympy, nonzero diagonal only."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = Matrix(matrix)
    if m.rows == 0 or m.cols == 0:
        return []
    d = sympy_snf(m)
    out = [abs(d[i, i]) for i in range(min(d.rows, d.cols)) if d[i, i] != 0]
    return [int(x) for x in out]


def test_identity():
    factors, r = smith_normal_form([[1, 0], [0, 1]])
    assert factors == [1, 1]
    assert r == 2


def test_zero_matrix():
    factors, r = smith_normal_form([[0, 0], [0, 0]])
    assert factors == []
    assert r == 0


def test_diag_2_3():
    # gcd/lcm balancing turns diag(2,3) into diag(1,6)
    factors, r = smith_normal_form([[2, 0], [0, 3]])
    assert factors == [1, 6]
    assert r == 2
    assert factors == oracle_invariant_factors([[2, 0], [0, 3]])


def test_empty_and_ragged_shapes():
    assert smith_normal_form([]) == ([], 0)
    assert smith_normal_form([[]]) == ([], 0)
    assert smith_normal_form([[0, 0, 0]]) == ([], 0)
    assert smith_normal_form([[5]]) == ([5], 1)


def test_torsion_only_matrix():
    # Z^2 --(2,0;0,2)--> Z^2 has cokernel (Z/2)^2
    factors, r = smith_normal_form([[2, 0], [0, 2]])
    assert factors == [2, 2]
    assert r == 2


def test_rectangular_fixture():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_normal_form(m).factors == oracle_invariant_factors(m)


int_entry = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(int_entry) for _ in range(cols)] for _ in range(rows)]


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_matches_oracle(m):
    assert smith_normal_form(m).factors == oracle_invariant_factors(m)


@given(int_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(m, rng):
    rows = m[:]
    rng.shuffle(rows)
    cols = list(range(len(m[0])))
    rng.shuffle(cols)
    shuffled = [[row[j] for j in cols] for row in rows]
    assert smith_normal_form(m).factors == smith_normal_form(shuffled).factors


@given(int_matrices())
@settings(max_examples=40, deadline=None)
def test_divisibility_chain(m):
    factors, r = smith_normal_form(m)
    assert r == len(factors) == rank(m)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert all(f > 0 for f in factors)


def test_kernel_of_circuit_matrix():
    # columns e1, e2, -e1-e2: kernel spanned by (1,1,1)
    m = [[1, 0, -1], [0, 1, -1]]
    assert kernel_basis(m) == [(1, 1, 1)]


def test_kernel_full_rank_is_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


@given(int_matrices())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(sum(row[j] * v[j] for j in range(len(v))) == 0 for row in m)
    assert len(kernel_basis(m)) == len(m[0]) - rank(m)


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert primitive_vector([-2, -4]) == (1, 2)
    assert primitive_vector([0, 0]) == (0, 0)
    assert primitive_vector([0, -5, 10]) == (0, 1, -2)


def test_random_rank_agrees_with_sympy():
    from sympy import Matrix

    rng = random.Random(2)
    for _ in range(25):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        assert rank(m) == Matrix(m).rank()


# -- integer elimination against a Fraction reference --------------------------


def fraction_rref(matrix):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    a = [[Fraction(v) for v in row] for row in matrix]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def fraction_kernel(matrix):
    """Kernel basis from the rational RREF, each vector made primitive with
    its first nonzero entry positive."""
    a, pivots = fraction_rref(matrix)
    n = len(a[0]) if a else 0
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -a[r][j]
        scale = lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        basis.append(tuple(sign * x // g for x in ints))
    return basis


@st.composite
def sparse_matrices(draw):
    """Small integer matrices with zero rows, zero columns and non-unit pivots."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=7))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    entry = st.sampled_from([0, 0, 1, -1, 2, -2, 3, -4, 6, -9])
    return [[0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(cols)]
            for i in range(rows)]


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_elimination_matches_fractions(m):
    assert kernel_basis(m) == fraction_kernel(m)
    assert rank(m) == len(fraction_rref(m)[1])

