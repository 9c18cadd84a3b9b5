"""Divisor class arithmetic, the group action, and the F-families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc.picard import (
    DivisorClass,
    InvalidShape,
    NotInFamily,
    act,
    antipodal_involution,
    canonical_class,
    class_of_ray,
    difference_family,
    divisor,
    group_generators,
    make_F,
    orbit_Fckl,
    parse_F,
    permute,
    ray_coefficients,
)

dims = st.sampled_from([2, 4, 6])


def random_divisor(n):
    return st.tuples(*(st.integers(-5, 5) for _ in range(n + 2))).map(DivisorClass)


def family_params(n):
    return st.tuples(
        st.integers(-4, 4),
        st.sets(st.integers(0, n), max_size=n + 1),
    )


def antipodal_matrix(n):
    size = n + 2
    m = [[0] * size for _ in range(size)]
    m[0][0] = n
    for j in range(1, size):
        m[0][j] = 1
        m[j][0] = 1 - n
    for i in range(1, size):
        for j in range(1, size):
            if i != j:
                m[i][j] = -1
    return m


def test_make_F_coordinates():
    assert make_F(2, 1, {0}).coeffs == (-1, 0, 1, 1)
    assert make_F(2, 0, set()).coeffs == (0, 0, 0, 0)
    assert make_F(4, -1, {2, 3}).coeffs == (1, -1, -1, -2, -2, -1)


@pytest.mark.parametrize("J", [{7}, {-1}, {0, 3}])
def test_make_F_rejects_labels_outside_range(J):
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        make_F(2, 0, J)


def test_canonical_class_hexagon():
    assert canonical_class(2).coeffs == (-3, 1, 1, 1)


def test_class_of_ray_values():
    assert class_of_ray(2, 0).coeffs == (0, 1, 0, 0)
    assert class_of_ray(2, 2).coeffs == (0, 0, 0, 1)
    assert class_of_ray(2, 4).coeffs == (1, -1, 0, -1)


@pytest.mark.parametrize("call", [
    lambda: class_of_ray(2, 6),
    lambda: class_of_ray(2, 9),
    lambda: class_of_ray(2, -1),
    lambda: permute((0, 0, 1), divisor(0, [1, 2, 3])),
    lambda: permute((0, 1), divisor(0, [1, 2, 3])),
], ids=["ray-6", "ray-9", "ray-minus-1", "perm-repeat", "perm-short"])
def test_bad_ray_index_or_permutation_raises(call):
    # a real check, not an assert: python -O must not strip it
    with pytest.raises(ValueError):
        call()


def test_sum_of_ray_classes_is_anticanonical():
    for n in (2, 4, 6):
        total = class_of_ray(n, 0)
        for i in range(1, 2 * (n + 1)):
            total = total + class_of_ray(n, i)
        assert total == -canonical_class(n)


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_involution_matches_matrix_oracle(n, data):
    D = data.draw(random_divisor(n))
    m = antipodal_matrix(n)
    expected = tuple(sum(row[j] * D.coeffs[j] for j in range(n + 2)) for row in m)
    assert antipodal_involution(D).coeffs == expected


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_involution_is_an_involution(n, data):
    D = data.draw(random_divisor(n))
    assert antipodal_involution(antipodal_involution(D)) == D


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_involution_on_families(n, data):
    c, J = data.draw(family_params(n))
    assert antipodal_involution(make_F(n, c, J)) == make_F(n, len(J) - c, J)


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_permutation_relabels_families(n, data):
    c, J = data.draw(family_params(n))
    perm = tuple(data.draw(st.permutations(list(range(n + 1)))))
    assert permute(perm, make_F(n, c, J)) == make_F(n, c, {perm[j] for j in J})


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_factors_commute(n, data):
    D = data.draw(random_divisor(n))
    perm = tuple(data.draw(st.permutations(list(range(n + 1)))))
    assert permute(perm, antipodal_involution(D)) == antipodal_involution(permute(perm, D))
    assert act((perm, True), D) == permute(perm, antipodal_involution(D))


def test_group_generators_shape():
    gens = group_generators(4)
    assert len(gens) == 5
    assert gens[0] == ((0, 1, 2, 3, 4), True)
    assert gens[2] == ((0, 2, 1, 3, 4), False)


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_parse_roundtrip(n, data):
    c, J = data.draw(family_params(n))
    assert parse_F(make_F(n, c, J)) == (c, frozenset(J))


def test_parse_rejects_non_family():
    assert parse_F(divisor(0, (0, 0, 1))) is None
    assert parse_F(divisor(-1, (1, 0, -1))) is None
    assert parse_F(divisor(-2, (2, 1, 2))) == (2, frozenset({1}))


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_family_form_injective(n, data):
    c1, J1 = data.draw(family_params(n))
    c2, J2 = data.draw(family_params(n))
    if (c1, frozenset(J1)) != (c2, frozenset(J2)):
        assert make_F(n, c1, J1) != make_F(n, c2, J2)


def test_orbit_sizes():
    assert len(orbit_Fckl(2, 0, 0, 0)) == 1
    assert len(orbit_Fckl(2, 1, 1, 1)) == 6
    assert len(orbit_Fckl(4, 2, 1, 2)) == 5 * 6
    assert len(orbit_Fckl(4, 0, 0, 3)) == 10


def test_orbit_invalid_shape():
    with pytest.raises(InvalidShape):
        orbit_Fckl(2, 0, 2, 2)
    with pytest.raises(InvalidShape):
        orbit_Fckl(4, 1, -1, 0)


@settings(max_examples=40, deadline=None)
@given(dims, st.data())
def test_orbit_carried_by_involution(n, data):
    k = data.draw(st.integers(0, n // 2))
    ell = data.draw(st.integers(0, n + 1 - k))
    c = data.draw(st.integers(-3, 3))
    image = {antipodal_involution(D) for D in orbit_Fckl(n, c, k, ell)}
    assert image == set(orbit_Fckl(n, ell - k - c, k, ell))


@settings(max_examples=40, deadline=None)
@given(dims, st.data())
def test_orbit_permutation_invariant(n, data):
    k = data.draw(st.integers(0, 1))
    ell = data.draw(st.integers(0, n - k))
    c = data.draw(st.integers(-2, 2))
    perm = tuple(data.draw(st.permutations(list(range(n + 1)))))
    members = set(orbit_Fckl(n, c, k, ell))
    assert {permute(perm, D) for D in members} == members


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_difference_lands_in_family(n, data):
    c1, J1 = data.draw(family_params(n))
    c2, J2 = data.draw(family_params(n))
    c, k, ell = difference_family(n, make_F(n, c1, J1), make_F(n, c2, J2))
    t = len(set(J1) & set(J2))
    assert (c, k, ell) == (c1 - c2, len(J2) - t, len(J1) - t)
    diff = make_F(n, c1, J1) - make_F(n, c2, J2)
    assert diff in set(orbit_Fckl(n, c, k, ell))


def test_difference_family_rejects_junk():
    with pytest.raises(NotInFamily):
        difference_family(2, divisor(0, (0, 0, 1)), make_F(2, 0, set()))
    with pytest.raises(NotInFamily):
        difference_family(2, make_F(2, 0, set()), divisor(0, (0, 0, 1)))
    # classes of another dimension, F_{c,J} or not
    with pytest.raises(ValueError, match="dimension 2, expected 4"):
        difference_family(4, make_F(2, 1, (0,)), make_F(6, 0, ()))
    with pytest.raises(ValueError, match="dimension 6, expected 4"):
        difference_family(4, make_F(4, 1, (0,)), make_F(6, 0, ()))
    with pytest.raises(ValueError, match="dimension 4, expected 2"):
        difference_family(2, divisor(0, (0, 0, 1)), make_F(4, 0, ()))


@settings(max_examples=60, deadline=None)
@given(dims, st.data())
def test_ray_coefficients_reconstruct_class(n, data):
    D = data.draw(random_divisor(n))
    coeffs = ray_coefficients(n, D)
    total = DivisorClass((0,) * (n + 2))
    for i, a in enumerate(coeffs):
        total = total + a * class_of_ray(n, i)
    assert total == D


@pytest.mark.parametrize("n, D", [(2, make_F(4, 0, ())), (6, make_F(4, 0, ())),
                                  (4, divisor(1, (2, 0, -1)))])
def test_ray_coefficients_reject_another_dimension(n, D):
    with pytest.raises(ValueError, match=f"dimension {D.n}, expected {n}"):
        ray_coefficients(n, D)


def test_divisor_arithmetic():
    a = divisor(1, (2, 0, -1))
    b = divisor(0, (1, 1, 1))
    assert (a + b).coeffs == (1, 3, 1, 0)
    assert (a - b).coeffs == (1, 1, -1, -2)
    assert (-a).coeffs == (-1, -2, 0, 1)
    assert (3 * b).coeffs == (0, 3, 3, 3)
