"""Forbidden-cone enumeration, membership tests, and vanishing certificates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc import cones, reference
from toric_exc.cohomology import _slot_groups, _symmetric_engine, cohomology
from toric_exc.collection import apply_mutation, build_Gn
from toric_exc.cones import (
    ForbiddenConeSpec,
    certify_acyclic,
    certify_groups,
    certify_higher_acyclic,
    enumerate_forbidden,
    forbidden_witness,
    in_forbidden_cone,
)
from toric_exc.fan import build_Vn, complex_CI
from toric_exc.picard import (
    DivisorClass,
    HypothesisViolated,
    divisor,
    family_slots,
    higher_acyclic_predicate,
    lemma_acyclic_predicate,
    make_F,
    orbit_Fckl,
    ray_coefficients,
)
from toric_exc.polyhedra import feasible, polyhedron
from toric_exc.simplicial import reduced_homology


def visible_profile(fan, rays):
    """Contribution ranks straight from the subcomplex, no cone machinery."""
    hom = reduced_homology(complex_CI(fan, rays))
    ranks = [0] * (fan.rank + 1)
    for deg, (rank, torsion) in hom.items():
        assert not torsion
        if 0 <= deg + 1 <= fan.rank:
            ranks[deg + 1] = rank
    return tuple(ranks)


def generic_clone(fan):
    return reference.GenericFan(fan.rank, fan.rays, fan.max_cones)


coeff = st.integers(min_value=-4, max_value=4)


# -- enumeration --------------------------------------------------------------


def test_visible_subsets_exhaustive_hexagon():
    fan = build_Vn(2)
    by_rays = {spec.rays: spec.profile for spec in enumerate_forbidden(fan)}
    seen = 0
    for mask in range(1 << fan.nrays):
        s = frozenset(i for i in range(fan.nrays) if mask >> i & 1)
        profile = visible_profile(fan, s)
        if any(profile):
            assert by_rays[s] == profile
            seen += 1
        else:
            assert s not in by_rays
    assert seen == len(by_rays) == 34


def test_visible_subsets_sampled_dim4():
    fan = build_Vn(4)
    by_rays = {spec.rays: spec.profile for spec in enumerate_forbidden(fan)}
    assert len(by_rays) == 314
    rng = random.Random(0)
    masks = rng.sample(range(1 << fan.nrays), 150)
    for mask in masks:
        s = frozenset(i for i in range(fan.nrays) if mask >> i & 1)
        profile = visible_profile(fan, s)
        if any(profile):
            assert by_rays[s] == profile
        else:
            assert s not in by_rays


def test_primitive_union_brute_path_matches_closed_form():
    fan = build_Vn(2)
    clone = generic_clone(fan)
    fast = {(spec.rays, spec.profile) for spec in enumerate_forbidden(fan)}
    slow = {(spec.rays, spec.profile) for spec in reference.enumerate_forbidden(clone)}
    assert fast == slow


def test_all_subsets_path_matches_closed_form():
    fan = build_Vn(2)
    unrestricted = reference.enumerate_forbidden(fan, restrict_to_primitive_unions=False)
    assert {(s.rays, s.profile) for s in unrestricted} \
        == {(s.rays, s.profile) for s in enumerate_forbidden(fan)}


def test_spec_counts():
    assert len(enumerate_forbidden(build_Vn(2))) == 34
    assert len(enumerate_forbidden(build_Vn(4))) == 314
    assert len(enumerate_forbidden(build_Vn(6))) == 2986


def test_specs_sorted_and_degrees():
    specs = enumerate_forbidden(build_Vn(2))
    keys = [(len(s.rays), sorted(s.rays)) for s in specs]
    assert keys == sorted(keys)
    empty = specs[0]
    assert empty.rays == frozenset()
    assert empty.profile == (1, 0, 0)
    assert empty.degrees == (0,)


def test_projective_space_specs():
    specs = reference.enumerate_forbidden(reference.build_Pn(2))
    assert [(sorted(s.rays), s.profile) for s in specs] \
        == [([], (1, 0, 0)), ([0, 1, 2], (0, 0, 1))]
    specs = reference.enumerate_forbidden(reference.build_Pn(3))
    assert [(sorted(s.rays), s.profile) for s in specs] \
        == [([], (1, 0, 0, 0)), ([0, 1, 2, 3], (0, 0, 0, 1))]


# -- membership ---------------------------------------------------------------


def test_boundary_class_needs_closed_test():
    # h^1 = 1 carried by a single character on the cone boundary: the open
    # test misses every cone and would certify a non-acyclic class.
    fan = build_Vn(2)
    d = divisor(-1, [-1, 1, 1])
    assert cohomology(fan, d).ranks == (0, 1, 0)
    closed_hits = [s.rays for s in enumerate_forbidden(fan)
                   if in_forbidden_cone(fan, s, d)]
    assert closed_hits == [frozenset({0, 3})]
    coeffs = ray_coefficients(2, d)

    def open_hit(rays):
        rows = [((tuple(-x for x in ray), coeffs[i] + 1, True) if i in rays
                 else (ray, -coeffs[i], True)) for i, ray in enumerate(fan.rays)]
        return feasible(polyhedron(fan.rank, rows))

    assert not any(open_hit(s.rays) for s in enumerate_forbidden(fan))
    assert not certify_acyclic(fan, d)
    assert forbidden_witness(fan, d).rays == frozenset({0, 3})


@settings(max_examples=40, deadline=None)
@given(h=coeff, d=st.tuples(coeff, coeff, coeff))
def test_interval_path_matches_lp_path(h, d):
    fan = build_Vn(2)
    clone = generic_clone(fan)
    dd = divisor(h, d)
    raw = ray_coefficients(2, dd)
    for spec in enumerate_forbidden(fan):
        assert in_forbidden_cone(fan, spec, dd) \
            == reference.in_forbidden_cone(clone, spec, raw)


def test_interval_path_matches_lp_path_dim4():
    fan = build_Vn(4)
    clone = generic_clone(fan)
    specs = enumerate_forbidden(fan)[::11]
    rng = random.Random(1)
    for _ in range(6):
        dd = divisor(rng.randint(-4, 4), [rng.randint(-4, 4) for _ in range(5)])
        raw = ray_coefficients(4, dd)
        for spec in specs:
            assert in_forbidden_cone(fan, spec, dd) \
                == reference.in_forbidden_cone(clone, spec, raw)


@settings(max_examples=30, deadline=None)
@given(h=coeff, d=st.tuples(coeff, coeff, coeff), m=st.tuples(
    st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)))
def test_membership_ignores_choice_of_lift(h, d, m):
    fan = build_Vn(2)
    clone = generic_clone(fan)
    raw = ray_coefficients(2, divisor(h, d))
    shifted = tuple(a + sum(mi * ui for mi, ui in zip(m, ray))
                    for a, ray in zip(raw, fan.rays))
    for spec in enumerate_forbidden(fan)[::5]:
        assert reference.in_forbidden_cone(clone, spec, raw) \
            == reference.in_forbidden_cone(clone, spec, shifted)


# -- certificates against the oracle ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(h=coeff, d=st.tuples(coeff, coeff, coeff))
def test_certificates_sound_and_hits_complete(h, d):
    fan = build_Vn(2)
    dd = divisor(h, d)
    ranks = cohomology(fan, dd).ranks
    if certify_acyclic(fan, dd):
        assert ranks == (0, 0, 0)
    if certify_higher_acyclic(fan, dd):
        assert ranks[1:] == (0, 0)
    empty = enumerate_forbidden(fan)[0]
    if any(ranks):
        assert not certify_acyclic(fan, dd)
    if any(ranks[1:]):
        assert not certify_higher_acyclic(fan, dd)
    if ranks[0]:
        assert in_forbidden_cone(fan, empty, dd)


def test_structure_sheaf_only_hits_effective_cone():
    fan = build_Vn(2)
    o = divisor(0, [0, 0, 0])
    hits = [s.rays for s in enumerate_forbidden(fan) if in_forbidden_cone(fan, s, o)]
    assert hits == [frozenset()]
    assert certify_higher_acyclic(fan, o)
    assert not certify_acyclic(fan, o)


# -- slot-count certificates against the spec walk ----------------------------


def witness_verdicts(fan, divisor):
    """(forbidden_witness(fan, d) is None, the same with higher_only=True).

    One walk serves both: the empty ray set is the only spec the higher
    flavour skips, so the full flavour adds a single test of it.
    """
    higher = forbidden_witness(fan, divisor, higher_only=True) is None
    empty = enumerate_forbidden(fan)[0]
    assert not empty.rays
    return higher and not in_forbidden_cone(fan, empty, divisor), higher


def certificate_verdicts(fan, divisor):
    return certify_acyclic(fan, divisor), certify_higher_acyclic(fan, divisor)


def assert_certificates_match_walk(fan, differences):
    for d in differences:
        expected = witness_verdicts(fan, d)
        assert certificate_verdicts(fan, d) == expected, d
        raw = ray_coefficients(fan.rank, d)
        assert certificate_verdicts(fan, raw) == expected, raw


def test_slot_count_certificates_all_pairs_G4():
    fan = build_Vn(4)
    members = build_Gn(4).members
    differences = [b - a for a in members for b in members if a != b]
    assert len(differences) == 870
    assert_certificates_match_walk(fan, differences)


def test_slot_count_certificates_sampled_pairs_G6():
    fan = build_Vn(6)
    members = build_Gn(6).members
    rng = random.Random(6)
    pairs = [rng.sample(range(len(members)), 2) for _ in range(200)]
    assert_certificates_match_walk(fan, [members[j] - members[i] for i, j in pairs])


def test_slot_count_certificates_added_member_G6():
    fan = build_Vn(6)
    members = build_Gn(6).members
    added = make_F(6, 1, {0, 1, 2})
    assert added not in members
    assert added in apply_mutation(build_Gn(6), "add:1,0-1-2").members
    differences = [m - added for m in members] + [added - m for m in members]
    assert_certificates_match_walk(fan, differences)


@pytest.mark.parametrize("n, examples", [(2, 60), (4, 40), (6, 8)])
def test_slot_count_certificates_random_vectors(n, examples):
    fan = build_Vn(n)

    @settings(max_examples=examples, deadline=None)
    @given(raw=st.tuples(*[coeff] * fan.nrays))
    def check(raw):
        assert certificate_verdicts(fan, raw) == witness_verdicts(fan, raw)

    check()


@settings(max_examples=15, deadline=None)
@given(raw=st.tuples(*[coeff] * 6))
def test_generic_fan_certificates_keep_the_walk(raw):
    fan = build_Vn(2)
    clone = generic_clone(fan)
    assert (reference.certify_acyclic(clone, raw), reference.certify_higher_acyclic(clone, raw)) \
        == certificate_verdicts(fan, raw)


def test_symmetric_certificates_skip_the_spec_walk(monkeypatch):
    fan = build_Vn(6)
    members = build_Gn(6).members
    differences = [members[5] - members[70], members[70] - members[5],
                   members[3] - members[3]]
    expected = [certificate_verdicts(fan, d) for d in differences]

    def walked(*args, **kwargs):
        raise AssertionError("the spec walk ran")

    for name in ("enumerate_forbidden", "in_forbidden_cone", "forbidden_witness"):
        monkeypatch.setattr(cones, name, walked)
    assert [certificate_verdicts(fan, d) for d in differences] == expected
    assert expected[2] == (False, True)


@pytest.mark.parametrize("call", [
    lambda: DivisorClass((1,)),
    lambda: DivisorClass((1.5, 0, 0)),
    lambda: in_forbidden_cone(build_Vn(2), enumerate_forbidden(build_Vn(2))[0], (0,) * 7),
    lambda: in_forbidden_cone(build_Vn(2), enumerate_forbidden(build_Vn(2))[0], (0,) * 5),
    lambda: reference.in_forbidden_cone(generic_clone(build_Vn(2)),
                                        enumerate_forbidden(build_Vn(2))[0],
                                        divisor(0, [0, 0, 0])),
    lambda: certify_acyclic(build_Vn(2), (0,) * 7),
    lambda: certify_higher_acyclic(build_Vn(2), divisor(0, [0] * 5)),
    lambda: reference.certify_acyclic(generic_clone(build_Vn(2)), divisor(0, [0, 0, 0])),
    lambda: cohomology(build_Vn(2), (1.9, 0, 0, 0, 0, 0)),
    lambda: cohomology(build_Vn(2), ("3", 0, 0, 0, 0, 0)),
    lambda: certify_acyclic(build_Vn(2), (0, 0, 0, 0.5, 0, 0)),
    lambda: certify_higher_acyclic(build_Vn(2), (0, 0, 0, 0, 0, "1")),
    lambda: in_forbidden_cone(build_Vn(2), enumerate_forbidden(build_Vn(2))[0],
                              (1.0, 0, 0, 0, 0, 0)),
    lambda: forbidden_witness(build_Vn(2), (0, 2.5, 0, 0, 0, 0)),
    lambda: reference.cohomology(reference.build_Pn(2), (1.9, 0, 0)),
    lambda: reference.certify_acyclic(generic_clone(build_Vn(2)), ("3", 0, 0, 0, 0, 0)),
], ids=["short-class", "float-class", "long-vector", "short-vector",
        "class-on-generic-fan", "certify-long-vector", "certify-other-dimension",
        "certify-class-on-generic-fan", "cohomology-float", "cohomology-string",
        "certify-float", "certify-higher-string", "membership-float", "witness-float",
        "reference-cohomology-float", "reference-certify-string"])
def test_bad_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


# -- family predicates --------------------------------------------------------


def family_shapes(n):
    for k in range(n + 2):
        for ell in range(n + 2 - k):
            yield k, ell


def test_predicate_hypothesis_gate():
    with pytest.raises(HypothesisViolated):
        lemma_acyclic_predicate(2, 1, 2, 1)
    with pytest.raises(HypothesisViolated):
        lemma_acyclic_predicate(2, 0, 0, 0)
    with pytest.raises(HypothesisViolated):
        lemma_acyclic_predicate(2, 0, -1, 1)
    with pytest.raises(HypothesisViolated):
        lemma_acyclic_predicate(2, 0, 2, 2)
    with pytest.raises(HypothesisViolated):
        higher_acyclic_predicate(4, 0, 3, 3)
    assert higher_acyclic_predicate(2, 0, 0, 0) is not None
    assert isinstance(higher_acyclic_predicate(2, 2, 2, 1), bool)


def test_lemma_predicate_sound_hexagon():
    fan = build_Vn(2)
    true_count = checked = 0
    for k, ell in family_shapes(2):
        for c in range(-4, 5):
            if k > ell or (c, k, ell) == (0, 0, 0):
                continue
            if not lemma_acyclic_predicate(2, c, k, ell):
                continue
            true_count += 1
            for member in orbit_Fckl(2, c, k, ell):
                assert cohomology(fan, member).is_zero()
                assert certify_acyclic(fan, member)
                checked += 1
    assert true_count == 8
    assert checked == 19


def test_lemma_predicate_sound_dim4():
    fan = build_Vn(4)
    true_count = 0
    for k, ell in family_shapes(4):
        for c in range(-4, 5):
            if k > ell or (c, k, ell) == (0, 0, 0):
                continue
            if not lemma_acyclic_predicate(4, c, k, ell):
                continue
            true_count += 1
            for member in orbit_Fckl(4, c, k, ell):
                assert cohomology(fan, member).is_zero()
    assert true_count == 29


def test_higher_predicate_sound_hexagon():
    fan = build_Vn(2)
    true_count = 0
    for k, ell in family_shapes(2):
        for c in range(-4, 5):
            if not higher_acyclic_predicate(2, c, k, ell):
                continue
            true_count += 1
            for member in orbit_Fckl(2, c, k, ell):
                assert cohomology(fan, member).ranks[1:] == (0, 0)
                assert certify_higher_acyclic(fan, member)
    assert true_count == 20


def test_higher_predicate_sound_dim4():
    fan = build_Vn(4)
    true_count = 0
    for k, ell in family_shapes(4):
        for c in range(-4, 5):
            if not higher_acyclic_predicate(4, c, k, ell):
                continue
            true_count += 1
            for member in orbit_Fckl(4, c, k, ell):
                assert cohomology(fan, member).ranks[1:] == (0,) * 4
    assert true_count == 62


def test_lemma_is_higher_plus_no_sections():
    # the full-vanishing range is exactly the positive-degree range with the
    # section-bearing stripe (l = 0, -k <= c <= 0) removed
    for n in (2, 4, 6, 8):
        for k, ell in family_shapes(n):
            if k > ell:
                continue
            for c in range(-2 * n - 2, 2 * n + 3):
                if (c, k, ell) == (0, 0, 0):
                    continue
                effective = ell == 0 and -k <= c <= 0
                assert lemma_acyclic_predicate(n, c, k, ell) \
                    == (higher_acyclic_predicate(n, c, k, ell) and not effective)


def family_representative(n, c, k, ell):
    """c(E - H) + E_0 + ... + E_(k-1) - E_k - ... - E_(k+l-1), one member of the family."""
    return DivisorClass((-c,) + tuple(c + (i < k) - (k <= i < k + ell) for i in range(n + 1)))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_family_slots_grade_as_the_representative(n):
    # the oracle and forbidden sweeps hand the walk a family's slot groups;
    # they are the representative's, in the same order, so the walk enters
    # the same nodes and every grade is the same
    fan = build_Vn(n)
    for k, ell in family_shapes(n):
        for c in range(-n - 2, n + 3):
            member = family_representative(n, c, k, ell)
            groups = family_slots(n, c, k, ell)
            assert list(groups.items()) \
                == list(_slot_groups(ray_coefficients(n, member)).items()), (c, k, ell)
            assert _symmetric_engine(n, groups).ranks == cohomology(fan, member).ranks
            assert certify_groups(n, groups, False) == certify_acyclic(fan, member)
            assert certify_groups(n, groups, True) == certify_higher_acyclic(fan, member)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_predicates_equal_the_oracle_and_certificates_on_every_family(n):
    # a family is one S_(n+1)-orbit, so its representative decides it; both
    # directions are checked, and each predicate answers both ways
    fan = build_Vn(n)
    answers = {"lemma": set(), "higher": set()}
    for k, ell in family_shapes(n):
        for c in range(-n - 2, n + 3):
            member = family_representative(n, c, k, ell)
            assert n > 4 or member == orbit_Fckl(n, c, k, ell)[0]
            ranks = cohomology(fan, member).ranks
            higher = higher_acyclic_predicate(n, c, k, ell)
            assert higher == certify_higher_acyclic(fan, member) == (not any(ranks[1:])), \
                (c, k, ell)
            answers["higher"].add(higher)
            try:
                lemma = lemma_acyclic_predicate(n, c, k, ell)
            except HypothesisViolated:
                continue
            assert lemma == certify_acyclic(fan, member) == (not any(ranks)), (c, k, ell)
            answers["lemma"].add(lemma)
    assert answers == {"lemma": {False, True}, "higher": {False, True}}
