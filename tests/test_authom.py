"""Automorphism/homomorphism counting and the comparison predicates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentotient import authom
from gentotient import closedforms as cf
from gentotient import families as fam
from gentotient import verification
from gentotient.core import AbelianGroup, ResourceLimitError
from gentotient.numtheory import euler_phi, is_prime


def test_aut_cyclic_is_classical_totient():
    for n in range(1, 201):
        assert authom.aut_count(fam.cyclic(n)) == euler_phi(n)


def test_aut_examples():
    assert authom.aut_count(fam.cyclic(6)) == 2
    assert authom.aut_count(fam.cyclic(1)) == 1
    assert authom.aut_count(fam.symmetric(3)) == 6
    z6s3 = fam.direct_product([fam.cyclic(6), fam.symmetric(3)])
    assert authom.aut_count(z6s3) == 24


def test_aut_known_small_groups():
    assert authom.aut_count(fam.elementary_abelian(2, 3)) == 168   # GL(3, 2)
    assert authom.aut_count(fam.generalized_quaternion(8)) == 24
    assert authom.aut_count(fam.dihedral(8)) == 8
    assert authom.aut_count(fam.dihedral(12)) == 12
    assert authom.aut_count(fam.symmetric(4)) == 24
    assert authom.aut_count(fam.alternating(5)) == 120


def test_abelian_coprime_split_matches_direct_backtracking():
    # the same groups, one realized as a single abelian type (split path),
    # one as a raw product (full backtracking)
    pairs = [
        ([(2, [1, 1])], [fam.elementary_abelian(2, 2)]),
        ([(2, [2]), (3, [1])], [fam.cyclic(4), fam.cyclic(3)]),
        ([(2, [1, 1]), (3, [1])], [fam.elementary_abelian(2, 2), fam.cyclic(3)]),
        ([(2, [1]), (3, [1, 1])], [fam.cyclic(2), fam.elementary_abelian(3, 2)]),
    ]
    for ptype, factors in pairs:
        split = authom.aut_count(fam.abelian(ptype))
        raw = authom.aut_count(fam.direct_product(factors))
        assert split == raw


def test_hom_examples():
    z6 = fam.cyclic(6)
    assert authom.hom_count(fam.symmetric(3), z6) == 2
    assert authom.hom_count(fam.symmetric(4), fam.cyclic(1)) == 1
    assert authom.hom_count(fam.cyclic(4), fam.cyclic(2)) == 2


def test_hom_between_cyclic_groups_is_gcd():
    for m in range(1, 13):
        for n in range(1, 13):
            assert authom.hom_count(fam.cyclic(m), fam.cyclic(n)) == math.gcd(m, n)


def test_aut_product_formula():
    s3 = fam.symmetric(3)
    assert authom.aut_product_formula(fam.cyclic(6), s3) == 24
    assert authom.aut_product_formula(fam.cyclic(1), s3) == 6
    # |Aut(Z2)| = 1, so the D12 value is 1 * 6 * 2
    got = authom.aut_product_formula(fam.cyclic(2), s3)
    assert got == 12 == authom.aut_count(fam.dihedral(12))


def test_aut_product_formula_matches_backtracking():
    cases = [
        (fam.cyclic(2), fam.symmetric(3)),
        (fam.cyclic(4), fam.symmetric(3)),
        (fam.cyclic(6), fam.symmetric(3)),
        (fam.cyclic(3), fam.dihedral(10)),
        (fam.cyclic(2), fam.symmetric(4)),
    ]
    for g1, g2 in cases:
        prod = fam.direct_product([g1, g2])
        assert authom.aut_product_formula(g1, g2) == authom.aut_count(prod)


def test_aut_product_formula_preconditions():
    with pytest.raises(ValueError):
        authom.aut_product_formula(fam.symmetric(3), fam.symmetric(3))
    with pytest.raises(ValueError):
        authom.aut_product_formula(fam.cyclic(2), fam.cyclic(3))  # abelian center
    with pytest.raises(ValueError):
        authom.aut_product_formula(fam.cyclic(3), fam.generalized_quaternion(8))


def test_caps_refuse_rather_than_degrade():
    with pytest.raises(ResourceLimitError):
        authom.aut_count(fam.cyclic(300))  # order cap
    with pytest.raises(ResourceLimitError):
        authom.aut_count(fam.elementary_abelian(2, 5))  # generator cap
    with pytest.raises(ResourceLimitError):
        authom.aut_count(fam.abelian([(2, [1, 2, 2, 2])]))  # search-size guard
    with pytest.raises(ResourceLimitError):
        authom.hom_count(fam.symmetric(3), fam.cyclic(500))
    with pytest.raises(ResourceLimitError, match=r"\|Z2\^20000\| = a 6021-digit number exceeds"):
        authom.aut_count(fam.elementary_abelian(2, 20000))  # too long to print


def test_generator_presentation_closure():
    group = fam.dihedral(12)
    mat = authom.MaterializedGroup(group)
    generators = [mat.elements[g] for g in authom.greedy_generators(mat)]
    closure = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = group.multiply(x, g)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(closure) == group.order
    assert len(generators) <= 2


def test_center_size():
    assert authom.center_size(fam.symmetric(3)) == 1
    assert authom.center_size(fam.generalized_quaternion(8)) == 2
    assert authom.center_size(fam.cyclic(12)) == 12


def test_phi_order_match_check():
    z3s3 = fam.direct_product([fam.cyclic(3), fam.symmetric(3)])
    rec = authom.phi_order_match_check(z3s3)
    assert rec.holds and rec.k == 3 and rec.ratio == 3
    assert authom.phi_order_match_check(fam.cyclic(40)).holds
    rec_d8 = authom.phi_order_match_check(fam.dihedral(8))
    assert not rec_d8.holds and rec_d8.phi_g == 2 and rec_d8.phi_order == 4


def test_phi_exp_match_check():
    assert authom.phi_exp_match_check(fam.generalized_quaternion(16))
    assert authom.phi_exp_match_check(fam.cyclic(36))
    assert not authom.phi_exp_match_check(fam.generalized_quaternion(8))  # k = 3
    assert not authom.phi_exp_match_check(fam.symmetric(3))  # phi = 0


def test_trivial_center_inequality():
    for group in (fam.symmetric(3), fam.symmetric(4), fam.alternating(5),
                  fam.dihedral(10)):
        assert authom.center_size(group) == 1
        aut = authom.aut_count(group)
        phi_g = group.spectrum().phi()
        assert phi_g < group.order <= aut


def test_phi_aut_screen_d8():
    screen = authom.phi_aut_screen(fam.dihedral(8))
    assert not screen.cond_i
    assert screen.is_counterexample is False
    assert screen.aut is None


def test_phi_aut_screen_z6s3():
    z6s3 = fam.direct_product([fam.cyclic(6), fam.symmetric(3)])
    screen = authom.phi_aut_screen(z6s3)
    assert screen.cond_i
    assert screen.aut == 24 and screen.phi_g == 20
    assert screen.is_counterexample is False


def test_phi_aut_screen_undetermined_beyond_cap():
    big = fam.direct_product([fam.cyclic(30), fam.alternating(5)])
    screen = authom.phi_aut_screen(big)
    assert screen.cond_i
    assert screen.aut is None and screen.is_counterexample is None


def test_phi_aut_screen_with_supplied_count():
    m11 = fam.mathieu11()
    big = fam.direct_product([fam.cyclic(1320), m11])
    known_aut = euler_phi(1320) * 7920
    screen = authom.phi_aut_screen(big, aut_override=known_aut)
    assert screen.cond_i
    assert screen.is_counterexample is True
    assert screen.phi_g > known_aut


def test_abelian_phi_bounded_by_aut_small():
    compared, refused = verification.abelian_phi_aut_sweep(48)
    for row in compared:
        assert row.phi <= row.aut
        assert (row.phi == row.aut) == row.cyclic
    # only the rank-5 elementary abelian group exceeds the generator cap here
    assert refused == ["Z2xZ2xZ2xZ2xZ2"]


# -- the orbit-length product against one search leaf per automorphism --------

def _generators_and_candidates(group):
    mat = authom.MaterializedGroup(group)
    gens = authom.greedy_generators(mat)
    if len(gens) > authom.AUT_GENERATOR_CAP:
        raise ResourceLimitError(f"{group.name} needs {len(gens)} generators")
    return mat, gens, [list(mat.order_buckets[mat.orders[g]]) for g in gens]


def leaf_count_aut(group):
    """|Aut G| with one search leaf per automorphism, split into coprime
    primary parts for abelian groups as aut_count splits them."""
    if isinstance(group, AbelianGroup) and len(group.primary_type) > 1:
        return math.prod(leaf_count_aut(AbelianGroup([part]))
                         for part in group.primary_type)
    mat, gens, candidates = _generators_and_candidates(group)
    return authom._count_morphisms(mat, mat, gens, candidates, injective=True)


def assert_orbit_product_matches_leaves(group):
    try:
        expected = leaf_count_aut(group)
    except ResourceLimitError:
        with pytest.raises(ResourceLimitError):
            authom.aut_count(group)
        return False
    assert authom.aut_count(group) == expected, group.name
    return True


def test_aut_count_matches_leaf_count_on_abelian_groups():
    counted = [
        assert_orbit_product_matches_leaves(fam.abelian(ptype))
        for _, ptype in cf.abelian_types_up_to(64)
    ]
    assert counted.count(False) == 4  # Z2^5, Z2^6, Z2^4xZ4, Z2^2xZ4^2


def test_aut_count_matches_leaf_count_on_nonabelian_groups():
    groups = [fam.dihedral(n) for n in range(4, 65, 2)]
    groups += [fam.generalized_quaternion(n) for n in (8, 16, 32, 64)]
    groups += [fam.quasidihedral(n) for n in (16, 32, 64)]
    groups += [fam.symmetric(4), fam.alternating(5),
               fam.direct_product([fam.cyclic(6), fam.symmetric(3)])]
    for p in range(3, 48):
        for q in range(2, p):
            if is_prime(p) and is_prime(q) and (p - 1) % q == 0:
                n = 2
                while p ** (n - 1) * q <= 48:
                    groups.append(fam.p_group_P(p, q, n))
                    n += 1
    assert all(assert_orbit_product_matches_leaves(g) for g in groups)
    assert "P(3,2,3)" in {g.name for g in groups}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([p for p in cf.valid_metacyclic_presentations(48, 48)
                        if p[0] * p[1] <= 48]))
def test_aut_count_matches_leaf_count_on_metacyclic_groups(params):
    assert assert_orbit_product_matches_leaves(fam.metacyclic(*params))


@pytest.mark.parametrize("group", [fam.abelian([(2, [1, 1, 2])]), fam.symmetric(4),
                                   fam.generalized_quaternion(16)],
                         ids=lambda g: g.name)
def test_existence_searches_leave_the_search_state_clean(group):
    # one search state serves many existence searches, then a full count;
    # anything an early stop left behind in img, used or sub would change it
    mat, gens, candidates = _generators_and_candidates(group)
    hom_candidates = [
        [j for j in range(mat.n) if mat.orders[g] % mat.orders[j] == 0] for g in gens
    ]
    for injective, cands, full in ((True, candidates, authom.aut_count(group)),
                                   (False, hom_candidates, authom.hom_count(group, group))):
        _, search = authom._morphism_search(mat, mat, gens, cands, injective)
        for _ in range(3):
            assert search(0, True, True) == 1
            # one existence search per candidate image of the first generator
            assert 1 <= search(0, False, True) <= len(cands[0])
        assert search(0, False, False) == full
