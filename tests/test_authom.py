"""Automorphism/homomorphism counting and the comparison predicates."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentotient import authom, classc, core
from gentotient import closedforms as cf
from gentotient import families as fam
from gentotient import verification
from gentotient.core import AbelianGroup, Group, ResourceLimitError
from gentotient.numtheory import euler_phi


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


def search_hom_count(source, target):
    """|Hom(source, target)| by backtracking, one search leaf per homomorphism."""
    return search_hom_counts(source, [target])[0]


def search_hom_counts(source, targets):
    """search_hom_count(source, target) for each target, materializing the
    source once."""
    src = authom.MaterializedGroup(source)
    gens = authom.greedy_generators(src)
    counts = []
    for target in targets:
        dst = authom.MaterializedGroup(target)
        candidates = [[j for j in range(dst.n) if src.orders[g] % dst.orders[j] == 0]
                      for g in gens]
        counts.append(authom._count_morphisms(src, dst, gens, candidates, injective=False))
    return counts


HOM_TARGETS = [fam.symmetric(3), fam.symmetric(4), fam.alternating(4), fam.alternating(5),
               fam.generalized_quaternion(16), fam.dihedral(20),
               fam.cyclic(1), fam.cyclic(12), fam.cyclic(49), fam.cyclic(60)]


@pytest.mark.parametrize("target", HOM_TARGETS, ids=lambda g: g.name)
def test_hom_from_cyclic_matches_backtracking(target):
    for m in range(1, 61):
        source = fam.cyclic(m)
        assert authom.hom_count(source, target) == search_hom_count(source, target), m


@pytest.mark.parametrize("source", [
    fam.abelian([(2, [1]), (3, [1]), (5, [1])]),
    fam.direct_product([fam.cyclic(4), fam.cyclic(3)]),
    fam.metacyclic(4, 2, 1, 1),  # b^2 = a, so b has order 8
], ids=lambda g: g.name)
def test_hom_from_other_cyclic_realizations_matches_backtracking(source):
    assert source.element_orders().max() == source.order
    for target in HOM_TARGETS:
        assert authom.hom_count(source, target) == search_hom_count(source, target)


NONABELIAN_SOURCES = (
    [fam.dihedral(n) for n in range(6, 41, 2)]
    + [fam.symmetric(3), fam.symmetric(4), fam.alternating(4), fam.alternating(5),
       fam.generalized_quaternion(8), fam.generalized_quaternion(16), fam.quasidihedral(16),
       fam.p_group_P(7, 3, 2), fam.direct_product([fam.cyclic(6), fam.symmetric(3)])]
    + [fam.metacyclic(*params) for params in
       ((7, 3, 0, 2), (5, 4, 0, 2), (9, 3, 0, 4), (8, 2, 0, 3), (8, 2, 4, 3), (12, 2, 0, 5))]
)


@pytest.mark.parametrize("source", NONABELIAN_SOURCES, ids=lambda g: g.name)
def test_hom_from_nonabelian_into_cyclic_matches_backtracking(source):
    assert not source.is_abelian()
    targets = [fam.cyclic(k) for k in range(1, 61)]
    assert [authom.hom_count(source, t) for t in targets] == search_hom_counts(source, targets)


def test_hom_from_abelian_into_cyclic_matches_backtracking():
    targets = [fam.cyclic(k) for k in range(1, 61)]
    for _, ptype in cf.abelian_types_up_to(64):
        source = fam.abelian(ptype)
        assert [authom.hom_count(source, t) for t in targets] == (
            search_hom_counts(source, targets)), source.name


def test_derived_subgroup_orders():
    def derived_order(group):
        return int(authom._derived_subgroup(group.index_table()).sum())

    assert derived_order(fam.symmetric(4)) == 12
    assert derived_order(fam.alternating(4)) == 4
    assert derived_order(fam.generalized_quaternion(8)) == 2
    assert derived_order(fam.alternating(5)) == 60
    for n in range(2, 41):
        assert derived_order(fam.dihedral(2 * n)) == n // math.gcd(n, 2), n
    for group in (fam.cyclic(1), fam.cyclic(12), fam.elementary_abelian(2, 3),
                  fam.abelian([(2, [1, 2]), (3, [1])])):
        assert derived_order(group) == 1, group.name


def reference_close_under_products(table, inside):
    """Grow the mask ``inside`` until its members are closed under products."""
    while True:
        members = np.flatnonzero(inside)
        inside[table[np.ix_(members, members)]] = True
        if np.count_nonzero(inside) == len(members):
            return


def reference_smallest_index_generators(table):
    """Each pick the smallest index outside the product closure so far."""
    inside = np.zeros(len(table), dtype=bool)
    inside[0] = True
    picks = []
    while not inside.all():
        pick = int(np.argmin(inside))
        picks.append(pick)
        inside[pick] = True
        reference_close_under_products(table, inside)
    return picks


def reference_largest_order_generators(mat):
    """Each pick a largest-order index outside the closure so far, the
    smallest index on ties; the closure grows under right multiplication."""
    gens, maps, closure = [], [], {0}
    while len(closure) < mat.n:
        best, best_order = -1, 0
        for i in range(mat.n):
            if i not in closure and mat.orders[i] > best_order:
                best, best_order = i, mat.orders[i]
        gens.append(best)
        maps.append([row[best] for row in mat.table])
        queue = list(closure)
        while queue:
            x = queue.pop()
            for a in maps:
                if a[x] not in closure:
                    closure.add(a[x])
                    queue.append(a[x])
    return gens


def test_generate_matches_the_closures_it_replaced():
    groups = list(classc.scan_families.__wrapped__(64)[::7])
    groups += [fam.dihedral(128), fam.generalized_quaternion(128), fam.quasidihedral(128),
               fam.symmetric(4), fam.alternating(5)]
    for group in groups:
        table = group.index_table()
        mat = authom.MaterializedGroup(group)
        assert authom.greedy_generators(mat) == reference_largest_order_generators(mat), group.name
        picks, closure = core.generate(table, range(group.order))
        assert picks == reference_smallest_index_generators(table), group.name
        assert closure == set(range(group.order)), group.name
        inv = np.argmax(table == 0, axis=1)
        derived = np.zeros(group.order, dtype=bool)
        derived[table[table[inv[:, None], inv], table]] = True
        reference_close_under_products(table, derived)
        assert np.array_equal(authom._derived_subgroup(table), derived), group.name


def test_aut_of_cyclic_matches_the_orbit_search():
    groups = [fam.cyclic(n) for n in range(1, 257)]
    groups += [fam.direct_product([fam.cyclic(4), fam.cyclic(3)]), fam.metacyclic(4, 2, 1, 1)]
    for group in groups:
        mat, gens, candidates = _generators_and_candidates(group)
        orbits, _, _ = authom._orbit_chain(mat, gens, candidates)
        assert authom.aut_count(group) == math.prod(map(len, orbits)), group.name


def test_product_formula_builds_one_table(monkeypatch):
    pairs = []
    index_product = Group.index_product

    def counted(self, a, b):
        pairs.append(len(a))
        return index_product(self, a, b)

    monkeypatch.setattr(Group, "index_product", counted)
    assert authom.aut_product_formula(fam.cyclic(6), fam.symmetric(4)) == 96
    assert pairs.count(576) == 1


def test_hom_from_trivial_group_is_one():
    for target in HOM_TARGETS:
        assert authom.hom_count(fam.cyclic(1), target) == 1


class _Materialized(Exception):
    pass


def test_hom_from_cyclic_builds_no_table_and_others_search(monkeypatch):
    def refuse(group):
        raise _Materialized(group.name)

    monkeypatch.setattr(authom, "MaterializedGroup", refuse)
    z8 = fam.metacyclic(4, 2, 1, 1)
    assert authom.hom_count(fam.cyclic(12), fam.alternating(5)) == 36
    assert authom.hom_count(z8, fam.generalized_quaternion(16)) == 16
    assert authom.hom_count(fam.abelian([(2, [1]), (3, [1])]), fam.symmetric(3)) == 6
    # into a cyclic target: abelian and nonabelian sources, cyclic or not
    assert authom.hom_count(fam.elementary_abelian(2, 2), fam.cyclic(12)) == 4
    assert authom.hom_count(fam.symmetric(3), fam.cyclic(12)) == 2
    assert authom.hom_count(fam.generalized_quaternion(8), fam.cyclic(12)) == 4
    assert authom.hom_count(fam.alternating(4), z8) == 1
    assert authom.aut_count(fam.cyclic(12)) == 4
    assert authom.aut_count(z8) == 4
    assert authom.aut_count(fam.abelian([(2, [2]), (3, [1])])) == 4
    for source, target in ((fam.symmetric(3), fam.symmetric(4)),
                           (fam.generalized_quaternion(8), fam.dihedral(8))):
        with pytest.raises(_Materialized, match=re.escape(source.name)):
            authom.hom_count(source, target)


def test_hom_refuses_over_cap_before_any_order_array(monkeypatch):
    def no_orders(group):
        raise AssertionError(f"order array of {group.name} built before the cap check")

    monkeypatch.setattr(Group, "element_orders", no_orders)
    cases = [((fam.cyclic(7), fam.cyclic(500)), "|Z500| = 500 exceeds the search cap of 256"),
             ((fam.cyclic(300), fam.symmetric(3)), "|Z300| = 300 exceeds the search cap of 256"),
             ((fam.cyclic(300), fam.cyclic(500)), "|Z300| = 300 exceeds the search cap of 256"),
             ((fam.symmetric(3), fam.dihedral(600)), "|D600| = 600 exceeds the search cap of 256"),
             # abelian and not a CyclicGroup: is_cyclic() would need its orders
             ((fam.symmetric(3), fam.direct_product([fam.cyclic(2), fam.cyclic(256)])),
              "|Z2xZ256| = 512 exceeds the search cap of 256")]
    for (source, target), message in cases:
        with pytest.raises(ResourceLimitError) as refused:
            authom.hom_count(source, target)
        assert str(refused.value) == message


def test_order_engine_runs_only_on_the_counted_side(monkeypatch):
    runs = []
    element_orders = core._element_orders

    def counted(group):
        runs.append(group.name)
        return element_orders(group)

    monkeypatch.setattr(core, "_element_orders", counted)
    z30 = fam.cyclic(30)
    cases = [
        (lambda: authom.hom_count(fam.cyclic(30), fam.dihedral(20)), 20, ["D20"]),
        (lambda: authom.hom_count(fam.symmetric(4), z30), 2, []),
        (lambda: authom.hom_count(fam.abelian([(2, [1, 2]), (3, [1])]), z30), 12,
         ["Z2xZ4xZ3"]),
        # Z8 as a metacyclic presentation runs the engine to learn it is cyclic
        (lambda: authom.hom_count(fam.metacyclic(4, 2, 1, 1), fam.generalized_quaternion(16)),
         16, ["MC(4,2,1,1)", "Q16"]),
        (lambda: authom.aut_count(fam.cyclic(12)), 4, ["Z12"]),
    ]
    for call, value, engine_runs in cases:
        runs.clear()
        assert (call(), runs) == (value, engine_runs)


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


def test_aut_product_formula_takes_any_cyclic_first_factor():
    # Z4xZ3 and MC(12,1,0,1) are Z12 realized as an abelian product and as a
    # metacyclic presentation; Group.is_cyclic() decides that G1 is cyclic
    s3 = fam.symmetric(3)
    for g1 in (fam.abelian([(2, [2]), (3, [1])]), fam.metacyclic(12, 1, 0, 1)):
        expected = authom.aut_count(fam.direct_product([g1, s3]))
        assert expected == 48
        assert authom.aut_product_formula(g1, s3) == expected
    with pytest.raises(ResourceLimitError, match=r"\|Z300\| = 300 exceeds the search cap"):
        authom.aut_product_formula(fam.cyclic(300), s3)


def test_generator_cap_refusals_name_their_counter():
    z2_5 = fam.elementary_abelian(2, 5)
    with pytest.raises(ResourceLimitError, match=re.escape(
            "Z2^5 needs 5 generators; the automorphism counter refuses beyond 4")):
        authom.aut_count(z2_5)
    with pytest.raises(ResourceLimitError, match=re.escape(
            "Z2^5 needs 5 generators; the homomorphism counter refuses beyond 4")):
        authom.hom_count(z2_5, fam.symmetric(3))


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
    generators = group.payloads(authom.greedy_generators(mat))
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
    for n in range(3, 41):
        assert authom.center_size(fam.dihedral(2 * n)) == 2 - n % 2, n
    with pytest.raises(ResourceLimitError, match=r"^\|Z300\| = 300 exceeds the search cap of 256$"):
        authom.center_size(fam.cyclic(300))


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
        assert row.holds, row.name
    # only the rank-5 elementary abelian group exceeds the generator cap here
    assert refused == ["Z2xZ2xZ2xZ2xZ2"]


# -- the orbit-length product against one search leaf per automorphism --------

def _generators_and_candidates(group):
    mat = authom.MaterializedGroup(group)
    gens = authom.greedy_generators(mat)
    if len(gens) > authom.AUT_GENERATOR_CAP:
        raise ResourceLimitError(f"{group.name} needs {len(gens)} generators")
    return mat, gens, [[i for i, o in enumerate(mat.orders) if o == mat.orders[g]]
                       for g in gens]


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


P_GROUPS = [fam.p_group_P(*params) for params in cf.p_group_parameters(48)]


def test_aut_count_matches_leaf_count_on_abelian_groups():
    counted = [
        assert_orbit_product_matches_leaves(fam.abelian(ptype))
        for _, ptype in cf.abelian_types_up_to(64)
    ]
    assert counted.count(False) == 4  # Z2^5, Z2^6, Z2^4xZ4, Z2^2xZ4^2


def test_aut_count_matches_leaf_count_on_nonabelian_groups():
    groups = [fam.dihedral(n) for n in list(range(4, 65, 2)) + [128]]
    groups += [fam.generalized_quaternion(n) for n in (8, 16, 32, 64, 128)]
    groups += [fam.quasidihedral(n) for n in (16, 32, 64, 128)]
    groups += [fam.symmetric(4), fam.alternating(5),
               fam.direct_product([fam.cyclic(6), fam.symmetric(3)])]
    groups += P_GROUPS
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
        _, search, _ = authom._morphism_search(mat, mat, gens, cands, injective)
        for _ in range(3):
            assert search(0, True) == 1
            # one existence search per candidate image of the first generator
            assert 1 <= sum(search(0, True, [h]) for h in cands[0]) <= len(cands[0])
        assert search(0, False) == full


# -- the orbit chain against one existence search per candidate ---------------

def brute_force_orbits(mat, gens, candidates):
    """Per generator g_k, the candidates h for which g_1..g_(k-1) -> themselves,
    g_k -> h extends to an automorphism, and the rest, each decided by its own
    existence search, with no closure."""
    orbits, rejected = [], []
    for depth in range(len(gens)):
        fix, search, _ = authom._morphism_search(mat, mat, gens, candidates, True)
        assert all(fix(d, gens[d]) for d in range(depth))
        orbit = {h for h in candidates[depth] if search(depth, True, [h])}
        orbits.append(orbit)
        rejected.append(set(candidates[depth]) - orbit)
    return orbits, rejected


def assert_orbit_chain_matches_brute_force(group):
    """Compare the orbit chain with the brute-force orbits; False if the caps
    refuse the group."""
    try:
        mat, gens, candidates = _generators_and_candidates(group)
        orbits, rejected, found = authom._orbit_chain(mat, gens, candidates)
    except ResourceLimitError:
        return False
    assert (orbits, rejected) == brute_force_orbits(mat, gens, candidates), group.name
    table = np.array(mat.table)
    for image in found:
        a = np.array(image)
        assert sorted(image) == list(range(mat.n)), group.name
        assert (a[table] == table[a[:, None], a[None, :]]).all(), group.name
    return True


def test_orbit_chain_matches_brute_force_on_nonabelian_groups():
    groups = [fam.dihedral(2 * n) for n in range(2, 65)]
    groups += [fam.generalized_quaternion(2 ** k) for k in range(3, 8)]
    groups += [fam.quasidihedral(2 ** k) for k in range(4, 8)]
    groups += [fam.symmetric(4), fam.alternating(5),
               fam.direct_product([fam.cyclic(6), fam.symmetric(3)])]
    groups += P_GROUPS
    assert all(assert_orbit_chain_matches_brute_force(g) for g in groups)


def test_orbit_chain_matches_brute_force_on_abelian_groups():
    counted = [assert_orbit_chain_matches_brute_force(fam.abelian(ptype))
               for _, ptype in cf.abelian_types_up_to(64)]
    assert counted.count(False) == 4  # Z2^5, Z2^6, Z2^4xZ4, Z2^2xZ4^2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([p for p in cf.valid_metacyclic_presentations(48, 48)
                        if p[0] * p[1] <= 48]))
def test_orbit_chain_matches_brute_force_on_metacyclic_groups(params):
    assert assert_orbit_chain_matches_brute_force(fam.metacyclic(*params))
