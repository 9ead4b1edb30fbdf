"""Acceptance suite: one test per numbered criterion, each printing PASS/FAIL.

Every comparison is exact (integers and booleans).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from gentotient import authom, classc, core, verification
from gentotient import closedforms as cf
from gentotient import families as fam
from gentotient.core import report, spectrum_by_enumeration
from gentotient.numtheory import euler_phi


def announce(number, text):
    print(f"ACCEPTANCE {number:>2}: {text}: PASS")


@lru_cache(maxsize=1)
def catalog_2000():
    return classc.standard_catalog(2000)


def test_criterion_01_showcase_phi_values():
    """Exact phi for the hand-checkable small groups."""
    z3s3 = fam.direct_product([fam.cyclic(3), fam.symmetric(3)])
    z6s3 = fam.direct_product([fam.cyclic(6), fam.symmetric(3)])
    cases = [
        (fam.dihedral(8), 2),
        (fam.generalized_quaternion(8), 6),
        (z3s3, 6),
        (z6s3, 20),
        (fam.elementary_abelian(2, 2), 3),
        (fam.symmetric(1), 1),
        (fam.symmetric(2), 1),
        (fam.symmetric(3), 0),
        (fam.symmetric(4), 0),
        (fam.alternating(3), 2),
        (fam.alternating(4), 0),
        (fam.alternating(5), 0),
    ]
    for group, expected in cases:
        assert spectrum_by_enumeration(group).phi() == expected, group.name
    announce(1, "showcase phi values, exact")


def test_criterion_02_abelian_formula_vs_oracle_up_to_5000():
    """Primary-type formula equals AbelianGroup's spectrum for every type.

    That spectrum is the lcm-convolution of the cyclic factors' order counts,
    a route apart from the enumeration engine that verification.abelian_sweep
    checks the formula against.  The check stays a loop of its own because
    the engine over the same 10,960 types takes 11-13 s, against 0.9 s for
    the convolution (2-core Xeon).
    """
    count = 0
    for order, ptype in cf.abelian_types_up_to(5000):
        got = cf.phi_abelian(ptype)
        oracle = fam.abelian(ptype).spectrum().phi()
        assert got == oracle, (order, ptype)
        count += 1
    assert count > 10_000
    announce(2, f"abelian formula = oracle on {count} types with |G| <= 5000")


def test_criterion_03_hamiltonian_formula_vs_oracle_up_to_5000():
    """3 * 2^(n+1) * phi(A) equals the enumerated count for every shape."""
    count = 0
    for rank, ptype in cf.hamiltonian_types_up_to(5000):
        group = fam.hamiltonian(rank, fam.abelian(ptype) if ptype else fam.cyclic(1))
        assert cf.phi_hamiltonian(rank, ptype) == \
            spectrum_by_enumeration(group).phi(), group.name
        count += 1
    assert count > 100
    announce(3, f"hamiltonian formula = oracle on {count} groups with |G| <= 5000")


def test_criterion_04_dihedral_and_power_automorphism_groups():
    """Dihedral phi and exp formulas for 2 <= n <= 100; P-groups have phi = 0."""
    assert verification.dihedral_sweep(100) == []
    assert verification.p_group_sweep(150) == []
    announce(4, "dihedral formula = oracle (n <= 100); P-group phi = 0 confirmed")


def test_criterion_05_symmetric_alternating_partition_engine():
    """Zero phi up to n = 30; exponents and per-order counts vs enumeration to 10."""
    for n in range(3, 31):
        assert cf.phi_symmetric(n) == 0, n
    for n in range(4, 31):
        assert cf.phi_alternating(n) == 0, n
    for n in range(2, 31):
        by_partitions = 1
        for parts in cf._partition_tuples(n):
            if (n - len(parts)) % 2 == 0:
                by_partitions = math.lcm(by_partitions, math.lcm(*parts))
        assert cf.exp_alternating(n) == by_partitions, n
    assert verification.cycle_type_sweep(10) == []
    announce(5, "cycle-type engine: zeros to n = 30, exponents and counts exact")


def test_criterion_06_aut_counts_for_the_36_element_product():
    """Brute-force automorphism arithmetic around Z6 x S3."""
    s3 = fam.symmetric(3)
    z6 = fam.cyclic(6)
    z6s3 = fam.direct_product([z6, s3])
    assert authom.aut_count(z6) == 2
    assert authom.aut_count(s3) == 6
    assert authom.hom_count(s3, z6) == 2
    assert authom.aut_product_formula(z6, s3) == 24
    assert authom.aut_count(z6s3) == 24
    assert z6s3.order == 36 > 24
    announce(6, "aut(Z6) = 2, aut(S3) = 6, hom = 2, aut(Z6xS3) = 24 < 36")


def test_criterion_07_mathieu_counterexample_inequality():
    """Closure size, exponent, and the convolution count beating phi(m)|M11|."""
    m11 = fam.mathieu11()
    assert len(list(m11.elements())) == 7920
    spec = m11.spectrum()
    assert spec.exponent() == 1320
    product = fam.direct_product([fam.cyclic(1320), m11])
    phi_big = product.spectrum().phi()
    known_aut = euler_phi(1320) * 7920
    assert known_aut == 2_534_400
    assert phi_big > known_aut
    screen = authom.phi_aut_screen(product, aut_override=known_aut)
    assert screen.cond_i and screen.is_counterexample
    announce(7, f"phi(Z1320xM11) = {phi_big} > 2534400, exact")


def counted_k(group):
    """Cyclic subgroups of order e = exp(G), counted under the group law.

    X holds the elements that the order engine places at order e.  The
    powers x^0, ..., x^e of every x in X are built by index_product, one
    batch per exponent, from the identity at index 0, and each x must have
    order exactly e.  <x> is then the set of its first e powers, so two
    elements generate the same subgroup exactly when their sorted columns
    agree.
    """
    e = report(group).exponent
    x = np.flatnonzero(group.element_orders() == e)
    powers = [np.zeros_like(x)]
    for _ in range(e):
        powers.append(group.index_product(powers[-1], x))
    powers = np.array(powers)
    assert (powers[1] == x).all(), f"index 0 is not the identity of {group.name}"
    assert (powers[1:e] != 0).all() and (powers[e] == 0).all(), \
        f"an element of {group.name} placed at order {e} has another order"
    return np.unique(np.sort(powers[:e], axis=0), axis=1).shape[1]


def test_criterion_08_order_ratio_equivalences_on_catalog():
    """k, counted under the group law, is report()'s phi(G) / phi(exp G).

    The paper's two equivalences, phi(G) = phi(|G|) iff k = |G|/exp and
    phi(G) = phi(exp) iff k = 1, follow from phi(G) = k phi(exp G) by
    arithmetic, so that identity is what is checked here.
    """
    ks = []
    for group in catalog_2000():
        k, rep = counted_k(group), report(group)
        assert k == rep.k and rep.phi_g == k * euler_phi(rep.exponent), group.name
        ks.append(k)
    assert len(ks) >= 100
    announce(8, f"phi(G) = k phi(exp G) on all {len(ks)} catalog groups <= 2000, "
                f"k counted as {sum(ks)} cyclic subgroups of order exp(G) in all")


def test_criterion_08_rejects_an_inverse_pair_moved_to_the_exponent(monkeypatch):
    """Z6 x Z3 with one inverse pair of order-3 elements placed at order 6.

    OrderSpectrum.check accepts the result and report() reads k = 5, not 4.
    The pair's subgroup is counted as a fifth one, so phi(G) = k phi(exp G)
    still holds; only the order check on the powers rejects it.
    """
    assert counted_k(fam.metacyclic(6, 3, 0, 1)) == 4
    real = core._element_orders

    def mislabel(bucket):
        orders = real(bucket).copy()
        threes = np.flatnonzero(orders == 3)
        first = np.full_like(threes, threes[0])
        inverse = threes[bucket.index_product(first, threes) == 0]
        orders[[threes[0], *inverse]] = 6
        return orders

    monkeypatch.setattr(core, "_element_orders", mislabel)
    group = fam.metacyclic(6, 3, 0, 1)
    assert dict(group.spectrum().entries) == {1: 1, 2: 1, 3: 6, 6: 10}
    assert report(group).k == 5
    with pytest.raises(AssertionError, match="placed at order 6 has another order"):
        counted_k(group)


def test_criterion_09_abelian_phi_bounded_by_aut():
    """phi(G) <= |Aut G| with equality iff cyclic, |G| <= 128 brute force.

    Searches whose candidate space exceeds the configured caps are refused,
    never silently skipped; the refusal set is pinned below.
    """
    compared, refused = verification.abelian_phi_aut_sweep(128)
    for row in compared:
        assert row.holds, row.name
    assert sorted(refused) == [
        "Z2xZ2xZ2xZ16",
        "Z2xZ2xZ2xZ2xZ2",
        "Z2xZ2xZ2xZ2xZ2xZ2",
        "Z2xZ2xZ2xZ2xZ2xZ2xZ2",
        "Z2xZ2xZ2xZ2xZ2xZ3",
        "Z2xZ2xZ2xZ2xZ2xZ4",
        "Z2xZ2xZ2xZ2xZ4",
        "Z2xZ2xZ2xZ2xZ8",
        "Z2xZ2xZ2xZ4xZ4",
        "Z2xZ2xZ4xZ4",
        "Z2xZ2xZ4xZ8",
        "Z2xZ4xZ4xZ4",
        "Z3xZ3xZ3xZ3",
        "Z5xZ5xZ5",
    ]
    announce(9, f"phi <= aut with equality iff cyclic on {len(compared)} abelian "
                f"groups <= 128 ({len(refused)} refused by the search caps)")


def test_criterion_10_metacyclic_criterion_full_sweep():
    """Attainment test, exponent formula and order profile vs oracle, m <= 40, n <= 12."""
    assert verification.metacyclic_sweep(40, 12) == []
    total = sum(1 for _ in cf.valid_metacyclic_presentations(40, 12))
    assert total > 10_000
    announce(10, f"metacyclic criterion = oracle on {total} presentations; "
                 f"even-rotation dihedral slice reproduced")


def test_criterion_11_triple_equivalence_on_catalog():
    """phi != 0, lcm-closed orders, and commuting witnesses coincide."""
    assert verification.class_c_sweep(2000) == []
    announce(11, f"triple equivalence on all {len(catalog_2000())} catalog groups <= 2000")


def test_criterion_12_prime_equation_solver_and_scan():
    """Solver output per the classification; scans find nothing new."""
    expectations = {
        2: ("five-groups", [3, 4, 6, 8, 12]),
        3: ("single-elementary-abelian", [4]),
        5: ("empty", []),
        7: ("single-elementary-abelian", [8]),
        13: ("empty", []),
        31: ("single-elementary-abelian", [32]),
    }
    for p, (kind, orders) in expectations.items():
        sol = classc.solve_phi_eq_prime(p)
        assert sol.kind == kind, p
        assert [g.order for g in sol.specs] == orders, p
        for g in sol.specs:
            assert spectrum_by_enumeration(g).phi() == p, (p, g.name)
        solution_prints = {
            (g.order, tuple(sorted(g.spectrum().entries.items()))) for g in sol.specs
        }
        for hit in classc.catalog_scan(p, 100):
            fingerprint = (hit.order, tuple(sorted(hit.spectrum().entries.items())))
            assert fingerprint in solution_prints, (p, hit.name)
    announce(12, "solver matches the classification for p in {2,3,5,7,13,31}; "
                 "no extra catalog solutions below order 100")
