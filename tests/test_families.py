"""Family constructors: declared orders, presets, and product laws."""

import itertools
import math
import re

import pytest

import gentotient as gt
from gentotient import classc, core
from gentotient import families as fam
from gentotient.core import (
    IntegrityError,
    PermutationClosureGroup,
    RealizationError,
    ResourceLimitError,
    spectrum_by_enumeration,
)
from gentotient.numtheory import euler_phi, factorize, is_prime


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        fam.cyclic(0)


def test_cyclic_phi_matches_classical():
    for n in (1, 2, 6, 12, 30, 100):
        assert gt.phi(fam.cyclic(n)) == euler_phi(n)


def test_cyclic_z6_spectrum():
    assert fam.cyclic(6).spectrum().entries == {1: 1, 2: 1, 3: 2, 6: 2}


def test_abelian_normalizes_and_validates():
    g = fam.abelian([(3, [1]), (2, [2, 1])])
    assert g.primary_type == ((2, (1, 2)), (3, (1,)))
    assert g.moduli == (2, 4, 3)
    with pytest.raises(ValueError):
        fam.abelian([(4, [1])])  # 4 is not prime
    with pytest.raises(ValueError):
        fam.abelian([(2, [])])
    with pytest.raises(ValueError):
        fam.abelian([(2, [1]), (2, [2])])
    with pytest.raises(ValueError):
        fam.abelian([])


def test_abelian_phi_examples():
    assert gt.phi(fam.abelian([(2, [1, 2])])) == 4
    assert gt.phi(fam.abelian([(3, [1])])) == 2
    assert gt.phi(fam.abelian([(2, [1, 1])])) == 3


def test_elementary_abelian_phi():
    for n in range(1, 7):
        assert gt.phi(fam.elementary_abelian(2, n)) == 2**n - 1
    assert gt.phi(fam.elementary_abelian(3, 2)) == 8
    assert fam.elementary_abelian(5, 1).order == 5


def test_dihedral_examples():
    assert gt.phi(fam.dihedral(8)) == 2
    assert gt.phi(fam.dihedral(12)) == 2
    assert gt.phi(fam.dihedral(10)) == 0
    assert gt.phi(fam.dihedral(4)) == 3  # Klein four-group
    with pytest.raises(ValueError):
        fam.dihedral(7)
    with pytest.raises(ValueError):
        fam.dihedral(2)


def test_dihedral_is_metacyclic_preset():
    for preset, params in ((fam.dihedral(8), (4, 2, 0, 3)),
                           (fam.generalized_quaternion(8), (4, 2, 2, 3)),
                           (fam.quasidihedral(16), (8, 2, 0, 3))):
        assert (preset.m, preset.n, preset.s, preset.r) == params


def test_metacyclic_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        fam.metacyclic(4, 2, 0, 2)  # gcd(m, r) != 1
    with pytest.raises(ValueError):
        fam.metacyclic(5, 2, 0, 3)  # r^n != 1 mod m
    with pytest.raises(ValueError):
        fam.metacyclic(4, 2, 1, 3)  # s(r-1) not divisible by m
    with pytest.raises(ValueError):
        fam.metacyclic(0, 2, 0, 1)


def test_metacyclic_cyclic_degenerate():
    g = fam.metacyclic(6, 1, 0, 1)
    assert g.order == 6
    assert g.spectrum().entries == fam.cyclic(6).spectrum().entries


def test_generalized_quaternion_spectra():
    assert fam.generalized_quaternion(8).spectrum().entries == {1: 1, 2: 1, 4: 6}
    assert fam.generalized_quaternion(16).spectrum().entries == {1: 1, 2: 1, 4: 10, 8: 4}
    assert gt.phi(fam.generalized_quaternion(16)) == euler_phi(8)
    with pytest.raises(ValueError):
        fam.generalized_quaternion(12)


def test_dihedral_preset_matches_permutation_realization():
    # square symmetries: a 4-cycle and a reflection
    perm_d8 = PermutationClosureGroup([(1, 2, 3, 0), (3, 2, 1, 0)], name="D8-perm")
    assert perm_d8.order == 8
    assert spectrum_by_enumeration(perm_d8).entries == fam.dihedral(8).spectrum().entries


def test_permutation_closure_keeps_breadth_first_order():
    # indices feed the order engine and greedy_generators, so the order of
    # the closure is pinned: each level is x1 g1, x1 g2, ..., x2 g1, ...
    perm_d8 = PermutationClosureGroup([(1, 2, 3, 0), (3, 2, 1, 0)], name="D8-perm")
    assert list(perm_d8.elements()) == [
        (0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0), (2, 3, 0, 1),
        (0, 3, 2, 1), (2, 1, 0, 3), (3, 0, 1, 2), (1, 0, 3, 2),
    ]
    assert list(itertools.islice(fam.mathieu11().elements(), 8)) == [
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0),
        (0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7),
        (2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1),
        (1, 2, 7, 10, 6, 4, 0, 3, 9, 5, 8),
        (1, 6, 9, 5, 3, 10, 2, 8, 4, 7, 0),
        (0, 1, 10, 4, 3, 9, 7, 6, 8, 5, 2),
        (3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 2),
    ]


def test_permutation_closure_refuses_beyond_the_enumeration_cap(monkeypatch):
    monkeypatch.setenv("GENTOTIENT_MAX_ELEMENTS", "100")
    with pytest.raises(ResourceLimitError, match=re.escape(
            "generator closure exceeded the enumeration cap of 100 elements "
            "(set GENTOTIENT_MAX_ELEMENTS to raise it)")):
        PermutationClosureGroup([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], name="S6")


def test_generated_groups_accept_only_their_own_elements():
    perm_d8 = PermutationClosureGroup([(1, 2, 3, 0), (3, 2, 1, 0)], name="D8-perm")
    for x in perm_d8.elements():
        perm_d8.validate_element(x)
    with pytest.raises(RealizationError, match=re.escape(
            "(1, 0, 2, 3) is not an element of D8-perm")):
        gt.multiply(perm_d8, (1, 0, 2, 3), perm_d8.identity())
    swap = (1, 0) + tuple(range(2, 11))
    with pytest.raises(RealizationError, match="is not an element of M11"):
        gt.order(fam.mathieu11(), swap)
    with pytest.raises(RealizationError, match="is not a permutation of 4 points"):
        perm_d8.validate_element((0, 0, 1, 2))


def test_quasidihedral_matches_permutation_realization():
    # residues mod 8 under +1 and multiplication by 3
    shift = tuple((i + 1) % 8 for i in range(8))
    scale = tuple((3 * i) % 8 for i in range(8))
    perm_sd16 = PermutationClosureGroup([shift, scale], name="SD16-perm")
    assert perm_sd16.order == 16
    assert spectrum_by_enumeration(perm_sd16).entries == fam.quasidihedral(16).spectrum().entries


def test_phi_multiplicative_on_coprime_factors():
    pairs = [
        (fam.cyclic(4), fam.cyclic(9)),
        (fam.generalized_quaternion(8), fam.cyclic(3)),
        (fam.dihedral(8), fam.elementary_abelian(3, 2)),
        (fam.p_group_P(3, 2, 2), fam.cyclic(5)),
        (fam.elementary_abelian(2, 3), fam.cyclic(27)),
    ]
    for g1, g2 in pairs:
        assert math.gcd(g1.order, g2.order) == 1
        assert gt.phi(fam.direct_product([g1, g2])) == gt.phi(g1) * gt.phi(g2)


def test_phi_of_nilpotent_product_of_p_groups():
    sylows = [fam.generalized_quaternion(8), fam.elementary_abelian(3, 2), fam.cyclic(25)]
    prod = fam.direct_product(sylows)
    assert gt.phi(prod) == math.prod(gt.phi(s) for s in sylows)


def test_hamiltonian_examples():
    assert gt.phi(fam.hamiltonian(0, fam.cyclic(1))) == 6
    assert gt.phi(fam.hamiltonian(1, fam.cyclic(1))) == 12
    assert spectrum_by_enumeration(fam.hamiltonian(1, fam.cyclic(9))).phi() == 72


def test_hamiltonian_rejects_bad_factors():
    with pytest.raises(ValueError):
        fam.hamiltonian(0, fam.cyclic(2))
    with pytest.raises(ValueError):
        fam.hamiltonian(0, fam.symmetric(3))
    with pytest.raises(ValueError):
        fam.hamiltonian(-1, fam.cyclic(1))


def test_p_group_examples():
    g = fam.p_group_P(3, 2, 2)
    assert g.order == 6
    assert spectrum_by_enumeration(g).entries == {1: 1, 2: 3, 3: 2}
    for p, q, n in ((3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 3, 2)):
        group = fam.p_group_P(p, q, n)
        assert gt.phi(group) == 0
        assert gt.exponent(group) == p * q
        # the exponent is unattained: every element has order 1, p or q
        assert set(group.spectrum().orders()) == {1, p, q}


def test_prime_power_groups_attain_max_order():
    for group in (fam.generalized_quaternion(32), fam.quasidihedral(16),
                  fam.abelian([(2, [1, 3])]), fam.elementary_abelian(3, 3)):
        spec = group.spectrum()
        assert spec.exponent() == max(spec.orders())


def test_p_group_canonical_action():
    assert fam.p_group_P(7, 3, 2).t == 2
    assert fam.p_group_P(13, 3, 2).t == 3
    assert fam.p_group_P(3, 2, 2).t == 2


def test_p_group_action_is_the_least_element_of_order_q():
    pairs = [(p, q) for p in range(3, 4000) if is_prime(p) for q in factorize(p - 1)]
    assert len(pairs) == 1580
    for p, q in pairs:
        least = next(t for t in range(2, p) if pow(t, q, p) == 1)
        assert fam.p_group_P(p, q, 2).t == least, (p, q)
    # for q = 2 the least element is p - 1, which a scan up from 2 reaches last
    assert fam.p_group_P(10000019, 2, 2).t == 10000018
    # for a large q the walk over the q - 1 powers of zeta still finds the least
    assert fam.p_group_P(1000003, 166667, 2).t == 9


def test_p_group_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fam.p_group_P(5, 3, 2)  # 3 does not divide 4
    with pytest.raises(ValueError):
        fam.p_group_P(2, 2, 2)
    with pytest.raises(ValueError):
        fam.p_group_P(3, 2, 1)


def test_symmetric_alternating_small_values():
    assert gt.phi(fam.symmetric(2)) == 1
    assert gt.phi(fam.alternating(3)) == 2
    assert gt.phi(fam.alternating(5)) == 0
    assert fam.alternating(2).order == 1


def test_symmetric_partition_threshold():
    spec = fam.symmetric(40).spectrum()
    assert sum(spec.entries.values()) == math.factorial(40)
    assert spec.phi() == 0
    with pytest.raises(Exception):
        fam.symmetric(41).spectrum()
    with pytest.raises(Exception):
        list(fam.alternating(11).elements())


def test_mathieu11():
    m11 = fam.mathieu11()
    assert m11.order == 7920 == 2**4 * 3**2 * 5 * 11
    spec = m11.spectrum()
    assert spec.exponent() == 1320
    assert spec.orders() == [1, 2, 3, 4, 5, 6, 8, 11]


def test_permutation_closure_integrity_check(monkeypatch):
    monkeypatch.setattr(fam, "MATHIEU11_ORDER", 7919)
    fam.mathieu11.cache_clear()
    try:
        with pytest.raises(IntegrityError, match="closure of M11 has 7920 elements, "
                                                 "declared order is 7919"):
            fam.mathieu11()
    finally:
        fam.mathieu11.cache_clear()


def test_direct_product_with_trivial_factor():
    g = fam.symmetric(3)
    prod = fam.direct_product([g, fam.cyclic(1)])
    assert prod.spectrum().entries == g.spectrum().entries
    with pytest.raises(ValueError):
        fam.direct_product([])


def test_product_with_mathieu_exceeds_classical_bound():
    big = fam.direct_product([fam.cyclic(1320), fam.mathieu11()])
    assert gt.phi(big) > euler_phi(1320) * 7920


def test_each_factor_token_matches_exactly_one_family_pattern():
    # the grammar takes the first row that matches, so an overlap would make
    # the order of the rows matter
    tokens = {t for g in classc.scan_families(200) for t in g.name.split("x")}
    tokens |= {"M11", "Z6^2", "Ab(2:1,2;3:1)"}
    patterns = [f.pattern for f in fam.FAMILIES if f.pattern]
    for token in tokens:
        assert sum(bool(p.fullmatch(token)) for p in patterns) == 1, token


REALIZED = {"cyclic": core.CyclicGroup, "abelian": core.AbelianGroup,
            "metacyclic": core.MetacyclicGroup, "p_group_P": core.PGroupP,
            "symmetric": core.SymmetricGroup, "alternating": core.AlternatingGroup,
            "direct_product": core.DirectProductGroup}


def test_families_that_add_nothing_are_their_realizations():
    for name, cls in REALIZED.items():
        assert getattr(fam, name) is cls, name
    # so the grammar and the catalog build each of their rows with the class
    builds = {f.build for f in fam.FAMILIES}
    assert set(REALIZED.values()) - builds == {core.DirectProductGroup}
