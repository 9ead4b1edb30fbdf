"""Family constructors: declared orders, presets, and product laws."""

import math

import pytest

import gentotient as gt
from gentotient import families as fam
from gentotient.core import (
    IntegrityError,
    PermutationClosureGroup,
    spectrum_by_enumeration,
)
from gentotient.numtheory import euler_phi


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
    assert fam.dihedral(8).key() == fam.metacyclic(4, 2, 0, 3).key()
    assert fam.generalized_quaternion(8).key() == fam.metacyclic(4, 2, 2, 3).key()
    assert fam.quasidihedral(16).key() == fam.metacyclic(8, 2, 0, 3).key()


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


def test_symmetric_engine_matches_enumeration():
    for n in range(1, 7):
        assert fam.symmetric(n).spectrum().entries == \
            spectrum_by_enumeration(fam.symmetric(n)).entries
    for n in range(2, 7):
        assert fam.alternating(n).spectrum().entries == \
            spectrum_by_enumeration(fam.alternating(n)).entries


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


def test_permutation_closure_integrity_check():
    bad = PermutationClosureGroup(
        fam.mathieu11().generators, expected_order=7919, name="bad-M11"
    )
    with pytest.raises(IntegrityError):
        bad.closure()


def test_direct_product_with_trivial_factor():
    g = fam.symmetric(3)
    prod = fam.direct_product([g, fam.cyclic(1)])
    assert prod.spectrum().entries == g.spectrum().entries
    with pytest.raises(ValueError):
        fam.direct_product([])


def test_product_with_mathieu_exceeds_classical_bound():
    big = fam.direct_product([fam.cyclic(1320), fam.mathieu11()])
    assert gt.phi(big) > euler_phi(1320) * 7920
