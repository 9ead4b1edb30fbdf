"""Element arithmetic, enumeration, and spectrum invariants."""

import ast
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gentotient as gt
from gentotient import classc
from gentotient import closedforms as cf
from gentotient import core
from gentotient import families as fam
from gentotient.core import (
    CAYLEY_TABLE_LIMIT,
    CayleyTableGroup,
    Group,
    IntegrityError,
    OrderSpectrum,
    PermutationClosureGroup,
    RealizationError,
    ResourceLimitError,
    spectrum_by_enumeration,
)
from gentotient.closedforms import valid_metacyclic_presentations
from gentotient.numtheory import MILLER_RABIN_BOUND, euler_phi, factorize, is_prime


def small_catalog():
    return [
        fam.cyclic(1),
        fam.cyclic(12),
        fam.elementary_abelian(2, 3),
        fam.abelian([(2, [1, 2]), (3, [1])]),
        fam.dihedral(8),
        fam.dihedral(10),
        fam.generalized_quaternion(16),
        fam.quasidihedral(16),
        fam.metacyclic(8, 4, 2, 5),
        fam.p_group_P(3, 2, 3),
        fam.symmetric(4),
        fam.alternating(4),
        fam.hamiltonian(1, fam.cyclic(3)),
        fam.direct_product([fam.cyclic(6), fam.symmetric(3)]),
    ]


# -- multiplication -----------------------------------------------------------


def test_metacyclic_relations_d8():
    d8 = fam.metacyclic(4, 2, 0, 3)
    a, b = (0, 1), (1, 0)
    # a*b = b*a^3 in the dihedral presentation
    assert d8.multiply(a, b) == (1, 3)
    assert d8.multiply(b, a) == (1, 1)


def test_q8_squares_to_central_element():
    q8 = fam.metacyclic(4, 2, 2, 3)
    assert q8.multiply((1, 0), (1, 0)) == (0, 2)


@pytest.mark.parametrize("group", small_catalog(), ids=lambda g: g.name)
def test_identity_law(group):
    e = group.identity()
    for i, x in enumerate(group.elements()):
        assert group.multiply(e, x) == x
        assert group.multiply(x, e) == x
        if i > 40:
            break


@pytest.mark.parametrize("group", small_catalog(), ids=lambda g: g.name)
def test_inverses_exist(group):
    e = group.identity()
    for i, x in enumerate(group.elements()):
        assert group.multiply(x, group.power(x, group.element_order(x) - 1)) == e
        if i > 40:
            break


def test_multiply_validates_payload():
    q8 = fam.generalized_quaternion(8)
    with pytest.raises(RealizationError):
        gt.multiply(q8, (0, 1), (1, 2, 0))
    with pytest.raises(RealizationError):
        gt.order(fam.cyclic(5), 7)
    with pytest.raises(RealizationError):
        gt.order(fam.symmetric(3), (0, 0, 1))


# -- element order ------------------------------------------------------------


def test_order_cyclic_gcd_formula():
    assert gt.order(fam.cyclic(12), 8) == 3


def test_order_identity():
    for group in (fam.cyclic(7), fam.symmetric(4), fam.dihedral(12)):
        assert gt.order(group, group.identity()) == 1


def test_order_permutation_vs_iterated_multiplication():
    s5 = fam.symmetric(5)
    x = (1, 2, 0, 4, 3)  # a 3-cycle next to a transposition
    assert gt.order(s5, x) == 6
    y, t = x, 1
    while y != s5.identity():
        y = s5.multiply(y, x)
        t += 1
    assert t == 6


def test_metacyclic_order_of_b():
    # o(b) = m*n / gcd(m, s) in the normal-form presentation
    from gentotient.closedforms import valid_metacyclic_presentations

    for m, n, s, r in valid_metacyclic_presentations(12, 6):
        if n == 1:
            continue
        g = fam.metacyclic(m, n, s, r)
        assert g.element_order((1, 0)) == m * n // math.gcd(m, s)


# -- enumeration --------------------------------------------------------------


def test_enumerate_trivial():
    assert list(fam.cyclic(1).elements()) == [0]


def test_enumerate_q8_grid():
    q8 = fam.metacyclic(4, 2, 2, 3)
    elems = list(q8.elements())
    assert len(elems) == 8
    assert len(set(elems)) == 8


def test_enumerate_m11():
    m11 = fam.mathieu11()
    assert len(list(m11.elements())) == 7920


@pytest.mark.parametrize("group", small_catalog(), ids=lambda g: g.name)
def test_enumeration_matches_declared_order(group):
    assert sum(1 for _ in group.elements()) == group.order


def test_enumeration_cap_on_large_symmetric():
    with pytest.raises(ResourceLimitError):
        list(fam.symmetric(11).elements())


def test_payload_operations_keep_the_enumeration_cap(monkeypatch):
    # payload operations run the batch law, which is exact only under the cap
    with pytest.raises(ResourceLimitError, match="^element enumeration of S_n is capped"):
        fam.symmetric(11).identity()
    monkeypatch.setenv("GENTOTIENT_MAX_ELEMENTS", "100")
    g = fam.metacyclic(16, 8, 0, 3)
    for refused in (lambda: gt.multiply(g, (1, 0), (0, 1)), g.identity, g.elements):
        with pytest.raises(ResourceLimitError) as err:
            refused()
        assert str(err.value) == (f"|{g.name}| = 128 exceeds the enumeration cap of 100 "
                                  f"elements (set GENTOTIENT_MAX_ELEMENTS to raise it)")
    assert g._rpow is None


def test_only_the_base_group_writes_payload_operations():
    """A realization writes one group law, its batch law; Group derives the
    payload operations from it, so no other class of core defines them."""
    names = {"identity", "multiply", "elements", "power"}
    writers = {(cls.name, fn.name) for cls in ast.walk(ast.parse(inspect.getsource(core)))
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in names}
    assert writers == {("Group", name) for name in names}


def test_abelian_spectrum_keeps_the_enumeration_cap():
    with pytest.raises(ResourceLimitError) as err:
        fam.elementary_abelian(2, 25).spectrum()
    assert str(err.value).startswith("|Z2^25| = 33554432 exceeds the enumeration cap")


def test_abelian_order_factorization_from_the_primary_type():
    for _, ptype in cf.abelian_types_up_to(200):
        g = fam.abelian(ptype)
        assert g.order_factorization() == factorize(g.order), g.name
    assert fam.elementary_abelian(2, 20000).order_factorization() == {2: 20000}


def test_abelian_payloads_are_flat_residue_tuples():
    g = fam.abelian([(2, [1, 2])])
    assert list(g.elements())[:3] == [(0, 0), (0, 1), (0, 2)]
    assert g.multiply((1, 3), (1, 2)) == (0, 1)
    with pytest.raises(RealizationError, match="4 is not a residue mod 4"):
        gt.multiply(g, (0, 4), (0, 0))
    with pytest.raises(RealizationError, match="is not a 2-component tuple"):
        gt.multiply(g, (0, 1, 0), (0, 0))


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("GENTOTIENT_MAX_ELEMENTS", "10")
    with pytest.raises(ResourceLimitError) as err:
        spectrum_by_enumeration(fam.cyclic(50))
    assert "10" in str(err.value)
    monkeypatch.setenv("GENTOTIENT_MAX_ELEMENTS", "not-a-number")
    with pytest.raises(ValueError):
        spectrum_by_enumeration(fam.cyclic(50))


# -- spectra ------------------------------------------------------------------


def test_spectrum_q8():
    assert fam.generalized_quaternion(8).spectrum().entries == {1: 1, 2: 1, 4: 6}


def test_spectrum_z2():
    assert fam.cyclic(2).spectrum().entries == {1: 1, 2: 1}


def test_spectrum_z6_s3_by_convolution_and_enumeration():
    prod = fam.direct_product([fam.cyclic(6), fam.symmetric(3)])
    expected = {1: 1, 2: 7, 3: 8, 6: 20}
    assert prod.spectrum().entries == expected
    assert spectrum_by_enumeration(prod).entries == expected


@pytest.mark.parametrize("group", small_catalog(), ids=lambda g: g.name)
def test_spectrum_invariants(group):
    spec = group.spectrum()
    assert sum(spec.entries.values()) == group.order
    assert spec.entries[1] == 1
    exp = spec.exponent()
    assert group.order % exp == 0
    for d, count in spec.entries.items():
        assert exp % d == 0
        assert count % euler_phi(d) == 0
        for e in range(1, d + 1):
            if d % e == 0:
                assert e in spec.entries
    # phi factorizes through the number of maximal cyclic subgroups
    assert spec.phi() == euler_phi(exp) * gt.cyclic_count_max(group)


def test_direct_product_convolution_matches_enumeration_pairwise():
    members = [
        fam.cyclic(8),
        fam.cyclic(15),
        fam.elementary_abelian(2, 2),
        fam.dihedral(8),
        fam.dihedral(10),
        fam.generalized_quaternion(8),
        fam.p_group_P(3, 2, 2),
        fam.symmetric(4),
        fam.alternating(4),
        fam.metacyclic(9, 3, 0, 4),
        fam.symmetric(5),
        fam.cyclic(100),
    ]
    checked = 0
    for i, g1 in enumerate(members):
        for g2 in members[i:]:
            if g1.order * g2.order > 100_000:
                continue
            prod = fam.direct_product([g1, g2])
            assert prod.spectrum().entries == spectrum_by_enumeration(prod).entries
            checked += 1
    assert checked > 70


def test_spectrum_rejects_corrupt_counts():
    with pytest.raises(IntegrityError):
        OrderSpectrum({1: 1, 4: 2}, 3)  # divisor 2 missing
    with pytest.raises(IntegrityError):
        OrderSpectrum({1: 2, 2: 1}, 3)  # two identities
    with pytest.raises(IntegrityError):
        OrderSpectrum({1: 1, 3: 3}, 4)  # 3 not a multiple of phi(3)


def test_spectrum_rejects_an_exponent_not_dividing_the_order():
    # passes the sum, identity, phi(d) and divisor tests; exp = 6 does not divide 4
    with pytest.raises(IntegrityError, match="order 3 does not divide"):
        OrderSpectrum({1: 1, 2: 1, 3: 2}, 4)


def test_spectrum_rejects_a_prime_of_the_order_missing_from_the_orders():
    # passes the sum, identity, phi(d) and divisor tests; 3 | 6 but no element
    # has order 3
    with pytest.raises(IntegrityError, match=r"prime 3 divides \|G\| = 6"):
        OrderSpectrum({1: 1, 2: 5}, 6)


def test_cached_spectrum_entries_are_read_only():
    g = gt.cyclic(12)
    with pytest.raises(TypeError):
        g.spectrum().entries[12] = 99
    assert gt.phi(g) == 4


def test_lcm_convolve_commutes():
    a, b = fam.dihedral(12), fam.cyclic(9)
    assert fam.direct_product([a, b]).spectrum() == fam.direct_product([b, a]).spectrum()


def test_product_spectrum_is_checked_once(monkeypatch):
    checks = []
    check = OrderSpectrum.check
    monkeypatch.setattr(OrderSpectrum, "check", lambda self: (checks.append(self), check(self)))
    z6 = fam.cyclic(6)
    z6.spectrum()
    checks.clear()
    product = fam.direct_product([z6] * 1000)
    assert product.spectrum().phi() == cf.phi_abelian([(2, [1] * 1000), (3, [1] * 1000)])
    assert len(checks) == 1


# -- exponent and phi ---------------------------------------------------------

def test_exponent_dihedral_piecewise():
    for n in range(2, 13):
        expected = 2 * n if n % 2 == 1 else n
        assert gt.exponent(fam.dihedral(2 * n)) == expected


def test_exponent_trivial():
    assert gt.exponent(fam.cyclic(1)) == 1


def test_exponent_hamiltonian_two_part():
    for n in range(0, 4):
        assert gt.exponent(fam.hamiltonian(n, fam.cyclic(1))) == 4


def test_phi_examples():
    assert gt.phi(fam.dihedral(8)) == 2
    for n in range(1, 7):
        assert gt.phi(fam.elementary_abelian(2, n)) == 2**n - 1
    assert gt.phi(fam.direct_product([fam.cyclic(6), fam.symmetric(3)])) == 20
    assert gt.phi(fam.symmetric(4)) == 0


def test_cyclic_count_max_examples():
    assert gt.cyclic_count_max(fam.direct_product([fam.cyclic(3), fam.symmetric(3)])) == 3
    assert gt.cyclic_count_max(fam.cyclic(360)) == 1
    assert gt.cyclic_count_max(fam.elementary_abelian(2, 3)) == 7


# -- commuting witness --------------------------------------------------------


def test_commuting_witness_s3_has_none():
    assert gt.commuting_witness(fam.symmetric(3)) is None


def test_commuting_witness_cyclic():
    for n in (1, 2, 12, 30):
        witness = gt.commuting_witness(fam.cyclic(n))
        assert witness is not None
        targets = sorted(p**a for p, a in factorize(gt.exponent(fam.cyclic(n))).items())
        assert [fam.cyclic(n).element_order(x) for x in witness] == targets


def test_commuting_witness_d12():
    d12 = fam.dihedral(12)
    witness = gt.commuting_witness(d12)
    assert witness is not None
    orders = sorted(d12.element_order(x) for x in witness)
    assert orders == [2, 3]
    a, b = witness
    assert d12.multiply(a, b) == d12.multiply(b, a)


# -- report -------------------------------------------------------------------


def test_report_q8():
    rep = gt.report(fam.generalized_quaternion(8))
    assert (rep.order, rep.exponent, rep.phi_g, rep.k) == (8, 4, 6, 3)
    assert rep.in_class_c and not rep.eq_order_flag and not rep.eq_exp_flag
    assert rep.phi_of_order == 4


def test_report_trivial():
    rep = gt.report(fam.cyclic(1))
    assert (rep.order, rep.exponent, rep.phi_g, rep.k) == (1, 1, 1, 1)
    assert rep.in_class_c and rep.eq_order_flag and rep.eq_exp_flag


def test_report_d10():
    rep = gt.report(fam.dihedral(10))
    assert (rep.order, rep.exponent, rep.phi_g, rep.k) == (10, 10, 0, 0)
    assert not rep.in_class_c
    assert rep.phi_of_order == 4
    assert not rep.eq_order_flag


def test_report_equivalence_flags():
    z3s3 = fam.direct_product([fam.cyclic(3), fam.symmetric(3)])
    rep = gt.report(z3s3)
    assert rep.eq_order_flag and rep.k == 3 == z3s3.order // rep.exponent
    assert gt.report(fam.cyclic(40)).eq_order_flag
    rep_d8 = gt.report(fam.dihedral(8))
    assert not rep_d8.eq_order_flag and (rep_d8.phi_g, rep_d8.phi_of_order) == (2, 4)
    assert gt.report(fam.generalized_quaternion(16)).eq_exp_flag
    assert gt.report(fam.cyclic(36)).eq_exp_flag
    assert not gt.report(fam.generalized_quaternion(8)).eq_exp_flag  # k = 3
    assert not gt.report(fam.symmetric(3)).eq_exp_flag  # phi = 0


def test_report_raises_when_an_equivalence_breaks(monkeypatch):
    real = core.euler_phi_from_factorization
    monkeypatch.setattr(core, "euler_phi_from_factorization", lambda f: real(f) + 1)
    with pytest.raises(IntegrityError, match=r"iff k = \|G\|/exp fails for Z40$"):
        gt.report(fam.cyclic(40))


def test_report_huge_symmetric_order_factorization():
    # trial division of |S_30| stops once the primes up to 30 are divided out
    rep = gt.report(fam.symmetric(30))
    assert rep.phi_g == 0
    assert rep.order == math.factorial(30)
    assert gt.report(fam.alternating(6)).phi_of_order == 96


# -- primality and factorization ------------------------------------------------


def test_is_prime_matches_trial_division():
    sieve = [False, False] + [True] * (2 * 10**5 - 2)
    for p in range(2, 448):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [is_prime(n) for n in range(-3, 2 * 10**5)] == [False] * 3 + sieve
    # strong pseudoprimes to the first 4 and the first 12 prime bases
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)
    assert is_prime(10**18 + 3)
    assert MILLER_RABIN_BOUND == 3317044064679887385961981
    with pytest.raises(ResourceLimitError, match="primality of 3317044064679887385961981"):
        is_prime(MILLER_RABIN_BOUND)


def test_factorize_refuses_a_composite_cofactor_beyond_trial_division():
    assert factorize(999983 * 999979) == {999979: 1, 999983: 1}
    assert factorize(12 * (10**18 + 3)) == {2: 2, 3: 1, 10**18 + 3: 1}
    with pytest.raises(ResourceLimitError, match="cannot factorize 1000000016000000063"):
        factorize(6 * 1000000007 * 1000000009)


# -- cayley tables ------------------------------------------------------------


def q8_table():
    return fam.generalized_quaternion(8).index_table().tolist()


def test_cayley_table_group_roundtrip():
    group = CayleyTableGroup(q8_table(), name="q8-table")
    assert group.spectrum().entries == {1: 1, 2: 1, 4: 6}
    assert not group.is_abelian()


def _engine_says_cyclic(group):
    return bool(group.element_orders().max() == group.order)


def test_is_cyclic_agrees_with_the_order_engine():
    z4 = fam.cyclic(4)
    cases = [
        (fam.cyclic(1), True), (fam.symmetric(1), True), (fam.symmetric(2), True),
        (fam.alternating(3), True),
        (fam.abelian([(2, [1]), (3, [1])]), True), (fam.abelian([(2, [1, 1])]), False),
        # Z12 and Z8 as metacyclic presentations, Z12 as a raw product
        (fam.metacyclic(12, 1, 0, 1), True), (fam.metacyclic(4, 2, 1, 1), True),
        (fam.direct_product([z4, fam.cyclic(3)]), True),
        (fam.direct_product([fam.cyclic(2), fam.symmetric(3)]), False),
        (CayleyTableGroup(z4.index_table().tolist()), True),
        (CayleyTableGroup(fam.elementary_abelian(2, 2).index_table().tolist()), False),
        (PermutationClosureGroup([(1, 2, 3, 4, 0)]), True),
    ]
    for group, cyclic in cases:
        assert group.is_cyclic() is cyclic == _engine_says_cyclic(group), group.name
    # fresh groups: the cached scan's groups must keep no order arrays
    for group in classc.scan_families.__wrapped__(64):
        assert group.is_cyclic() == _engine_says_cyclic(group), group.name


def test_cayley_table_rejects_broken_latin_square():
    table = [row[:] for row in q8_table()]
    table[3][4] = table[3][5]
    with pytest.raises(IntegrityError):
        CayleyTableGroup(table)


def test_cayley_table_rejects_nonassociative_loop():
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(IntegrityError) as err:
        CayleyTableGroup(loop)
    assert "associativity" in str(err.value)


def _swap_rows(t, a, b):
    t[a], t[b] = t[b], t[a]


def _swap_columns(t, a, b):
    for row in t:
        row[a], row[b] = row[b], row[a]


@pytest.mark.parametrize("edit, message", [
    (lambda t: t[2].__setitem__(3, 2.0), "entry at row 2, column 3 is 2.0"),
    (lambda t: t[5].__setitem__(1, "1"), "entry at row 5, column 1 is '1'"),
    (lambda t: t[6].__setitem__(7, 8), "entry at row 6, column 7 is 8"),
    (lambda t: t[1].__setitem__(0, -1), "entry at row 1, column 0 is -1"),
    (lambda t: t[4].pop(), "row 4 has length 7, expected 8"),
    # the scan goes row by row, so row 1's entry comes before row 4's length
    (lambda t: (t[4].pop(), t[1].__setitem__(2, None)), "entry at row 1, column 2 is None"),
    (lambda t: t[3].__setitem__(4, t[3][5]), "row 3 is not a permutation (Latin square fails)"),
    (lambda t: _swap_columns(t[5:6], 1, 2), "column 1 is not a permutation (Latin square fails)"),
    # rows and columns are checked in the order row 0, column 0, row 1, ...
    (lambda t: (_swap_columns(t[5:6], 2, 3), t[3].__setitem__(6, t[3][7])),
     "column 2 is not a permutation (Latin square fails)"),
    (lambda t: (_swap_columns(t[5:6], 4, 5), t[3].__setitem__(6, t[3][7])),
     "row 3 is not a permutation (Latin square fails)"),
    (lambda t: _swap_columns(t, 2, 3), "index 0 is not a left identity at column 2"),
    (lambda t: _swap_rows(t, 3, 6), "index 0 is not a right identity at row 3"),
    (lambda t: (_swap_rows(t, 5, 6), _swap_columns(t, 5, 6)),
     "index 0 is not a left identity at column 5"),
])
def test_cayley_table_names_the_first_failure(edit, message):
    table = [row[:] for row in q8_table()]
    edit(table)
    with pytest.raises(IntegrityError) as err:
        CayleyTableGroup(table)
    assert str(err.value) == message


def test_cayley_table_rows_are_python_ints():
    import numpy as np

    group = CayleyTableGroup(np.array(q8_table(), dtype=np.int16))
    assert group.table == q8_table()
    assert all(type(v) is int for row in group.table for v in row)


def test_cayley_table_trivial():
    assert CayleyTableGroup([[0]]).spectrum().entries == {1: 1}


# -- the one index table --------------------------------------------------------


def test_index_table_is_built_once_and_read_only():
    group = fam.dihedral(12)
    table = group.index_table()
    assert group.index_table() is table
    assert table[3, 0] == 3 and table[0, 5] == 5
    with pytest.raises(ValueError):
        table[0, 0] = 1


def _no_product(self, a, b):
    raise AssertionError(f"batch product on {self.name}")


def test_cayley_table_group_table_needs_no_product(monkeypatch):
    rows = q8_table()
    monkeypatch.setattr(Group, "index_product", _no_product)
    group = CayleyTableGroup(rows, name="q8-table")
    assert group.index_table().tolist() == rows
    assert group.index_table() is group.index_table()


def test_index_table_refuses_above_the_limit_before_any_product(monkeypatch):
    monkeypatch.setattr(Group, "index_product", _no_product)
    big = fam.cyclic(CAYLEY_TABLE_LIMIT + 1)
    with pytest.raises(ResourceLimitError, match="Z513\\| = 513 exceeds the table limit of 512"):
        big.index_table()
    assert big._table is None


# -- property-based checks ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(valid_metacyclic_presentations(10, 5))), st.data())
def test_metacyclic_associativity(params, data):
    g = fam.metacyclic(*params)
    elems = list(g.elements())
    pick = st.sampled_from(elems)
    x, y, z = data.draw(pick), data.draw(pick), data.draw(pick)
    assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([(2, [1]), (2, [2]), (2, [1, 1]), (2, [1, 2]), (2, [1, 1, 2]),
                                 (3, [1]), (3, [2]), (3, [1, 1]), (5, [1]), (7, [1])]),
                min_size=1, max_size=3, unique_by=lambda t: t[0]))
def test_abelian_vectorized_spectrum_matches_plain_enumeration(ptype):
    g = fam.abelian(ptype)
    assert g.spectrum().entries == spectrum_by_enumeration(g).entries
