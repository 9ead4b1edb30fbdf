"""Closed formulas against independent oracles: brute counts and enumeration."""

import ast
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gentotient as gt
from gentotient import classc
from gentotient import closedforms as cf
from gentotient import families as fam
from gentotient import verification
from gentotient.core import PARTITION_ENGINE_LIMIT, ResourceLimitError, spectrum_by_enumeration
from gentotient.numtheory import decimal_digits, euler_phi, factorize


# -- classical totient --------------------------------------------------------


def coprime_count(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_euler_phi_against_coprime_count():
    for n in range(1, 301):
        assert euler_phi(n) == coprime_count(n)
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(1320) == coprime_count(1320) == 320


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 400), st.integers(2, 400))
def test_euler_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_decimal_digits_match_the_decimal_string():
    assert decimal_digits(1) == 1
    for k in range(1, 300):
        for n in (10**k - 1, 10**k, 10**k + 1, 2**k - 1, 2**k, 3**k):
            assert decimal_digits(n) == len(str(n)), n


# -- partitions ---------------------------------------------------------------


def test_partition_counts():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, expected in enumerate(known):
        assert sum(1 for _ in cf._partition_tuples(n)) == expected
    assert sum(1 for _ in cf._partition_tuples(30)) == 5604


def test_partition_stream_is_reverse_lexicographic():
    got = list(cf._partition_tuples(6))
    assert got[0] == (6,)
    assert got[-1] == (1,) * 6
    assert got == sorted(got, reverse=True)


# -- abelian / hamiltonian / dihedral formulas ---------------------------------


def test_phi_abelian_p_examples():
    assert cf.phi_abelian_p(2, [1, 2]) == 4
    assert cf.phi_abelian_p(3, [1]) == 2
    assert cf.phi_abelian_p(2, [1, 1, 1]) == 7
    with pytest.raises(ValueError):
        cf.phi_abelian_p(4, [1])
    with pytest.raises(ValueError):
        cf.phi_abelian_p(2, [])
    with pytest.raises(ValueError):
        cf.phi_abelian_p(2, [2, 1])


def test_phi_abelian_examples_with_oracle():
    cases = [
        ([(2, [1])], None),
        ([(2, [1, 2]), (3, [2])], 24),
        ([(2, [1, 1]), (3, [1])], 6),
    ]
    for ptype, expected in cases:
        got = cf.phi_abelian(ptype)
        if expected is not None:
            assert got == expected
        assert got == spectrum_by_enumeration(fam.abelian(ptype)).phi()


def test_abelian_sweep():
    assert verification.abelian_sweep(400) == []


def test_abelian_sweep_reports_a_wrong_formula(monkeypatch):
    real = cf.phi_abelian
    monkeypatch.setattr(cf, "phi_abelian",
                        lambda ptype: real(ptype) + (ptype == [(2, [1, 1])]))
    assert verification.abelian_sweep(16) == [verification.Mismatch("phi", "Z2xZ2", 4, 3)]


def test_phi_hamiltonian_examples():
    assert cf.phi_hamiltonian(0, []) == 6
    assert cf.phi_hamiltonian(2, []) == 24
    assert cf.phi_hamiltonian(0, [(3, [1])]) == 12
    assert cf.phi_hamiltonian(2, []) == \
        spectrum_by_enumeration(fam.hamiltonian(2, fam.cyclic(1))).phi()
    assert cf.phi_hamiltonian(0, [(3, [1])]) == \
        spectrum_by_enumeration(fam.hamiltonian(0, fam.cyclic(3))).phi()
    with pytest.raises(ValueError):
        cf.phi_hamiltonian(0, [(2, [1])])


def test_phi_dihedral_examples_and_sweep():
    assert cf.phi_dihedral(4) == 2
    assert cf.phi_dihedral(3) == 0
    assert cf.phi_dihedral(6) == 2
    assert cf.phi_dihedral(2) == 3
    assert verification.dihedral_sweep(40) == []


def test_p_group_sweep_reports_a_nonzero_phi(monkeypatch):
    real = fam.p_group_P
    monkeypatch.setattr(fam, "p_group_P",
                        lambda p, q, n: fam.cyclic(6) if (p, q, n) == (3, 2, 2) else real(p, q, n))
    assert verification.p_group_sweep(21) == [verification.Mismatch("phi", "Z6", 0, 2)]


# -- symmetric / alternating ----------------------------------------------------


def test_exp_symmetric_examples():
    assert cf.exp_symmetric(4) == 12
    assert cf.exp_symmetric(1) == 1
    assert cf.exp_symmetric(10) == 2520


def test_exp_alternating_examples():
    assert cf.exp_alternating(4) == 6
    assert cf.exp_alternating(5) == 30
    assert cf.exp_alternating(6) == 60 == cf.exp_symmetric(6)


def test_exp_against_enumeration():
    assert verification.cycle_type_sweep(7) == []


def test_count_order_examples():
    assert cf.count_order_symmetric(5, 6) == 20
    s5_count = sum(
        1 for x in fam.symmetric(5).elements() if fam.symmetric(5).element_order(x) == 6
    )
    assert s5_count == 20
    assert cf.count_order_symmetric(3, 1) == 1
    assert cf.count_order_symmetric(4, 12) == 0


def test_cycle_type_totals():
    for n in range(1, 21):
        assert sum(cf.symmetric_order_spectrum(n).values()) == math.factorial(n)
    for n in range(2, 11):
        sym = cf.symmetric_order_spectrum(n)
        alt = cf.alternating_order_spectrum(n)
        odd_total = math.factorial(n) - sum(alt.values())
        assert sum(alt.values()) == odd_total  # half the permutations are even
        for m, count in alt.items():
            assert count <= sym[m]


def partition_sums(n):
    """S_n and A_n spectra summed class by class over the partitions of n."""
    sym, alt = {}, {}
    for parts in cf._partition_tuples(n):
        centralizer = math.prod(k**m * math.factorial(m) for k, m in Counter(parts).items())
        count = math.factorial(n) // centralizer
        d = math.lcm(*parts)
        sym[d] = sym.get(d, 0) + count
        if (n - len(parts)) % 2 == 0:
            alt[d] = alt.get(d, 0) + count
    return sym, alt


@pytest.mark.parametrize("n", range(0, 41))
def test_cycle_type_engine_equals_partition_sums(n):
    sym, alt = partition_sums(n)
    assert cf.symmetric_order_spectrum(n) == sym
    if n >= 2:
        assert cf.alternating_order_spectrum(n) == alt


def test_cycle_type_spectra_are_read_only_and_bounded():
    for engine in (cf.symmetric_order_spectrum, cf.alternating_order_spectrum):
        with pytest.raises(TypeError):
            engine(5)[6] = 99
        maxsize = engine.cache_info().maxsize
        assert maxsize is not None and maxsize >= PARTITION_ENGINE_LIMIT + 1
    # the cached spectrum is untouched, so S5 still checks out
    assert gt.phi(gt.symmetric(5)) == 0
    assert gt.symmetric(5).spectrum().entries == {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}
    # every degree up to the cap fits in the cache at once
    cf.symmetric_order_spectrum.cache_clear()
    for _ in range(2):
        for n in range(PARTITION_ENGINE_LIMIT + 1):
            cf.symmetric_order_spectrum(n)
    info = cf.symmetric_order_spectrum.cache_info()
    assert (info.misses, info.hits) == (PARTITION_ENGINE_LIMIT + 1,) * 2


@pytest.mark.parametrize("build, n", [(fam.symmetric, 41), (fam.symmetric, 60),
                                      (fam.alternating, 41), (fam.alternating, 55)])
def test_cycle_type_engine_refuses_degrees_over_the_cap(build, n):
    with pytest.raises(ResourceLimitError) as err:
        build(n).spectrum()
    label = "S_n" if build is fam.symmetric else "A_n"
    assert str(err.value) == f"cycle-type spectra of {label} are capped at n = 40"


def test_phi_symmetric_alternating_values():
    assert [cf.phi_symmetric(n) for n in range(1, 9)] == [1, 1, 0, 0, 0, 0, 0, 0]
    assert [cf.phi_alternating(n) for n in range(2, 9)] == [1, 2, 0, 0, 0, 0, 0]


def test_prime_power_parts_of_symmetric_exponent():
    # p-part of lcm(1..n) is the largest p^a <= n, and those powers sum past n
    for n in range(5, 41):
        exp = cf.exp_symmetric(n)
        total = 0
        for p in range(2, n + 1):
            if any(p % d == 0 for d in range(2, p)):
                continue
            ppart = 1
            while exp % (ppart * p) == 0:
                ppart *= p
            assert n // p < ppart or ppart * p > n
            assert n / p < ppart <= n
            total += ppart
        assert total > n


def test_alternating_branch_matches_even_partition_lcm():
    for n in range(2, 26):
        by_partitions = 1
        for parts in cf._partition_tuples(n):
            if (n - len(parts)) % 2 == 0:
                by_partitions = math.lcm(by_partitions, math.lcm(*parts))
        assert cf.exp_alternating(n) == by_partitions


# -- metacyclic ----------------------------------------------------------------


def test_metacyclic_exponent_examples():
    assert cf.metacyclic_exponent(4, 2, 2, 3) == 4
    assert cf.metacyclic_exponent(7, 1, 0, 1) == 7
    assert cf.metacyclic_exponent(6, 2, 0, 5) == 6


def test_metacyclic_exponent_and_profile_sweep():
    assert verification.metacyclic_sweep(12, 6) == []


def test_metacyclic_divisibility_is_sufficient_not_necessary():
    # b has order 16 = exp here although 4 does not divide gcd(8, 2)
    assert not cf.metacyclic_divisibility_criterion(8, 4, 2, 5)
    assert classc.metacyclic_in_c(8, 4, 2, 5)
    assert fam.metacyclic(8, 4, 2, 5).element_order((1, 0)) == 16
    # a cyclic group wearing a degenerate presentation
    assert not cf.metacyclic_divisibility_criterion(2, 3, 0, 1)
    assert classc.metacyclic_in_c(2, 3, 0, 1)


def test_divisibility_matches_attainment_for_faithful_actions():
    def multiplicative_order(r, m):
        return next(k for k in range(1, m + 1) if pow(r, k, m) == 1)

    for m, n, s, r in cf.valid_metacyclic_presentations(14, 6):
        if m > 1 and multiplicative_order(r, m) == n:
            assert cf.metacyclic_divisibility_criterion(m, n, s, r) == \
                classc.metacyclic_in_c(m, n, s, r)


def test_valid_presentation_generator():
    presentations = list(cf.valid_metacyclic_presentations(6, 4))
    assert (4, 2, 0, 3) in presentations
    assert (4, 2, 2, 3) in presentations
    assert all(
        math.gcd(m, r) == 1 and pow(r, n, m) == 1 % m and (s * (r - 1)) % m == 0
        for m, n, s, r in presentations
    )


def walk_profile(m, n, s, r):
    """Reference: the order of every normal form b^i a^j, all m*n of them."""
    counts = Counter()
    for i in range(n):
        u = n // math.gcd(i, n)
        q = i // math.gcd(i, n)
        geometric = sum(pow(r, i * k, m) for k in range(u)) % m
        for j in range(m):
            counts[u * (m // math.gcd(m, (s * q + j * geometric) % m))] += 1
    return dict(counts)


def test_profile_matches_the_walk_on_every_small_presentation():
    presentations = list(cf.valid_metacyclic_presentations(40, 12))
    assert len(presentations) == 13148
    assert [p for p in presentations if cf.metacyclic_order_profile(*p) != walk_profile(*p)] == []


@pytest.mark.parametrize("params", [(10009, 1, 0, 1), (30021, 2, 0, 30020), (1000, 10, 0, 1)])
def test_profile_matches_the_walk_at_large_m(params):
    assert cf.metacyclic_order_profile(*params) == walk_profile(*params)


@st.composite
def presentations_up_to_200(draw):
    m = draw(st.integers(1, 200))
    return draw(st.sampled_from(list(cf._metacyclic_presentations_of(m, 16))))


@seed(23)
@settings(max_examples=60, deadline=None)
@given(presentations_up_to_200())
def test_profile_matches_the_walk_property(params):
    assert cf.metacyclic_order_profile(*params) == walk_profile(*params)


def mobius(f):
    exponents = factorize(f).values()
    return 0 if any(a > 1 for a in exponents) else (-1) ** len(exponents)


def test_residue_histogram_is_the_mobius_count():
    # residues w = c (mod g) in [0, m) with gcd(w, m) = e, for every g | m
    for m in range(1, 61):
        for g in (g for g in range(1, m + 1) if m % g == 0):
            for c in range(g):
                want = {}
                for e in (e for e in range(1, m + 1) if m % e == 0):
                    count = sum(mobius(f) * m // math.lcm(g, e * f)
                                for f in range(1, m // e + 1)
                                if (m // e) % f == 0 and c % math.gcd(g, e * f) == 0)
                    if count:
                        want[m // e] = count
                flat = cf._residue_orders(m, g, c)
                assert dict(zip(flat[::2], flat[1::2])) == want


def test_residue_memo_is_bounded_and_profiles_are_fresh():
    assert 0 < cf._residue_orders.cache_info().maxsize < 10**6
    assert isinstance(cf._residue_orders(8, 2, 1), tuple)
    profile = cf.metacyclic_order_profile(8, 4, 2, 5)
    want = dict(profile)
    profile[16] += 1
    profile[3] = 1
    assert cf.metacyclic_order_profile(8, 4, 2, 5) == want == walk_profile(8, 4, 2, 5)


def test_metacyclic_sweep_computes_one_profile_per_presentation(monkeypatch):
    calls = []

    def counted(*params):
        calls.append(params)
        return profile(*params)

    profile = cf.metacyclic_order_profile
    monkeypatch.setattr(cf, "metacyclic_order_profile", counted)
    monkeypatch.setattr(classc, "metacyclic_order_profile", counted)
    assert verification.metacyclic_sweep(12, 6) == []
    assert calls == list(cf.valid_metacyclic_presentations(12, 6))


def test_abelian_types_up_to():
    types = list(cf.abelian_types_up_to(16))
    orders = [order for order, _ in types]
    assert max(orders) == 16
    assert (4, [(2, [1, 1])]) in types
    assert (4, [(2, [2])]) in types
    assert (16, [(2, [1, 1, 2])]) in types
    assert (12, [(2, [1, 1]), (3, [1])]) in types
    # one entry per isomorphism class: order 16 has the five 2-group types
    assert sum(1 for o, _ in types if o == 16) == 5



def test_closedforms_never_imports_the_oracle():
    # the formulas are checked against the oracle in core, so they may not call it
    modules = []
    for node in ast.walk(ast.parse(Path(cf.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert modules
    assert [m for m in modules if "core" in m.split(".")] == []
