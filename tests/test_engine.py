"""The order engine: indexed batches and power maps against the payload path."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gentotient.closedforms as cf
from gentotient import core
from gentotient import families as fam
from gentotient.classc import standard_catalog
from gentotient.core import CayleyTableGroup, Group, IntegrityError, spectrum_by_enumeration

METACYCLIC = list(cf.valid_metacyclic_presentations(24, 8))
P_PARAMS = [(p, q, n) for p in (3, 5, 7, 11, 13) for q in (2, 3, 5)
            for n in (2, 3, 4) if (p - 1) % q == 0 and p ** (n - 1) * q <= 1000]
TABLE_SOURCES = list(standard_catalog(64))
D8_GENERATORS = [(1, 2, 3, 0), (3, 2, 1, 0)]


def assert_engine_matches_payloads(group):
    """Index order, orders and products of the engine equal the payload path."""
    elements = list(group.elements())
    n = len(elements)
    idx = np.arange(n)
    assert group.payloads(idx) == elements
    # Group.element_order is the prime stripping with power(), whatever the
    # realization overrides
    assert group.element_orders().tolist() == [Group.element_order(group, x) for x in elements]
    if n <= 64:
        a, b = np.repeat(idx, n), np.tile(idx, n)
    else:
        rng = np.random.default_rng(n)
        a, b = rng.integers(0, n, 200), rng.integers(0, n, 200)
    products = group.payloads(group.index_product(a, b))
    assert products == [group.multiply(elements[i], elements[j]) for i, j in zip(a, b)]


def relabeled_table(group, relabel):
    """Cayley table of `group` with element k renamed relabel[k] (0 stays 0)."""
    elements = list(group.elements())
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    table = [[0] * n for _ in range(n)]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            table[relabel[i]][relabel[j]] = relabel[index[group.multiply(x, y)]]
    return table


def small_group(draw):
    pick = draw(st.integers(0, 4))
    if pick == 0:
        return fam.cyclic(draw(st.integers(1, 12)))
    if pick == 1:
        return fam.metacyclic(*draw(st.sampled_from([p for p in METACYCLIC if p[0] * p[1] <= 24])))
    if pick == 2:
        return fam.abelian([(2, [1, draw(st.integers(1, 2))]), (3, [1])])
    if pick == 3:
        return draw(st.sampled_from([fam.symmetric(3), fam.alternating(4), fam.p_group_P(3, 2, 2)]))
    return fam.permutation_group(D8_GENERATORS)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(METACYCLIC))
def test_engine_metacyclic(params):
    assert_engine_matches_payloads(fam.metacyclic(*params))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(P_PARAMS))
def test_engine_p_group(params):
    assert_engine_matches_payloads(fam.p_group_P(*params))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_direct_product(data):
    g = fam.direct_product([small_group(data.draw), small_group(data.draw)])
    assert_engine_matches_payloads(g)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TABLE_SOURCES), st.data())
def test_engine_relabeled_cayley_table(source, data):
    rest = data.draw(st.permutations(range(1, source.order)))
    table = CayleyTableGroup(relabeled_table(source, [0] + list(rest)))
    assert_engine_matches_payloads(table)
    assert spectrum_by_enumeration(table).entries == source.spectrum().entries


def associative_by_slices(table) -> bool:
    """The n^3 reference: (i*j)*k == i*(j*k) for each i, over all j, k at once."""
    arr = np.array(table)
    return all(np.array_equal(arr[arr[i]], arr[i][arr]) for i in range(len(arr)))


def assert_light_test_agrees(table):
    """CayleyTableGroup accepts exactly the associative tables, and names a real failure."""
    try:
        CayleyTableGroup(table)
    except IntegrityError as exc:
        i, j, k = map(int, re.search(r"at \((\d+)\*(\d+)\)\*(\d+)", str(exc)).groups())
        assert table[table[i][j]][k] != table[i][table[j][k]]
        assert not associative_by_slices(table)
    else:
        assert associative_by_slices(table)


# an intercalate swap in a table of S3; generator 1 passes Light's test alone
LOOP_6 = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 3, 2], [2, 3, 0, 1, 5, 4],
          [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 2, 3], [5, 4, 3, 2, 1, 0]]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([g for g in TABLE_SOURCES if g.order % 2 == 0 and g.order > 2]),
       st.data())
def test_light_test_agrees_with_the_full_check(source, data):
    rest = data.draw(st.permutations(range(1, source.order)))
    table = relabeled_table(source, [0] + list(rest))
    n = len(table)
    gens = core._magma_generators(np.array(table))
    assert len(gens) <= n.bit_length() - 1  # each pick at least doubles a subgroup
    assert_light_test_agrees(table)
    # An involution u gives the intercalate at rows r, r*u and columns u*c, c;
    # swapping its diagonals keeps the Latin square and the identity.
    u = data.draw(st.sampled_from([x for x in range(1, n) if table[x][x] == 0]))
    r, c = (data.draw(st.sampled_from([x for x in range(1, n) if x != u])) for _ in "rc")
    rows, cols = (r, table[r][u]), (table[u][c], c)
    for row in rows:
        table[row][cols[0]], table[row][cols[1]] = table[row][cols[1]], table[row][cols[0]]
    assert_light_test_agrees(table)


def test_light_test_checks_every_greedy_generator():
    arr = np.array(LOOP_6)
    assert core._magma_generators(arr) == [1, 2]
    column = arr[:, 1]
    assert np.array_equal(column[arr], arr[:, column])
    assert not associative_by_slices(LOOP_6)
    with pytest.raises(IntegrityError, match=r"^associativity fails at \(\d\*\d\)\*2 != "):
        CayleyTableGroup(LOOP_6)
    assert_light_test_agrees(LOOP_6)


@pytest.mark.parametrize("n", range(1, 7))
def test_engine_symmetric_and_alternating(n):
    assert_engine_matches_payloads(fam.symmetric(n))
    if n >= 2:
        assert_engine_matches_payloads(fam.alternating(n))


def test_engine_permutation_closure():
    assert_engine_matches_payloads(fam.permutation_group(D8_GENERATORS))


def test_engine_refuses_a_broken_index_map():
    class Broken(type(fam.cyclic(6))):
        def _encode(self, batch):
            return batch % 3

    with pytest.raises(IntegrityError):
        Broken(6).element_orders()


def test_element_orders_are_cached_and_read_only():
    g = fam.dihedral(12)
    orders = g.element_orders()
    assert orders is g.element_orders()
    assert orders.dtype == np.int32
    with pytest.raises(ValueError):
        orders[0] = 5


def test_oracle_never_calls_closed_forms(monkeypatch):
    """spectrum_by_enumeration works with every closedforms function refusing."""
    table_source = fam.generalized_quaternion(16)
    groups = {
        "cyclic": fam.cyclic(12),
        "abelian": fam.abelian([(2, [1, 2]), (3, [1])]),
        "metacyclic": fam.metacyclic(8, 4, 2, 5),
        "p-group-P": fam.p_group_P(7, 3, 2),
        "symmetric": fam.symmetric(5),
        "alternating": fam.alternating(5),
        "permutation-closure": fam.permutation_group(D8_GENERATORS),
        "direct-product": fam.direct_product([fam.cyclic(6), fam.symmetric(3)]),
        "cayley-table": CayleyTableGroup(
            relabeled_table(table_source, list(range(table_source.order)))),
    }
    # references from the structural routes and formulas, taken before the patch
    expected = {
        "cyclic": {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4},
        "abelian": {1: 1, 2: 3, 3: 2, 4: 4, 6: 6, 12: 8},
        "metacyclic": cf.metacyclic_order_profile(8, 4, 2, 5),
        "p-group-P": {1: 1, 3: 14, 7: 6},
        "symmetric": cf.symmetric_order_spectrum(5),
        "alternating": cf.alternating_order_spectrum(5),
        "permutation-closure": {1: 1, 2: 5, 4: 2},
        "direct-product": {1: 1, 2: 7, 3: 8, 6: 20},
        "cayley-table": cf.metacyclic_order_profile(8, 2, 4, 7),
    }
    calls = []

    def refuse(name):
        def refused(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"the enumeration oracle called closedforms.{name}")
        return refused

    patched = 0
    for name, value in list(vars(cf).items()):
        if not name.startswith("_") and callable(value) and value.__module__ == cf.__name__:
            monkeypatch.setattr(cf, name, refuse(name))
            patched += 1
    assert patched > 10
    for kind, group in groups.items():
        assert dict(spectrum_by_enumeration(group).entries) == dict(expected[kind]), kind
    assert calls == []
