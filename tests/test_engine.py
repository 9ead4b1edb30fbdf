"""The order engine: indexed batches and power maps against reference scalar laws."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gentotient.closedforms as cf
from gentotient import classc, core
from gentotient import families as fam
from gentotient.classc import standard_catalog
from gentotient.core import (
    AlternatingGroup,
    CayleyTableGroup,
    CyclicGroup,
    DirectProductGroup,
    Group,
    IntegrityError,
    MetacyclicGroup,
    PermutationClosureGroup,
    PGroupP,
    SymmetricGroup,
    spectra_of,
    spectrum_by_enumeration,
)
from gentotient.numtheory import factorize

METACYCLIC = list(cf.valid_metacyclic_presentations(24, 8))
P_PARAMS = [(p, q, n) for p in (3, 5, 7, 11, 13) for q in (2, 3, 5)
            for n in (2, 3, 4) if (p - 1) % q == 0 and p ** (n - 1) * q <= 1000]
TABLE_SOURCES = list(standard_catalog(64))
D8_GENERATORS = [(1, 2, 3, 0), (3, 2, 1, 0)]


PRESENTATIONS_24 = list(cf.valid_metacyclic_presentations(24, 24))


def same_order_metacyclic(order):
    """Every presentation of the given order with m, n <= 24, as fresh groups,
    with the dihedral, quaternion and quasidihedral groups of that order."""
    groups = [fam.metacyclic(*p) for p in PRESENTATIONS_24 if p[0] * p[1] == order]
    if order % 2 == 0 and order >= 4:
        groups.append(fam.dihedral(order))
    if order & (order - 1) == 0 and order >= 8:
        groups.append(fam.generalized_quaternion(order))
    if order & (order - 1) == 0 and order >= 16:
        groups.append(fam.quasidihedral(order))
    return groups


BUCKET_ORDERS = [n for n in range(2, 65) if len(same_order_metacyclic(n)) >= 3]


# -- reference laws -------------------------------------------------------------
# Each realization writes its group law once, as a batch law, and Group derives
# the payload operations from it.  These scalar laws, one per realization, are
# the independent reference that the batch laws are checked against.


def reference_multiply(group, x, y):
    """x * y by the scalar law of the group's realization."""
    if isinstance(group, DirectProductGroup):
        return tuple(reference_multiply(f, a, b) for f, a, b in zip(group.factors, x, y))
    if isinstance(group, CyclicGroup):
        return (x + y) % group.n
    if isinstance(group, MetacyclicGroup):
        i, j = x
        k, l = y
        t = i + k
        rk = pow(group.r, k, group.m)
        if t >= group.n:
            return (t - group.n, (j * rk + l + group.s) % group.m)
        return (t, (j * rk + l) % group.m)
    if isinstance(group, PGroupP):
        v, c = x
        w, d = y
        tc = pow(group.t, c, group.p)
        return (tuple((a + tc * b) % group.p for a, b in zip(v, w)), (c + d) % group.q)
    if isinstance(group, CayleyTableGroup):
        return group.table[x][y]
    # compose permutations: apply y first, then x
    return tuple(x[y[i]] for i in range(group.degree))


def reference_elements(group):
    """Every element of the group, in the order its indices name them."""
    if isinstance(group, DirectProductGroup):
        return itertools.product(*[reference_elements(f) for f in group.factors])
    if isinstance(group, CyclicGroup):
        return iter(range(group.n))
    if isinstance(group, MetacyclicGroup):
        return ((i, j) for i in range(group.n) for j in range(group.m))
    if isinstance(group, PGroupP):
        return (
            (v, c)
            for c in range(group.q)
            for v in itertools.product(*[range(group.p)] * group.dim)
        )
    if isinstance(group, CayleyTableGroup):
        return iter(range(group.order))
    if isinstance(group, SymmetricGroup):
        return itertools.permutations(range(group.n))
    if isinstance(group, AlternatingGroup):
        return (p for p in itertools.permutations(range(group.n)) if core._perm_is_even(p))
    # a closure: every element, in breadth-first order from the identity
    assert isinstance(group, PermutationClosureGroup)
    return iter(group._unpack(group._rows))


def reference_order(group, x) -> int:
    """Least t >= 1 with x^t = identity, by repeated reference products."""
    identity = next(reference_elements(group))
    y, t = x, 1
    while y != identity:
        y, t = reference_multiply(group, y, x), t + 1
    return t


def assert_engine_matches_payloads(group):
    """Index order, orders and products of the engine and the derived payload
    operations equal the reference law."""
    elements = list(reference_elements(group))
    n = len(elements)
    idx = np.arange(n)
    assert group.payloads(idx) == elements
    assert list(group.elements()) == elements
    assert group.identity() == elements[0]
    assert group._encode(group._pack(elements)).tolist() == idx.tolist()
    # every element's order by the reference law; the engine's orders and
    # the realization's own element_order (the gcd, cycle-length and product
    # overrides, or the base read of the order array) must both equal it
    orders = [reference_order(group, x) for x in elements]
    assert group.element_orders().tolist() == orders
    assert [group.element_order(x) for x in elements] == orders
    if n <= 64:
        a, b = np.repeat(idx, n), np.tile(idx, n)
    else:
        rng = np.random.default_rng(n)
        a, b = rng.integers(0, n, 200), rng.integers(0, n, 200)
    expected = [reference_multiply(group, elements[i], elements[j]) for i, j in zip(a, b)]
    assert group.payloads(group.index_product(a, b)) == expected
    assert [group.multiply(elements[i], elements[j]) for i, j in zip(a[:20], b[:20])] == \
        expected[:20]


def relabeled_table(group, relabel):
    """Cayley table of `group` with element k renamed relabel[k] (0 stays 0)."""
    elements = list(reference_elements(group))
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    table = [[0] * n for _ in range(n)]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            table[relabel[i]][relabel[j]] = relabel[index[reference_multiply(group, x, y)]]
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
    return PermutationClosureGroup(D8_GENERATORS)


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
    gens, _ = core.generate(np.array(table), range(n))
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
    assert core.generate(arr, range(len(arr)))[0] == [1, 2]
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
    assert_engine_matches_payloads(PermutationClosureGroup(D8_GENERATORS))


def test_closure_is_abelian_from_one_batch_product(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError(f"is_abelian multiplied payloads of {self.name}")

    monkeypatch.setattr(Group, "multiply", refuse)
    cases = [
        (D8_GENERATORS, False),
        ([(1, 2, 3, 4, 0)], True),
        ([(1, 0, 2, 3, 4), (0, 1, 3, 2, 4)], True),
        # (0 1) commutes with (2 3) and with (3 4), which do not commute
        ([(1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 2, 4, 3)], False),
    ]
    for generators, abelian in cases:
        group = PermutationClosureGroup(generators)
        table = group.index_table()
        assert group.is_abelian() is abelian == bool((table == table.T).all()), generators
    assert not fam.mathieu11().is_abelian()


def test_engine_refuses_a_broken_index_map():
    class Broken(type(fam.cyclic(6))):
        def _encode(self, batch):
            return batch % 3

    with pytest.raises(IntegrityError):
        Broken(6).element_orders()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUCKET_ORDERS), st.data())
def test_bucket_orders_equal_each_groups_own(order, data):
    """A bucket of same-order groups gives each group its k = 1 orders."""
    everyone = same_order_metacyclic(order)
    picks = data.draw(st.lists(st.integers(0, len(everyone) - 1), min_size=2, max_size=12,
                               unique=True))
    groups = [everyone[i] for i in picks]
    orders = core._element_orders(core._MetacyclicBucket(groups))
    assert len(orders) == order * len(groups)
    for g, own in zip(groups, orders.reshape(len(groups), order)):
        assert own.tolist() == g.element_orders().tolist(), g.name


def test_spectra_of_covers_factors_and_realizations_without_a_bucket_law():
    d8, q8 = fam.dihedral(8), fam.generalized_quaternion(8)
    p_group = fam.p_group_P(7, 3, 2)
    product = fam.direct_product([fam.cyclic(3), d8])
    groups = [product, p_group, q8, fam.symmetric(4), fam.cyclic(12)]
    spectra = spectra_of(groups)
    assert d8._spectrum is not None and d8._orders is None  # a factor, bucketed with Q8
    assert all(g._orders is None for g in (q8, p_group, product))
    references = [fam.direct_product([fam.cyclic(3), fam.dihedral(8)]),
                  fam.p_group_P(7, 3, 2), fam.generalized_quaternion(8), fam.symmetric(4),
                  fam.cyclic(12)]
    assert [s.entries for s in spectra] == [g.spectrum().entries for g in references]
    assert spectra_of(groups) == spectra  # cached: nothing is computed again


class _UnroundedBucket(core._MetacyclicBucket):
    """Encodes each element within its own group only, so indices do not round-trip."""

    def _encode(self, batch):
        return super()._encode(batch) % self.order


class _UnroundedMetacyclic(MetacyclicGroup):
    _bucket_law = _UnroundedBucket


def test_engine_refuses_a_bucket_whose_index_map_does_not_round_trip():
    with pytest.raises(IntegrityError, match="^the indices of a bucket of 2 metacyclic groups"):
        core._element_orders(_UnroundedBucket([fam.dihedral(8), fam.generalized_quaternion(8)]))
    groups = [_UnroundedMetacyclic(4, 2, 0, 3), _UnroundedMetacyclic(4, 2, 2, 3)]
    with pytest.raises(IntegrityError, match="do not enumerate its 16 elements"):
        spectra_of(groups)
    assert all(g._spectrum is None for g in groups)


def test_element_orders_are_cached_and_read_only():
    g = fam.dihedral(12)
    orders = g.element_orders()
    assert orders is g.element_orders()
    assert orders.dtype == np.int32
    with pytest.raises(ValueError):
        orders[0] = 5


def fresh_groups():
    table_source = fam.generalized_quaternion(16)
    return {
        "cyclic": fam.cyclic(12),
        "abelian": fam.abelian([(2, [1, 2]), (3, [1])]),
        "metacyclic": fam.metacyclic(8, 4, 2, 5),
        "p-group-P": fam.p_group_P(7, 3, 2),
        "symmetric": fam.symmetric(5),
        "alternating": fam.alternating(5),
        "permutation-closure": PermutationClosureGroup(D8_GENERATORS),
        "direct-product": fam.direct_product([fam.cyclic(6), fam.symmetric(3)]),
        "cayley-table": CayleyTableGroup(
            relabeled_table(table_source, list(range(table_source.order)))),
    }


def test_oracle_never_calls_closed_forms(monkeypatch):
    """spectrum_by_enumeration and spectra_of work with every closedforms function refusing."""
    groups = fresh_groups()
    # The batch entry's input: fresh groups, less those whose spectrum() takes
    # cycle types by design (Z6xS3 through its factor S3), then every group of
    # order 32 and a product with one of them as a factor.  The references
    # are the per-group spectra of equal groups.
    batched = {kind: group for kind, group in fresh_groups().items()
               if kind not in ("symmetric", "alternating", "direct-product")}

    def order_32():
        return same_order_metacyclic(32) + [fam.direct_product([fam.cyclic(3), fam.dihedral(32)])]

    bucket = order_32()
    assert {g.kind for g in bucket[:-1]} == {"metacyclic", "dihedral", "generalized-quaternion",
                                             "quasidihedral"}
    assert any(g.s for g in bucket[:-1] if g.kind == "metacyclic")
    bucket_references = [spectrum_by_enumeration(g) for g in order_32()]
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
    spectra = spectra_of([*batched.values(), *bucket])
    for kind, spectrum in zip(batched, spectra):
        assert dict(spectrum.entries) == dict(expected[kind]), kind
    assert spectra[len(batched):] == bucket_references
    assert all(g._orders is None for g in [*batched.values(), *bucket])
    assert calls == []


def test_commuting_witness_searches_on_indices(monkeypatch):
    """On every catalog group the witness search multiplies no payloads, and
    its witness holds under the reference law."""
    groups = standard_catalog(2000)

    def refuse(self, x, y):
        raise AssertionError(f"commuting_witness multiplied payloads of {self.name}")

    with monkeypatch.context() as patch:
        patch.setattr(Group, "multiply", refuse)
        witnesses = [core.commuting_witness(g) for g in groups]
    for g, witness in zip(groups, witnesses):
        assert (witness is not None) == classc.in_class_c(g), g.name
        if witness is None:
            continue
        targets = sorted(p**a for p, a in factorize(g.spectrum().exponent()).items())
        assert sorted(reference_order(g, x) for x in witness) == targets, g.name
        for i, a in enumerate(witness):
            for b in witness[i + 1:]:
                assert reference_multiply(g, a, b) == reference_multiply(g, b, a), g.name
