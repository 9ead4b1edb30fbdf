"""Class-C predicates, the prime equation solver, and the catalog sweep."""

import hashlib

import pytest

import gentotient as gt
from gentotient import classc, core, verification
from gentotient import families as fam
from gentotient.core import spectrum_by_enumeration


def test_in_class_c_examples():
    assert classc.in_class_c(fam.dihedral(12))
    assert not classc.in_class_c(fam.symmetric(3))
    # nilpotent groups always attain their exponent
    for g in (fam.generalized_quaternion(16), fam.abelian([(2, [1, 2]), (3, [2])]),
              fam.elementary_abelian(5, 2), fam.hamiltonian(2, fam.cyclic(9))):
        assert classc.in_class_c(g)


def test_sublattice_check_examples():
    assert classc.sublattice_check(fam.cyclic(12))
    assert not classc.sublattice_check(fam.symmetric(3))
    assert not classc.sublattice_check(fam.alternating(4))


def test_triple_equivalence_on_catalog():
    assert verification.class_c_sweep(600) == []


def test_metacyclic_in_c_examples():
    for m in range(2, 26):
        assert classc.metacyclic_in_c(m, 2, 0, m - 1) == (m % 2 == 0)
    assert classc.metacyclic_in_c(4, 2, 2, 3)       # quaternion presentation
    assert not classc.metacyclic_in_c(5, 2, 0, 4)   # pentagon symmetries


def test_metacyclic_in_c_matches_oracle():
    mismatches = verification.metacyclic_sweep(10, 5)
    assert [f for f in mismatches if f.check == "attainment"] == []


def test_catalog_generates_only_the_presentations_it_keeps():
    from gentotient.closedforms import _metacyclic_presentations_of, valid_metacyclic_presentations

    def kept(bound):
        return [p for p in valid_metacyclic_presentations(bound, bound) if p[0] * p[1] <= bound]

    for bound in range(1, 61):
        generated = [p for m in range(1, bound + 1)
                     for p in _metacyclic_presentations_of(m, bound // m)]
        assert generated == kept(bound), bound
    for bound in (40, 60):
        scanned = [(g.m, g.n, g.s, g.r) for g in classc.scan_families(bound)
                   if g.kind == "metacyclic"]
        assert scanned == kept(bound)


def test_embed_in_c():
    s3 = fam.symmetric(3)
    embedded = classc.embed_in_c(s3)
    assert embedded.order == 36
    assert gt.phi(embedded) == 20
    assert classc.in_class_c(embedded)

    z5 = fam.cyclic(5)
    assert classc.embed_in_c(z5).order == 25
    assert classc.in_class_c(classc.embed_in_c(z5))

    a5 = fam.alternating(5)
    big = classc.embed_in_c(a5)  # nonsolvable member of class C
    assert big.order == 30 * 60
    assert classc.in_class_c(big)


def test_solve_phi_eq_prime_two():
    sol = classc.solve_phi_eq_prime(2)
    assert sol.kind == "five-groups"
    assert [g.name for g in sol.specs] == ["Z3", "Z4", "Z6", "D8", "D12"]
    assert [g.order for g in sol.specs] == [3, 4, 6, 8, 12]
    for g in sol.specs:
        assert spectrum_by_enumeration(g).phi() == 2


def test_solve_phi_eq_prime_mersenne_and_empty():
    sol3 = classc.solve_phi_eq_prime(3)
    assert sol3.kind == "single-elementary-abelian"
    assert sol3.specs[0].order == 4 and spectrum_by_enumeration(sol3.specs[0]).phi() == 3
    sol7 = classc.solve_phi_eq_prime(7)
    assert sol7.specs[0].order == 8
    assert classc.solve_phi_eq_prime(5).kind == "empty"
    assert classc.solve_phi_eq_prime(11).kind == "empty"
    assert classc.solve_phi_eq_prime(13).kind == "empty"
    with pytest.raises(ValueError):
        classc.solve_phi_eq_prime(4)


def test_solution_sets_are_pairwise_distinguished():
    specs = classc.solve_phi_eq_prime(2).specs
    fingerprints = {
        (g.order, tuple(sorted(g.spectrum().entries.items()))) for g in specs
    }
    assert len(fingerprints) == len(specs)


def test_catalog_scan_target_two():
    hits = classc.catalog_scan(2, 16)
    assert [(g.name, g.order) for g in hits] == [
        ("Z3", 3), ("Z4", 4), ("Z6", 6), ("D8", 8), ("D12", 12)
    ]


def test_catalog_scan_target_one():
    assert [g.name for g in classc.catalog_scan(1, 4)] == ["Z1", "Z2"]


def test_catalog_scan_target_six():
    names = {g.name for g in classc.catalog_scan(6, 20)}
    assert {"Q8", "Z7", "Z9", "Z14", "Z18"} <= names


def test_catalog_scan_is_deterministic():
    first = [(g.name, g.order) for g in classc.catalog_scan(2, 30)]
    second = [(g.name, g.order) for g in classc.catalog_scan(2, 30)]
    assert first == second


def test_class_c_closed_under_products():
    assert verification.class_c_product_sweep(150, 10_000) == []


def test_class_c_product_sweep_reports_a_product_outside_c(monkeypatch):
    real = classc.in_class_c
    monkeypatch.setattr(classc, "in_class_c", lambda g: g.name != "Z3xZ3" and real(g))
    assert verification.class_c_product_sweep(3, 9) == \
        [verification.Mismatch("product", "Z3xZ3", True, False)]


def test_class_c_not_closed_under_subgroups_or_quotients():
    # the order-12 dihedral group is in C yet contains (and maps onto) a
    # copy of the symmetric group on three letters, which is not
    assert classc.in_class_c(fam.dihedral(12))
    assert not classc.in_class_c(fam.symmetric(3))
    d12 = fam.dihedral(12)
    spec = d12.spectrum()
    assert spec.entries[2] >= 3 and spec.entries[3] == 2  # S3's spectrum embeds


def test_scan_families_is_cached_and_bounded():
    groups = classc.scan_families(40)
    assert groups is classc.scan_families(40)
    assert all(g.order <= 40 for g in groups)
    names = {g.name for g in groups}
    assert {"Z1", "D8", "Q8", "SD16", "S4", "A4", "P(3,2,2)"} <= names


def test_scan_families_contents_and_order_are_pinned():
    # the catalog workload of perfbench reads this list; any change to a
    # family loop, a default name or the order of the loops shows here
    groups = classc.scan_families(200)
    assert len(groups) == 38187
    digest = hashlib.sha256("|".join(g.name for g in groups).encode()).hexdigest()
    assert digest == "49acddfef020b256e8384becadced0db60ca56d1e4eadb2ecf0350f4ccbd4716"
    # every spectrum, batched as catalog_scan computes them, against a digest
    # of the spectra that the engine gave one group at a time
    spectra = core.spectra_of(groups)
    text = "|".join(f"{g.name}:{sorted(spec.entries.items())}" for g, spec in zip(groups, spectra))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "bafdc90f040044652c1489955f12fd5d45cdf85393878ce3e45627962fc2cc48"


def test_catalog_groups_keep_no_index_table():
    classc.catalog_scan(2, 64)
    # the scan's spectra come from buckets, which keep no order arrays
    for g in classc.scan_families(64):
        assert g._orders is None, g.name
    verification.class_c_sweep(100)
    for g in classc.scan_families(64) + classc.standard_catalog(100):
        assert g._table is None, g.name
