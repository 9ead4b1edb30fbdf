"""Named regression suites: expected value vs freshly computed value.

Each row pits a closed formula, a published constant, or a structural claim
against the enumeration oracle.  Suites are pure and deterministic, so their
output is stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import authom, classc, closedforms as cf, families
from .core import ResourceLimitError, phi, spectrum_by_enumeration
from .numtheory import euler_phi


@dataclass(frozen=True)
class ReportRow:
    label: str
    expected: object
    computed: object

    @property
    def status(self) -> str:
        return "pass" if self.expected == self.computed else "fail"

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }


def _row(label, expected, computed) -> ReportRow:
    return ReportRow(label, expected, computed)


def suite_paper_examples() -> list[ReportRow]:
    """The showcase identities: small groups with hand-checkable values."""
    rows = []
    d8 = families.dihedral(8)
    q8 = families.generalized_quaternion(8)
    klein = families.elementary_abelian(2, 2)
    s3 = families.symmetric(3)
    z3s3 = families.direct_product([families.cyclic(3), s3])
    z6s3 = families.direct_product([families.cyclic(6), families.symmetric(3)])

    rows.append(_row("phi(D8)", 2, phi(d8)))
    rows.append(_row("phi(|D8|) = phi(8)", 4, euler_phi(8)))
    rows.append(_row("phi(D8) < phi(|D8|)", True, phi(d8) < euler_phi(8)))
    rows.append(_row("phi(Z2^2) inside D8 beats phi(D8)", True, phi(klein) > phi(d8)))
    rows.append(_row("phi(Z2^2)", 3, phi(klein)))
    rows.append(_row("phi(Z3xS3)", 6, phi(z3s3)))
    rows.append(_row("phi(Z3xS3) = phi(18)", True, phi(z3s3) == euler_phi(18)))
    rows.append(_row("phi(Q8)", 6, phi(q8)))
    rows.append(_row("phi(Q8) > phi(8)", True, phi(q8) > euler_phi(8)))
    for n, expected in ((1, 1), (2, 1), (3, 0), (4, 0)):
        rows.append(_row(f"phi(S{n})", expected,
                         spectrum_by_enumeration(families.symmetric(n)).phi()))
    for n, expected in ((3, 2), (4, 0), (5, 0)):
        rows.append(_row(f"phi(A{n})", expected,
                         spectrum_by_enumeration(families.alternating(n)).phi()))
    rows.append(_row("phi(Z2xZ4) abelian formula", cf.phi_abelian_p(2, [1, 2]),
                     phi(families.abelian([(2, [1, 2])]))))
    rows.append(_row("phi(D10) dihedral formula", cf.phi_dihedral(5),
                     phi(families.dihedral(10))))
    rows.append(_row("phi(D12) dihedral formula", cf.phi_dihedral(6),
                     phi(families.dihedral(12))))
    rows.append(_row("aut(Z6)", 2, authom.aut_count(families.cyclic(6))))
    rows.append(_row("aut(S3)", 6, authom.aut_count(s3)))
    rows.append(_row("hom(S3, Z6)", 2, authom.hom_count(s3, families.cyclic(6))))
    rows.append(_row("aut(Z6xS3) via product rule", 24,
                     authom.aut_product_formula(families.cyclic(6), s3)))
    rows.append(_row("aut(Z6xS3) by backtracking", 24, authom.aut_count(z6s3)))
    rows.append(_row("phi(Z6xS3)", 20, phi(z6s3)))
    rows.append(_row("|Z6xS3| exceeds aut count", True, z6s3.order > 24))
    rows.append(_row("k(Z3xS3) = |G|/exp", True,
                     authom.phi_order_match_check(z3s3).holds))
    rows.append(_row("Q8 presentation attains exponent", True,
                     classc.metacyclic_in_c(4, 2, 2, 3)))
    rows.append(_row("exp-embedding of S3 lands in class C", True,
                     classc.in_class_c(classc.embed_in_c(s3))))
    rows.append(_row("solve phi = 2: number of groups", 5,
                     len(classc.solve_phi_eq_prime(2).specs)))
    rows.append(_row("solve phi = 7: Z2^3", ("Z2^3",),
                     tuple(g.name for g in classc.solve_phi_eq_prime(7).specs)))
    m11 = families.mathieu11()
    rows.append(_row("|M11|", 7920, len(m11.closure())))
    rows.append(_row("exp(M11)", 1320, m11.spectrum().exponent()))
    big = families.direct_product([families.cyclic(1320), m11])
    rows.append(_row("phi(Z1320xM11) > phi(1320)*|M11|", True,
                     phi(big) > euler_phi(1320) * 7920))
    return rows


def suite_abelian() -> list[ReportRow]:
    rows = []
    agree = all(
        cf.phi_abelian(ptype) == spectrum_by_enumeration(families.abelian(ptype)).phi()
        for _, ptype in cf.abelian_types_up_to(300)
    )
    rows.append(_row("abelian formula = oracle for all types |G| <= 300", True, agree))
    rows.append(_row("phi(Z2xZ4)", 4, cf.phi_abelian_p(2, [1, 2])))
    rows.append(_row("phi(Z2^3)", 7, cf.phi_abelian_p(2, [1, 1, 1])))
    rows.append(_row("phi(Z2xZ4xZ9)", 24, cf.phi_abelian([(2, [1, 2]), (3, [2])])))
    bound_holds = all(
        cf.phi_abelian(ptype) >= euler_phi(order)
        for order, ptype in cf.abelian_types_up_to(300)
    )
    rows.append(_row("abelian phi(G) >= phi(|G|) up to 300", True, bound_holds))
    hamiltonian_cases = [
        (0, [], 6),
        (1, [], 12),
        (2, [], 24),
        (0, [(3, [1])], 12),
        (0, [(3, [2])], 36),
        (1, [(3, [1])], 24),
    ]
    agree_h = True
    for n, a_type, expected in hamiltonian_cases:
        a = families.abelian(a_type) if a_type else families.cyclic(1)
        got = spectrum_by_enumeration(families.hamiltonian(n, a)).phi()
        if got != expected or cf.phi_hamiltonian(n, a_type) != expected:
            agree_h = False
    rows.append(_row("hamiltonian formula = oracle on six cases", True, agree_h))
    return rows


def suite_dihedral() -> list[ReportRow]:
    rows = []
    for n in range(2, 31):
        rows.append(_row(f"phi(D{2 * n}) formula vs oracle", cf.phi_dihedral(n),
                         spectrum_by_enumeration(families.dihedral(2 * n)).phi()))
    exp_ok = all(
        cf.exp_dihedral(n) == families.dihedral(2 * n).spectrum().exponent()
        for n in range(2, 61)
    )
    rows.append(_row("dihedral exponent rule for n <= 60", True, exp_ok))
    pgroup_zero = all(
        spectrum_by_enumeration(families.p_group_P(p, q, n)).phi() == 0
        for p, q, n in ((3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 3, 2))
    )
    rows.append(_row("nonabelian power-automorphism groups have phi = 0", True,
                     pgroup_zero))
    return rows


def suite_metacyclic() -> list[ReportRow]:
    rows = []
    exp_ok = True
    attain_ok = True
    sufficient_ok = True
    for m, n, s, r in cf.valid_metacyclic_presentations(16, 6):
        g = families.metacyclic(m, n, s, r)
        spec = spectrum_by_enumeration(g)
        if cf.metacyclic_exponent(m, n, s, r) != spec.exponent():
            exp_ok = False
        attained = spec.phi() != 0
        if classc.metacyclic_in_c(m, n, s, r) != attained:
            attain_ok = False
        if cf.metacyclic_divisibility_criterion(m, n, s, r) and not attained:
            sufficient_ok = False
    rows.append(_row("exponent formula = oracle (m <= 16, n <= 6)", True, exp_ok))
    rows.append(_row("attainment test = oracle (m <= 16, n <= 6)", True, attain_ok))
    rows.append(_row("divisibility test implies attainment", True, sufficient_ok))
    slice_ok = all(
        classc.metacyclic_in_c(m, 2, 0, m - 1) == (m % 2 == 0)
        for m in range(2, 41)
    )
    rows.append(_row("dihedral slice: in C iff rotation order even", True, slice_ok))
    rows.append(_row("order of b in Q8 presentation", 4,
                     families.metacyclic(4, 2, 2, 3).element_order((1, 0))))
    return rows


def suite_symmetric() -> list[ReportRow]:
    rows = []
    rows.append(_row("phi(S_n) = 0 for 3 <= n <= 25", True,
                     all(cf.phi_symmetric(n) == 0 for n in range(3, 26))))
    rows.append(_row("phi(A_n) = 0 for 4 <= n <= 25", True,
                     all(cf.phi_alternating(n) == 0 for n in range(4, 26))))
    rows.append(_row("phi(S1), phi(S2)", (1, 1),
                     (cf.phi_symmetric(1), cf.phi_symmetric(2))))
    rows.append(_row("phi(A2), phi(A3)", (1, 2),
                     (cf.phi_alternating(2), cf.phi_alternating(3))))
    rows.append(_row("exp(S4)", 12, cf.exp_symmetric(4)))
    rows.append(_row("S4 has no element of order 12", 0,
                     cf.count_order_symmetric(4, 12)))
    rows.append(_row("order-6 elements of S5", 20, cf.count_order_symmetric(5, 6)))
    engine_matches_enum = all(
        cf.symmetric_order_spectrum(n)
        == spectrum_by_enumeration(families.symmetric(n)).entries
        for n in range(1, 8)
    )
    rows.append(_row("cycle-type engine = enumeration for S_n, n <= 7", True,
                     engine_matches_enum))
    alt_matches_enum = all(
        cf.alternating_order_spectrum(n)
        == spectrum_by_enumeration(families.alternating(n)).entries
        for n in range(2, 8)
    )
    rows.append(_row("cycle-type engine = enumeration for A_n, n <= 7", True,
                     alt_matches_enum))
    totals_ok = all(
        sum(cf.symmetric_order_spectrum(n).values()) == math.factorial(n)
        for n in range(1, 16)
    )
    rows.append(_row("cycle-type counts sum to n! for n <= 15", True, totals_ok))
    return rows


@dataclass(frozen=True)
class PhiAut:
    """phi(G) against |Aut G| for one abelian group."""

    name: str
    phi: int
    aut: int
    cyclic: bool

    @property
    def holds(self) -> bool:
        """phi(G) <= |Aut G|, with equality iff G is cyclic."""
        return self.phi <= self.aut and (self.phi == self.aut) == self.cyclic


def abelian_phi_aut_sweep(bound: int) -> tuple[list[PhiAut], list[str]]:
    """phi(G) and |Aut G| for each abelian type of order <= bound.

    Returns the compared groups and, in sweep order, the names of the groups
    whose counts the automorphism search caps refuse.
    """
    compared, refused = [], []
    for _, ptype in cf.abelian_types_up_to(bound):
        g = families.abelian(ptype)
        try:
            aut = authom.aut_count(g)
        except ResourceLimitError:
            refused.append(g.name)
            continue
        cyclic = all(len(alphas) == 1 for _, alphas in g.primary_type)
        compared.append(PhiAut(g.name, phi(g), aut, cyclic))
    return compared, refused


def suite_aut() -> list[ReportRow]:
    rows = []
    rows.append(_row("aut(Z_n) = phi(n) for n <= 48", True,
                     all(authom.aut_count_matches_classical(n) for n in range(1, 49))))
    rows.append(_row("aut(Z1)", 1, authom.aut_count(families.cyclic(1))))
    rows.append(_row("aut(S3)", 6, authom.aut_count(families.symmetric(3))))
    rows.append(_row("hom(Z4, Z2)", 2,
                     authom.hom_count(families.cyclic(4), families.cyclic(2))))
    rows.append(_row("abelian phi <= aut, equality iff cyclic (|G| <= 64)", True,
                     all(r.holds for r in abelian_phi_aut_sweep(64)[0])))
    trivial_center = all(
        phi(g) < g.order <= authom.aut_count(g)
        for g in (families.symmetric(3), families.symmetric(4),
                  families.alternating(5), families.dihedral(10))
    )
    rows.append(_row("trivial center: phi < |G| <= aut", True, trivial_center))
    screen_d8 = authom.phi_aut_screen(families.dihedral(8))
    rows.append(_row("D8 screened out by |G| >= exp^2", (False, False),
                     (screen_d8.cond_i, screen_d8.is_counterexample)))
    z6s3 = families.direct_product([families.cyclic(6), families.symmetric(3)])
    screen = authom.phi_aut_screen(z6s3)
    rows.append(_row("Z6xS3 passes the screen but is no counterexample",
                     (True, False), (screen.cond_i, screen.is_counterexample)))
    m11 = families.mathieu11()
    big = families.direct_product([families.cyclic(1320), m11])
    screen_big = authom.phi_aut_screen(big, aut_override=euler_phi(1320) * 7920)
    rows.append(_row("Z1320xM11 beats its aut count", True,
                     screen_big.is_counterexample))
    return rows


def suite_class_c() -> list[ReportRow]:
    rows = []
    catalog = classc.standard_catalog(400)
    triple_ok = True
    from .core import commuting_witness

    for g in catalog:
        member = classc.in_class_c(g)
        if classc.sublattice_check(g) != member:
            triple_ok = False
        if (commuting_witness(g) is not None) != member:
            triple_ok = False
    rows.append(_row("phi != 0 = sublattice = witness (catalog <= 400)", True,
                     triple_ok))
    rows.append(_row("D12 in class C", True, classc.in_class_c(families.dihedral(12))))
    rows.append(_row("S3 not in class C", False, classc.in_class_c(families.symmetric(3))))
    rows.append(_row("A4 fails the lcm closure", False,
                     classc.sublattice_check(families.alternating(4))))
    members = [g for g in classc.standard_catalog(100) if classc.in_class_c(g)]
    closed = True
    for i, g1 in enumerate(members):
        for g2 in members[i:]:
            if g1.order * g2.order <= 5000:
                prod = families.direct_product([g1, g2])
                if not classc.in_class_c(prod):
                    closed = False
    rows.append(_row("class C closed under direct products (sampled)", True, closed))
    for p, names in ((2, ("Z3", "Z4", "Z6", "D8", "D12")), (3, ("Z2^2",)),
                     (5, ()), (7, ("Z2^3",))):
        sol = classc.solve_phi_eq_prime(p)
        rows.append(_row(f"solve phi = {p}", tuple(names),
                         tuple(g.name for g in sol.specs)))
    scan = classc.catalog_scan(2, 16)
    rows.append(_row("catalog scan (target 2, bound 16): orders",
                     (3, 4, 6, 8, 12), tuple(g.order for g in scan)))
    return rows


SUITES = {
    "paper-examples": suite_paper_examples,
    "abelian": suite_abelian,
    "dihedral": suite_dihedral,
    "metacyclic": suite_metacyclic,
    "symmetric": suite_symmetric,
    "aut": suite_aut,
    "class-c": suite_class_c,
}


def run_suite(name: str) -> list[ReportRow]:
    """Rows for one suite, or for every suite with name 'all'."""
    if name == "all":
        rows = []
        for key in SUITES:
            rows.extend(run_suite(key))
        return rows
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    return SUITES[name]()


def summarize(rows: list[ReportRow]) -> dict:
    passed = sum(1 for r in rows if r.status == "pass")
    return {"pass": passed, "fail": len(rows) - passed}
