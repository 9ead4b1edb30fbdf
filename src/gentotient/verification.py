"""Named regression suites: expected value vs freshly computed value.

Each row pits a closed formula, a published constant, or a structural claim
against the enumeration oracle.  Suites are pure and deterministic, so their
output is stable across runs.

Each sweep, a formula against the oracle or a claim over a family or a
catalog, is defined here once, with its bound as a parameter, and returns
the comparisons it found false.  A suite runs it at a small bound; an
acceptance criterion or a test runs it at a larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import authom, classc, closedforms as cf, families
from .core import (ResourceLimitError, commuting_witness, phi, report, spectra_of,
                   spectrum_by_enumeration)
from .numtheory import euler_phi, factorize


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


@dataclass(frozen=True)
class Mismatch:
    """One comparison a sweep found false: a named check on a named case."""

    check: str
    case: str
    expected: object
    computed: object


def _compare(failures: list[Mismatch], check: str, case: str, expected, computed) -> None:
    if expected != computed:
        failures.append(Mismatch(check, case, expected, computed))


def suite_paper_examples() -> list[ReportRow]:
    """The showcase identities: small groups with hand-checkable values."""
    rows = []
    d8 = families.dihedral(8)
    q8 = families.generalized_quaternion(8)
    klein = families.elementary_abelian(2, 2)
    s3 = families.symmetric(3)
    z3s3 = families.direct_product([families.cyclic(3), s3])
    z6s3 = families.direct_product([families.cyclic(6), families.symmetric(3)])

    rows.append(ReportRow("phi(D8)", 2, phi(d8)))
    rows.append(ReportRow("phi(|D8|) = phi(8)", 4, euler_phi(8)))
    rows.append(ReportRow("phi(D8) < phi(|D8|)", True, phi(d8) < euler_phi(8)))
    rows.append(ReportRow("phi(Z2^2) inside D8 beats phi(D8)", True, phi(klein) > phi(d8)))
    rows.append(ReportRow("phi(Z2^2)", 3, phi(klein)))
    rows.append(ReportRow("phi(Z3xS3)", 6, phi(z3s3)))
    rows.append(ReportRow("phi(Z3xS3) = phi(18)", True, phi(z3s3) == euler_phi(18)))
    rows.append(ReportRow("phi(Q8)", 6, phi(q8)))
    rows.append(ReportRow("phi(Q8) > phi(8)", True, phi(q8) > euler_phi(8)))
    for n, expected in ((1, 1), (2, 1), (3, 0), (4, 0)):
        rows.append(ReportRow(f"phi(S{n})", expected,
                              spectrum_by_enumeration(families.symmetric(n)).phi()))
    for n, expected in ((3, 2), (4, 0), (5, 0)):
        rows.append(ReportRow(f"phi(A{n})", expected,
                              spectrum_by_enumeration(families.alternating(n)).phi()))
    rows.append(ReportRow("phi(Z2xZ4) abelian formula", cf.phi_abelian_p(2, [1, 2]),
                          phi(families.abelian([(2, [1, 2])]))))
    rows.append(ReportRow("phi(D10) dihedral formula", cf.phi_dihedral(5),
                          phi(families.dihedral(10))))
    rows.append(ReportRow("phi(D12) dihedral formula", cf.phi_dihedral(6),
                          phi(families.dihedral(12))))
    rows.append(ReportRow("aut(Z6)", 2, authom.aut_count(families.cyclic(6))))
    rows.append(ReportRow("aut(S3)", 6, authom.aut_count(s3)))
    rows.append(ReportRow("hom(S3, Z6)", 2, authom.hom_count(s3, families.cyclic(6))))
    rows.append(ReportRow("aut(Z6xS3) via product rule", 24,
                          authom.aut_product_formula(families.cyclic(6), s3)))
    rows.append(ReportRow("aut(Z6xS3) by backtracking", 24, authom.aut_count(z6s3)))
    rows.append(ReportRow("phi(Z6xS3)", 20, phi(z6s3)))
    rows.append(ReportRow("|Z6xS3| exceeds aut count", True, z6s3.order > 24))
    rows.append(ReportRow("k(Z3xS3) = |G|/exp", True, report(z3s3).eq_order_flag))
    rows.append(ReportRow("Q8 presentation attains exponent", True,
                          classc.metacyclic_in_c(4, 2, 2, 3)))
    rows.append(ReportRow("exp-embedding of S3 lands in class C", True,
                          classc.in_class_c(classc.embed_in_c(s3))))
    rows.append(ReportRow("solve phi = 2: number of groups", 5,
                          len(classc.solve_phi_eq_prime(2).specs)))
    rows.append(ReportRow("solve phi = 7: Z2^3", ("Z2^3",),
                          tuple(g.name for g in classc.solve_phi_eq_prime(7).specs)))
    m11 = families.mathieu11()
    rows.append(ReportRow("|M11|", 7920, len(list(m11.elements()))))
    rows.append(ReportRow("exp(M11)", 1320, m11.spectrum().exponent()))
    big = families.direct_product([families.cyclic(1320), m11])
    rows.append(ReportRow("phi(Z1320xM11) > phi(1320)*|M11|", True,
                          phi(big) > euler_phi(1320) * 7920))
    return rows


def abelian_sweep(bound: int) -> list[Mismatch]:
    """The abelian formula against the oracle for every type of order <= bound.

    Also phi(G) >= phi(|G|) on the oracle's phi, with equality exactly when
    each prime's largest exponent occurs once.
    """
    failures: list[Mismatch] = []
    for order, ptype in cf.abelian_types_up_to(bound):
        g = families.abelian(ptype)
        phi_g = spectrum_by_enumeration(g).phi()
        _compare(failures, "phi", g.name, cf.phi_abelian(ptype), phi_g)
        strict_top = all(len(alphas) == 1 or sorted(alphas)[-1] > sorted(alphas)[-2]
                         for _, alphas in ptype)
        classical = euler_phi(order)
        _compare(failures, "dominance", g.name, (True, strict_top),
                 (phi_g >= classical, phi_g == classical))
    return failures


def suite_abelian() -> list[ReportRow]:
    failed = {f.check for f in abelian_sweep(300)}
    rows = []
    rows.append(ReportRow("abelian formula = oracle for all types |G| <= 300", True,
                          "phi" not in failed))
    rows.append(ReportRow("phi(Z2xZ4)", 4, cf.phi_abelian_p(2, [1, 2])))
    rows.append(ReportRow("phi(Z2^3)", 7, cf.phi_abelian_p(2, [1, 1, 1])))
    rows.append(ReportRow("phi(Z2xZ4xZ9)", 24, cf.phi_abelian([(2, [1, 2]), (3, [2])])))
    rows.append(ReportRow("abelian phi(G) >= phi(|G|) up to 300", True,
                          "dominance" not in failed))
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
    rows.append(ReportRow("hamiltonian formula = oracle on six cases", True, agree_h))
    return rows


def dihedral_sweep(max_n: int) -> list[Mismatch]:
    """phi and exp of D_2n by formula against the oracle, 2 <= n <= max_n."""
    failures: list[Mismatch] = []
    groups = [families.dihedral(2 * n) for n in range(2, max_n + 1)]
    for n, g, spec in zip(range(2, max_n + 1), groups, spectra_of(groups)):
        _compare(failures, "phi", g.name, cf.phi_dihedral(n), spec.phi())
        _compare(failures, "exp", g.name, cf.exp_dihedral(n), spec.exponent())
    return failures


def p_group_sweep(bound: int) -> list[Mismatch]:
    """phi = 0 for every P(p, q, n) of order p^(n-1) q <= bound."""
    failures: list[Mismatch] = []
    groups = [families.p_group_P(*params) for params in cf.p_group_parameters(bound)]
    for g, spec in zip(groups, spectra_of(groups)):
        _compare(failures, "phi", g.name, 0, spec.phi())
    return failures


def suite_dihedral() -> list[ReportRow]:
    oracle = {(f.check, f.case): f.computed for f in dihedral_sweep(60)}
    # each row takes its own mismatch; any mismatch left fails the exponent row
    rows = [ReportRow(f"phi(D{2 * n}) formula vs oracle", cf.phi_dihedral(n),
                      oracle.pop(("phi", f"D{2 * n}"), cf.phi_dihedral(n)))
            for n in range(2, 31)]
    rows.append(ReportRow("dihedral exponent rule for n <= 60", True, not oracle))
    rows.append(ReportRow("nonabelian power-automorphism groups have phi = 0", True,
                          not p_group_sweep(21)))
    return rows


def metacyclic_sweep(max_m: int, max_n: int) -> list[Mismatch]:
    """Metacyclic formulas against the oracle, every presentation m <= max_m, n <= max_n.

    The exponent formula and the order profile against the enumerated
    spectrum, the attainment test against phi != 0, attainment wherever the
    divisibility test holds, and on the dihedral slice (n = 2, s = 0,
    r = m - 1) attainment exactly when m is even.
    """
    failures: list[Mismatch] = []
    presentations = list(cf.valid_metacyclic_presentations(max_m, max_n))
    groups = [families.metacyclic(*params) for params in presentations]
    for params, g, spec in zip(presentations, groups, spectra_of(groups)):
        attained = spec.phi() != 0
        _compare(failures, "exponent", g.name, cf.metacyclic_exponent(*params), spec.exponent())
        profile = cf.metacyclic_order_profile(*params)
        _compare(failures, "profile", g.name, profile, dict(spec.entries))
        # metacyclic_in_c on this presentation, without a second profile
        _compare(failures, "attainment", g.name, classc.attains_exponent(profile), attained)
        if cf.metacyclic_divisibility_criterion(*params):
            _compare(failures, "divisibility", g.name, True, attained)
        m, n, s, r = params
        if m >= 2 and n == 2 and s == 0 and r == m - 1:
            _compare(failures, "dihedral slice", g.name, m % 2 == 0, attained)
    return failures


def suite_metacyclic() -> list[ReportRow]:
    failed = {f.check for f in metacyclic_sweep(16, 6)}
    # the profile refines the exponent formula order by order
    return [
        ReportRow("exponent formula = oracle (m <= 16, n <= 6)", True,
                  not failed & {"exponent", "profile"}),
        ReportRow("attainment test = oracle (m <= 16, n <= 6)", True, "attainment" not in failed),
        ReportRow("divisibility test implies attainment", True, "divisibility" not in failed),
        ReportRow("dihedral slice: in C iff rotation order even", True,
                  "dihedral slice" not in failed),
        ReportRow("order of b in Q8 presentation", 4,
                  families.metacyclic(4, 2, 2, 3).element_order((1, 0))),
    ]


def cycle_type_sweep(max_n: int) -> list[Mismatch]:
    """Cycle-type engine and exponent formulas of S_n, A_n against enumeration, n <= max_n."""
    failures: list[Mismatch] = []
    for label, build, engine, exp_formula, first in (
        ("S_n", families.symmetric, cf.symmetric_order_spectrum, cf.exp_symmetric, 1),
        ("A_n", families.alternating, cf.alternating_order_spectrum, cf.exp_alternating, 2),
    ):
        for n in range(first, max_n + 1):
            g = build(n)
            spec = spectrum_by_enumeration(g)
            _compare(failures, label, f"spectrum({g.name})", dict(engine(n)), dict(spec.entries))
            _compare(failures, label, f"exp({g.name})", exp_formula(n), spec.exponent())
    return failures


def suite_symmetric() -> list[ReportRow]:
    failed = {f.check for f in cycle_type_sweep(7)}
    rows = []
    rows.append(ReportRow("phi(S_n) = 0 for 3 <= n <= 25", True,
                          all(cf.phi_symmetric(n) == 0 for n in range(3, 26))))
    rows.append(ReportRow("phi(A_n) = 0 for 4 <= n <= 25", True,
                          all(cf.phi_alternating(n) == 0 for n in range(4, 26))))
    rows.append(ReportRow("phi(S1), phi(S2)", (1, 1),
                          (cf.phi_symmetric(1), cf.phi_symmetric(2))))
    rows.append(ReportRow("phi(A2), phi(A3)", (1, 2),
                          (cf.phi_alternating(2), cf.phi_alternating(3))))
    rows.append(ReportRow("exp(S4)", 12, cf.exp_symmetric(4)))
    rows.append(ReportRow("S4 has no element of order 12", 0,
                          cf.symmetric_order_spectrum(4).get(12, 0)))
    rows.append(ReportRow("order-6 elements of S5", 20, cf.symmetric_order_spectrum(5).get(6, 0)))
    rows.append(ReportRow("cycle-type engine = enumeration for S_n, n <= 7", True,
                          "S_n" not in failed))
    rows.append(ReportRow("cycle-type engine = enumeration for A_n, n <= 7", True,
                          "A_n" not in failed))
    totals_ok = all(
        sum(cf.symmetric_order_spectrum(n).values()) == math.factorial(n)
        for n in range(1, 16)
    )
    rows.append(ReportRow("cycle-type counts sum to n! for n <= 15", True, totals_ok))
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
    rows.append(ReportRow("aut(Z_n) = phi(n) for n <= 48", True,
                          all(authom.aut_count(families.cyclic(n)) == euler_phi(n)
                              for n in range(1, 49))))
    rows.append(ReportRow("aut(Z1)", 1, authom.aut_count(families.cyclic(1))))
    rows.append(ReportRow("aut(S3)", 6, authom.aut_count(families.symmetric(3))))
    rows.append(ReportRow("hom(Z4, Z2)", 2,
                          authom.hom_count(families.cyclic(4), families.cyclic(2))))
    rows.append(ReportRow("abelian phi <= aut, equality iff cyclic (|G| <= 64)", True,
                          all(r.holds for r in abelian_phi_aut_sweep(64)[0])))
    trivial_center = all(
        phi(g) < g.order <= authom.aut_count(g)
        for g in (families.symmetric(3), families.symmetric(4),
                  families.alternating(5), families.dihedral(10))
    )
    rows.append(ReportRow("trivial center: phi < |G| <= aut", True, trivial_center))
    screen_d8 = authom.phi_aut_screen(families.dihedral(8))
    rows.append(ReportRow("D8 screened out by |G| >= exp^2", (False, False),
                          (screen_d8.cond_i, screen_d8.is_counterexample)))
    z6s3 = families.direct_product([families.cyclic(6), families.symmetric(3)])
    screen = authom.phi_aut_screen(z6s3)
    rows.append(ReportRow("Z6xS3 passes the screen but is no counterexample",
                          (True, False), (screen.cond_i, screen.is_counterexample)))
    m11 = families.mathieu11()
    big = families.direct_product([families.cyclic(1320), m11])
    screen_big = authom.phi_aut_screen(big, aut_override=euler_phi(1320) * 7920)
    rows.append(ReportRow("Z1320xM11 beats its aut count", True,
                          screen_big.is_counterexample))
    return rows


def class_c_sweep(max_order: int) -> list[Mismatch]:
    """The three class-C tests against each other on standard_catalog(max_order).

    phi != 0, lcm-closure of the element orders and the existence of a
    commuting witness must coincide, and each witness must have the
    prime-power parts of exp(G) as its orders and commute pairwise.
    """
    failures: list[Mismatch] = []
    for g in classc.standard_catalog(max_order):
        member = classc.in_class_c(g)
        _compare(failures, "sublattice", g.name, member, classc.sublattice_check(g))
        witness = commuting_witness(g)
        _compare(failures, "witness", g.name, member, witness is not None)
        if witness:
            targets = sorted(p**a for p, a in factorize(g.spectrum().exponent()).items())
            idx = g.indices(witness)
            _compare(failures, "witness orders", g.name, targets,
                     sorted(g.element_orders()[idx].tolist()))
            # table[a, b] = ab over the witness, from one batch product
            k = len(idx)
            table = g.index_product(np.repeat(idx, k), np.tile(idx, k)).reshape(k, k)
            commute = bool(np.array_equal(table, table.T))
            _compare(failures, "witness commutes", g.name, True, commute)
    return failures


def class_c_product_sweep(max_order: int, max_product: int) -> list[Mismatch]:
    """Class C closed under direct products on standard_catalog(max_order).

    Every pair of members, a group with itself included, whose orders
    multiply to at most max_product.
    """
    failures: list[Mismatch] = []
    members = [g for g in classc.standard_catalog(max_order) if classc.in_class_c(g)]
    for i, g1 in enumerate(members):
        for g2 in members[i:]:
            if g1.order * g2.order <= max_product:
                prod = families.direct_product([g1, g2])
                _compare(failures, "product", prod.name, True, classc.in_class_c(prod))
    return failures


def suite_class_c() -> list[ReportRow]:
    rows = []
    rows.append(ReportRow("phi != 0 = sublattice = witness (catalog <= 400)", True,
                          not class_c_sweep(400)))
    rows.append(ReportRow("D12 in class C", True, classc.in_class_c(families.dihedral(12))))
    rows.append(ReportRow("S3 not in class C", False,
                          classc.in_class_c(families.symmetric(3))))
    rows.append(ReportRow("A4 fails the lcm closure", False,
                          classc.sublattice_check(families.alternating(4))))
    rows.append(ReportRow("class C closed under direct products (sampled)", True,
                          not class_c_product_sweep(100, 5000)))
    for p, names in ((2, ("Z3", "Z4", "Z6", "D8", "D12")), (3, ("Z2^2",)),
                     (5, ()), (7, ("Z2^3",))):
        sol = classc.solve_phi_eq_prime(p)
        rows.append(ReportRow(f"solve phi = {p}", tuple(names),
                              tuple(g.name for g in sol.specs)))
    scan = classc.catalog_scan(2, 16)
    rows.append(ReportRow("catalog scan (target 2, bound 16): orders",
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
