"""Membership in class C (groups whose exponent is an element order).

A finite group lies in C exactly when phi(G) != 0, equivalently when its set
of element orders is closed under lcm, equivalently when pairwise-commuting
elements realize all prime-power parts of the exponent.  This module bundles
those predicates, the metacyclic criterion, the exponent-embedding trick, the
solved prime equation phi(G) = p, and a parameterized catalog sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import families
from .closedforms import metacyclic_order_profile
from .core import DirectProductGroup, Group, IntegrityError, spectra_of
from .numtheory import is_prime


def in_class_c(group: Group) -> bool:
    """True when some element attains the group exponent (phi(G) != 0)."""
    return group.spectrum().phi() != 0


def sublattice_check(group: Group) -> bool:
    """True when the element orders are closed under pairwise lcm (and so
    form a sublattice of the divisors of exp(G)), the condition equivalent
    to membership in C.  They are divisor-closed, so gcd-closure holds in
    every group; `OrderSpectrum.check` enforces it.
    """
    orders = group.spectrum().entries
    return all(math.lcm(a, b) in orders for a, b in combinations(orders, 2))


def metacyclic_in_c(m: int, n: int, s: int, r: int) -> bool:
    """Exponent attainment for <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^r>.

    Decided from the normal-form power formula alone (no enumeration).  The
    simpler divisibility test n | gcd(m, s) is sufficient but misses
    presentations where an element outside <a> attains the exponent; see
    metacyclic_divisibility_criterion.
    """
    return attains_exponent(metacyclic_order_profile(m, n, s, r))


def attains_exponent(profile) -> bool:
    """True when a profile (order -> element count) holds its own exponent.

    The exponent is the lcm of the element orders.
    """
    return math.lcm(*profile) in profile


def embed_in_c(group: Group) -> DirectProductGroup:
    """Z_exp(G) x G, which always attains its exponent via the first factor."""
    return families.direct_product([families.cyclic(group.spectrum().exponent()), group])


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of phi(G) = p up to isomorphism, for prime p."""

    kind: str          # empty | single-elementary-abelian | five-groups
    specs: tuple
    p: int


def solve_phi_eq_prime(p: int) -> SolutionSet:
    """All finite groups with exactly p maximal-order elements, p prime.

    For odd p there is a solution only when p = 2^q - 1, and it is the
    elementary abelian group Z_2^q.  For p = 2 there are five groups:
    Z_3, Z_4, Z_6, D_8 and D_12.  Every emitted group is re-verified by the
    enumeration oracle before being returned.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        specs = (
            families.cyclic(3),
            families.cyclic(4),
            families.cyclic(6),
            families.dihedral(8),
            families.dihedral(12),
        )
        kind = "five-groups"
    elif (p + 1) & p == 0:  # p + 1 is a power of two
        q = (p + 1).bit_length() - 1
        specs = (families.elementary_abelian(2, q),)
        kind = "single-elementary-abelian"
    else:
        specs = ()
        kind = "empty"
    for g in specs:
        got = g.spectrum().phi()
        if got != p:
            raise IntegrityError(f"solver emitted {g.name} with phi = {got}, wanted {p}")
    return SolutionSet(kind, specs, p)


def _spectrum_fingerprint(group: Group) -> tuple:
    return (group.order, tuple(sorted(group.spectrum().entries.items())))


@lru_cache(maxsize=8)
def scan_families(order_bound: int) -> tuple:
    """Deterministic list of constructible groups with order <= order_bound.

    The members of each row of families.FAMILIES in turn, then Z_a x G for
    a >= 2 and each nonabelian member G of a partner row (dihedral,
    quaternion, quasidihedral, P, symmetric, alternating).  No claim of
    covering all isomorphism classes is made; this is the corroboration
    catalog for catalog_scan.
    """
    groups: list[Group] = []
    partners: list[Group] = []
    for family in families.FAMILIES:
        for params in family.members(order_bound):
            g = family.build(*params)
            groups.append(g)
            if family.partner and not g.is_abelian():
                partners.append(g)
    for h in partners:
        for a in range(2, order_bound // h.order + 1):
            groups.append(families.direct_product([families.cyclic(a), h]))
    return tuple(groups)


def catalog_scan(target: int, order_bound: int) -> list[Group]:
    """Catalog groups with exactly `target` maximal-order elements.

    Returns one representative per (order, spectrum) class, sorted by
    (order, kind, name).  Distinct classes are certainly non-isomorphic;
    groups sharing a fingerprint are collapsed to the first representative.
    The first scan up to a bound computes every spectrum of
    scan_families(order_bound) through core.spectra_of, one order-engine pass
    per bucket of same-order groups of one realization; the spectra stay
    cached on the groups, and no element-order array is kept.
    """
    if target < 1 or order_bound < 1:
        raise ValueError("target and order_bound must be positive")
    groups = scan_families(order_bound)
    hits: dict[tuple, Group] = {}
    for g, spectrum in zip(groups, spectra_of(groups)):
        if spectrum.phi() == target:
            hits.setdefault(_spectrum_fingerprint(g), g)
    return sorted(hits.values(), key=lambda g: (g.order, g.kind, g.name))


@lru_cache(maxsize=4)
def standard_catalog(max_order: int) -> tuple:
    """Fixed cross-family test catalog of enumerable groups, deterministic.

    This is the population that the equivalence and comparison properties are
    exercised against, degenerate and adversarial parameter choices included.
    It holds every realization but PermutationClosureGroup and CayleyTableGroup:
    cyclic, abelian, metacyclic, P, symmetric, alternating and direct-product
    groups, the Hamiltonian ones among the last.
    """
    groups: list[Group] = []
    groups += [families.cyclic(n) for n in
               (1, 2, 3, 4, 6, 8, 9, 12, 16, 24, 30, 36, 60, 100, 128, 210, 360, 1320)]
    groups += [
        families.abelian([(2, [1, 1])]),
        families.abelian([(2, [1, 2])]),
        families.abelian([(2, [2, 2])]),
        families.abelian([(2, [1, 3])]),
        families.abelian([(2, [1, 1, 2])]),
        families.abelian([(3, [1, 1])]),
        families.abelian([(3, [1, 2])]),
        families.abelian([(5, [1, 1])]),
        families.abelian([(2, [1, 2]), (3, [2])]),
        families.abelian([(2, [1, 1]), (3, [1])]),
        families.abelian([(2, [1, 1]), (3, [1, 1])]),
        families.abelian([(2, [2, 2]), (5, [1])]),
    ]
    groups += [families.elementary_abelian(2, k) for k in range(1, 8)]
    groups += [families.elementary_abelian(3, k) for k in range(1, 5)]
    groups += [families.elementary_abelian(5, k) for k in range(1, 4)]
    groups += [families.elementary_abelian(7, 2)]
    groups += [families.dihedral(k) for k in
               (4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 30, 36, 50, 60, 100, 120, 200)]
    groups += [families.generalized_quaternion(k) for k in (8, 16, 32, 64)]
    groups += [families.quasidihedral(k) for k in (16, 32, 64)]
    groups += [
        families.metacyclic(4, 2, 2, 3),
        families.metacyclic(8, 4, 0, 3),
        families.metacyclic(9, 3, 0, 4),
        families.metacyclic(5, 4, 0, 2),
        families.metacyclic(7, 3, 0, 2),
        families.metacyclic(8, 2, 4, 3),
        families.metacyclic(8, 4, 2, 5),
        families.metacyclic(16, 4, 8, 3),
        families.metacyclic(3, 6, 0, 2),
        families.metacyclic(12, 2, 6, 5),
        families.metacyclic(2, 3, 0, 1),
        families.metacyclic(21, 6, 7, 4),
    ]
    groups += [
        families.p_group_P(3, 2, 2),
        families.p_group_P(3, 2, 3),
        families.p_group_P(3, 2, 4),
        families.p_group_P(5, 2, 2),
        families.p_group_P(5, 2, 3),
        families.p_group_P(7, 3, 2),
        families.p_group_P(7, 3, 3),
        families.p_group_P(13, 3, 2),
    ]
    groups += [families.symmetric(n) for n in range(1, 7)]
    groups += [families.alternating(n) for n in range(2, 7)]
    groups += [
        families.hamiltonian(0, families.cyclic(1)),
        families.hamiltonian(1, families.cyclic(1)),
        families.hamiltonian(2, families.cyclic(1)),
        families.hamiltonian(3, families.cyclic(1)),
        families.hamiltonian(0, families.cyclic(3)),
        families.hamiltonian(0, families.cyclic(9)),
        families.hamiltonian(1, families.cyclic(3)),
        families.hamiltonian(0, families.abelian([(3, [1, 1])])),
    ]
    groups += [
        families.direct_product([families.cyclic(2), families.symmetric(3)]),
        families.direct_product([families.cyclic(3), families.symmetric(3)]),
        families.direct_product([families.cyclic(4), families.symmetric(3)]),
        families.direct_product([families.cyclic(6), families.symmetric(3)]),
        families.direct_product([families.cyclic(12), families.symmetric(3)]),
        families.direct_product([families.cyclic(2), families.alternating(4)]),
        families.direct_product([families.cyclic(3), families.alternating(4)]),
        families.direct_product([families.cyclic(6), families.alternating(4)]),
        families.direct_product([families.cyclic(5), families.metacyclic(5, 4, 0, 2)]),
        families.direct_product([families.cyclic(30), families.alternating(5)]),
        families.direct_product([families.symmetric(3), families.symmetric(3)]),
        families.direct_product([families.dihedral(8), families.generalized_quaternion(8)]),
        families.direct_product([families.symmetric(4), families.symmetric(3)]),
    ]
    kept = [g for g in groups if g.order <= max_order]
    return tuple(sorted(kept, key=lambda g: (g.order, g.kind, g.name)))
