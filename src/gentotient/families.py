"""Constructors for the group families the library knows how to realize."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .core import (
    AbelianGroup,
    AlternatingGroup,
    CyclicGroup,
    DirectProductGroup,
    Group,
    MetacyclicGroup,
    PermutationClosureGroup,
    PGroupP,
    SymmetricGroup,
)
# An 11-cycle plus a double 4-cycle generate the smallest sporadic Mathieu
# group; the closure-size guard below catches any transcription slip.
MATHIEU11_ORDER = 7920
_M11_GEN_A = tuple((i + 1) % 11 for i in range(11))
_M11_GEN_B = (0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7)  # (2 6 10 7)(3 9 4 5)


def cyclic(n: int) -> CyclicGroup:
    """Z_n, residues under addition mod n."""
    return CyclicGroup(n)


def abelian(primary_type: Sequence[tuple[int, Sequence[int]]]) -> AbelianGroup:
    """Abelian group from its primary decomposition.

    ``abelian([(2, [1, 2]), (3, [1])])`` is Z_2 x Z_4 x Z_3.  Exponent lists
    are normalized to be nondecreasing per prime.
    """
    return AbelianGroup(primary_type)


def elementary_abelian(p: int, n: int) -> AbelianGroup:
    """Z_p^n for a prime p."""
    if n < 1:
        raise ValueError(f"elementary abelian rank must be >= 1, got {n}")
    return AbelianGroup([(p, [1] * n)], kind="elementary-abelian", name=f"Z{p}^{n}")


def metacyclic(m: int, n: int, s: int, r: int) -> MetacyclicGroup:
    """<a, b | a^m = 1, b^n = a^s, b^-1 a b = a^r>; see MetacyclicGroup."""
    return MetacyclicGroup(m, n, s, r)


def dihedral(two_n: int) -> MetacyclicGroup:
    """Dihedral group of order two_n: rotations a, reflection b inverting a."""
    if two_n < 4 or two_n % 2 != 0:
        raise ValueError(f"dihedral order must be an even integer >= 4, got {two_n}")
    n = two_n // 2
    return MetacyclicGroup(n, 2, 0, n - 1, kind="dihedral", name=f"D{two_n}")


def generalized_quaternion(order: int) -> MetacyclicGroup:
    """Q_2^k for order 2^k >= 8: b^2 = a^(2^(k-2)), b inverts a."""
    if order < 8 or order & (order - 1):
        raise ValueError(f"generalized quaternion order must be 2^k >= 8, got {order}")
    m = order // 2
    return MetacyclicGroup(m, 2, m // 2, m - 1, kind="generalized-quaternion",
                           name=f"Q{order}")


def quasidihedral(order: int) -> MetacyclicGroup:
    """SD_2^k for order 2^k >= 16: split, b conjugates a to a^(2^(k-2) - 1)."""
    if order < 16 or order & (order - 1):
        raise ValueError(f"quasidihedral order must be 2^k >= 16, got {order}")
    m = order // 2
    return MetacyclicGroup(m, 2, 0, order // 4 - 1, kind="quasidihedral",
                           name=f"SD{order}")


def hamiltonian(n: int, odd_abelian: Group) -> DirectProductGroup:
    """Q_8 x Z_2^n x A with A abelian of odd order.

    Every nonabelian group all of whose subgroups are normal has this shape.
    The odd-order restriction on A is enforced rather than silently fixed by
    reassociating even parts into the other factors.
    """
    if n < 0:
        raise ValueError(f"elementary-abelian rank must be >= 0, got {n}")
    if not odd_abelian.is_abelian():
        raise ValueError(f"{odd_abelian.name} is not abelian")
    if odd_abelian.order % 2 == 0:
        raise ValueError(f"|A| must be odd, got {odd_abelian.order}")
    factors: list[Group] = [generalized_quaternion(8)]
    if n > 0:
        factors.append(elementary_abelian(2, n))
    if odd_abelian.order > 1:
        factors.append(odd_abelian)
    name = "Q8" + (f"xZ2^{n}" if n else "") + (
        f"x{odd_abelian.name}" if odd_abelian.order > 1 else ""
    )
    return DirectProductGroup(factors, kind="hamiltonian", name=name)


def p_group_P(p: int, q: int, n: int) -> PGroupP:
    """Nonabelian Z_p^(n-1) : Z_q with a power automorphism; q | p - 1."""
    return PGroupP(p, q, n)


def symmetric(n: int) -> SymmetricGroup:
    return SymmetricGroup(n)


def alternating(n: int) -> AlternatingGroup:
    return AlternatingGroup(n)


@lru_cache(maxsize=1)
def mathieu11() -> PermutationClosureGroup:
    """The Mathieu group on 11 points, order 7920, from two generators."""
    group = PermutationClosureGroup(
        [_M11_GEN_A, _M11_GEN_B],
        expected_order=MATHIEU11_ORDER,
        kind="mathieu11",
        name="M11",
    )
    group.closure()  # force the order-7920 integrity check now
    return group


def direct_product(factors: Sequence[Group]) -> DirectProductGroup:
    """Direct product with component-wise arithmetic."""
    return DirectProductGroup(factors)
