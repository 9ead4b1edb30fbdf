"""Constructors for the group families the library knows how to realize, and
FAMILIES, one row per family for the grammar in cli and the catalog in classc."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, takewhile
from typing import Callable, Iterable

from . import closedforms as cf
from .core import (
    AbelianGroup,
    AlternatingGroup,
    CyclicGroup,
    DirectProductGroup,
    Group,
    IntegrityError,
    MetacyclicGroup,
    PermutationClosureGroup,
    PGroupP,
    SymmetricGroup,
)
from .numtheory import factorize, is_prime

# An 11-cycle plus a double 4-cycle generate the smallest sporadic Mathieu
# group; the closure-size guard below catches any transcription slip.
MATHIEU11_ORDER = 7920
_M11_GEN_A = tuple((i + 1) % 11 for i in range(11))
_M11_GEN_B = (0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7)  # (2 6 10 7)(3 9 4 5)

# A family whose constructor would only call its realization is that class.
cyclic = CyclicGroup
abelian = AbelianGroup
metacyclic = MetacyclicGroup
p_group_P = PGroupP
symmetric = SymmetricGroup
alternating = AlternatingGroup
direct_product = DirectProductGroup


def elementary_abelian(p: int, n: int) -> AbelianGroup:
    """Z_p^n for a prime p."""
    if n < 1:
        raise ValueError(f"elementary abelian rank must be >= 1, got {n}")
    return AbelianGroup([(p, [1] * n)], kind="elementary-abelian", name=f"Z{p}^{n}")


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
    return DirectProductGroup(factors, kind="hamiltonian")


@lru_cache(maxsize=1)
def mathieu11() -> PermutationClosureGroup:
    """The Mathieu group on 11 points, order 7920, from two generators."""
    group = PermutationClosureGroup([_M11_GEN_A, _M11_GEN_B], kind="mathieu11", name="M11")
    if group.order != MATHIEU11_ORDER:
        raise IntegrityError(f"closure of M11 has {group.order} elements, "
                             f"declared order is {MATHIEU11_ORDER}")
    return group


class ExpressionError(ValueError):
    """A group expression that names no group."""


def _power_of_cyclic(base: int, k: int) -> Group:
    """Z_base^k as an abelian group, so its spectrum is subject to the cap."""
    if base < 1 or k < 1:
        raise ValueError(f"need a base and a power >= 1, got Z{base}^{k}")
    if base == 1:
        return cyclic(1)
    if is_prime(base):
        return elementary_abelian(base, k)
    return AbelianGroup([(p, [a] * k) for p, a in factorize(base).items()],
                        name=f"Z{base}^{k}")


def _abelian_type(m: re.Match) -> tuple:
    """The arguments of abelian from the body of Ab(2:1,2;3:1)."""
    ptype = []
    for chunk in m[1].split(";"):
        if ":" not in chunk:
            raise ExpressionError(f"bad abelian chunk {chunk!r}; want p:a1,a2,...")
        p_str, exps = chunk.split(":", 1)
        ptype.append((int(p_str), [int(a) for a in exps.split(",")]))
    return (ptype,)


def _scaled(log10: float) -> int:
    """A base-10 logarithm as an integer in units of 2^-64.

    A size multiplies it by its parameters exactly, so a parameter beyond
    float range, as in Z3^(10^400), still gives a digit count.
    """
    return round(log10 * 2**64)


def _scaled_log10_factorial(n: int, divisor: int) -> int:
    """log10(n! / divisor) in the units of _scaled.

    From lgamma while its result fits a float; beyond that, from the integer
    lower bound (n // 2)^(n // 2) <= n!, whose digit count is still far
    beyond anything Python prints.
    """
    try:
        return _scaled((math.lgamma(n + 1) - math.log(divisor)) / math.log(10))
    except OverflowError:
        return (n // 2) * _scaled(math.log10(n // 2)) - _scaled(math.log10(divisor))


def _form(pattern: str) -> re.Pattern:
    """A factor form, matched against a whole token; \\d is an ASCII digit."""
    return re.compile(pattern, re.ASCII)


def _upto(bound: int, values, order=lambda n: n):
    """(n,) for each n of the increasing values while order(n) <= bound."""
    return ((n,) for n in takewhile(lambda n: order(n) <= bound, values))


@dataclass(frozen=True)
class Family:
    """One family.  The grammar fullmatches a factor against pattern (None:
    no form) and builds build(*params(match)); where log10_order is set, it
    first refuses an order too long to print, from log10 |G| in units of
    2^-64 (see _scaled), so Z2^(10^11) never exhausts memory.  The catalog
    builds build(*p) for each p of members(bound), then Z_a x G for each
    nonabelian member G of a partner family."""

    pattern: re.Pattern | None
    build: Callable[..., Group]
    members: Callable[[int], Iterable[tuple]] = lambda bound: ()
    params: Callable[[re.Match], tuple] = lambda m: tuple(map(int, m.groups()))
    log10_order: Callable[..., int] | None = None
    partner: bool = False


# In catalog order; Z<b>^<k> has no members, for Ab holds its groups.  A size
# guard lets a zero base or P parameters below 2 through to the constructor.
FAMILIES = (
    Family(_form(r"Z(\d+)"), cyclic, lambda b: _upto(b, count(1))),
    Family(_form(r"Z(\d+)\^(\d+)"), _power_of_cyclic,
           log10_order=lambda base, k: k * _scaled(math.log10(base)) if base else 0),
    # only primes count: the constructor rejects any other p
    Family(_form(r"Ab\(([0-9:,;]+)\)"), abelian,
           lambda b: ((ptype,) for _, ptype in cf.abelian_types_up_to(b)), params=_abelian_type,
           log10_order=lambda ptype: sum(sum(alphas) * _scaled(math.log10(p))
                                         for p, alphas in ptype if is_prime(p))),
    Family(_form(r"D(\d+)"), dihedral, lambda b: _upto(b, count(4, 2)), partner=True),
    Family(_form(r"Q(\d+)"), generalized_quaternion,
           lambda b: _upto(b, (8 << k for k in count())), partner=True),
    Family(_form(r"SD(\d+)"), quasidihedral,
           lambda b: _upto(b, (16 << k for k in count())), partner=True),
    Family(_form(r"MC\((\d+),(\d+),(\d+),(\d+)\)"), metacyclic,
           lambda b: (params for m in range(1, b + 1)
                      for params in cf._metacyclic_presentations_of(m, b // m))),
    Family(_form(r"P\((\d+),(\d+),(\d+)\)"), p_group_P, cf.p_group_parameters,
           log10_order=lambda p, q, n: (n - 1) * _scaled(math.log10(p or 1))
           + _scaled(math.log10(q or 1)), partner=True),
    Family(_form(r"S(\d+)"), symmetric, lambda b: _upto(b, count(1), math.factorial),
           log10_order=lambda n: _scaled_log10_factorial(n, 1), partner=True),
    Family(_form(r"A(\d+)"), alternating,
           lambda b: _upto(b, count(2), lambda n: math.factorial(n) // 2),
           log10_order=lambda n: _scaled_log10_factorial(n, 2), partner=True),
    Family(None, hamiltonian, lambda b: ((rank, abelian(odd) if odd else cyclic(1))
                                         for rank, odd in cf.hamiltonian_types_up_to(b))),
    Family(_form(r"M11"), mathieu11, lambda b: [()] if b >= MATHIEU11_ORDER else []),
)
