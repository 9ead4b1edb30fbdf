"""Exact integer arithmetic shared by the oracle and the closed-form paths.

Everything here returns plain Python ints, so counts stay exact at any size.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} by trial division."""
    if n < 1:
        raise ValueError(f"factorize() needs a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi_from_factorization(factors: dict[int, int]) -> int:
    out = 1
    for p, a in factors.items():
        out *= p ** (a - 1) * (p - 1)
    return out


def euler_phi(n: int) -> int:
    """Classical totient: count of 1 <= k <= n coprime to n."""
    return euler_phi_from_factorization(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, a in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return sorted(divs)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return n > 1


def is_prime_power(n: int) -> bool:
    return n > 1 and len(factorize(n)) == 1


def lcm_all(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


@lru_cache(maxsize=256)
def factorial_factorization(n: int) -> Mapping[int, int]:
    """Factorization of n! via Legendre's prime-power counting (read-only)."""
    out: dict[int, int] = {}
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        a, q = 0, p
        while q <= n:
            a += n // q
            q *= p
        out[p] = a
    return MappingProxyType(out)


def multiplicative_order(a: int, m: int) -> int:
    """Least k >= 1 with a^k = 1 mod m; requires gcd(a, m) = 1."""
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    t = euler_phi(m)
    for p in factorize(t):
        while t % p == 0 and pow(a, t // p, m) == 1:
            t //= p
    return t
