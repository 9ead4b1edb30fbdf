"""Exact integer arithmetic shared by the oracle and the closed-form paths.

Everything here returns plain Python ints, so counts stay exact at any size.
"""

from __future__ import annotations

import math


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


def decimal_digits(n: int) -> int:
    """Number of decimal digits of n >= 1, without converting n to a string."""
    # 2^(bits-1) <= n < 2^bits, and doubling adds at most one digit
    d = int((n.bit_length() - 1) * math.log10(2)) + 1
    return d + (n >= 10**d)


def size_text(n: int) -> str:
    """n in decimal, or its digit count past Python's print limit (4300 by default)."""
    return str(n) if n.bit_length() <= 10_000 else f"a {decimal_digits(n)}-digit number"


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


def metacyclic_parameters(m: int, n: int, s: int, r: int) -> tuple[int, int, int, int]:
    """(m, n, s mod m, r mod m) for <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^r>.

    The presentation is consistent (and its normal-form product associative)
    exactly when gcd(m, r) = 1, r^n = 1 mod m and s(r - 1) = 0 mod m; anything
    else raises ValueError.
    """
    if m < 1 or n < 1:
        raise ValueError(f"metacyclic m, n must be >= 1, got ({m}, {n})")
    s %= m
    r %= m
    if math.gcd(m, r) != 1:
        raise ValueError(f"metacyclic needs gcd(m, r) = 1, got gcd({m}, {r})")
    if pow(r, n, m) != 1 % m:
        raise ValueError(f"metacyclic needs r^n = 1 mod m: {r}^{n} != 1 mod {m}")
    if (s * (r - 1)) % m != 0:
        raise ValueError(
            f"metacyclic needs s(r-1) = 0 mod m for associativity: "
            f"({m}, {n}, {s}, {r}) rejected"
        )
    return m, n, s, r

