"""Exact integer arithmetic shared by the oracle and the closed-form paths.

Everything here returns plain Python ints, so counts stay exact at any size.
"""

from __future__ import annotations

import math

TRIAL_DIVISION_LIMIT = 10**6
# psi_13, the least odd composite that passes the Miller-Rabin test for each
# of the 13 primes up to 41 (Sorenson & Webster, Math. Comp. 86, 2017)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} by trial division up to 10^6; a
    cofactor left above 10^12 must be prime, or ResourceLimitError is raised."""
    if n < 1:
        raise ValueError(f"factorize() needs a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > TRIAL_DIVISION_LIMIT**2 and not is_prime(n):
        from .core import ResourceLimitError  # core imports this module
        raise ResourceLimitError(f"cannot factorize {n}: it is composite, with no prime "
                                 f"factor up to {TRIAL_DIVISION_LIMIT}")
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
    """n in decimal, or its digit count once n reaches 2^10000.

    2^10000 has 3,011 digits, so every n of at most 3,010 digits prints in
    full and every n of 3,012 or more shows its count.  The cut is on the bit
    length, which costs nothing to read, and sits below Python's default
    limit on int-to-str conversion (4,300 digits, about 14,284 bits), so
    ``str(n)`` is never refused.
    """
    return str(n) if n.bit_length() <= 10_000 else f"a {decimal_digits(n)}-digit number"


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, a in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return sorted(divs)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test over the primes up to 41, exact below
    MILLER_RABIN_BOUND; larger n raise ResourceLimitError."""
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return n > 1
    if n >= MILLER_RABIN_BOUND:
        from .core import ResourceLimitError  # core imports this module
        raise ResourceLimitError(
            f"primality of {size_text(n)} is only decided below {MILLER_RABIN_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

