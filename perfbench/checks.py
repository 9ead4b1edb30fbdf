"""Correctness gate: reference values and invariants for every benchmark answer.

The comparison helpers return ``None`` when the answer is right and a short
message naming the mismatch otherwise; the harness counts every message
towards ``error_rate``.  Reference values come from ``closedforms`` where the
library has a formula, from classical formulas written out here where it does
not, and from invariants that hold in every finite group otherwise.
"""

from __future__ import annotations

import math
from typing import Optional

from gentotient.numtheory import divisors, euler_phi

# Order spectrum of the Mathieu group M11 (ATLAS class sizes, merged by order).
M11_SPECTRUM = {1: 1, 2: 165, 3: 440, 4: 990, 5: 1584, 6: 1320, 8: 1980, 11: 1440}

# Abelian types of order <= 128 whose automorphism search the caps in
# ``authom`` refuse, as acceptance criterion 9 pins them.  No nonabelian
# group the benchmark counts is refused, so a refusal there is a failure.
REFUSED_ABELIAN = frozenset({
    "Z2xZ2xZ2xZ16", "Z2xZ2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2xZ2",
    "Z2xZ2xZ2xZ2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2xZ3", "Z2xZ2xZ2xZ2xZ2xZ4",
    "Z2xZ2xZ2xZ2xZ4", "Z2xZ2xZ2xZ2xZ8", "Z2xZ2xZ2xZ4xZ4", "Z2xZ2xZ4xZ4",
    "Z2xZ2xZ4xZ8", "Z2xZ4xZ4xZ4", "Z3xZ3xZ3xZ3", "Z5xZ5xZ5",
})


def failure(result, what: str) -> Optional[str]:
    """Message for an operation that raised where it should have answered."""
    if isinstance(result, BaseException):
        return f"{what}: unexpected {type(result).__name__}: {result}"
    return None


def compare(got, want, what: str) -> Optional[str]:
    if got != want:
        return f"{what}: got {got!r}, expected {want!r}"
    return None


def first_error(*messages) -> Optional[str]:
    return next((m for m in messages if m), None)


def exponent_of(entries: dict) -> int:
    return math.lcm(*entries)


def spectrum_invariants(entries: dict, order: int) -> Optional[str]:
    """Facts every finite group's order spectrum satisfies."""
    total = sum(entries.values())
    if total != order:
        return f"spectrum counts sum to {total}, |G| = {order}"
    if entries.get(1) != 1:
        return f"spectrum has {entries.get(1, 0)} identities"
    exp = exponent_of(entries)
    phi = entries.get(exp, 0)
    if phi % euler_phi(exp):
        return f"phi(exp G) = {euler_phi(exp)} does not divide phi(G) = {phi}"
    if order % exp:
        return f"exp(G) = {exp} does not divide |G| = {order}"
    return None


def convolve(a: dict, b: dict) -> dict:
    """Order spectrum of a direct product from its factors' spectra."""
    out: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = math.lcm(d1, d2)
            out[d] = out.get(d, 0) + c1 * c2
    return out


def product_spectrum(spectra) -> dict:
    out = {1: 1}
    for s in spectra:
        out = convolve(out, s)
    return out


def cyclic_spectrum(n: int) -> dict:
    """Z_n has phi(d) elements of each order d dividing n."""
    return {d: euler_phi(d) for d in divisors(n)}


def abelian_spectrum(moduli) -> dict:
    return product_spectrum(cyclic_spectrum(m) for m in moduli)


def elements_dividing(entries: dict, m: int) -> int:
    """#{h : h^m = 1}, which is |Hom(Z_m, H)|."""
    return sum(c for d, c in entries.items() if m % d == 0)


def hom_to_cyclic(abelianization, k: int) -> int:
    """|Hom(G, Z_k)| from the invariants of G/[G, G]."""
    return math.prod(math.gcd(m, k) for m in abelianization)


def aut_abelian_p(p: int, exps) -> int:
    """|Aut(Z_p^e1 x ... x Z_p^en)|, e1 <= ... <= en (Hillar and Rhea, 2007)."""
    e = sorted(exps)
    n = len(e)
    d = [max(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    c = [min(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    out = 1
    for k in range(n):
        out *= p ** d[k] - p ** k
    for j in range(n):
        out *= p ** (e[j] * (n - d[j]))
    for i in range(n):
        out *= p ** ((e[i] - 1) * (n - c[i] + 1))
    return out


def aut_abelian(primary_type) -> int:
    return math.prod(aut_abelian_p(p, exps) for p, exps in primary_type)


def gl_order(n: int, p: int) -> int:
    return math.prod(p**n - p**k for k in range(n))


def check_spectrum(entries: dict, order: int, want: Optional[dict] = None) -> Optional[str]:
    """Invariants always; exact equality when a reference spectrum exists."""
    return first_error(
        spectrum_invariants(entries, order),
        compare(entries, want, "spectrum") if want is not None else None,
    )


def p_group_spectrum(p: int, q: int, n: int) -> dict:
    """Z_p^(n-1) : Z_q with a fixed-point-free power automorphism.

    Every element outside the normal subgroup has order q, because the
    geometric sum of a nontrivial q-th root of unity mod p vanishes.
    """
    base = p ** (n - 1)
    return {1: 1, p: base - 1, q: base * (q - 1)}


def metacyclic_product(m: int, n: int, s: int, r: int):
    """Normal-form product (i, j)(k, l) = b^i a^j b^k a^l, computed here."""
    rpow = [pow(r, k, m) for k in range(n)]

    def mul(x, y):
        i, j = x
        k, l = y
        t = i + k
        wrap = s if t >= n else 0
        return (t % n, (j * rpow[k] + l + wrap) % m)

    return mul


def metacyclic_center_size(m: int, n: int, s: int, r: int) -> int:
    """|Z(G)|: normal-form elements commuting with both generators a and b."""
    mul = metacyclic_product(m, n, s, r)
    gens = ((0, 1 % m), (1 % n, 0))
    return sum(
        1
        for i in range(n)
        for j in range(m)
        if all(mul((i, j), g) == mul(g, (i, j)) for g in gens)
    )
