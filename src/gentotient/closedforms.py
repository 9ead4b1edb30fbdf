"""Closed-form counts of maximal-order elements, independent of enumeration.

Nothing in this module multiplies group elements.  The formulas work from
integer parameters alone, so each one can be cross-checked against the
enumeration oracle in :mod:`gentotient.core`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .numtheory import euler_phi, factorize, is_prime, metacyclic_parameters


# ---------------------------------------------------------------------------
# integer partitions and the cycle-type engine
# ---------------------------------------------------------------------------


def _partition_tuples(n: int, max_part: int = None) -> Iterator[tuple]:
    """Partitions of n as nonincreasing tuples, reverse-lexicographic order.

    Streamed, never materialized.  The abelian types come from these; the
    S_n/A_n spectra count over element orders instead (p(40) = 37338
    partitions against 495 orders), and the tests sum over these partitions
    as the reference for that count.
    """
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def _element_orders_symmetric(n: int) -> list[int]:
    """Orders of the elements of S_n: the d whose prime-power parts sum to <= n.

    A permutation of order d needs a cycle for each prime-power part of d, so
    the set is closed under divisors.
    """
    support = {1: 0}  # order -> points its prime-power cycles take
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        grown = dict(support)
        q = p
        while q <= n:
            for d, used in support.items():
                if used + q <= n:
                    grown[d * q] = used + q
            q *= p
        support = grown
    return sorted(support)


def _solution_count(n: int, cycle_lengths: list[int], ways: list[list[int]]) -> int:
    """a(n) for a(m) = sum over k in cycle_lengths, k <= m, of ways[m][k] a(m-k).

    With ways[m][k] = (m-1)!/(m-k)!, the k-cycles through point m, a(n) counts
    the permutations of n points whose cycle lengths are all in cycle_lengths
    (Chowla, Herstein & Moore 1951).
    """
    a = [1]
    for m in range(1, n + 1):
        row = ways[m]
        total = 0
        for k in cycle_lengths:
            if k > m:
                break
            total += row[k] * a[m - k]
        a.append(total)
    return a[n]


def _cycle_order_spectrum(n: int, even_only: bool) -> dict[int, int]:
    """Element count per order in S_n, or in A_n when even_only is set.

    For each element order d, the recurrence counts the solutions of x^d = 1;
    Moebius inversion over the primes of d leaves the elements of order d.
    In A_n the count is (plain + signed) / 2, where the signed pass weighs each
    k-cycle by its sign (-1)^(k-1).
    """
    ways = [[0] * (m + 1) for m in range(n + 1)]
    for m in range(1, n + 1):
        row = ways[m]
        row[1] = 1
        for k in range(2, m + 1):
            row[k] = row[k - 1] * (m - k + 1)
    signed = [[-w if k % 2 == 0 else w for k, w in enumerate(row)] for row in ways]
    solutions: dict[int, int] = {}
    for d in _element_orders_symmetric(n):
        cycle_lengths = [k for k in range(1, n + 1) if d % k == 0]
        count = _solution_count(n, cycle_lengths, ways)
        # an odd d has odd cycles only, and those are all even permutations
        if even_only and d % 2 == 0:
            count = (count + _solution_count(n, cycle_lengths, signed)) // 2
        solutions[d] = count
    out: dict[int, int] = {}
    for d in solutions:
        primes = list(factorize(d))
        exact = sum((-1) ** r * solutions[d // math.prod(dropped)]
                    for r in range(len(primes) + 1)
                    for dropped in combinations(primes, r))
        if exact:
            out[d] = exact
    return out


# degrees up to core.PARTITION_ENGINE_LIMIT = 40 all fit in each cache
@lru_cache(maxsize=64)
def symmetric_order_spectrum(n: int) -> Mapping[int, int]:
    """Element count per order in S_n (read-only)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return MappingProxyType(_cycle_order_spectrum(n, even_only=False))


@lru_cache(maxsize=64)
def alternating_order_spectrum(n: int) -> Mapping[int, int]:
    """Element count per order in A_n (read-only)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return MappingProxyType(_cycle_order_spectrum(n, even_only=True))


def exp_symmetric(n: int) -> int:
    """Exponent of S_n: lcm(1, 2, ..., n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.lcm(*range(1, n + 1))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def exp_alternating(n: int) -> int:
    """Exponent of A_n.

    Odd parts agree with exp(S_n); the 2-part drops by one exactly when
    n is a power of two or one more than a power of two.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    e = exp_symmetric(n)
    if _is_power_of_two(n) or _is_power_of_two(n - 1):
        return e // 2
    return e


def phi_symmetric(n: int) -> int:
    """Maximal-order element count in S_n; 0 for every n >= 3."""
    return symmetric_order_spectrum(n).get(exp_symmetric(n), 0)


def phi_alternating(n: int) -> int:
    """Maximal-order element count in A_n; 0 for every n >= 4."""
    return alternating_order_spectrum(n).get(exp_alternating(n), 0)


# ---------------------------------------------------------------------------
# abelian, hamiltonian and dihedral formulas
# ---------------------------------------------------------------------------


def phi_abelian_p(p: int, alphas: Sequence[int]) -> int:
    """Maximal-order element count in Z_(p^a1) x ... x Z_(p^ar), a1 <= ... <= ar.

    With s the first position where the maximal exponent begins, the count is
    |G| * (1 - 1/p^(r-s+1)): an element attains order p^(ar) exactly when at
    least one of the r-s+1 top coordinates is a unit.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    alphas = list(alphas)
    if not alphas:
        raise ValueError("empty exponent list")
    if alphas != sorted(alphas) or alphas[0] < 1:
        raise ValueError(f"exponents must be nondecreasing positive: {alphas}")
    r = len(alphas)
    s = alphas.index(alphas[-1]) + 1  # 1-based start of the top block
    size = p ** sum(alphas)
    top = p ** (r - s + 1)
    return size // top * (top - 1)


def phi_abelian(primary_type: Sequence[tuple[int, Sequence[int]]]) -> int:
    """Maximal-order element count of an abelian group, one factor per prime."""
    out = 1
    seen = set()
    for p, alphas in primary_type:
        if p in seen:
            raise ValueError(f"prime {p} listed twice")
        seen.add(p)
        out *= phi_abelian_p(p, sorted(alphas))
    return out


def phi_hamiltonian(n: int, odd_type: Sequence[tuple[int, Sequence[int]]]) -> int:
    """Maximal-order element count of Q_8 x Z_2^n x A: 3 * 2^(n+1) * phi(A)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    phi_a = phi_abelian(odd_type) if odd_type else 1
    for p, _ in odd_type:
        if p == 2:
            raise ValueError("A must have odd order")
    return 3 * 2 ** (n + 1) * phi_a


def phi_dihedral(n: int) -> int:
    """Maximal-order element count of the dihedral group of order 2n.

    For n >= 3 the rotation subgroup is the unique cyclic subgroup of order n
    and everything outside it is an involution, giving 0 for odd n and phi(n)
    for even n.  n = 2 is the Klein four-group, where all three involutions
    attain the exponent.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return 3
    if n % 2 == 1:
        return 0
    return euler_phi(n)


def exp_dihedral(n: int) -> int:
    """Exponent of the dihedral group of order 2n: 2n for odd n, n for even."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 2 * n if n % 2 == 1 else n


# ---------------------------------------------------------------------------
# metacyclic formulas (power-formula based, no group arithmetic)
# ---------------------------------------------------------------------------


def metacyclic_exponent(m: int, n: int, s: int, r: int) -> int:
    """Exponent of <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^r>.

    b has order m*n/gcd(m, s), and the exponent is lcm(o(a), o(b)) =
    (m/gcd(m, s)) * lcm(gcd(m, s), n).  The split case s = 0 reduces to
    lcm(m, n) since gcd(m, 0) = m.
    """
    m, n, s, r = metacyclic_parameters(m, n, s, r)
    g = math.gcd(m, s)
    return (m // g) * math.lcm(g, n)


def metacyclic_order_profile(m: int, n: int, s: int, r: int) -> dict[int, int]:
    """Element count per order from the normal-form power formula.

    For x = b^i a^j with u = n/gcd(i, n) and q = i/gcd(i, n):
    x^u = a^(s*q + j*(1 + r^i + ... + r^(i(u-1)))), so
    o(x) = u * m / gcd(m, w) with w = s*q + j*S mod m and S the geometric
    sum mod m.  On the coset b^i, as j runs over Z_m, j*S runs over the
    multiples of g = gcd(S, m), each g times, so w runs over the residues
    w = w0 (mod g), w0 = s*q, each exactly g times.  The coset's profile is
    therefore g times the histogram of gcd(w, m) over those m/g residues.
    That histogram depends only on (m, g, w0 mod g); _residue_orders
    tabulates it in a bounded memo, by a walk of the m/g residues.  In
    closed form, the number of those residues with gcd(w, m) = e is the
    Moebius count
    sum over f | m/e of mu(f) * [gcd(g, e*f) | w0] * m / lcm(g, e*f).
    Pure integer arithmetic; no group elements are multiplied.  Each call
    returns a new dict.
    """
    m, n, s, r = metacyclic_parameters(m, n, s, r)
    counts: dict[int, int] = {}
    for i in range(n):
        g = math.gcd(i, n)
        u = n // g
        q = i // g
        ri = pow(r, i, m) if m > 1 else 0
        total, term = 0, 1 % m
        for _ in range(u):
            total = (total + term) % m
            term = (term * ri) % m
        step = math.gcd(total, m)
        pairs = iter(_residue_orders(m, step, s * q % step))
        for order, residues in zip(pairs, pairs):
            d = u * order
            counts[d] = counts.get(d, 0) + step * residues
    return counts


@lru_cache(maxsize=4096)
def _residue_orders(m: int, g: int, c: int) -> tuple:
    """(m / gcd(w, m), count) over the residues 0 <= w < m with w = c (mod g).

    g divides m, so there are m/g of them.  The order of a^w is m/gcd(w, m),
    so these pairs are the histogram of gcd(w, m) keyed by that order.  They
    come as one flat tuple (order, count, order, count, ...), which holds
    fewer long-lived objects than a tuple of pairs.  The 13,148
    presentations with m <= 40, n <= 12 need 579 keys.
    """
    hist: dict[int, int] = {}
    for w in range(c, m, g):
        order = m // math.gcd(w, m)
        hist[order] = hist.get(order, 0) + 1
    return tuple(x for pair in hist.items() for x in pair)


def metacyclic_divisibility_criterion(m: int, n: int, s: int, r: int) -> bool:
    """The divisibility test n | gcd(m, s); split case reads n | m.

    Sufficient for exponent attainment: it forces exp(G) = m, attained by a.
    Not necessary in general, e.g. (m, n, s, r) = (8, 4, 2, 5) where b itself
    has order 16 = exp(G) while gcd(8, 2) = 2 is not divisible by 4.
    """
    m, n, s, r = metacyclic_parameters(m, n, s, r)
    return math.gcd(m, s) % n == 0


# ---------------------------------------------------------------------------
# helpers used by sweeps
# ---------------------------------------------------------------------------


def abelian_types_up_to(bound: int):
    """Every abelian primary type with group order <= bound, deterministically.

    Yields (order, type) pairs; the trivial group is skipped.
    """
    for n in range(2, bound + 1):
        per_prime = []
        for p, a in sorted(factorize(n).items()):
            per_prime.append((p, [list(t) for t in _partition_tuples(a)]))
        combos = [[]]
        for p, parts_list in per_prime:
            combos = [
                c + [(p, sorted(parts))] for c in combos for parts in parts_list
            ]
        for combo in combos:
            yield n, combo


def hamiltonian_types_up_to(bound: int):
    """Every (n, A) with |Q_8 x Z_2^n x A| <= bound, A abelian of odd order.

    Yields (n, odd type) pairs, rank by rank; the trivial A, type [], comes
    first in each rank.
    """
    rank = 0
    while 8 * 2**rank <= bound:
        yield rank, []
        for a_order, ptype in abelian_types_up_to(bound // (8 * 2**rank)):
            if a_order % 2 == 1:
                yield rank, ptype
        rank += 1


def p_group_parameters(bound: int):
    """Every (p, q, n) accepted by the P(p, q, n) constructor with p^(n-1) q <= bound."""
    for p in range(3, bound + 1, 2):
        if not is_prime(p):
            continue
        for q in range(2, p):
            if not is_prime(q) or (p - 1) % q != 0:
                continue
            n = 2
            while p ** (n - 1) * q <= bound:
                yield p, q, n
                n += 1


def valid_metacyclic_presentations(max_m: int, max_n: int):
    """All (m, n, s, r) accepted by the metacyclic constructor, in order."""
    for m in range(1, max_m + 1):
        yield from _metacyclic_presentations_of(m, max_n)


def _metacyclic_presentations_of(m: int, max_n: int):
    """The presentations (m, n, s, r) with this m and n <= max_n, in order."""
    rs = [r for r in range(m) if math.gcd(m, r) == 1]
    for n in range(1, max_n + 1):
        for r in rs:
            if pow(r, n, m) != 1 % m:
                continue
            step = m // math.gcd(m, (r - 1) % m)
            for s in range(0, m, step):
                yield m, n, s, r
