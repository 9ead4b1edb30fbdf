"""Seeded input generation, independent of the library's own enumerators.

The benchmark enumerates its populations itself so that a change to the
library's generators cannot change what the benchmark feeds it.  Every
function here is deterministic; randomness enters only through the
``random.Random`` the caller passes.
"""

from __future__ import annotations

import math
import random
from collections import Counter

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def factor(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def integer_partitions(n: int, max_part: int = None):
    max_part = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    """Number of partitions of n, counted part size by part size."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            p[i] += p[i - k]
    return p[n]


def metacyclic_presentations(max_m: int, max_n: int, only_order: int = None):
    """(m, n, s, r) with gcd(m, r) = 1, r^n = 1 and s(r - 1) = 0 mod m.

    Returns the valid presentations and the number of (m, n, s, r) candidates
    tried, in the order m, n, r, s.
    """
    kept, tried = [], 0
    for m in range(1, max_m + 1):
        units = [r for r in range(m) if math.gcd(m, r) == 1]
        for n in range(1, max_n + 1):
            if only_order is not None and m * n != only_order:
                continue
            for r in units:
                tried += m
                if pow(r, n, m) != 1 % m:
                    continue
                step = m // math.gcd(m, (r - 1) % m)
                kept.extend((m, n, s, r) for s in range(0, m, step))
    return kept, tried


def abelian_types(bound: int):
    """Every primary type [(p, [a1 <= a2 ...]), ...] with 2 <= order <= bound."""
    out = []
    for n in range(2, bound + 1):
        combos = [[]]
        for p, a in sorted(factor(n).items()):
            combos = [c + [(p, sorted(parts))] for c in combos
                      for parts in integer_partitions(a)]
        out.extend((n, combo) for combo in combos)
    return out


def moduli(primary_type) -> list:
    return [p**a for p, exps in primary_type for a in exps]


def type_name(primary_type) -> str:
    """The name the library gives an abelian group of this type."""
    return "x".join(f"Z{m}" for m in moduli(primary_type))


def type_expression(primary_type) -> str:
    """CLI expression ``Ab(p:a1,a2;q:b1)`` for a primary type."""
    return "Ab(" + ";".join(
        f"{p}:" + ",".join(str(a) for a in exps) for p, exps in primary_type
    ) + ")"


def random_abelian_type(rng: random.Random, low: int, high: int):
    """A primary type with low <= order <= high (rejection sampling)."""
    while True:
        primes = sorted(rng.sample(PRIMES[:6], rng.randint(1, 3)))
        ptype = [(p, sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 4))))
                 for p in primes]
        order = math.prod(moduli(ptype))
        if low <= order <= high:
            return ptype, order


def p_group_parameters(max_order: int):
    """(p, q, n) with q | p - 1 and p^(n-1) q <= max_order."""
    out = []
    for p in PRIMES[1:]:
        for q in PRIMES:
            if q >= p or (p - 1) % q:
                continue
            n = 2
            while p ** (n - 1) * q <= max_order:
                out.append((p, q, n))
                n += 1
    return out


class Manifest:
    """What a run fed the library: orders, realization kinds, repeats."""

    def __init__(self):
        self.orders = Counter()
        self.kinds = Counter()
        self.labels = Counter()
        self.repeats = 0
        self.ops = 0
        self._seen = set()
        self.extra: dict = {}

    def add(self, op) -> None:
        self.ops += 1
        if op.order:
            # bucket k holds the orders in (2^(k-1), 2^k]
            self.orders[(op.order - 1).bit_length()] += 1
        self.kinds[op.kind] += 1
        self.labels[op.label] += 1
        if op.key in self._seen:
            self.repeats += 1
        self._seen.add(op.key)

    def as_dict(self) -> dict:
        ops = max(self.ops, 1)
        return {
            "operations": self.ops,
            "order_histogram": {f"<=2^{k}": v for k, v in sorted(self.orders.items())},
            "kind_share": {k: round(v / ops, 4) for k, v in sorted(self.kinds.items())},
            "operation_share": {k: round(v / ops, 4) for k, v in sorted(self.labels.items())},
            "repeat_share": round(self.repeats / ops, 4),
            **self.extra,
        }
