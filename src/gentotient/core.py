"""Finite-group realizations with a uniform element interface.

Each group exposes canonical hashable element payloads, exact arithmetic,
exhaustive enumeration, and an order spectrum (map from element order to the
number of elements of that order).  The generalized totient of a group is the
spectrum count at the group exponent.

Each realization writes its group law once, as a batch law: it numbers its
elements 0..|G|-1, with 0 the identity, and multiplies whole numpy batches of
them.  The base ``Group`` derives the payload operations (``identity``,
``multiply``, ``power``, ``elements``) from that law, on batches of one, under
the enumeration cap; each costs microseconds, so bulk work stays on indices.

Enumeration is the oracle that every closed formula in
:mod:`gentotient.closedforms` gets checked against, so the element-by-element
paths here deliberately avoid those formulas.  The oracle is one order engine,
which runs the batch law over all indices to build the power maps x -> x^p
and the order of every element.  Structural shortcuts exist only where the
spectrum of a large group is assembled from exhaustively computed pieces:
direct products lcm-convolve their factors' order counts and check the result
once (abelian groups, the products of their cyclic factors of prime-power
order, convolve those factors' counts directly), and symmetric/alternating
groups delegate to the cycle-type engine.

The engine runs over a bucket: k groups of one realization and one order N
laid out as one index space, in which element i of the g-th group has index
g*N + i.  A single group is a bucket of one, and ``spectra_of`` buckets the
groups of a catalog or a sweep so that the engine's fixed cost is paid once
per bucket rather than once per group.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .numtheory import (
    euler_phi,
    euler_phi_from_factorization,
    factorize,
    is_prime,
    metacyclic_parameters,
    size_text,
)

DEFAULT_MAX_ELEMENTS = 20_000_000
MAX_ELEMENTS_ENV = "GENTOTIENT_MAX_ELEMENTS"

PERMUTATION_ENUM_LIMIT = 10  # S_n / A_n element streams only up to here
PARTITION_ENGINE_LIMIT = 40  # S_n / A_n spectra via cycle types up to here
CAYLEY_TABLE_LIMIT = 512     # largest index table; validation holds a few n^2 arrays
ENGINE_CHUNK = 1 << 13       # elements per batch while building power maps
BUCKET_ELEMENTS = 1 << 16    # most elements spectra_of lays out as one bucket


class GroupError(Exception):
    """Base class for errors raised by group operations."""


class RealizationError(GroupError):
    """Element payload does not match the group's realization."""


class ResourceLimitError(GroupError):
    """Requested computation exceeds a configured cap."""


class IntegrityError(GroupError):
    """Internal consistency check failed (bad table, size mismatch, ...)."""


def enumeration_cap() -> int:
    """Current element-enumeration cap; override with GENTOTIENT_MAX_ELEMENTS."""
    raw = os.environ.get(MAX_ELEMENTS_ENV)
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_ELEMENTS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{MAX_ELEMENTS_ENV} must be positive, got {value}")
    return value


def _index_dtype(order: int):
    """Integer dtype of the index arrays of a group of the given order."""
    return np.int32 if order < 2**31 else np.int64


@lru_cache(maxsize=4096)
def _totient_and_primes(d: int) -> tuple[int, tuple[int, ...], int]:
    """phi(d), the primes dividing d, and p if d is a power of the prime p
    (else 0), cached: spectra checked again and again, such as those of S_n
    or of products, share most of their orders."""
    factors = factorize(d)
    primes = tuple(factors)
    return (euler_phi_from_factorization(factors), primes,
            primes[0] if len(primes) == 1 else 0)


@dataclass(frozen=True)
class OrderSpectrum:
    """Exact map from element order to the count of elements of that order."""

    entries: Mapping[int, int]
    group_order: int

    def __post_init__(self):
        # spectra are cached on their groups, so the entries are a read-only
        # copy, sorted by order
        frozen = MappingProxyType(dict(sorted(self.entries.items())))
        object.__setattr__(self, "entries", frozen)
        self.check()

    def check(self) -> None:
        """Sanity constraints every genuine spectrum satisfies."""
        entries, n = self.entries, self.group_order
        if sum(entries.values()) != n:
            raise IntegrityError(
                f"spectrum counts sum to {sum(entries.values())}, expected |G| = {n}"
            )
        if entries.get(1) != 1:
            raise IntegrityError("spectrum must contain exactly one identity")
        rest = n  # |G| with the primes of the element orders divided out
        for d, count in entries.items():
            if d < 1 or count < 0:
                raise IntegrityError(f"bad spectrum entry {d}: {count}")
            phi_d, primes, base = _totient_and_primes(d)
            if count % phi_d != 0:
                raise IntegrityError(
                    f"count {count} at order {d} is not a multiple of phi({d})"
                )
            # closure under d -> d/p for every prime p | d is divisor closure
            for p in primes:
                if d // p not in entries:
                    raise IntegrityError(
                        f"order {d} present but its divisor {d // p} is missing"
                    )
            # by divisor closure exp(G) is the lcm of the prime-power orders,
            # and the primes dividing it are orders too
            if base:
                if n % d != 0:  # Lagrange: exp(G) divides |G|
                    raise IntegrityError(f"element order {d} does not divide |G| = {n}")
                while rest % base == 0:
                    rest //= base
        if rest != 1:  # Cauchy: every prime dividing |G| is an element order
            raise IntegrityError(
                f"prime {min(factorize(rest))} divides |G| = {n} but no element "
                f"has that order"
            )

    def exponent(self) -> int:
        return math.lcm(*self.entries)

    def phi(self) -> int:
        """Count of elements whose order equals the exponent (0 if unattained)."""
        return self.entries.get(self.exponent(), 0)

    def orders(self) -> list[int]:
        return sorted(self.entries)

    def count(self, d: int) -> int:
        return self.entries.get(d, 0)


def _product_spectrum(factor_counts: Iterable[Mapping[int, int]], order: int) -> OrderSpectrum:
    """Spectrum of a direct product of the given order from its factors'
    order counts, convolved as plain counts and checked once.

    N_d(G1 x G2) = sum over pairs (e, f) with lcm(e, f) = d of N_e * N_f.
    """
    counts = {1: 1}
    for factor in factor_counts:
        out: dict[int, int] = {}
        for d1, c1 in counts.items():
            for d2, c2 in factor.items():
                d = math.lcm(d1, d2)
                out[d] = out.get(d, 0) + c1 * c2
        counts = out
    return OrderSpectrum(counts, order)


@dataclass(frozen=True)
class PhiReport:
    """Bundle of the quantities read off a group's order spectrum."""

    order: int
    exponent: int
    phi_g: int
    k: int                      # cyclic subgroups of maximal order
    pi_e: tuple                 # sorted element orders
    in_class_c: bool            # exponent attained by some element
    phi_of_order: int
    phi_of_exp: int
    eq_order_flag: bool         # phi(G) == phi(|G|)
    eq_exp_flag: bool           # k == 1, i.e. phi(G) == phi(exp G) nontrivially

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "exponent": self.exponent,
            "phi": self.phi_g,
            "k": self.k,
            "element_orders": list(self.pi_e),
            "in_class_c": self.in_class_c,
            "phi_of_order": self.phi_of_order,
            "phi_of_exponent": self.phi_of_exp,
            "phi_equals_phi_of_order": self.eq_order_flag,
            "phi_equals_phi_of_exponent": self.eq_exp_flag,
        }


class Group:
    """Base class: immutable finite group with canonical element payloads."""

    kind = "group"
    # set on the instance by index_table(), so untabled groups carry no slot
    _table: Optional[np.ndarray] = None
    # The order engine sees a group as a bucket of k = 1 groups, whose
    # elements' identities all have index 0.  A realization with a bucket
    # law names the class that lays several of its groups out as one bucket.
    _k = 1
    _origins = 0
    _bucket_law: Optional[type] = None

    def __init__(self, order: int, name: str, kind: Optional[str] = None):
        self.order = order
        self.name = name
        if kind is not None:
            self.kind = kind
        self._spectrum: Optional[OrderSpectrum] = None
        self._orders: Optional[np.ndarray] = None

    # -- realization interface -------------------------------------------
    #
    # A realization writes its group law once, as the batch law below, and
    # says which payloads are its elements and whether it is abelian.

    def validate_element(self, x) -> None:
        raise NotImplementedError

    def is_abelian(self) -> bool:
        raise NotImplementedError

    def is_cyclic(self) -> bool:
        """Whether some element's order reaches |G|.  A nonabelian group is
        never cyclic, so only an abelian one runs the order engine."""
        return self.is_abelian() and bool(self.element_orders().max() == self.order)

    def order_factorization(self) -> dict[int, int]:
        return factorize(self.order)

    def require_enumerable(self) -> None:
        """Refuse element-by-element work beyond the enumeration cap."""
        cap = enumeration_cap()
        if self.order > cap:
            raise ResourceLimitError(
                f"|{self.name}| = {size_text(self.order)} exceeds the enumeration cap of "
                f"{cap} elements (set {MAX_ELEMENTS_ENV} to raise it)"
            )

    # -- the batch law: what the order engine sees -------------------------
    #
    # Index i names the i-th element, and index 0 is the identity.  A batch
    # holds many elements as numpy arrays, in a layout each realization
    # chooses, and _batch_multiply applies the group law to two batches
    # element by element.  The law is exact only under the enumeration cap
    # (int64 arithmetic), so every payload operation below refuses a group
    # beyond it.

    def _decode(self, idx: np.ndarray):
        """Batch holding the elements at the given indices."""
        raise NotImplementedError

    def _encode(self, batch) -> np.ndarray:
        """Indices of the elements of a batch."""
        raise NotImplementedError

    def _batch_multiply(self, x, y):
        raise NotImplementedError

    def _unpack(self, batch) -> list:
        """Canonical payloads of the elements of a batch."""
        raise NotImplementedError

    def _pack(self, payloads: list):
        """Batch holding the given payloads; the inverse of _unpack."""
        raise NotImplementedError

    # -- payloads, derived from the batch law ------------------------------
    #
    # Each payload operation runs the batch law on batches of one, so it
    # costs microseconds: bulk work goes through indices instead.

    def identity(self):
        """The element of index 0."""
        self.require_enumerable()
        return self.payloads([0])[0]

    def multiply(self, x, y):
        """The product x * y of two payloads."""
        self.require_enumerable()
        return self._unpack(self._batch_multiply(self._pack([x]), self._pack([y])))[0]

    def power(self, x, k: int):
        """x^k for k >= 0 by binary exponentiation, on batches of one."""
        if k < 0:
            raise ValueError("negative powers not supported; invert explicitly")
        self.require_enumerable()
        acc = self._decode(np.zeros(1, dtype=_index_dtype(self.order)))
        base = self._pack([x])
        while k:
            if k & 1:
                acc = self._batch_multiply(acc, base)
            base = self._batch_multiply(base, base)
            k >>= 1
        return self._unpack(acc)[0]

    def elements(self) -> Iterator:
        """Every element, in index order, decoded a chunk at a time."""
        self.require_enumerable()
        n = self.order
        return (x for lo in range(0, n, ENGINE_CHUNK)
                for x in self.payloads(np.arange(lo, min(n, lo + ENGINE_CHUNK))))

    def payloads(self, idx) -> list:
        """Payloads of the elements at the given indices."""
        return self._unpack(self._decode(np.asarray(idx, dtype=_index_dtype(self.order))))

    def index_product(self, a, b) -> np.ndarray:
        """Indices of x_a * x_b for two index arrays of equal length."""
        return self._encode(self._batch_multiply(self._decode(a), self._decode(b)))

    def element_orders(self) -> np.ndarray:
        """Read-only array holding the order of the element at each index."""
        if self._orders is None:
            self.require_enumerable()
            self._orders = _element_orders(self)
        return self._orders

    def index_table(self) -> np.ndarray:
        """Read-only n x n array, table[i, j] = index of x_i * x_j, from one
        batch product over all n^2 index pairs."""
        if self._table is None:
            n = self.order
            if n > CAYLEY_TABLE_LIMIT:
                raise ResourceLimitError(f"|{self.name}| = {size_text(n)} exceeds the "
                                         f"table limit of {CAYLEY_TABLE_LIMIT}")
            idx = np.arange(n, dtype=np.int32)
            table = self.index_product(np.repeat(idx, n), np.tile(idx, n))
            self._table = table.reshape(n, n).astype(np.intp, copy=False)
            self._table.flags.writeable = False
        return self._table

    # -- generic machinery -------------------------------------------------

    def element_order(self, x) -> int:
        """Least t >= 1 with x^t = identity.

        Default: start from the annihilating exponent |G| and strip prime
        factors while the corresponding power still hits the identity.
        """
        t = self.order
        e = self.identity()
        for p in self.order_factorization():
            while t % p == 0 and self.power(x, t // p) == e:
                t //= p
        return t

    def spectrum(self) -> OrderSpectrum:
        if self._spectrum is None:
            self._spectrum = self._compute_spectrum()
        return self._spectrum

    def _compute_spectrum(self) -> OrderSpectrum:
        return spectrum_by_enumeration(self)

    def __repr__(self):
        return f"<{self.kind} {self.name} of order {self.order}>"


def _iterate_map(m: np.ndarray, times: int) -> np.ndarray:
    """The index map m applied `times` >= 1 times, by repeated squaring."""
    out = None
    while True:
        if times & 1:
            out = m if out is None else m[out]
        times >>= 1
        if not times:
            return out
        m = m[m]


def _concat(batches: list):
    """One batch holding the elements of several batches, in order."""
    if isinstance(batches[0], tuple):
        return tuple(_concat(list(parts)) for parts in zip(*batches))
    return np.concatenate(batches, axis=-1)


def _power_maps(bucket, primes: list[int]) -> list[np.ndarray]:
    """Index maps x -> x^p over a bucket, one per prime, from the batch group law.

    Elements are decoded a chunk at a time, and every chunk must encode back
    to its own indices: the indices enumerate exactly k*N distinct elements.
    """
    n = bucket.order * bucket._k
    maps = np.empty((len(primes), n), _index_dtype(n))
    for lo in range(0, n, ENGINE_CHUNK):
        idx = np.arange(lo, min(n, lo + ENGINE_CHUNK), dtype=maps.dtype)
        x = bucket._decode(idx)
        squares = [x]  # x^(2^k), shared by the primes' binary powers
        powers = [x]
        for p in primes:
            acc = None
            for k in range(p.bit_length()):
                if k == len(squares):
                    squares.append(bucket._batch_multiply(squares[-1], squares[-1]))
                if p >> k & 1:
                    acc = squares[k] if acc is None else bucket._batch_multiply(acc, squares[k])
            powers.append(acc)
        # one encode for the chunk and all its p-th powers
        codes = bucket._encode(_concat(powers)).reshape(len(powers), len(idx))
        if (codes[0] != idx).any():
            raise IntegrityError(
                f"the indices of {bucket.name} do not enumerate its {n} elements"
            )
        maps[:, lo:lo + len(idx)] = codes[1:]
    return list(maps)


def _element_orders(bucket) -> np.ndarray:
    """Order of every element of a bucket, by index, from its power maps.

    A bucket is a group (k = 1) or k groups of one order N = prod p^a in one
    index space, where element i of the g-th group has index g*N + i and
    that group's identity is g*N: the bucket's ``_origins``, 0 for a group.
    For each prime p, raising x to N / p^a, by gathers through the other
    primes' power maps, leaves an element whose order is the p-part of o(x);
    applying the map x -> x^p until the identity is reached counts that
    p-part.  Power maps are the method of Holt, Eick and O'Brien, Handbook
    of Computational Group Theory (2005), ch. 3.
    """
    n = bucket.order * bucket._k
    dtype = _index_dtype(n)
    factors = bucket.order_factorization()
    primes = sorted(factors)
    maps = _power_maps(bucket, primes)
    origins = bucket._origins
    # x -> x^(q^a), which removes the q-part from every element
    kills = [_iterate_map(m, factors[q]) for m, q in zip(maps, primes)]
    orders = np.ones(n, dtype)
    for i, (p, pmap) in enumerate(zip(primes, maps)):
        y = None
        for kill in kills[:i] + kills[i + 1:]:
            y = kill if y is None else kill[y]
        if y is None:
            y = np.arange(n, dtype=dtype)
        for step in range(factors[p] + 1):
            live = y != origins
            # some element has order p (Cauchy), so only later steps can stop
            if step and not live.any():
                break
            if step == factors[p]:
                raise IntegrityError(
                    f"x^{bucket.order} is not the identity for some x in {bucket.name}")
            np.multiply(orders, p, out=orders, where=live)
            y = pmap[y]
    orders.flags.writeable = False
    return orders


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


def _count_orders(orders: np.ndarray) -> dict[int, int]:
    """Map from element order to count, for an array of element orders."""
    counts = np.bincount(orders)
    present = counts.nonzero()[0]
    return dict(zip(present.tolist(), counts[present].tolist()))


def _cyclic_order_counts(n: int) -> dict[int, int]:
    # order of residue a in Z_n is n / gcd(a, n); evaluated for every residue
    residues = np.arange(n, dtype=np.int64)
    return _count_orders(n // np.gcd(residues, n))


class CyclicGroup(Group):
    """Z_n with additive residues 0..n-1."""

    kind = "cyclic"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {n}")
        super().__init__(n, f"Z{n}")
        self.n = n

    def validate_element(self, x):
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise RealizationError(f"{x!r} is not a residue mod {self.n}")

    def _decode(self, idx):
        return idx.astype(np.int64, copy=False)

    def _encode(self, batch):
        return batch

    def _batch_multiply(self, x, y):
        return (x + y) % self.n

    def _unpack(self, batch):
        return batch.tolist()

    def _pack(self, payloads):
        return np.array(payloads, dtype=np.int64)

    def element_order(self, x):
        return self.n // math.gcd(x, self.n)

    def is_abelian(self):
        return True

    def is_cyclic(self):
        return True

    def _compute_spectrum(self):
        self.require_enumerable()
        return OrderSpectrum(_cyclic_order_counts(self.n), self.n)


def _normal_form_product(x, y, m, n, s, rk):
    """(b^i a^j)(b^k a^l) = b^(i+k) a^(j r^k + l), reduced by b^n = a^s, for
    batches x = (i, j, ...) and y = (k, l, ...) of one group each.

    The parameters m, n, s are scalars or one value per element, and rk holds
    r^k mod m for each element, gathered by the caller from its group's row
    of a table of powers of r.
    """
    t = x[0] + y[0]
    wrap = t >= n
    return t - n * wrap, (x[1] * rk + y[1] + s * wrap) % m


class _MetacyclicBucket:
    """k metacyclic groups of one order N as one index space for the order
    engine: element i of the g-th group has index g*N + i.

    A batch holds the normal forms (i, j) followed by the parameter columns
    m, n, s of each element's group and its row g in the bucket's table of
    r^k mod m, so the groups share one normal-form law.
    """

    def __init__(self, groups: Sequence[MetacyclicGroup]):
        self.order = n = groups[0].order
        self._k = k = len(groups)
        self._factors = groups[0].order_factorization()
        self.name = f"a bucket of {k} metacyclic groups of order {n}"
        self._origins = np.arange(0, k * n, n).repeat(n)
        params = np.array([(g.m, g.n, g.s, g.r) for g in groups], dtype=np.int64).T
        self._params = params[:3]
        m, r = params[0], params[3]
        rpow = np.empty((k, int(params[1].max())), dtype=np.int64)
        rpow[:, 0] = 1 % m
        for t in range(1, rpow.shape[1]):
            rpow[:, t] = rpow[:, t - 1] * r % m
        self._rpow = rpow

    def order_factorization(self):
        return self._factors

    def _decode(self, idx):
        g, local = np.divmod(idx, self.order)
        m, n, s = self._params[:, g]
        return (*np.divmod(local, m), m, n, s, g)

    def _encode(self, batch):
        i, j, m, _, _, g = batch
        return g * self.order + i * m + j

    def _batch_multiply(self, x, y):
        _, _, m, n, s, g = x
        return (*_normal_form_product(x, y, m, n, s, self._rpow[g, y[0]]), m, n, s, g)


class MetacyclicGroup(Group):
    """Group <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^r> in normal form.

    Elements are pairs (i, j) standing for b^i a^j with 0 <= i < n,
    0 <= j < m.  Consistency of the presentation (and associativity of the
    normal-form product) needs gcd(m, r) = 1, r^n = 1 mod m and
    s*(r - 1) = 0 mod m; the constructor rejects anything else.
    """

    kind = "metacyclic"
    _bucket_law = _MetacyclicBucket

    def __init__(self, m: int, n: int, s: int, r: int, kind=None, name=None):
        m, n, s, r = metacyclic_parameters(m, n, s, r)
        super().__init__(m * n, name or f"MC({m},{n},{s},{r})", kind)
        self.m, self.n, self.s, self.r = m, n, s, r
        # set here, not by cached_property, so instances keep a compact __dict__
        self._rpow = None

    def _powers_of_r(self) -> np.ndarray:
        """r^k mod m for k < n, built on first use: n can be far beyond any cap."""
        if self._rpow is None:
            self._rpow = np.array([pow(self.r, k, self.m) for k in range(self.n)],
                                  dtype=np.int64)
        return self._rpow

    def validate_element(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not isinstance(x[0], int)
            or not isinstance(x[1], int)
            or not 0 <= x[0] < self.n
            or not 0 <= x[1] < self.m
        ):
            raise RealizationError(
                f"{x!r} is not a normal-form pair for MC({self.m},{self.n},{self.s},{self.r})"
            )

    # batches: the arrays (i, j) of the normal forms b^i a^j

    def _decode(self, idx):
        return np.divmod(idx.astype(np.int64), self.m)

    def _encode(self, batch):
        i, j = batch
        return i * self.m + j

    def _batch_multiply(self, x, y):
        rk = self._powers_of_r()[y[0]]
        return _normal_form_product(x, y, self.m, self.n, self.s, rk)

    def _unpack(self, batch):
        return list(zip(batch[0].tolist(), batch[1].tolist()))

    def _pack(self, payloads):
        return tuple(np.array(part, dtype=np.int64) for part in zip(*payloads))

    def is_abelian(self):
        return self.m <= 1 or self.r == 1


class PGroupP(Group):
    """Nonabelian semidirect product Z_p^(n-1) : Z_q via a power automorphism.

    The Z_q generator scales each vector coordinate by t, the least integer
    above 1 of multiplicative order q mod p.  Elements are (vector, c).  The
    action and the index shape are built on first use: p, q, n can be huge.
    """

    kind = "p-group-P"

    def __init__(self, p: int, q: int, n: int):
        if not is_prime(p) or p <= 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        if (p - 1) % q != 0:
            raise ValueError(f"q must divide p - 1: {q} does not divide {p - 1}")
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        super().__init__(p ** (n - 1) * q, f"P({p},{q},{n})")
        self.p, self.q, self.n = p, q, n
        self.dim = n - 1

    @cached_property
    def t(self) -> int:
        # The elements of order q mod p are the powers zeta^j, 0 < j < q, of
        # any one of them, and zeta = x^((p-1)/q) is one unless it is 1.  The
        # O(q) walk costs no more than the q powers of t that _tpow builds.
        p, q = self.p, self.q
        zeta = next(z for z in (pow(x, (p - 1) // q, p) for x in range(2, p)) if z != 1)
        least = power = zeta
        for _ in range(q - 2):
            power = power * zeta % p
            least = min(least, power)
        return least

    @cached_property
    def _tpow(self) -> np.ndarray:
        """t^c mod p for c < q."""
        return np.array([pow(self.t, c, self.p) for c in range(self.q)], dtype=np.int64)

    @cached_property
    def _shape(self) -> tuple:
        return (self.q,) + (self.p,) * self.dim

    def validate_element(self, x):
        ok = (
            isinstance(x, tuple)
            and len(x) == 2
            and isinstance(x[0], tuple)
            and len(x[0]) == self.dim
            and all(isinstance(a, int) and 0 <= a < self.p for a in x[0])
            and isinstance(x[1], int)
            and 0 <= x[1] < self.q
        )
        if not ok:
            raise RealizationError(f"{x!r} is not a (vector, c) pair for {self.name}")

    # batches: the array of c followed by one array per vector coordinate

    def _decode(self, idx):
        return np.unravel_index(idx, self._shape)

    def _encode(self, batch):
        return np.ravel_multi_index(batch, self._shape)

    def _batch_multiply(self, x, y):
        tc = self._tpow[x[0]]
        return ((x[0] + y[0]) % self.q,
                *((a + tc * b) % self.p for a, b in zip(x[1:], y[1:])))

    def _unpack(self, batch):
        vectors = zip(*(a.tolist() for a in batch[1:]))
        return [(v, c) for c, v in zip(batch[0].tolist(), vectors)]

    def _pack(self, payloads):
        vectors, cs = zip(*payloads)
        return (np.array(cs, dtype=np.int64), *np.array(vectors, dtype=np.int64).T)

    def is_abelian(self):
        return False


def _cycle_lengths(images: tuple) -> list[int]:
    """Lengths of the cycles of a permutation, fixed points included."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = images[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _perm_is_even(images: tuple) -> bool:
    return (len(images) - len(_cycle_lengths(images))) % 2 == 0


def _lehmer_digits(ranks: np.ndarray, degree: int) -> np.ndarray:
    """Lehmer codes of the permutations at the given lexicographic ranks.

    Row i of the result holds digit i of every code: the number of later
    entries smaller than entry i, read off the rank in the factorial number
    system.
    """
    ranks = ranks.astype(np.int64)
    digits = np.empty((degree, len(ranks)), dtype=np.uint8)
    for i in range(degree):
        digits[i], ranks = np.divmod(ranks, math.factorial(degree - 1 - i))
    return digits


def _lehmer_to_perms(digits: np.ndarray) -> np.ndarray:
    """Permutation batch from Lehmer codes, in place, right to left."""
    for i in range(len(digits) - 2, -1, -1):
        tail = digits[i + 1:]
        tail += tail >= digits[i]
    return digits


def _lex_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of a permutation batch of degree at most 20."""
    degree, n = perms.shape
    ranks = np.zeros(n, dtype=np.int64)
    smaller = np.empty(n, dtype=np.uint8)
    for i in range(degree - 1):
        smaller[:] = 0
        for j in range(i + 1, degree):
            smaller += perms[j] < perms[i]
        ranks += smaller * np.int64(math.factorial(degree - 1 - i))
    return ranks


def _row_keys(perms: np.ndarray) -> np.ndarray:
    """One opaque, sortable key per permutation of a batch."""
    rows = np.ascontiguousarray(perms.T)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


class _PermutationBase(Group):
    """Shared arithmetic for groups whose elements are image tuples.

    A batch is a (degree, count) array: column r holds the images of the
    points under the r-th permutation.
    """

    def __init__(self, degree: int, order: int, name: str, kind: Optional[str] = None):
        super().__init__(order, name, kind)
        self.degree = degree

    def validate_element(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != self.degree
            or sorted(x) != list(range(self.degree))
        ):
            raise RealizationError(f"{x!r} is not a permutation of {self.degree} points")

    def element_order(self, x):
        return math.lcm(*_cycle_lengths(x))

    def _batch_multiply(self, x, y):
        # compose, applying y first: column r of the product maps i to x[y[i, r], r]
        n = y.shape[1]
        at = y.astype(np.intp)
        at *= n
        at += np.arange(n)
        return x.ravel().take(at)

    def _unpack(self, batch):
        return list(map(tuple, batch.T.tolist()))

    def _pack(self, payloads):
        return np.array(payloads, dtype=np.uint8 if len(payloads[0]) <= 256 else np.int32).T


class _CycleTypeGroup(_PermutationBase):
    """S_n or A_n: elements enumerated up to degree PERMUTATION_ENUM_LIMIT,
    spectra counted over cycle types up to degree PARTITION_ENGINE_LIMIT."""

    label: str  # how the refusals name the family, "S_n" or "A_n"

    def __init__(self, n: int, order: int):
        super().__init__(n, order, f"{self.label[0]}{n}")
        self.n = n

    def require_enumerable(self):
        if self.n > PERMUTATION_ENUM_LIMIT:
            raise ResourceLimitError(
                f"element enumeration of {self.label} is capped at "
                f"n = {PERMUTATION_ENUM_LIMIT}; got n = {self.n}"
            )
        super().require_enumerable()

    def _compute_spectrum(self):
        from .closedforms import alternating_order_spectrum, symmetric_order_spectrum

        if self.n > PARTITION_ENGINE_LIMIT:
            raise ResourceLimitError(
                f"cycle-type spectra of {self.label} are capped at n = {PARTITION_ENGINE_LIMIT}"
            )
        engine = symmetric_order_spectrum if self.label == "S_n" else alternating_order_spectrum
        return OrderSpectrum(engine(self.n), self.order)


class SymmetricGroup(_CycleTypeGroup):
    kind = "symmetric"
    label = "S_n"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"symmetric group needs n >= 1, got {n}")
        super().__init__(n, math.factorial(n))

    # indices are lexicographic ranks

    def _decode(self, idx):
        return _lehmer_to_perms(_lehmer_digits(idx, self.n))

    def _encode(self, batch):
        return _lex_ranks(batch)

    def is_abelian(self):
        return self.n <= 2


class AlternatingGroup(_CycleTypeGroup):
    kind = "alternating"
    label = "A_n"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"alternating group needs n >= 2, got {n}")
        super().__init__(n, math.factorial(n) // 2)

    # The permutations of lexicographic ranks 2i and 2i + 1 differ by a swap
    # of the last two points, so exactly one of them is even, and it is the
    # i-th even permutation, the element of index i.  Rank 2i has Lehmer
    # digit 0 at position n - 2; setting that digit to the parity of the
    # others picks the even one.

    def _decode(self, idx):
        digits = _lehmer_digits(2 * idx.astype(np.int64), self.n)
        digits[-2] = digits.sum(axis=0) & 1
        return _lehmer_to_perms(digits)

    def _encode(self, batch):
        return _lex_ranks(batch) // 2

    def validate_element(self, x):
        super().validate_element(x)
        if not _perm_is_even(x):
            raise RealizationError(f"{x!r} is an odd permutation")

    def is_abelian(self):
        return self.n <= 3


class PermutationClosureGroup(_PermutationBase):
    """Group generated by explicit permutations, enumerated by BFS closure."""

    kind = "permutation-closure"

    def __init__(self, generators, kind=None, name=None):
        # generators may come from an imported file, so check their shape
        if not (isinstance(generators, (list, tuple)) and generators and all(
                isinstance(g, (list, tuple)) and all(isinstance(i, int) for i in g)
                for g in generators)):
            raise IntegrityError("generators must be a nonempty list of integer lists")
        degree = len(generators[0])
        if not degree:
            raise IntegrityError("generators on zero points; the trivial group is [[0]]")
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise IntegrityError(f"{g!r} is not a permutation of 0..{degree - 1}")
        self.generators = tuple(map(tuple, generators))
        # Breadth-first closure of the identity, one level at a time: level
        # x1, x2, ... yields x1 g1, x1 g2, ..., x2 g1, ..., and the products
        # not seen before, in that order, form the next level.
        gens = self._pack(self.generators)
        level = np.arange(degree, dtype=gens.dtype)[:, None]
        levels = [level]
        seen = set(_row_keys(level).tolist())
        cap = enumeration_cap()
        while level.shape[1]:
            products = self._batch_multiply(np.repeat(level, len(self.generators), axis=1),
                                            np.tile(gens, level.shape[1]))
            fresh = []
            for j, key in enumerate(_row_keys(products).tolist()):
                if key not in seen:
                    seen.add(key)
                    fresh.append(j)
            if len(seen) > cap:
                raise ResourceLimitError(
                    f"generator closure exceeded the enumeration cap of "
                    f"{cap} elements (set {MAX_ELEMENTS_ENV} to raise it)"
                )
            level = products[:, fresh]
            levels.append(level)
        # every element once: its images, and the sorted keys and their argsort
        self._rows = np.concatenate(levels, axis=1)
        keys = _row_keys(self._rows)
        self._by_key = np.argsort(keys)
        self._keys = keys[self._by_key]
        super().__init__(degree, self._rows.shape[1],
                         name or f"<{len(generators)} gens on {degree} points>", kind)

    def _find(self, batch):
        """Each column's index in the closure, and whether it is there at all."""
        keys = _row_keys(batch)
        at = np.searchsorted(self._keys, keys).clip(max=len(self._keys) - 1)
        return self._by_key[at], self._keys[at] == keys

    def validate_element(self, x):
        super().validate_element(x)
        _, found = self._find(self._pack([x]))
        if not found[0]:
            raise RealizationError(f"{x!r} is not an element of {self.name}")

    def _decode(self, idx):
        return self._rows[:, idx]

    def _encode(self, batch):
        idx, found = self._find(batch)
        if not found.all():
            raise IntegrityError(f"a product left the closure of {self.name}")
        return idx

    def is_abelian(self):
        # one batch product g_i g_j over all ordered generator pairs (i, j)
        k = len(self.generators)
        gens = self._pack(self.generators)
        products = self._batch_multiply(np.repeat(gens, k, axis=1), np.tile(gens, k))
        products = products.reshape(-1, k, k)
        return bool(np.array_equal(products, products.transpose(0, 2, 1)))


class DirectProductGroup(Group):
    """Direct product; elements are tuples of factor payloads."""

    kind = "direct-product"

    def __init__(self, factors: Sequence[Group], kind=None, name=None):
        factors = list(factors)
        if not factors:
            raise ValueError("direct product needs at least one factor")
        order = math.prod(f.order for f in factors)
        super().__init__(order, name or "x".join(f.name for f in factors), kind)
        self.factors = tuple(factors)

    def validate_element(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise RealizationError(f"{x!r} is not a {len(self.factors)}-component tuple")
        for f, a in zip(self.factors, x):
            f.validate_element(a)

    def require_enumerable(self):
        super().require_enumerable()
        for f in self.factors:
            f.require_enumerable()

    # batches: one batch per factor

    def _decode(self, idx):
        parts = np.unravel_index(idx, [f.order for f in self.factors])
        return tuple(f._decode(part) for f, part in zip(self.factors, parts))

    def _encode(self, batch):
        parts = tuple(f._encode(b) for f, b in zip(self.factors, batch))
        return np.ravel_multi_index(parts, [f.order for f in self.factors])

    def _batch_multiply(self, x, y):
        return tuple(f._batch_multiply(a, b) for f, a, b in zip(self.factors, x, y))

    def _unpack(self, batch):
        return list(zip(*(f._unpack(b) for f, b in zip(self.factors, batch))))

    def _pack(self, payloads):
        return tuple(f._pack(part) for f, part in zip(self.factors, zip(*payloads)))

    def element_order(self, x):
        out = 1
        for f, a in zip(self.factors, x):
            out = math.lcm(out, f.element_order(a))
        return out

    def is_abelian(self):
        return all(f.is_abelian() for f in self.factors)

    def order_factorization(self):
        out: dict[int, int] = {}
        for f in self.factors:
            for p, a in f.order_factorization().items():
                out[p] = out.get(p, 0) + a
        return out

    def _compute_spectrum(self):
        return _product_spectrum((f.spectrum().entries for f in self.factors), self.order)


class AbelianGroup(DirectProductGroup):
    """Direct product of cyclic groups of prime-power order, by primary type.

    The factors are Z_(p^a), one per exponent a listed for the prime p, so
    the elements are flat residue tuples: ``AbelianGroup([(2, [1, 2]), (3, [1])])``
    is Z_2 x Z_4 x Z_3.  Exponent lists are normalized to be nondecreasing
    per prime.
    """

    kind = "abelian"

    def __init__(self, primary_type: Sequence[tuple[int, Sequence[int]]], kind=None, name=None):
        if not primary_type:
            raise ValueError("abelian type must name at least one cyclic factor")
        normalized = []
        seen = set()
        for p, alphas in sorted(primary_type):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in seen:
                raise ValueError(f"prime {p} listed twice")
            seen.add(p)
            alphas = tuple(sorted(int(a) for a in alphas))
            if not alphas or alphas[0] < 1:
                raise ValueError(f"exponents for prime {p} must be positive")
            normalized.append((p, alphas))
        self.primary_type = tuple(normalized)
        self.moduli = tuple(p**a for p, alphas in self.primary_type for a in alphas)
        super().__init__([CyclicGroup(m) for m in self.moduli], kind, name)

    def order_factorization(self):
        return {p: sum(alphas) for p, alphas in self.primary_type}

    def _compute_spectrum(self):
        # the cyclic factors' order counts, each evaluated on every residue,
        # without a checked spectrum per factor
        self.require_enumerable()
        return _product_spectrum(map(_cyclic_order_counts, self.moduli), self.order)


def _table_array(table, n: int) -> np.ndarray:
    """The table as an n x n intp array, once every entry is an int in 0..n-1."""
    try:
        arr = np.array(table)
    except (TypeError, ValueError):  # ragged or unconvertible rows
        arr = None
    if (arr is not None and arr.shape == (n, n) and arr.dtype.kind in "iub"
            and arr.min() >= 0 and arr.max() < n):
        return arr.astype(np.intp, copy=False)  # gathers index with intp natively
    # name the first bad row or entry, scanning in row order
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple, np.ndarray)):
            raise IntegrityError(f"row {i} is {row!r}, not a list")
        if len(row) != n:
            raise IntegrityError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, (int, np.integer)) or not 0 <= v < n:
                raise IntegrityError(f"entry at row {i}, column {j} is {v!r}")
    raise IntegrityError("table entries are not integers below the side")


def close_orbit(points: set[int], maps: list[list[int]]) -> None:
    """Grow ``points`` to its closure under the index maps ``maps``."""
    queue = list(points)
    while queue:
        x = queue.pop()
        for a in maps:
            y = a[x]
            if y not in points:
                points.add(y)
                queue.append(y)


def generate(table: np.ndarray, candidates) -> tuple[list[int], set[int]]:
    """Greedy generators from ``candidates``, and the closure they reach.

    Walks the candidates in the given order and picks each one outside the
    closure so far: the identity, index 0, closed under right multiplication
    by the picks (the columns of the index table).  In a group that closure
    is the subgroup the picks generate, and each pick at least doubles it,
    so a group of order n needs at most log2(n) picks.
    """
    picks: list[int] = []
    maps: list[list[int]] = []
    closure = {0}
    for c in candidates:
        if c not in closure:
            picks.append(c)
            maps.append(table[:, c].tolist())
            close_orbit(closure, maps)
    return picks, closure


def _check_associativity(arr: np.ndarray) -> None:
    """Light's test: (xy)s = x(ys) for all x, y and each generator s.

    The s that pass for every x, y are closed under products:
    (xy)(ab) = ((xy)a)b = (x(ya))b = x((ya)b) = x(y(ab)).  The identity
    passes trivially, so the passing s contain every left-normed product
    ((s1 s2) ...) sk of the picks of ``generate``, which is exactly what
    its right-multiplication closure of the identity reaches.  That closure
    reaches every index, so checking the picks checks the whole table; this
    holds for any table with an identity, associative or not.
    """
    for k in generate(arr, range(len(arr)))[0]:
        column = arr[:, k]
        left = column.take(arr)             # [i, j] -> (i*j)*k
        right = arr.take(column, axis=1)    # [i, j] -> i*(j*k)
        if not np.array_equal(left, right):
            i, j = np.argwhere(left != right)[0]
            raise IntegrityError(f"associativity fails at ({i}*{j})*{k} != {i}*({j}*{k})")


class CayleyTableGroup(Group):
    """Group given by an explicit multiplication table over indices 0..n-1.

    Index 0 must be the identity.  The table is fully validated on import:
    shape, Latin-square property, identity row/column, and associativity
    (Light's test on a generating set).
    """

    kind = "cayley-table"

    def __init__(self, table: Sequence[Sequence[int]], name: str = "table-group"):
        # the table may come from an imported file, so check its shape
        if not isinstance(table, (list, tuple, np.ndarray)):
            raise IntegrityError(f"the table is {table!r}, not a list of rows")
        n = len(table)
        if n < 1:
            raise IntegrityError("empty table")
        if n > CAYLEY_TABLE_LIMIT:
            raise IntegrityError(
                f"table side {n} exceeds the validation limit of {CAYLEY_TABLE_LIMIT}"
            )
        arr = _table_array(table, n)
        full = np.arange(n)
        # a row or column of in-range entries is a permutation iff it hits
        # every index
        hits = np.zeros((n, n), dtype=bool)
        hits[full[:, None], arr] = True
        bad_rows = ~hits.all(axis=1)
        hits[:] = False
        hits[arr, full] = True
        bad_cols = ~hits.all(axis=0)
        # report the first failure in the order row 0, column 0, row 1, ...
        if bad_rows.any() or bad_cols.any():
            i = int(np.argmax(bad_rows | bad_cols))
            line = "row" if bad_rows[i] else "column"
            raise IntegrityError(f"{line} {i} is not a permutation (Latin square fails)")
        bad_left = arr[0] != full
        bad_right = arr[:, 0] != full
        if bad_left.any() or bad_right.any():
            j = int(np.argmax(bad_left | bad_right))
            if bad_left[j]:
                raise IntegrityError(f"index 0 is not a left identity at column {j}")
            raise IntegrityError(f"index 0 is not a right identity at row {j}")
        _check_associativity(arr)
        super().__init__(n, name)
        arr.flags.writeable = False
        self._table = arr  # the validated table is the index_table() cache

    @cached_property
    def table(self) -> list[list[int]]:
        """Rows of the table as lists of Python ints."""
        return self._table.tolist()

    def validate_element(self, x):
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise RealizationError(f"{x!r} is not a table index below {self.order}")

    def _decode(self, idx):
        return idx

    def _encode(self, batch):
        return batch

    def _batch_multiply(self, x, y):
        return self._table[x, y]

    def _unpack(self, batch):
        return batch.tolist()

    def _pack(self, payloads):
        return np.array(payloads, dtype=np.intp)

    def is_abelian(self):
        return bool(np.array_equal(self._table, self._table.T))


# ---------------------------------------------------------------------------
# operations on groups
# ---------------------------------------------------------------------------


def multiply(group: Group, x, y):
    """Product of two canonical elements (validates payload shapes)."""
    group.validate_element(x)
    group.validate_element(y)
    return group.multiply(x, y)


def order(group: Group, x) -> int:
    """Order of an element (validates payload shape)."""
    group.validate_element(x)
    return group.element_order(x)


def spectrum_by_enumeration(group: Group) -> OrderSpectrum:
    """Brute-force spectrum: the order of every element, counted.

    This is the oracle path: the orders come from the order engine, which
    uses the group law alone and never consults structural shortcuts.
    """
    return OrderSpectrum(_count_orders(group.element_orders()), group.order)


def spectra_of(groups: Iterable[Group]) -> list[OrderSpectrum]:
    """The spectra of the given groups, enumerated a bucket at a time.

    The groups whose spectrum comes from the order engine and is not cached
    yet, direct-product factors included, are bucketed by realization and
    order.  A bucket of k groups of order N is one index space (element i of
    the g-th group has index g*N + i, at most BUCKET_ELEMENTS in all), so the
    engine builds its power maps and element orders in one pass, and one
    bincount over g*(N + 1) + order gives all k spectra.  Each is set on its
    group through the usual OrderSpectrum check, and no order array is kept.
    A realization without a bucket law runs the same engine with k = 1.
    """
    groups = list(groups)
    buckets: dict[tuple, dict[int, Group]] = {}
    pending = [g for g in groups if g._spectrum is None]
    for g in pending:  # grows by the factors of direct products
        if isinstance(g, DirectProductGroup):
            pending.extend(f for f in g.factors if f._spectrum is None)
        # spectra from the engine, unless spectrum() can count cached orders
        elif g._orders is None and type(g)._compute_spectrum is Group._compute_spectrum:
            buckets.setdefault((type(g), g.order), {})[id(g)] = g
    for (cls, n), members in buckets.items():
        members = list(members.values())
        members[0].require_enumerable()  # the cap reads the order alone
        law = cls._bucket_law
        size = max(1, BUCKET_ELEMENTS // n) if law else 1
        for lo in range(0, len(members), size):
            part = members[lo:lo + size]
            k = len(part)
            orders = _element_orders(law(part) if k > 1 else part[0])
            keys = orders + np.arange(0, k * (n + 1), n + 1).repeat(n)
            counts = np.bincount(keys, minlength=k * (n + 1)).reshape(k, n + 1)
            rows, ds = counts.nonzero()
            ends = np.bincount(rows, minlength=k).cumsum().tolist()
            ds, cs = ds.tolist(), counts[rows, ds].tolist()
            start = 0
            for g, end in zip(part, ends):
                g._spectrum = OrderSpectrum(dict(zip(ds[start:end], cs[start:end])), n)
                start = end
    return [g.spectrum() for g in groups]


def exponent(group: Group) -> int:
    """lcm of all element orders."""
    return group.spectrum().exponent()


def phi(group: Group) -> int:
    """Number of elements whose order equals the group exponent."""
    return group.spectrum().phi()


def cyclic_count_max(group: Group) -> int:
    """Number of cyclic subgroups of maximal (exponent) order.

    phi(G) splits into classes of size phi(exp G), one per cyclic subgroup of
    that order, so the division must be exact.
    """
    return report(group).k


def commuting_witness(group: Group) -> Optional[list]:
    """Pairwise-commuting elements realizing the prime-power parts of exp(G).

    Returns a list [a_1, ..., a_k] with o(a_i) = p_i^b_i (the full prime-power
    decomposition of the exponent) and a_i a_j = a_j a_i, or None when no such
    tuple exists.  The product of a witness has order exp(G), so a witness
    exists exactly when the exponent is attained.
    """
    orders = group.element_orders()
    exp = int(np.lcm.reduce(orders))
    targets = sorted(p**a for p, a in factorize(exp).items())
    # candidate indices in ascending order, one pool per target
    pools = [np.flatnonzero(orders == t) for t in targets]
    # the search below would take the first of each pool; this return is
    # faster on the many small abelian groups, and it also answers the
    # trivial group, whose exponent 1 leaves no targets
    if group.is_abelian():
        return group.payloads([pool[0] for pool in pools])

    def search(pools: list) -> Optional[list]:
        """First choice from each pool, in order, that commutes pairwise.

        A block of the first pool's candidates is tested against one later
        pool at a time, about ENGINE_CHUNK products per batch.  A candidate
        keeps in each later pool only the members that commute with it, and
        one that empties a later pool is dropped.
        """
        first, later = pools[0], pools[1:]
        if not later:
            return [first[0]]
        step = max(1, ENGINE_CHUNK // max(map(len, later)))
        for lo in range(0, len(first), step):
            block = first[lo:lo + step]
            alive = np.ones(len(block), dtype=bool)
            masks = []
            for pool in later:
                x, y = np.repeat(block, len(pool)), np.tile(pool, len(block))
                commute = group.index_product(x, y) == group.index_product(y, x)
                masks.append(commute.reshape(len(block), len(pool)))
                alive &= masks[-1].any(axis=1)
                if not alive.any():
                    break
            else:
                for r in np.flatnonzero(alive):
                    found = search([pool[mask[r]] for pool, mask in zip(later, masks)])
                    if found is not None:
                        return [block[r], *found]
        return None

    # search smallest pools first
    search_order = sorted(range(len(targets)), key=lambda i: len(pools[i]))
    found = search([pools[i] for i in search_order])
    if found is None:
        return None
    chosen = np.empty(len(targets), dtype=orders.dtype)
    chosen[search_order] = found
    return group.payloads(chosen)


def report(group: Group) -> PhiReport:
    """Assemble every spectrum-derived quantity for a group.

    Certifies the paper's two equivalences, phi(G) = phi(|G|) iff
    k = |G|/exp(G) and k = 1 iff phi(G) = phi(exp G) != 0, by computing each
    right-hand side on its own.
    """
    spec = group.spectrum()
    exp = spec.exponent()
    phi_g = spec.phi()
    phi_exp = euler_phi(exp)
    k, rem = divmod(phi_g, phi_exp)
    if rem:
        raise IntegrityError(f"phi is not a multiple of phi(exp) for {group.name}")
    phi_order = euler_phi_from_factorization(group.order_factorization())
    if (phi_g == phi_order) != (k == group.order // exp):
        raise IntegrityError(f"phi(G) = phi(|G|) iff k = |G|/exp fails for {group.name}")
    if (k == 1) != (phi_g == phi_exp != 0):
        raise IntegrityError(f"k = 1 iff phi(G) = phi(exp G) != 0 fails for {group.name}")
    return PhiReport(
        order=group.order,
        exponent=exp,
        phi_g=phi_g,
        k=k,
        pi_e=tuple(spec.orders()),
        in_class_c=phi_g != 0,
        phi_of_order=phi_order,
        phi_of_exp=phi_exp,
        eq_order_flag=phi_g == phi_order,
        eq_exp_flag=k == 1,
    )
