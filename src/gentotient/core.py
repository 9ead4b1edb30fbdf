"""Finite-group realizations with a uniform element interface.

Each group exposes canonical hashable element payloads, exact arithmetic,
exhaustive enumeration, and an order spectrum (map from element order to the
number of elements of that order).  The generalized totient of a group is the
spectrum count at the group exponent.

Enumeration is the oracle that every closed formula in
:mod:`gentotient.closedforms` gets checked against, so the element-by-element
paths here deliberately avoid those formulas.  The oracle is one order engine:
every realization numbers its elements 0..|G|-1 in ``elements()`` order and
applies its group law to whole numpy batches of them, from which the engine
builds the power maps x -> x^p and the order of every element.  Structural
shortcuts exist only where the spectrum of a large group is assembled from
exhaustively computed pieces: direct products combine factor spectra by
lcm-convolution (abelian groups, the products of their cyclic factors of
prime-power order, convolve those factors' order counts and are checked once),
and symmetric/alternating groups delegate to the cycle-type engine.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from itertools import permutations as _permutations
from itertools import product as _iproduct
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .numtheory import (
    euler_phi,
    euler_phi_from_factorization,
    factorial_factorization,
    factorize,
    is_prime,
    metacyclic_parameters,
    size_text,
)

DEFAULT_MAX_ELEMENTS = 20_000_000
MAX_ELEMENTS_ENV = "GENTOTIENT_MAX_ELEMENTS"

PERMUTATION_ENUM_LIMIT = 10  # S_n / A_n element streams only up to here
PARTITION_ENGINE_LIMIT = 40  # S_n / A_n spectra via cycle types up to here
CAYLEY_TABLE_LIMIT = 512     # validation holds a few n^2 arrays at once
ENGINE_CHUNK = 1 << 13       # elements per batch while building power maps


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
        out = 1
        for d in self.entries:
            out = math.lcm(out, d)
        return out

    def phi(self) -> int:
        """Count of elements whose order equals the exponent (0 if unattained)."""
        return self.entries.get(self.exponent(), 0)

    def orders(self) -> list[int]:
        return sorted(self.entries)

    def count(self, d: int) -> int:
        return self.entries.get(d, 0)


def lcm_convolve(a: OrderSpectrum, b: OrderSpectrum) -> OrderSpectrum:
    """Spectrum of a direct product from its factor spectra.

    N_d(G1 x G2) = sum over pairs (e, f) with lcm(e, f) = d of N_e * N_f.
    """
    return OrderSpectrum(_lcm_convolve_counts(a.entries, b.entries),
                         a.group_order * b.group_order)


def _lcm_convolve_counts(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The order counts of a direct product from its factors' order counts."""
    out: dict[int, int] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = math.lcm(d1, d2)
            out[d] = out.get(d, 0) + c1 * c2
    return out


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

    def __init__(self, order: int, name: str):
        self.order = order
        self.name = name
        self._spectrum: Optional[OrderSpectrum] = None
        self._orders: Optional[np.ndarray] = None

    # -- realization interface -------------------------------------------

    def identity(self):
        raise NotImplementedError

    def multiply(self, x, y):
        raise NotImplementedError

    def validate_element(self, x) -> None:
        raise NotImplementedError

    def elements(self) -> Iterator:
        raise NotImplementedError

    def is_abelian(self) -> bool:
        raise NotImplementedError

    def key(self) -> tuple:
        """Canonical construction key, used for deterministic ordering."""
        raise NotImplementedError

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

    # -- indexed batches: what the order engine sees ----------------------
    #
    # Index i names the i-th element of elements(); index 0 is the identity.
    # A batch holds many elements as numpy arrays, in a layout each
    # realization chooses, and _batch_multiply applies the group law to two
    # batches element by element.

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

    # -- generic machinery -------------------------------------------------

    def power(self, x, k: int):
        """x^k for k >= 0 by binary exponentiation."""
        if k < 0:
            raise ValueError("negative powers not supported; invert explicitly")
        acc = self.identity()
        base = x
        while k:
            if k & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            k >>= 1
        return acc

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


def _power_maps(group: Group, primes: list[int]) -> list[np.ndarray]:
    """Index maps x -> x^p, one per prime, from the batch group law.

    Elements are decoded a chunk at a time, and every chunk must encode back
    to its own indices: the indices enumerate exactly |G| distinct elements.
    """
    n = group.order
    maps = np.empty((len(primes), n), _index_dtype(n))
    for lo in range(0, n, ENGINE_CHUNK):
        idx = np.arange(lo, min(n, lo + ENGINE_CHUNK), dtype=maps.dtype)
        x = group._decode(idx)
        squares = [x]  # x^(2^k), shared by the primes' binary powers
        powers = [x]
        for p in primes:
            acc = None
            for k in range(p.bit_length()):
                if k == len(squares):
                    squares.append(group._batch_multiply(squares[-1], squares[-1]))
                if p >> k & 1:
                    acc = squares[k] if acc is None else group._batch_multiply(acc, squares[k])
            powers.append(acc)
        # one encode for the chunk and all its p-th powers
        codes = group._encode(_concat(powers)).reshape(len(powers), len(idx))
        if (codes[0] != idx).any():
            raise IntegrityError(
                f"the indices of {group.name} do not enumerate its {n} elements"
            )
        maps[:, lo:lo + len(idx)] = codes[1:]
    return list(maps)


def _element_orders(group: Group) -> np.ndarray:
    """Order of every element of a group, by index, from its power maps.

    For each prime p dividing |G| = prod p^a, raising x to |G| / p^a, by
    gathers through the other primes' power maps, leaves an element whose
    order is the p-part of o(x); applying the map x -> x^p until the identity
    (index 0) is reached counts that p-part.  Power maps are the method of
    Holt, Eick and O'Brien, Handbook of Computational Group Theory (2005),
    ch. 3.
    """
    n = group.order
    dtype = _index_dtype(n)
    factors = group.order_factorization()
    primes = sorted(factors)
    maps = _power_maps(group, primes)
    # x -> x^(q^a), which removes the q-part from every element
    kills = [_iterate_map(m, factors[q]) for m, q in zip(maps, primes)]
    orders = np.ones(n, dtype)
    for i, (p, pmap) in enumerate(zip(primes, maps)):
        y = None
        for kill in kills[:i] + kills[i + 1:]:
            y = kill if y is None else kill[y]
        if y is None:
            y = np.arange(n, dtype=dtype)
        for _ in range(factors[p]):
            live = y != 0
            if not live.any():
                break
            np.multiply(orders, p, out=orders, where=live)
            y = pmap[y]
        if y.any():
            raise IntegrityError(f"x^{n} is not the identity for some x in {group.name}")
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

    def identity(self):
        return 0

    def multiply(self, x, y):
        return (x + y) % self.n

    def validate_element(self, x):
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise RealizationError(f"{x!r} is not a residue mod {self.n}")

    def elements(self):
        self.require_enumerable()
        return iter(range(self.n))

    def _decode(self, idx):
        return idx.astype(np.int64, copy=False)

    def _encode(self, batch):
        return batch

    def _batch_multiply(self, x, y):
        return (x + y) % self.n

    def _unpack(self, batch):
        return batch.tolist()

    def element_order(self, x):
        return self.n // math.gcd(x, self.n)

    def is_abelian(self):
        return True

    def key(self):
        return ("cyclic", self.n)

    def _compute_spectrum(self):
        self.require_enumerable()
        return OrderSpectrum(_cyclic_order_counts(self.n), self.n)


class MetacyclicGroup(Group):
    """Group <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^r> in normal form.

    Elements are pairs (i, j) standing for b^i a^j with 0 <= i < n,
    0 <= j < m.  Consistency of the presentation (and associativity of the
    normal-form product) needs gcd(m, r) = 1, r^n = 1 mod m and
    s*(r - 1) = 0 mod m; the constructor rejects anything else.
    """

    kind = "metacyclic"

    def __init__(self, m: int, n: int, s: int, r: int, kind=None, name=None):
        m, n, s, r = metacyclic_parameters(m, n, s, r)
        super().__init__(m * n, name or f"MC({m},{n},{s},{r})")
        if kind is not None:
            self.kind = kind
        self.m, self.n, self.s, self.r = m, n, s, r
        # set here, not by cached_property, so instances keep a compact __dict__
        self._rpow = self._rpow_array = None

    def _powers_of_r(self) -> tuple:
        """r^k mod m for k < n, as a tuple and an array, built on first use:
        n can be far beyond any cap."""
        if self._rpow is None:
            self._rpow = tuple(pow(self.r, k, self.m) for k in range(self.n))
            self._rpow_array = np.array(self._rpow, dtype=np.int64)
        return self._rpow, self._rpow_array

    def identity(self):
        return (0, 0)

    def multiply(self, x, y):
        i, j = x
        k, l = y
        t = i + k
        rk = self._powers_of_r()[0][k]
        if t >= self.n:
            return (t - self.n, (j * rk + l + self.s) % self.m)
        return (t, (j * rk + l) % self.m)

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

    def elements(self):
        self.require_enumerable()
        return ((i, j) for i in range(self.n) for j in range(self.m))

    # batches: the arrays (i, j) of the normal forms b^i a^j

    def _decode(self, idx):
        return np.divmod(idx.astype(np.int64), self.m)

    def _encode(self, batch):
        i, j = batch
        return i * self.m + j

    def _batch_multiply(self, x, y):
        (i, j), (k, l) = x, y
        t = i + k
        wrap = t >= self.n
        rk = self._powers_of_r()[1][k]
        return t - self.n * wrap, (j * rk + l + self.s * wrap) % self.m

    def _unpack(self, batch):
        return list(zip(batch[0].tolist(), batch[1].tolist()))

    def is_abelian(self):
        return self.m <= 1 or self.r == 1

    def key(self):
        return ("metacyclic", self.m, self.n, self.s, self.r)


class PGroupP(Group):
    """Nonabelian semidirect product Z_p^(n-1) : Z_q via a power automorphism.

    The Z_q generator scales each vector coordinate by t, the least integer
    above 1 of multiplicative order q mod p.  Elements are (vector, c).
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
        t = next(t for t in range(2, p) if pow(t, q, p) == 1 and t % p != 1)
        super().__init__(p ** (n - 1) * q, f"P({p},{q},{n})")
        self.p, self.q, self.n, self.t = p, q, n, t
        self.dim = n - 1
        self._tpow = tuple(pow(t, c, p) for c in range(q))
        self._tpow_array = np.array(self._tpow, dtype=np.int64)
        self._shape = (q,) + (p,) * self.dim

    def identity(self):
        return ((0,) * self.dim, 0)

    def multiply(self, x, y):
        v, c = x
        w, d = y
        tc = self._tpow[c]
        return (tuple((a + tc * b) % self.p for a, b in zip(v, w)), (c + d) % self.q)

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

    def elements(self):
        self.require_enumerable()
        return (
            (v, c)
            for c in range(self.q)
            for v in _iproduct(*[range(self.p)] * self.dim)
        )

    # batches: the array of c followed by one array per vector coordinate

    def _decode(self, idx):
        return np.unravel_index(idx, self._shape)

    def _encode(self, batch):
        return np.ravel_multi_index(batch, self._shape)

    def _batch_multiply(self, x, y):
        tc = self._tpow_array[x[0]]
        return ((x[0] + y[0]) % self.q,
                *((a + tc * b) % self.p for a, b in zip(x[1:], y[1:])))

    def _unpack(self, batch):
        vectors = zip(*(a.tolist() for a in batch[1:]))
        return [(v, c) for c, v in zip(batch[0].tolist(), vectors)]

    def is_abelian(self):
        return False

    def key(self):
        return ("p-group-P", self.p, self.q, self.n)


def _perm_order(images: tuple) -> int:
    n = len(images)
    seen = [False] * n
    out = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = images[i]
            length += 1
        out = math.lcm(out, length)
    return out


def _perm_is_even(images: tuple) -> bool:
    n = len(images)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = images[i]
    return (n - cycles) % 2 == 0


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

    def __init__(self, degree: int, order: int, name: str):
        super().__init__(order, name)
        self.degree = degree

    def identity(self):
        return tuple(range(self.degree))

    def multiply(self, x, y):
        # compose: apply y first, then x
        return tuple(x[y[i]] for i in range(self.degree))

    def validate_element(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != self.degree
            or sorted(x) != list(range(self.degree))
        ):
            raise RealizationError(f"{x!r} is not a permutation of {self.degree} points")

    def element_order(self, x):
        return _perm_order(x)

    def _batch_multiply(self, x, y):
        # column r of the product maps i to x[y[i, r], r]
        n = y.shape[1]
        at = y.astype(np.intp)
        at *= n
        at += np.arange(n)
        return x.ravel().take(at)

    def _unpack(self, batch):
        return list(map(tuple, batch.T.tolist()))


def _require_degree_enumerable(group, label: str) -> None:
    if group.n > PERMUTATION_ENUM_LIMIT:
        raise ResourceLimitError(
            f"element enumeration of {label} is capped at n = {PERMUTATION_ENUM_LIMIT}; "
            f"got n = {group.n}"
        )


class SymmetricGroup(_PermutationBase):
    kind = "symmetric"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"symmetric group needs n >= 1, got {n}")
        super().__init__(n, math.factorial(n), f"S{n}")
        self.n = n

    def require_enumerable(self):
        _require_degree_enumerable(self, "S_n")
        super().require_enumerable()

    def elements(self):
        self.require_enumerable()
        return _permutations(range(self.n))

    # indices are lexicographic ranks, the order of elements()

    def _decode(self, idx):
        return _lehmer_to_perms(_lehmer_digits(idx, self.n))

    def _encode(self, batch):
        return _lex_ranks(batch)

    def is_abelian(self):
        return self.n <= 2

    def key(self):
        return ("symmetric", self.n)

    def order_factorization(self):
        return dict(factorial_factorization(self.n))

    def _compute_spectrum(self):
        from .closedforms import symmetric_order_spectrum

        if self.n > PARTITION_ENGINE_LIMIT:
            raise ResourceLimitError(
                f"cycle-type spectra of S_n are capped at n = {PARTITION_ENGINE_LIMIT}"
            )
        return OrderSpectrum(symmetric_order_spectrum(self.n), self.order)


class AlternatingGroup(_PermutationBase):
    kind = "alternating"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"alternating group needs n >= 2, got {n}")
        super().__init__(n, math.factorial(n) // 2, f"A{n}")
        self.n = n

    def require_enumerable(self):
        _require_degree_enumerable(self, "A_n")
        super().require_enumerable()

    def elements(self):
        self.require_enumerable()
        return (p for p in _permutations(range(self.n)) if _perm_is_even(p))

    # The permutations of lexicographic ranks 2i and 2i + 1 differ by a swap
    # of the last two points, so exactly one of them is even, and it is the
    # i-th element of elements().  Rank 2i has Lehmer digit 0 at position
    # n - 2; setting that digit to the parity of the others picks the even one.

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

    def key(self):
        return ("alternating", self.n)

    def order_factorization(self):
        out = dict(factorial_factorization(self.n))
        if out.get(2, 0) == 1:
            del out[2]
        elif 2 in out:
            out[2] -= 1
        return out

    def _compute_spectrum(self):
        from .closedforms import alternating_order_spectrum

        if self.n > PARTITION_ENGINE_LIMIT:
            raise ResourceLimitError(
                f"cycle-type spectra of A_n are capped at n = {PARTITION_ENGINE_LIMIT}"
            )
        return OrderSpectrum(alternating_order_spectrum(self.n), self.order)


class PermutationClosureGroup(_PermutationBase):
    """Group generated by explicit permutations, enumerated by BFS closure."""

    kind = "permutation-closure"

    def __init__(self, generators, expected_order: Optional[int] = None,
                 kind=None, name=None):
        gens = [tuple(g) for g in generators]
        if not gens:
            raise ValueError("at least one generator required")
        degree = len(gens[0])
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise IntegrityError(f"{g!r} is not a permutation of 0..{degree - 1}")
        self.generators = tuple(gens)
        self._closure: Optional[list] = None
        self._rows = None  # (batch of all elements, sorted keys, argsort of keys)
        self._expected_order = expected_order
        if expected_order is None:
            # closure is the only way to learn the order
            self._closure = self._compute_closure(degree, enumeration_cap())
            order = len(self._closure)
        else:
            order = expected_order
        super().__init__(degree, order, name or f"<{len(gens)} gens on {degree} points>")
        if kind is not None:
            self.kind = kind

    def _compute_closure(self, degree: int, cap: int) -> list:
        identity = tuple(range(degree))
        seen = {identity}
        ordered = [identity]
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = tuple(x[g[i]] for i in range(degree))
                    if y not in seen:
                        seen.add(y)
                        ordered.append(y)
                        nxt.append(y)
                        if len(seen) > cap:
                            raise ResourceLimitError(
                                f"generator closure exceeded the enumeration cap of "
                                f"{cap} elements (set {MAX_ELEMENTS_ENV} to raise it)"
                            )
            frontier = nxt
        return ordered

    def closure(self) -> list:
        if self._closure is None:
            self._closure = self._compute_closure(self.degree, enumeration_cap())
            if self._expected_order is not None and len(self._closure) != self._expected_order:
                raise IntegrityError(
                    f"closure of {self.name} has {len(self._closure)} elements, "
                    f"declared order is {self._expected_order}"
                )
        return self._closure

    def elements(self):
        self.require_enumerable()
        return iter(self.closure())

    def _row_index(self):
        if self._rows is None:
            dtype = np.uint8 if self.degree <= 256 else np.int32
            rows = np.array(self.closure(), dtype=dtype).T.copy()
            keys = _row_keys(rows)
            by_key = np.argsort(keys)
            self._rows = (rows, keys[by_key], by_key)
        return self._rows

    def _decode(self, idx):
        return self._row_index()[0][:, idx]

    def _encode(self, batch):
        _, sorted_keys, by_key = self._row_index()
        keys = _row_keys(batch)
        at = np.searchsorted(sorted_keys, keys).clip(max=len(sorted_keys) - 1)
        if not np.array_equal(sorted_keys[at], keys):
            raise IntegrityError(f"a product left the closure of {self.name}")
        return by_key[at]

    def is_abelian(self):
        return all(
            self.multiply(a, b) == self.multiply(b, a)
            for a in self.generators
            for b in self.generators
        )

    def key(self):
        return ("permutation-closure", self.generators)


class DirectProductGroup(Group):
    """Direct product; elements are tuples of factor payloads."""

    kind = "direct-product"

    def __init__(self, factors: Sequence[Group], kind=None, name=None):
        factors = list(factors)
        if not factors:
            raise ValueError("direct product needs at least one factor")
        order = math.prod(f.order for f in factors)
        super().__init__(order, name or "x".join(f.name for f in factors))
        if kind is not None:
            self.kind = kind
        self.factors = tuple(factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def multiply(self, x, y):
        return tuple(f.multiply(a, b) for f, a, b in zip(self.factors, x, y))

    def validate_element(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise RealizationError(f"{x!r} is not a {len(self.factors)}-component tuple")
        for f, a in zip(self.factors, x):
            f.validate_element(a)

    def require_enumerable(self):
        super().require_enumerable()
        for f in self.factors:
            f.require_enumerable()

    def elements(self):
        self.require_enumerable()
        return _iproduct(*[f.elements() for f in self.factors])

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

    def element_order(self, x):
        out = 1
        for f, a in zip(self.factors, x):
            out = math.lcm(out, f.element_order(a))
        return out

    def is_abelian(self):
        return all(f.is_abelian() for f in self.factors)

    def key(self):
        return ("direct-product", tuple(f.key() for f in self.factors))

    def order_factorization(self):
        out: dict[int, int] = {}
        for f in self.factors:
            for p, a in f.order_factorization().items():
                out[p] = out.get(p, 0) + a
        return out

    def _compute_spectrum(self):
        spec = self.factors[0].spectrum()
        for f in self.factors[1:]:
            spec = lcm_convolve(spec, f.spectrum())
        return spec


class AbelianGroup(DirectProductGroup):
    """Direct product of cyclic groups of prime-power order, by primary type.

    The factors are Z_(p^a), one per exponent a listed for the prime p, so
    the elements are flat residue tuples.
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

    def key(self):
        return ("abelian", self.primary_type)

    def _compute_spectrum(self):
        # the factors' order counts, each evaluated on every residue, are
        # convolved as plain counts, so the spectrum is checked once
        self.require_enumerable()
        counts = {1: 1}
        for m in self.moduli:
            counts = _lcm_convolve_counts(counts, _cyclic_order_counts(m))
        return OrderSpectrum(counts, self.order)


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
        row = list(row)
        if len(row) != n:
            raise IntegrityError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, (int, np.integer)) or not 0 <= v < n:
                raise IntegrityError(f"entry at row {i}, column {j} is {v!r}")
    raise IntegrityError("table entries are not integers below the side")


def _magma_generators(arr: np.ndarray) -> list[int]:
    """Indices that generate the table under products, picked greedily.

    Each pick is the smallest index outside the submagma generated so far,
    which is then closed under products of its members.  Index 0, the
    identity, starts inside.  In a group each pick at least doubles the
    subgroup generated so far, so a group of order n needs at most log2(n).
    """
    inside = np.zeros(len(arr), dtype=bool)
    inside[0] = True
    picks = []
    while not inside.all():
        pick = int(np.argmin(inside))
        picks.append(pick)
        inside[pick] = True
        while True:
            members = np.flatnonzero(inside)
            inside[arr[np.ix_(members, members)]] = True
            if np.count_nonzero(inside) == len(members):
                break
    return picks


def _check_associativity(arr: np.ndarray) -> None:
    """Light's test: (xy)s = x(ys) for all x, y and each generator s.

    The s that pass for every x, y are closed under products:
    (xy)(ab) = ((xy)a)b = (x(ya))b = x((ya)b) = x(y(ab)), so checking a
    generating set checks the whole table.  The identity passes trivially.
    """
    for k in _magma_generators(arr):
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
        self._array = arr

    @cached_property
    def table(self) -> list[list[int]]:
        """Rows of the table as lists of Python ints."""
        return self._array.tolist()

    def identity(self):
        return 0

    def multiply(self, x, y):
        return self.table[x][y]

    def validate_element(self, x):
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise RealizationError(f"{x!r} is not a table index below {self.order}")

    def elements(self):
        self.require_enumerable()
        return iter(range(self.order))

    def _decode(self, idx):
        return idx

    def _encode(self, batch):
        return batch

    def _batch_multiply(self, x, y):
        return self._array[x, y]

    def _unpack(self, batch):
        return batch.tolist()

    def is_abelian(self):
        return bool(np.array_equal(self._array, self._array.T))

    def key(self):
        return ("cayley-table", tuple(tuple(r) for r in self.table))


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


def order_spectrum(group: Group) -> OrderSpectrum:
    """Exact spectrum, via the cheapest exact route for the realization."""
    return group.spectrum()


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
    if not targets:
        return []
    # candidates in elements() order, decoded in one batch
    picks = [np.flatnonzero(orders == t) for t in targets]
    candidates = group.payloads(np.concatenate(picks))
    ends = list(accumulate(len(pick) for pick in picks))
    buckets = [candidates[end - len(pick):end] for pick, end in zip(picks, ends)]
    # search smallest candidate sets first; remember where each target goes
    search_order = sorted(range(len(targets)), key=lambda i: len(buckets[i]))
    chosen: list = [None] * len(targets)

    def backtrack(depth: int) -> bool:
        if depth == len(search_order):
            return True
        slot = search_order[depth]
        for cand in buckets[slot]:
            ok = True
            for earlier in search_order[:depth]:
                other = chosen[earlier]
                if group.multiply(cand, other) != group.multiply(other, cand):
                    ok = False
                    break
            if ok:
                chosen[slot] = cand
                if backtrack(depth + 1):
                    return True
                chosen[slot] = None
        return False

    if backtrack(0):
        return list(chosen)
    return None


def report(group: Group) -> PhiReport:
    """Assemble every spectrum-derived quantity for a group."""
    spec = group.spectrum()
    exp = spec.exponent()
    phi_g = spec.phi()
    phi_exp = euler_phi(exp)
    k, rem = divmod(phi_g, phi_exp)
    if rem:
        raise IntegrityError(f"phi is not a multiple of phi(exp) for {group.name}")
    phi_order = euler_phi_from_factorization(group.order_factorization())
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
