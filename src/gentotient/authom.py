"""Exact counting of automorphisms and homomorphisms of small groups.

Both counters backtrack over candidate images of a greedily chosen generating
set.  Each partial assignment is extended to the generated subgroup by
right-multiplication closure; every product x * g of a mapped element with a
mapped generator is checked on the way, which is enough to certify the full
homomorphism property once the closure stabilizes.

``hom_count`` from a cyclic source Z_m needs no search: a homomorphism is
fixed by the image t of one generator, and any t with t^m = 1 is a valid
image, so the count is #{t : o(t) divides m}, read from the target's order
array (group-law data from the power maps, never ``closedforms``).  From any
other source it visits one search leaf per homomorphism.  ``aut_count`` does
not: Aut G acts regularly on the valid generator-image tuples, so |Aut G| is
the product over the generators g_k of the orbit length of g_k under the
pointwise stabilizer of g_1..g_(k-1).  Each orbit length counts the images
of g_k that extend to an automorphism with the earlier generators fixed,
and an existence search, stopping at its first leaf, decides each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AbelianGroup,
    CyclicGroup,
    Group,
    IntegrityError,
    ResourceLimitError,
    report,
)
from .numtheory import size_text

AUT_ORDER_CAP = 256      # largest |G| the counters will materialize
AUT_GENERATOR_CAP = 4    # refuse greedy generating sets larger than this
AUT_SEARCH_CAP = 1_200_000  # refuse candidate-image products larger than this


def _require_searchable(group: Group) -> None:
    """Refuse a group above the order cap of the counters."""
    if group.order > AUT_ORDER_CAP:
        raise ResourceLimitError(f"|{group.name}| = {size_text(group.order)} exceeds "
                                 f"the search cap of {AUT_ORDER_CAP}")


class MaterializedGroup:
    """Index-based multiplication table for fast search.

    Indices follow ``group.elements()``; index 0 is the identity.  The table
    comes from one batch product over all n^2 index pairs (n is at most the
    cap), and the element orders are the group's cached order array.
    """

    def __init__(self, group: Group):
        _require_searchable(group)
        n = group.order
        self.group = group
        self.orders = group.element_orders().tolist()
        idx = np.arange(n, dtype=np.int32)
        products = group.index_product(np.repeat(idx, n), np.tile(idx, n))
        self.table = products.reshape(n, n).tolist()
        self.n = n
        buckets: dict[int, list[int]] = {}
        for i, o in enumerate(self.orders):
            buckets.setdefault(o, []).append(i)
        self.order_buckets = buckets


def _closure_ids(table, gens) -> list[int]:
    sub = [0]
    seen = {0}
    idx = 0
    while idx < len(sub):
        x = sub[idx]
        idx += 1
        for g in gens:
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                sub.append(y)
    return sub


def greedy_generators(mat: MaterializedGroup) -> list[int]:
    """Generating set grown by repeatedly taking a maximal-order element
    outside the closure so far (smallest index on ties)."""
    gens: list[int] = []
    closure = {0}
    while len(closure) < mat.n:
        best = -1
        best_order = 0
        for i in range(mat.n):
            if i not in closure and mat.orders[i] > best_order:
                best, best_order = i, mat.orders[i]
        gens.append(best)
        closure = set(_closure_ids(mat.table, gens))
    return gens


def _check_search_space(candidates: list[list[int]]) -> None:
    space = math.prod(len(c) for c in candidates)
    if space > AUT_SEARCH_CAP:
        raise ResourceLimitError(
            f"candidate image space of size {space} exceeds the search cap of "
            f"{AUT_SEARCH_CAP}"
        )


def _morphism_search(src: MaterializedGroup, dst: MaterializedGroup,
                     gens: list[int], candidates: list[list[int]],
                     injective: bool):
    """Backtracking state for the images of ``gens`` in ``dst``.

    Returns ``(fix, search)``.  ``fix(depth, h)`` assigns ``gens[depth] -> h``
    for good and reports whether the closure checks pass.
    ``search(depth, first, first_below)`` counts the complete assignments of
    ``gens[depth:]`` that extend the current one, trying each candidate
    image of ``gens[depth]`` and undoing it before the next.  With ``first``
    it stops at the first complete assignment; with ``first_below`` every
    deeper level does, so each image of ``gens[depth]`` counts at most once.
    """
    stable = src.table
    dtable = dst.table
    img = [-1] * src.n
    img[0] = 0  # identity to identity
    used = bytearray(dst.n)
    used[0] = 1
    sub = [0]
    assigned: list[int] = []

    def extend(new_gen: int, new_img: int) -> bool:
        img[new_gen] = new_img
        if injective:
            used[new_img] = 1
        start = len(sub)
        sub.append(new_gen)
        # previously closed elements only need expansion by the new generator
        for pos in range(start):
            x = sub[pos]
            y = stable[x][new_gen]
            iy = dtable[img[x]][new_img]
            t = img[y]
            if t == -1:
                if injective:
                    if used[iy]:
                        return False
                    used[iy] = 1
                img[y] = iy
                sub.append(y)
            elif t != iy:
                return False
        # fresh elements need expansion by every assigned generator
        idx = start
        while idx < len(sub):
            x = sub[idx]
            ix = img[x]
            for g in assigned:
                y = stable[x][g]
                iy = dtable[ix][img[g]]
                t = img[y]
                if t == -1:
                    if injective:
                        if used[iy]:
                            return False
                        used[iy] = 1
                    img[y] = iy
                    sub.append(y)
                elif t != iy:
                    return False
            idx += 1
        return True

    def fix(depth: int, h: int) -> bool:
        assigned.append(gens[depth])
        return extend(gens[depth], h)

    last = len(gens) - 1

    def search(depth: int, first: bool, first_below: bool) -> int:
        g = gens[depth]
        total = 0
        for h in candidates[depth]:
            if injective and used[h]:
                continue
            mark = len(sub)
            assigned.append(g)
            if extend(g, h):
                total += 1 if depth == last else search(depth + 1, first_below,
                                                        first_below)
            for x in sub[mark:]:
                if injective:
                    used[img[x]] = 0
                img[x] = -1
            del sub[mark:]
            assigned.pop()
            if first and total:
                break
        return total

    return fix, search


def _count_morphisms(src: MaterializedGroup, dst: MaterializedGroup,
                     gens: list[int], candidates: list[list[int]],
                     injective: bool) -> int:
    """Number of complete generator assignments: one search leaf each."""
    _check_search_space(candidates)
    if not gens:
        return 1
    _, search = _morphism_search(src, dst, gens, candidates, injective)
    return search(0, False, False)


def _count_automorphisms(mat: MaterializedGroup, gens: list[int],
                         candidates: list[list[int]]) -> int:
    """|Aut G| as a product of orbit lengths, one per generator.

    Let g1..gr be the generators.  An automorphism is fixed by its image
    tuple (h1..hr), so Aut G acts regularly on the valid tuples by
    composition.  The valid tuples that start with a valid prefix
    (h1..h(k-1)) are the images of one coset of the pointwise stabilizer S of
    g1..g(k-1), so their possible k-th entries form a translate of the orbit
    of gk under S: every valid prefix has the same number of valid
    extensions at position k.  The identity prefix (g1..g(k-1)) is always
    valid, so counting there gives that number, and

        |Aut G| = prod over k of |orbit of gk under the stabilizer of g1..g(k-1)|

    (orbit-stabilizer down the chain of pointwise stabilizers; Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).  An image
    of gk has gk's order, so the orbit lies in gk's order bucket; a candidate
    h is in it iff g1..g(k-1) -> themselves, gk -> h extends to an
    automorphism, which an existence search over the remaining generators
    decides, stopping at the first complete assignment.
    """
    _check_search_space(candidates)
    fix, search = _morphism_search(mat, mat, gens, candidates, injective=True)
    out = 1
    for depth, g in enumerate(gens):
        out *= search(depth, False, True)
        if not fix(depth, g):
            raise IntegrityError(f"the identity map of {mat.group.name} failed "
                                 f"the closure checks")
    return out


def aut_count(group: Group) -> int:
    """Exact size of the automorphism group, as a product of orbit lengths.

    The greedy generators g1..gr are fixed one at a time: the k-th factor is
    the number of images of gk that extend, with g1..g(k-1) fixed, to an
    automorphism.  The product is exact because automorphisms act regularly
    on the valid generator-image tuples, so every valid prefix has as many
    valid extensions as the identity prefix (``_count_automorphisms`` gives
    the argument).  Each candidate image costs one existence search, which stops at
    its first complete assignment, where a full count would visit one leaf
    per automorphism.

    Abelian groups of multi-prime order factor as a direct product of their
    coprime primary parts, and automorphisms respect that splitting, so each
    part is counted separately.
    """
    if isinstance(group, AbelianGroup) and len(group.primary_type) > 1:
        out = 1
        for p, alphas in group.primary_type:
            out *= aut_count(AbelianGroup([(p, alphas)]))
        return out
    mat = MaterializedGroup(group)
    gens = greedy_generators(mat)
    if len(gens) > AUT_GENERATOR_CAP:
        raise ResourceLimitError(
            f"{group.name} needs {len(gens)} generators; the automorphism "
            f"counter refuses beyond {AUT_GENERATOR_CAP}"
        )
    candidates = [list(mat.order_buckets[mat.orders[g]]) for g in gens]
    return _count_automorphisms(mat, gens, candidates)


def hom_count(source: Group, target: Group) -> int:
    """Number of multiplication-preserving maps source -> target.

    Both groups must be within the order cap, source checked first.  A cyclic
    source Z_m (one whose element orders reach m) is counted as the number
    of target elements whose order divides m, with no table and no search.
    Any other source backtracks over images of its greedy generators, one
    search leaf per homomorphism.
    """
    _require_searchable(source)
    _require_searchable(target)
    m = source.order
    if source.element_orders().max() == m:
        return int(np.count_nonzero(m % target.element_orders() == 0))
    src = MaterializedGroup(source)
    dst = MaterializedGroup(target)
    gens = greedy_generators(src)
    if len(gens) > AUT_GENERATOR_CAP:
        raise ResourceLimitError(
            f"{source.name} needs {len(gens)} generators; the homomorphism "
            f"counter refuses beyond {AUT_GENERATOR_CAP}"
        )
    candidates = [
        [j for j in range(dst.n) if src.orders[g] % dst.orders[j] == 0]
        for g in gens
    ]
    return _count_morphisms(src, dst, gens, candidates, injective=False)


def center_size(group: Group) -> int:
    """Size of the center, by commutation against a generating set."""
    mat = MaterializedGroup(group)
    gens = greedy_generators(mat)
    return sum(
        1
        for i in range(mat.n)
        if all(mat.table[i][g] == mat.table[g][i] for g in gens)
    )


def aut_product_formula(g1: Group, g2: Group) -> int:
    """|Aut(G1 x G2)| = |Aut(G1)| * |Aut(G2)| * |Hom(G2, G1)|.

    Requires G1 cyclic and G2 with trivial center; both hypotheses are
    checked (the center by enumeration).
    """
    if not isinstance(g1, CyclicGroup):
        raise ValueError(f"first factor must be cyclic, got {g1.name}")
    if center_size(g2) != 1:
        raise ValueError(
            f"second factor must have trivial center; Z({g2.name}) is nontrivial"
        )
    return aut_count(g1) * aut_count(g2) * hom_count(g2, g1)


@dataclass(frozen=True)
class PhiOrderMatch:
    """Both sides of: phi(G) = phi(|G|) iff k = |G| / exp(G)."""

    phi_g: int
    phi_order: int
    k: int
    ratio: int
    holds: bool


def phi_order_match_check(group: Group) -> PhiOrderMatch:
    """Evaluate phi(G) = phi(|G|) and k = |G|/exp(G) independently.

    The two conditions are equivalent; computing both and comparing guards
    the whole pipeline.
    """
    rep = report(group)
    lhs = rep.phi_g == rep.phi_of_order
    ratio = group.order // rep.exponent
    rhs = rep.k == ratio
    if lhs != rhs:
        raise IntegrityError(
            f"equivalence broken for {group.name}: phi-match={lhs}, k-match={rhs}"
        )
    return PhiOrderMatch(rep.phi_g, rep.phi_of_order, rep.k, ratio, lhs)


def phi_exp_match_check(group: Group) -> bool:
    """True iff G has a unique cyclic subgroup of maximal order (k = 1).

    Equivalent to phi(G) = phi(exp G); both forms are computed and compared.
    """
    rep = report(group)
    lhs = rep.k == 1
    rhs = rep.phi_g == rep.phi_of_exp and rep.phi_g != 0
    if lhs != rhs:
        raise IntegrityError(f"k = 1 equivalence broken for {group.name}")
    return lhs


@dataclass(frozen=True)
class PhiAutScreen:
    """Screen for phi(G) > |Aut(G)| candidates.

    Any group beating the bound must satisfy |G| >= exp(G)^2, so the cheap
    necessary condition runs first and Aut is only counted when it might
    matter (or is supplied externally).
    """

    phi_g: int
    aut: Optional[int]
    cond_i: bool
    is_counterexample: Optional[bool]


def phi_aut_screen(group: Group, aut_override: Optional[int] = None) -> PhiAutScreen:
    rep = report(group)
    cond_i = group.order >= rep.exponent**2
    if not cond_i:
        return PhiAutScreen(rep.phi_g, None, False, False)
    aut = aut_override
    if aut is None:
        try:
            aut = aut_count(group)
        except ResourceLimitError:
            return PhiAutScreen(rep.phi_g, None, True, None)
    return PhiAutScreen(rep.phi_g, aut, True, rep.phi_g > aut)
