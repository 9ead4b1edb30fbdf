"""Exact counting of automorphisms and homomorphisms of small groups.

When one side is cyclic, the counts are read from element orders:
|Aut(Z_n)| = #{x : o(x) = n}.  A homomorphism from Z_m is fixed by the image t
of one generator, and any t with t^m = 1 is a valid image, so
|Hom(Z_m, T)| = #{t : o(t) divides m}.  Every homomorphism into an abelian
group factors through G/G', and |Hom(A, Z_k)| = #{a in A : a^k = 1} for a
finite abelian A, so |Hom(G, Z_k)| = #{x in G : x^k in G'} / |G'|; an
abelian source reads it from its order array, any other source from its
``Group.index_table()``, its derived subgroup G' and its k-th power map
(Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005, chs.
3-4).  Whether a side is cyclic is ``Group.is_cyclic()``, which each
realization answers from its own structure (a nonabelian group is never
cyclic), so the order engine runs only on the side whose orders are counted.
The orders are group-law data from the power maps, never ``closedforms``,
and each group builds its table once and caches it.

Otherwise both counters backtrack over candidate images of a greedily chosen
generating set.  ``core.generate`` picks it, largest order first, and also
grows G' from the commutators.  Each partial assignment is extended to the
generated subgroup by right-multiplication closure; every product x * g of a
mapped element with a mapped generator is checked on the way, which is
enough to certify the full homomorphism property once the closure
stabilizes.
``hom_count`` visits one search leaf per homomorphism.  ``aut_count`` does
not: it multiplies orbit lengths down a chain of pointwise stabilizers in
Aut G, found by orbit closure under the automorphisms met so far (Seress,
Permutation Group Algorithms, 2003, ch. 4; Holt, Eick & O'Brien, 2005, ch. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AbelianGroup,
    Group,
    IntegrityError,
    ResourceLimitError,
    close_orbit,
    generate,
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


def _derived_subgroup(table: np.ndarray) -> np.ndarray:
    """Membership mask of the derived subgroup G', from an index table.

    G' is the subgroup generated by the commutators x^-1 y^-1 x y, which
    ``generate`` grows from greedy picks among them.
    """
    inv = np.argmax(table == 0, axis=1)
    member = np.zeros(len(table), dtype=bool)
    member[table[table[inv[:, None], inv], table]] = True
    _, closure = generate(table, np.flatnonzero(member).tolist())
    member[list(closure)] = True
    return member


def _power_map(table: np.ndarray, k: int) -> np.ndarray:
    """Index map x -> x^k for k >= 1, by table gathers."""
    base = np.arange(len(table))
    acc = np.zeros_like(base)
    while k:
        if k & 1:
            acc = table[acc, base]
        base = table[base, base]
        k >>= 1
    return acc


class MaterializedGroup:
    """The group's cached element orders and ``Group.table`` as the Python
    lists the search reads; index 0 is the identity."""

    def __init__(self, group: Group):
        _require_searchable(group)
        self.group = group
        self.n = group.order
        self.orders = group.element_orders().tolist()
        self.table = group.table


def greedy_generators(mat: MaterializedGroup) -> list[int]:
    """Generating set grown by repeatedly taking a maximal-order element
    outside the closure so far (smallest index on ties)."""
    # a stable sort: reverse=True keeps equal orders in index order
    by_order = sorted(range(mat.n), key=mat.orders.__getitem__, reverse=True)
    return generate(mat.group.index_table(), by_order)[0]


def _capped_generators(mat: MaterializedGroup, counter: str) -> list[int]:
    """Greedy generators of the group, refused beyond AUT_GENERATOR_CAP."""
    gens = greedy_generators(mat)
    if len(gens) > AUT_GENERATOR_CAP:
        raise ResourceLimitError(f"{mat.group.name} needs {len(gens)} generators; the {counter} "
                                 f"counter refuses beyond {AUT_GENERATOR_CAP}")
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

    Returns ``(fix, search, leaf)``.  ``fix(depth, h)`` assigns
    ``gens[depth] -> h`` for good and reports whether the closure checks
    pass.  ``search(depth, first, images)`` counts the complete assignments
    of ``gens[depth:]`` that extend the current one, trying each of
    ``images`` (by default every candidate) for ``gens[depth]`` and undoing
    it before the next.  With ``first`` it is an existence search: every
    level stops at the first complete assignment, and ``leaf`` then holds
    that assignment's image of every element of ``src``.
    """
    stable = src.table
    dtable = dst.table
    img = [-1] * src.n
    img[0] = 0  # identity to identity
    used = bytearray(dst.n)
    used[0] = 1
    sub = [0]
    assigned: list[int] = []
    leaf: list[int] = []

    def extend(new_gen: int, new_img: int) -> bool:
        img[new_gen] = new_img
        if injective:
            used[new_img] = 1
        start = len(sub)
        sub.append(new_gen)
        # previously closed elements only need expansion by the new generator
        # (two loops: one loop expanding every element by every assigned
        # generator gave the same counts but made aut_count and hom_count
        # 1.2-1.4x slower in CPU time on the benchmark's small groups)
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

    def search(depth: int, first: bool, images: Optional[list[int]] = None) -> int:
        g = gens[depth]
        total = 0
        for h in candidates[depth] if images is None else images:
            if injective and used[h]:
                continue
            mark = len(sub)
            assigned.append(g)
            if extend(g, h):
                if depth < last:
                    total += search(depth + 1, first)
                else:
                    total += 1
                    if first:
                        leaf[:] = img
            for x in sub[mark:]:
                if injective:
                    used[img[x]] = 0
                img[x] = -1
            del sub[mark:]
            assigned.pop()
            if first and total:
                break
        return total

    return fix, search, leaf


def _count_morphisms(src: MaterializedGroup, dst: MaterializedGroup,
                     gens: list[int], candidates: list[list[int]],
                     injective: bool) -> int:
    """Number of complete generator assignments: one search leaf each."""
    _check_search_space(candidates)
    if not gens:
        return 1
    _, search, _ = _morphism_search(src, dst, gens, candidates, injective)
    return search(0, False)


def _orbit_chain(mat: MaterializedGroup, gens: list[int],
                 candidates: list[list[int]]):
    """The orbit of each generator under the stabilizer chain of Aut G.

    Returns ``(orbits, rejected, found)``: ``orbits[k]`` is the orbit of
    ``gens[k]`` under the pointwise stabilizer S_k of ``gens[:k]``,
    ``rejected[k]`` the rest of its candidates, and ``found`` the
    automorphisms (image lists) whose existence searches decided them.

    The generators are taken from the last one up.  Every automorphism
    found at depth k or at a later generator fixes ``gens[:k]``, so it lies
    in S_k, and S_k maps its orbit, and so also the orbit's complement, onto
    itself: a candidate that one of them moves from the orbit joins the
    orbit, and one moved from a rejected candidate is rejected, with no
    search.  Only the candidates that neither closure reaches cost an
    existence search for ``gens[k] -> h``; a success adds its leaf, an
    automorphism in S_k, to ``found``.  This is orbit closure under known
    group elements down a chain of pointwise stabilizers (Seress,
    Permutation Group Algorithms, 2003, ch. 4; Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 4).
    """
    _check_search_space(candidates)
    orbits: list[set[int]] = [set() for _ in gens]
    rejected: list[set[int]] = [set() for _ in gens]
    found: list[list[int]] = []
    for depth in reversed(range(len(gens))):
        fix, search, leaf = _morphism_search(mat, mat, gens, candidates, injective=True)
        if not all(fix(d, gens[d]) for d in range(depth)):
            raise IntegrityError(f"the identity map of {mat.group.name} failed "
                                 f"the closure checks")
        orbit, outside = orbits[depth], rejected[depth]
        orbit.add(gens[depth])
        close_orbit(orbit, found)
        for h in candidates[depth]:
            if h in orbit or h in outside:
                continue
            if search(depth, True, [h]):
                found.append(leaf[:])
                close_orbit(orbit, found)
            else:
                outside.add(h)
            close_orbit(outside, found)
    return orbits, rejected, found


def aut_count(group: Group) -> int:
    """Exact size of the automorphism group, as a product of orbit lengths.

    For the greedy generators g1..gr, the k-th factor is the orbit of gk
    under the pointwise stabilizer S_k of g1..g(k-1); an image of gk has
    gk's order, so the orbit lies among the elements of that order.  An
    automorphism is fixed by its image tuple, so Aut G acts regularly on the
    valid tuples, and the valid tuples extending a valid prefix (h1..h(k-1))
    are the images of one coset of S_k: every valid prefix has as many
    valid k-th entries as the identity prefix, and

        |Aut G| = prod over k of |orbit of gk under S_k|

    (orbit-stabilizer down the chain of pointwise stabilizers; Holt, Eick &
    O'Brien, 2005, ch. 4).  ``_orbit_chain`` finds the orbits.  A full count
    would visit one leaf per automorphism.

    Abelian groups of multi-prime order factor as a direct product of their
    coprime primary parts, and automorphisms respect that splitting, so each
    part is counted separately.  A cyclic group Z_n (``is_cyclic()``, in
    any realization) needs no table and no search: an automorphism sends a
    generator to a generator, and any generator is a valid image, so
    |Aut Z_n| = #{x : o(x) = n}.
    """
    if isinstance(group, AbelianGroup) and len(group.primary_type) > 1:
        out = 1
        for p, alphas in group.primary_type:
            out *= aut_count(AbelianGroup([(p, alphas)]))
        return out
    _require_searchable(group)
    orders = group.element_orders()
    if group.is_cyclic():
        return int(np.count_nonzero(orders == group.order))
    mat = MaterializedGroup(group)
    gens = _capped_generators(mat, "automorphism")
    candidates = [np.flatnonzero(orders == orders[g]).tolist() for g in gens]
    orbits, _, _ = _orbit_chain(mat, gens, candidates)
    return math.prod(len(orbit) for orbit in orbits)


def hom_count(source: Group, target: Group) -> int:
    """Number of multiplication-preserving maps source -> target.

    Both groups must be within the order cap, source checked first.  When
    one side is cyclic there is no search.  ``Group.is_cyclic()`` decides
    that from the realization, and builds no order array for a nonabelian
    group, so only the side whose orders are counted runs the order engine.
    Into a cyclic target Z_k, an abelian source counts its elements whose
    order divides k; any other source counts the x with x^k in its derived
    subgroup G' and divides by |G'|, from its own index table.  A cyclic
    source Z_m counts the target elements whose order divides m.  Between
    two noncyclic groups the count backtracks over images of the source's
    greedy generators, one search leaf per homomorphism.
    """
    _require_searchable(source)
    _require_searchable(target)
    k = target.order
    if target.is_cyclic():
        if source.is_abelian():
            return int(np.count_nonzero(k % source.element_orders() == 0))
        table = source.index_table()
        in_derived = _derived_subgroup(table)
        return int(np.count_nonzero(in_derived[_power_map(table, k)])
                   // np.count_nonzero(in_derived))
    if source.is_cyclic():
        return int(np.count_nonzero(source.order % target.element_orders() == 0))
    src = MaterializedGroup(source)
    dst = MaterializedGroup(target)
    gens = _capped_generators(src, "homomorphism")
    candidates = [
        [j for j in range(dst.n) if src.orders[g] % dst.orders[j] == 0]
        for g in gens
    ]
    return _count_morphisms(src, dst, gens, candidates, injective=False)


def center_size(group: Group) -> int:
    """Size of the center: the rows of the index table that equal their
    columns, x y = y x for every y."""
    _require_searchable(group)
    table = group.index_table()
    return int(np.count_nonzero((table == table.T).all(axis=1)))


def aut_product_formula(g1: Group, g2: Group) -> int:
    """|Aut(G1 x G2)| = |Aut(G1)| * |Aut(G2)| * |Hom(G2, G1)|.

    Requires G1 cyclic and G2 with trivial center; both hypotheses are
    checked (G1 by ``Group.is_cyclic()``, so any realization of Z_m
    qualifies; the center from the index table).
    """
    _require_searchable(g1)
    if not g1.is_cyclic():
        raise ValueError(f"first factor must be cyclic, got {g1.name}")
    if center_size(g2) != 1:
        raise ValueError(
            f"second factor must have trivial center; Z({g2.name}) is nontrivial"
        )
    return aut_count(g1) * aut_count(g2) * hom_count(g2, g1)


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
