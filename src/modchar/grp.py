"""Small permutation-group scaffolding: element enumeration, classes, cosets.

Groups are enumerated in full (no stabilizer chains): the point of this module
is deterministic canonical data for desk-scale groups, not asymptotics.
Permutations are 0-based tuples; products act left to right, i.e.
(a*b)[i] = b[a[i]], matching the row-vector convention of the matrix modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .errors import GeneratorCountMismatch, GroupTooLarge, NotAGroup, NotSubgroup, TooLarge
from .gfla import FieldSpec, FqMatrix, factorize, field_make

Perm = tuple[int, ...]

GROUP_BOUND = 10**6


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_mul(a: Perm, b: Perm) -> Perm:
    return tuple(b[a[i]] for i in range(len(a)))


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_pow(a: Perm, e: int) -> Perm:
    x = perm_identity(len(a))
    for _ in range(e):
        x = perm_mul(x, a)
    return x


def perm_order(a: Perm) -> int:
    n = len(a)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        order = lcm(order, length)
    return order


def perm_from_cycles(n: int, cycles) -> Perm:
    """Build a permutation on 0..n-1 from disjoint 1-based cycles on 1..n."""
    points = [pt for cyc in cycles for pt in cyc]
    if len(set(points)) < len(points) or not set(points) <= set(range(1, n + 1)):
        raise NotAGroup(f"cycle points must be distinct and in 1..{n}")
    img = list(range(n))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            img[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


@dataclass(frozen=True)
class PermGroup:
    degree: int
    gens: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    index: dict[Perm, int] = field(repr=False, compare=False)
    parents: tuple[tuple[int, int] | None, ...] = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def word_for(self, g: Perm) -> tuple[int, ...]:
        """Indices of generators whose ordered product equals g."""
        i = self.index[g]
        word = []
        while self.parents[i] is not None:
            parent, gen = self.parents[i]
            word.append(gen)
            i = parent
        word.reverse()
        return tuple(word)

    def contains(self, g: Perm) -> bool:
        return g in self.index

    def exponent(self) -> int:
        e = 1
        for g in self.elements:
            e = lcm(e, perm_order(g))
        return e


def enumerate_group(gens) -> PermGroup:
    """Breadth-first closure; layers are sorted lexicographically by image."""
    gens = tuple(tuple(g) for g in gens)
    if not gens:
        raise GeneratorCountMismatch("at least one generator required")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise NotSubgroup("generators act on different point sets")
    if any(sorted(g) != list(range(n)) for g in gens):
        raise NotAGroup(f"a generator is not a permutation of 0..{n - 1}")
    ident = perm_identity(n)
    elements = [ident]
    index = {ident: 0}
    parents: list[tuple[int, int] | None] = [None]
    frontier = [0]
    while frontier:
        new = []
        for ei in frontier:
            e = elements[ei]
            for gi, g in enumerate(gens):
                prod = perm_mul(e, g)
                if prod not in index:
                    index[prod] = -1  # placeholder so duplicates in a layer collapse
                    new.append((prod, ei, gi))
        new.sort(key=lambda t: t[0])
        frontier = []
        for prod, ei, gi in new:
            idx = len(elements)
            elements.append(prod)
            index[prod] = idx
            parents.append((ei, gi))
            frontier.append(idx)
        if len(elements) > GROUP_BOUND:
            raise GroupTooLarge(f"closure exceeded the bound {GROUP_BOUND}")
    return PermGroup(n, gens, tuple(elements), index, tuple(parents))


@dataclass(frozen=True)
class ClassData:
    reps: tuple[Perm, ...]
    sizes: tuple[int, ...]
    orders: tuple[int, ...]
    class_of: dict[Perm, int] = field(repr=False, compare=False)
    power_maps: dict[int, tuple[int, ...]] = field(repr=False, compare=False)
    p: int | None = None

    @property
    def count(self) -> int:
        return len(self.reps)

    def p_regular(self, p: int | None = None) -> tuple[bool, ...]:
        p = p if p is not None else self.p
        if not p:
            return tuple(True for _ in self.orders)
        return tuple(o % p != 0 for o in self.orders)

    def labels(self) -> tuple[str, ...]:
        return tuple(letter_labels(self.orders))


def letter_labels(keys) -> list[str]:
    """`{key}{letter}` for each key in turn, the letter a, b, ... counting
    the key's earlier occurrences: class orders, factor and character degrees."""
    seen: dict = {}
    out = []
    for k in keys:
        c = seen[k] = seen.get(k, -1) + 1
        out.append(f"{k}{chr(ord('a') + c)}")
    return out


def conjugacy_classes(g: PermGroup, p: int | None = None) -> ClassData:
    """Conjugation orbits; identity class first, then by (order, size, least rep)."""
    if p:  # None and 0 mean no prime; any other p that is not a prime is refused
        field_make(p)
    assigned: dict[Perm, int] = {}
    raw: list[list[Perm]] = []
    for e in g.elements:
        if e in assigned:
            continue
        orbit = {e}
        queue = [e]
        while queue:
            x = queue.pop()
            for gen in g.gens:
                y = perm_mul(perm_mul(perm_inv(gen), x), gen)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        ci = len(raw)
        raw.append(sorted(orbit))
        for x in orbit:
            assigned[x] = ci
    order_of = [perm_order(c[0]) for c in raw]
    perm_order_key = sorted(
        range(len(raw)),
        key=lambda i: (order_of[i] != 1, order_of[i], len(raw[i]), raw[i][0]),
    )
    reps = tuple(raw[i][0] for i in perm_order_key)
    sizes = tuple(len(raw[i]) for i in perm_order_key)
    orders = tuple(order_of[i] for i in perm_order_key)
    renumber = {old: new for new, old in enumerate(perm_order_key)}
    class_of = {x: renumber[ci] for x, ci in assigned.items()}
    power_maps = {prime: tuple(class_of[perm_pow(r, prime)] for r in reps) for prime in factorize(g.order)}
    return ClassData(reps, sizes, orders, class_of, power_maps, p)


def subgroup_elements(g: PermGroup, sub_gens) -> list[Perm]:
    sub_gens = [tuple(s) for s in sub_gens]
    for s in sub_gens:
        if s not in g.index:
            raise NotSubgroup("generator outside the ambient group")
    if not sub_gens:
        return [perm_identity(g.degree)]
    h = enumerate_group(sub_gens)
    return list(h.elements)


@dataclass(frozen=True)
class CosetAction:
    degree: int
    perms: tuple[Perm, ...]  # image of each ambient generator
    coset_reps: tuple[Perm, ...]


def coset_action(g: PermGroup, sub_gens) -> CosetAction:
    """Action of g on the right cosets of <sub_gens>, ordered by least element."""
    h = subgroup_elements(g, sub_gens)
    seen: dict[Perm, Perm] = {}  # element -> coset key (least member)
    keys = []
    for e in g.elements:
        if e in seen:
            continue
        coset = sorted(perm_mul(x, e) for x in h)
        key = coset[0]
        keys.append(key)
        for c in coset:
            seen[c] = key
    keys.sort()
    key_index = {k: i for i, k in enumerate(keys)}
    perms = []
    for gen in g.gens:
        perms.append(tuple(key_index[seen[perm_mul(k, gen)]] for k in keys))
    return CosetAction(len(keys), tuple(perms), tuple(keys))


def double_cosets(g: PermGroup, sub_gens) -> list[tuple[Perm, int]]:
    """Canonical least representative and size of each double coset H\\g/H."""
    h = subgroup_elements(g, sub_gens)
    marked: set[Perm] = set()
    out = []
    for e in g.elements:
        if e in marked:
            continue
        dc = {perm_mul(perm_mul(a, e), b) for a in h for b in h}
        out.append((min(dc), len(dc)))
        marked.update(dc)
    out.sort(key=lambda t: t[0])
    return out


def perm_matrices(perms, field: FieldSpec) -> list[FqMatrix]:
    out = []
    for p in perms:
        n = len(p)
        m = np.zeros((n, n), dtype=np.int64)
        for i, j in enumerate(p):
            m[i, j] = 1
        out.append(FqMatrix(field, m))
    return out


def perm_rep(g: PermGroup, field: FieldSpec):
    """Natural permutation representation of each generator."""
    from .rep import Representation

    n = g.degree
    if n * n > 10**8:
        raise TooLarge("permutation matrices too large")
    return Representation(field, n, tuple(perm_matrices(g.gens, field)), "perm")


def regular_action(g: PermGroup) -> CosetAction:
    """The right regular action, points = elements in enumeration order."""
    perms = []
    for gen in g.gens:
        perms.append(tuple(g.index[perm_mul(e, gen)] for e in g.elements))
    return CosetAction(g.order, tuple(perms), (perm_identity(g.degree),))


def regular_rep(g: PermGroup, field: FieldSpec):
    from .rep import Representation

    act = regular_action(g)
    if g.order * g.order > 10**8:
        raise TooLarge("regular representation too large")
    return Representation(
        field, g.order, tuple(perm_matrices(act.perms, field)), "regular"
    )


def element_matrix(g: PermGroup, rep, elem: Perm) -> FqMatrix:
    """Matrix of a group element in a representation whose gens mirror g.gens."""
    word = g.word_for(tuple(elem))
    if not word:
        return FqMatrix.identity(rep.field, rep.dim)
    out = rep.gens[word[0]].arr
    for gi in word[1:]:
        out = rep.field.matmul(out, rep.gens[gi].arr)
    return FqMatrix(rep.field, out)
