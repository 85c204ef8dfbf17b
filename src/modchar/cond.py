"""Condensation with the trace idempotent of a p'-subgroup.

e = |K|^-1 sum of K acting on V; the condensed module Ve carries the algebra
eAe.  Permutation modules are condensed on the orbit-sum basis without
building ambient matrices, tensor products through the identification of
A (x) B with the space of dim_a x dim_b matrices, so only the factor
representations are ever multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    FusionIncomplete,
    NonIntegral,
    NotAGroup,
    NotInImage,
    OrderDivisibleByP,
    SelfCheckFailed,
    ShapeMismatch,
)
from . import grp as _grp
from .gfla import FqMatrix, echelonize, mat_mul, rank
from .rep import Representation, spin
from .cyclo import Cyclotomic

CLOSURE_BOUND = 20000  # elements of a subgroup closure before it is refused


@dataclass(frozen=True)
class CondensationSetup:
    rep: Representation
    subgroup_order: int
    projector: FqMatrix
    image_basis: FqMatrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.image_basis.rows


@dataclass(frozen=True)
class CondensedAlgebraSlice:
    matrices: tuple[FqMatrix, ...]
    words: tuple[str, ...]
    known_full: bool
    dim: int


def _closure(ident: tuple[FqMatrix, ...], gens) -> list[tuple[FqMatrix, ...]]:
    """Breadth-first closure of the identity tuple under right multiplication
    by the generator tuples, componentwise."""
    seen = {tuple(m.key() for m in ident): ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                prod = tuple(mat_mul(a, b) for a, b in zip(x, g))
                k = tuple(m.key() for m in prod)
                if k not in seen:
                    seen[k] = prod
                    new.append(prod)
        frontier = new
        if len(seen) > CLOSURE_BOUND:
            raise NotAGroup("subgroup closure did not terminate within the bound")
    return list(seen.values())


def make_idempotent(v: Representation, k_matrices) -> CondensationSetup:
    """Trace idempotent of the subgroup generated by the given matrices."""
    F = v.field
    elements = _closure((FqMatrix.identity(F, v.dim),), [(m,) for m in k_matrices])
    n = len(elements)
    if n % F.p == 0:
        raise OrderDivisibleByP(f"|K| = {n} is divisible by p = {F.p}")
    inv_n = int(F.inv(np.int64(n % F.p)))
    acc = np.zeros((v.dim, v.dim), dtype=np.int64)
    for (m,) in elements:
        acc = F.add(acc, m.arr)
    e = FqMatrix(F, F.mul(np.int64(inv_n), acc))
    if mat_mul(e, e) != e:
        raise SelfCheckFailed("trace element is not idempotent")
    ech = echelonize(e)
    basis = FqMatrix(F, ech.matrix.arr[: ech.rank].copy())
    return CondensationSetup(v, n, e, basis, ech.pivots[: ech.rank])


def condense_element(setup: CondensationSetup, g: FqMatrix) -> FqMatrix:
    """Action of e.g.e on Ve in image-basis coordinates."""
    F = setup.rep.field
    img = F.matmul(F.matmul(setup.image_basis.arr, g.arr), setup.projector.arr)
    return FqMatrix(F, img[:, list(setup.pivots)])


def condensed_algebra(setup: CondensationSetup, elements, words=(), known_full=False):
    """Slice of the condensed algebra generated by the given elements.

    known_full should be claimed only when the generators follow the
    double-coset recipe (all double-coset representatives plus subgroup
    generators) or the elements exhaust the group; otherwise results are
    subalgebra-relative and a generation check is required before any claim
    about eFGe-composition factors is promoted.
    """
    mats = tuple(condense_element(setup, g) for g in elements)
    labels = tuple(words) if words else tuple(f"g{i}" for i in range(len(mats)))
    return CondensedAlgebraSlice(mats, labels, known_full, setup.rank)


# -- permutation modules on the orbit-sum basis ------------------------------


def k_orbits(degree: int, k_perms) -> list[list[int]]:
    seen = [False] * degree
    orbits = []
    for start in range(degree):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        queue = [start]
        while queue:
            x = queue.pop()
            for p in k_perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    orb.append(y)
                    queue.append(y)
        orbits.append(sorted(orb))
    return orbits


def condense_perm(field, degree: int, k_gens, g_perms):
    """Condensed matrices of the permutations g_perms on the orbit-sum basis.

    Entry (i, j) of the matrix for g is |O_i intersect O_j g^-1| / |O_j|,
    computed purely from orbit bookkeeping.
    """
    k_closure = _grp.enumerate_group(k_gens) if k_gens else None
    k_perms = list(k_closure.elements) if k_closure else [tuple(range(degree))]
    if len(k_perms) % field.p == 0:
        raise OrderDivisibleByP(f"|K| = {len(k_perms)} divisible by p")
    orbits = k_orbits(degree, k_perms)
    idx_of = {}
    for oi, orb in enumerate(orbits):
        for x in orb:
            idx_of[x] = oi
    r = len(orbits)
    mats = []
    for g in g_perms:
        counts = np.zeros((r, r), dtype=np.int64)
        for oi, orb in enumerate(orbits):
            for x in orb:
                counts[oi, idx_of[g[x]]] += 1
        m = np.zeros((r, r), dtype=np.int64)
        for oj in range(r):
            inv = int(field.inv(np.int64(len(orbits[oj]) % field.p)))
            col = counts[:, oj] % field.p
            m[:, oj] = field.mul(np.int64(inv), col)
        mats.append(FqMatrix(field, m))
    return mats, orbits


# -- tensor products through the matrix-space identification -----------------


class TensorCondenser:
    """Condensation of a (x) b without forming ambient square matrices.

    Vectors of a (x) b are dim_a x dim_b matrices X; the group element g acts
    as X -> a_g^T X b_g, and the idempotent averages this over K.
    """

    def __init__(self, a: Representation, b: Representation, k_words):
        if a.field != b.field:
            raise ShapeMismatch("tensor factors over different fields")
        self.a = a
        self.b = b
        F = a.field
        ident = (FqMatrix.identity(F, a.dim), FqMatrix.identity(F, b.dim))
        self.k_pairs = _closure(ident, [(w.evaluate(a), w.evaluate(b)) for w in k_words])
        if len(self.k_pairs) % F.p == 0:
            raise OrderDivisibleByP("condensation subgroup order divisible by p")
        self.inv_order = int(F.inv(np.int64(len(self.k_pairs) % F.p)))
        self.field = F
        self._basis = None

    def apply_e(self, X: np.ndarray) -> np.ndarray:
        F = self.field
        acc = np.zeros_like(X)
        for (ka, kb) in self.k_pairs:
            term = F.matmul(F.matmul(ka.arr.T, X), kb.arr)
            acc = F.add(acc, term)
        return F.mul(np.int64(self.inv_order), acc)

    def image_basis(self) -> FqMatrix:
        """Canonical RREF basis of (a (x) b) e as flattened row vectors."""
        if self._basis is not None:
            return self._basis
        n = self.a.dim * self.b.dim
        units = np.eye(n, dtype=np.int64).reshape(n, self.a.dim, self.b.dim)
        images = np.array([self.apply_e(X).reshape(-1) for X in units], dtype=np.int64).reshape(n, n)
        ech = echelonize(FqMatrix(self.field, images))
        self._basis = FqMatrix(self.field, ech.matrix.arr[: ech.rank])
        self._pivots = list(ech.pivots)
        return self._basis

    def condense_word(self, word) -> FqMatrix:
        """Matrix of e.g.e on (a (x) b)e for the group word g."""
        F = self.field
        basis = self.image_basis()
        ga = word.evaluate(self.a)
        gb = word.evaluate(self.b)
        rows = []
        na, nb = self.a.dim, self.b.dim
        for row in basis.arr:
            X = row.reshape(na, nb)
            Y = F.matmul(F.matmul(ga.arr.T, X), gb.arr)
            rows.append(self.apply_e(Y).reshape(-1))
        img = np.array(rows, dtype=np.int64)
        return FqMatrix(F, img[:, self._pivots])


def condense_tensor(a: Representation, b: Representation, k_words, g_word) -> FqMatrix:
    return TensorCondenser(a, b, k_words).condense_word(g_word)


# -- uncondensation and dimension prediction ---------------------------------


def uncondense(setup: CondensationSetup, u: FqMatrix) -> FqMatrix:
    """Basis of the ambient submodule generated by the embedded subspace u.

    u may be given in image-basis coordinates (width = rank) or as ambient
    rows (width = dim V); ambient rows must lie inside Ve.
    """
    F = setup.rep.field
    if u.rows == 0:
        return FqMatrix.zeros(F, 0, setup.rep.dim)
    if u.cols == setup.rank:
        embedded = FqMatrix(F, F.matmul(u.arr, setup.image_basis.arr))
    elif u.cols == setup.rep.dim:
        if rank(FqMatrix(F, np.vstack([setup.image_basis.arr, u.arr]))) > setup.rank:
            raise NotInImage("subspace is not inside Ve")
        embedded = u
    else:
        raise ShapeMismatch("subspace width matches neither Ve nor V")
    return spin(setup.rep, embedded)


def condensed_dim(table, chi, k_class_sizes, k_class_fusion) -> int:
    """<1_K, chi restricted to K> from exact character values.

    k_class_sizes: sizes of the K-classes; k_class_fusion: index of the
    ambient class of `table` each K-class fuses into, and chi has one value
    per class of `table`.
    """
    if len(k_class_sizes) != len(k_class_fusion):
        raise FusionIncomplete("class sizes and fusion of different lengths")
    if len(chi.values) != table.nclasses:
        raise FusionIncomplete(f"{len(chi.values)} character values for {table.nclasses} classes")
    if not all(t in range(table.nclasses) for t in k_class_fusion):
        raise FusionIncomplete(f"a fusion target lies outside the {table.nclasses} classes")
    total = Cyclotomic.zero()
    k_order = sum(k_class_sizes)
    for size, target in zip(k_class_sizes, k_class_fusion):
        total = total + Fraction(size) * chi.values[target]
    total = Fraction(1, k_order) * total
    if not total.is_rational():
        raise FusionIncomplete("fused values are not rational")
    f = total.as_fraction()
    if f.denominator != 1 or f.numerator < 0:
        raise NonIntegral(f"multiplicity {f} of 1_K in chi restricted to K is not a natural number")
    return f.numerator
