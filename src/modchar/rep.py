"""Modules over a matrix algebra given by generators.

A Representation acts on row vectors: v -> v.g for each generator matrix g.
Submodules are given by canonical RREF row bases.  Homomorphisms a -> b are
matrices H with a_g . H = H . b_g for every generator, applied as v -> v.H,
so the image of H is its row space.

Chopping follows MeatAxe practice: a seeded deterministic stream of algebra
words, null spaces of irreducible factors of their characteristic
polynomials, and Norton's irreducibility test.  One recursion (Norton test,
then split by its witness) serves `chop` and `composition_series`: its leaves
are the composition factors, and it keeps its witnesses, from which
`composition_series` alone assembles the adapted basis, so no subspace on the
way is eliminated again.  The isomorphism test takes
its seed va from the same kind of null space and spins it once in
a (+) b^d beside the kernel basis k_1 .. k_d on b: the spun rows with zero
a-part tell by one null space which vb = c.K extend to an intertwiner, and
the rows [I | Y] give its matrix.  Every elimination here is `echelonize`;
the layered spin reaches it through `WorkBasis.extend`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FieldMismatch,
    GeneratorCountMismatch,
    IncompleteSimplesList,
    NotInvariant,
    SelfCheckFailed,
    ShapeMismatch,
    SingularGenerator,
    Undecided,
    ZeroModule,
)
from .gfla import (
    FieldSpec,
    FqMatrix,
    FqPolynomial,
    WorkBasis,
    char_poly,
    echelonize,
    inverse,
    irreducible_factors,
    mat_kron,
    mat_mul,
    nullspace,
    rank,
    row_space,
)
from .grp import letter_labels

WORD_BUDGET = 200
WORD_ESCALATIONS = 3
WORD_MAX_LEN = 12  # products in a random word have at most this many factors


@dataclass(frozen=True)
class Representation:
    field: FieldSpec
    dim: int
    gens: tuple[FqMatrix, ...]
    label: str = ""

    def __post_init__(self):
        for g in self.gens:
            if g.field != self.field:
                raise FieldMismatch("generator over the wrong field")
            if g.rows != self.dim or g.cols != self.dim:
                raise ShapeMismatch("generator is not dim x dim")

    @property
    def ngens(self) -> int:
        return len(self.gens)

    def relabel(self, label: str) -> "Representation":
        return Representation(self.field, self.dim, self.gens, label)


@dataclass(frozen=True)
class AlgebraWord:
    """Sum of coefficient-weighted products of generator indices."""

    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (packed coeff, gen indices)

    def evaluate(self, rep: Representation) -> FqMatrix:
        F = rep.field
        acc = np.zeros((rep.dim, rep.dim), dtype=np.int64)
        for coeff, idxs in self.terms:
            if any(i >= rep.ngens for i in idxs):
                raise GeneratorCountMismatch("word index out of range")
            cur = rep.gens[idxs[0]].arr if idxs else np.eye(rep.dim, dtype=np.int64)
            for i in idxs[1:]:
                cur = F.matmul(cur, rep.gens[i].arr)
            acc = F.add(acc, F.mul(np.int64(coeff % F.q), cur))
        return FqMatrix(F, acc)


def word_stream(ngens: int, p: int, seed: int):
    """Deterministic stream: generators and short products first, then seeded
    pseudo-random sums of products with prime-field coefficients."""
    if ngens == 0:
        raise GeneratorCountMismatch("at least one generator required")
    for i in range(ngens):
        yield AlgebraWord(((1, (i,)),))
    for i in range(ngens):
        for j in range(ngens):
            yield AlgebraWord(((1, (i, j)),))
    for i in range(ngens):
        for j in range(ngens):
            if i != j:
                yield AlgebraWord(((1, (i,)), (1, (j,))))
    rng = random.Random(seed)
    length = 3
    while True:
        nterms = rng.randint(1, 3)
        terms = []
        for _ in range(nterms):
            tlen = rng.randint(1, length)
            idxs = tuple(rng.randrange(ngens) for _ in range(tlen))
            coeff = rng.randrange(1, p)
            terms.append((coeff, idxs))
        yield AlgebraWord(tuple(terms))
        length = min(length + 1, WORD_MAX_LEN)


# ---------------------------------------------------------------------------
# spin / split
# ---------------------------------------------------------------------------


def spin(rep: Representation, seeds: FqMatrix) -> FqMatrix:
    """Canonical basis of the smallest invariant subspace containing the seeds.

    Closed layer by layer in a `WorkBasis`: the rows added last (the
    frontier) times all generators side by side is one product, and
    `extend` by it returns the next frontier.  The result is the RREF of the
    subspace, so it does not depend on the order in which vectors are found.
    """
    if seeds.cols != rep.dim:
        raise ShapeMismatch("seed width differs from the module dimension")
    F = rep.field
    basis = WorkBasis(F, rep.dim)
    frontier = basis.extend(seeds.arr)
    if rep.gens:
        G = np.hstack([g.arr for g in rep.gens])
        while len(frontier) and len(basis) < rep.dim:
            frontier = basis.extend(F.matmul(frontier, G).reshape(-1, rep.dim))
    return basis.matrix()


def split(rep: Representation, sub: FqMatrix):
    """(subRep, quotRep) for the invariant subspace spanned by the rows of sub.

    The rows may be any spanning set, RREF or not: they are echelonized here,
    and the submodule's coordinates are taken in that RREF basis.  Three
    products for all generators at once: the basis times the generators side
    by side, as in `spin`; the coordinates back times the basis, which must
    give the images again (invariance); and the quotient rows."""
    F = rep.field
    ech = echelonize(sub)
    U = ech.matrix.arr[: ech.rank]
    piv = list(ech.pivots)
    comp = [j for j in range(rep.dim) if j not in ech.pivots]
    r, c, d, t = ech.rank, len(comp), rep.dim, rep.ngens
    sub_gens: tuple[FqMatrix, ...] = ()
    quot_gens: tuple[FqMatrix, ...] = ()
    if t:
        # row (i, j) of img is row j of U.g_i
        img = F.matmul(U, np.hstack([g.arr for g in rep.gens])).reshape(r, t, d).swapaxes(0, 1)
        coords = img[:, :, piv]
        if not np.array_equal(F.matmul(coords.reshape(t * r, r), U), img.reshape(t * r, d)):
            raise NotInvariant("subspace is not invariant under the generators")
        sub_gens = tuple(FqMatrix(F, x) for x in coords)
        # quotient on the canonical completion by the non-pivot unit vectors,
        # whose images are the rows comp of each generator
        imgq = np.vstack([g.arr[comp] for g in rep.gens])
        red = F.sub(imgq, F.matmul(imgq[:, piv], U))
        quot_gens = tuple(FqMatrix(F, x) for x in red[:, comp].reshape(t, c, c))
    sub_rep = Representation(F, r, sub_gens, rep.label + ".sub")
    quot_rep = Representation(F, c, quot_gens, rep.label + ".quot")
    return sub_rep, quot_rep


# ---------------------------------------------------------------------------
# irreducibility (Norton's test) and chop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityCertificate:
    word: AlgebraWord
    factor: FqPolynomial
    nullity: int


def _transpose_rep(rep: Representation) -> Representation:
    return Representation(
        rep.field, rep.dim, tuple(g.transpose() for g in rep.gens), rep.label + ".T"
    )


def is_irreducible(rep: Representation, seed: int = 1):
    """Norton's criterion over a seeded word stream.

    Each irreducible factor f of a word's characteristic polynomial is seeded
    once, by the last RREF row of the left kernel of f(w); only a factor whose
    nullity equals its degree can then certify, by one transposed spin.

    Returns (True, certificate) or (False, witness).  The witness is the
    canonical RREF basis of a proper submodule, as `spin` or `nullspace`
    returns it.  Raises Undecided when the word budget is exhausted without a
    verdict.
    """
    if rep.dim == 0:
        raise ZeroModule("the zero module has no irreducibility verdict")
    F = rep.field
    if rep.dim == 1:
        return True, IrreducibilityCertificate(AlgebraWord(()), FqPolynomial.x(F), 1)
    stream = word_stream(rep.ngens, F.p, seed)
    budget = WORD_BUDGET * WORD_ESCALATIONS
    for _ in range(budget):
        word = next(stream)
        w = word.evaluate(rep)
        if w.is_zero():
            continue
        cp = char_poly(w)
        for f, _mult in irreducible_factors(cp):
            fw = f.eval_matrix(w)
            # kernel of the row action v -> v.f(w) is the left null space
            ker = nullspace(fw.transpose())
            nu = ker.rows
            sub = spin(rep, FqMatrix(F, ker.arr[-1:]))
            if sub.rows < rep.dim:
                return False, sub
            if nu == f.degree:
                kert = nullspace(fw)
                vt = FqMatrix(F, kert.arr[:1])
                # this branch returns either way, so the transposed module is
                # built at most once per call
                subt = spin(_transpose_rep(rep), vt)
                if subt.rows == rep.dim:
                    return True, IrreducibilityCertificate(word, f, nu)
                # annihilator of a proper transposed-invariant subspace is a
                # proper submodule of the original
                ann = nullspace(subt)
                return False, ann
    raise Undecided(f"no verdict for {rep.label or 'module'} within the word budget")


def _meataxe(rep: Representation, seed: int) -> tuple[list[Representation], tuple | None]:
    """The MeatAxe recursion: its leaves, submodule before quotient, and its
    splits as a tree, None for a leaf and (witness U, sub tree, quotient
    tree) for a split by U.  `composition_series` assembles its adapted basis
    from the tree (`_adapted_basis`); the leaves alone need no product."""
    if rep.dim == 0:
        return [], None
    verdict, witness = is_irreducible(rep, seed)
    if verdict:
        return [rep], None
    sub_rep, quot_rep = split(rep, witness)
    sub_leaves, sub_tree = _meataxe(sub_rep, seed)
    quot_leaves, quot_tree = _meataxe(quot_rep, seed)
    return sub_leaves + quot_leaves, (witness.arr, sub_tree, quot_tree)


def _adapted_basis(F: FieldSpec, dim: int, tree: tuple | None) -> np.ndarray:
    """The adapted basis A of a module of dimension `dim` from its MeatAxe
    tree.  A leaf contributes the identity.  A split by the witness U
    contributes A_sub . U above A_quot placed on the non-pivot columns of U.
    In A every generator is block lower triangular, with the leaves'
    generators as the diagonal blocks."""
    if tree is None:
        return np.eye(dim, dtype=np.int64)
    U, sub_tree, quot_tree = tree
    # U is an RREF basis, so its pivots are the rows' first nonzero columns
    comp = np.ones(dim, dtype=bool)
    comp[(U != 0).argmax(axis=1)] = False
    lifted = np.zeros((dim - len(U), dim), dtype=np.int64)
    lifted[:, comp] = _adapted_basis(F, dim - len(U), quot_tree)
    return np.vstack([F.matmul(_adapted_basis(F, len(U), sub_tree), U), lifted])


def chop(rep: Representation, seed: int = 1) -> list[tuple[Representation, int]]:
    """Composition factors with multiplicities, canonically ordered by
    (dimension, discovery); factor labels are dim plus a letter."""
    factors: list[Representation] = []
    mults: list[int] = []
    for leaf in _meataxe(rep, seed)[0]:
        for i, s in enumerate(factors):
            if s.dim == leaf.dim and iso(s, leaf, seed) is not None:
                mults[i] += 1
                break
        else:
            factors.append(leaf)
            mults.append(1)
    order = sorted(range(len(factors)), key=lambda i: (factors[i].dim, i))
    labels = letter_labels(factors[i].dim for i in order)
    return [(factors[i].relabel(label), mults[i]) for i, label in zip(order, labels)]


# ---------------------------------------------------------------------------
# isomorphism (one spin in a (+) b^d), dual, tensor, hom
# ---------------------------------------------------------------------------


def iso(a: Representation, b: Representation, seed: int = 1):
    """An intertwiner H (a_g . H = H . b_g, invertible) or None.

    A word w and an irreducible factor f of its characteristic polynomial
    with nullity d = deg f on a give the seed va, the first kernel vector of
    f(w) on a, and the kernel basis K = (k_1 .. k_d) of f(w) on b.  One spin
    of (va, k_1, .., k_d) in a (+) b^d, a-columns first, has RREF rows
    [I | Y] and rows (0, Z) with Z = {(k_1.x, .., k_d.x) : va.x = 0}.  So
    vb = c.K extends to a homomorphism exactly when c kills every row of Z
    cut into its d blocks.  The first RREF row c of those solutions, which
    is also the lexicographically first solution with leading coefficient
    1, gives H = sum_l c_l Y_l, the map with va.H = vb; it is unique once va
    generates a.  Then phi -> va.phi also embeds End(a) in the field
    F[w]/(f), so when a ~ b every nonzero homomorphism is invertible, and a
    singular H answers None.  Both modules are expected simple: a seed that
    does not generate a moves on to the next word, so non-simple inputs may
    end Undecided.
    """
    if a.ngens != b.ngens:
        raise GeneratorCountMismatch("different generator counts")
    if a.field != b.field or a.dim != b.dim:
        return None
    if a.dim == 0:
        return FqMatrix.zeros(a.field, 0, 0)
    F = a.field
    n = a.dim
    stream = word_stream(a.ngens, F.p, seed)
    for _ in range(WORD_BUDGET):
        word = next(stream)
        wa = word.evaluate(a)
        cpa = char_poly(wa)
        wb = word.evaluate(b)
        cpb = char_poly(wb)
        if cpa != cpb:
            return None
        usable = None
        for f, _m in irreducible_factors(cpa):
            fa = f.eval_matrix(wa)
            kera = nullspace(fa.transpose())
            if kera.rows == f.degree:
                usable = (f, kera)
                break
        if usable is None:
            continue
        f, kera = usable
        kerb = nullspace(f.eval_matrix(wb).transpose())
        d = kerb.rows
        if d != kera.rows:
            return None
        gens = tuple(_direct_sum(ga, *(gb,) * d) for ga, gb in zip(a.gens, b.gens))
        abd = Representation(F, n + d * n, gens)
        S = spin(abd, FqMatrix(F, np.hstack([kera.arr[0], kerb.arr.ravel()])[None, :])).arr
        if S[:, :n].any(axis=1).sum() < n:
            continue  # va does not generate a; only possible for non-simple input
        # row (z, j) of the system is column j of each of Z's d blocks
        Z = S[n:, n:].reshape(-1, d, n).swapaxes(1, 2).reshape(-1, d)
        C = nullspace(FqMatrix(F, Z))
        if C.rows == 0:
            return None
        Y = S[:n, n:].reshape(n, d, n).swapaxes(0, 1).reshape(d, n * n)
        H = FqMatrix(F, F.matmul(C.arr[:1], Y).reshape(n, n))
        return H if rank(H) == n else None
    raise Undecided("no standard-basis word found")


def _direct_sum(*blocks: FqMatrix) -> FqMatrix:
    g = np.zeros((sum(x.rows for x in blocks),) * 2, dtype=np.int64)
    i = 0
    for x in blocks:
        g[i : i + x.rows, i : i + x.rows] = x.arr
        i += x.rows
    return FqMatrix(blocks[0].field, g)


def dual(rep: Representation) -> Representation:
    """Contragredient: g -> transpose of inverse of g."""
    gens = []
    for g in rep.gens:
        try:
            gi = inverse(g)
        except ShapeMismatch:
            raise SingularGenerator("generator has no inverse") from None
        gens.append(gi.transpose())
    return Representation(rep.field, rep.dim, tuple(gens), rep.label + "*")


def tensor(a: Representation, b: Representation) -> Representation:
    if a.field != b.field:
        raise FieldMismatch("tensor factors over different fields")
    if a.ngens != b.ngens:
        raise GeneratorCountMismatch("tensor factors with different generator counts")
    gens = tuple(mat_kron(ga, gb) for ga, gb in zip(a.gens, b.gens))
    label = f"{a.label or 'a'}(x){b.label or 'b'}"
    return Representation(a.field, a.dim * b.dim, gens, label)


def hom(a: Representation, b: Representation) -> list[FqMatrix]:
    """Basis of {H : a_g . H = H . b_g for all g}."""
    if a.field != b.field:
        raise FieldMismatch("hom over different fields")
    if a.ngens != b.ngens:
        raise GeneratorCountMismatch("hom with different generator counts")
    F = a.field
    na, nb = a.dim, b.dim
    if na == 0 or nb == 0:
        return []
    if a.ngens == 0:
        raise GeneratorCountMismatch("at least one generator required")
    blocks = []
    eye_a = FqMatrix.identity(F, na)
    eye_b = FqMatrix.identity(F, nb)
    for ga, gb in zip(a.gens, b.gens):
        # row-major vec(H): vec(ga.H) = (ga (x) I) vec, vec(H.gb) = (I (x) gb^T) vec
        left = mat_kron(ga, eye_b)
        right = mat_kron(eye_a, gb.transpose())
        blocks.append(F.add(left.arr, F.neg(right.arr)))
    stacked = FqMatrix(F, np.vstack(blocks))
    ns = nullspace(stacked)
    return [FqMatrix(F, ns.arr[i].reshape(na, nb).copy()) for i in range(ns.rows)]


# ---------------------------------------------------------------------------
# socle series
# ---------------------------------------------------------------------------


def socle(rep: Representation, simples) -> tuple[FqMatrix, list[tuple[int, int]]]:
    """(basis of the socle, [(simple index, multiplicity)]).

    The multiplicity of S is dim Hom(S, V) / dim End(S); the endomorphism
    division matters for simples that are not absolutely irreducible.
    """
    F = rep.field
    rows = [np.zeros((0, rep.dim), dtype=np.int64)]
    counts = []
    for si, s in enumerate(simples):
        maps = hom(s, rep)
        if maps:
            end_dim = len(hom(s, s))
            if len(maps) % end_dim:
                raise SelfCheckFailed(f"dim Hom(S, V) = {len(maps)} is not a multiple of dim End(S) = {end_dim}")
            counts.append((si, len(maps) // end_dim))
        rows += [H.arr for H in maps]
    return row_space(FqMatrix(F, np.vstack(rows))), counts


def socle_series(rep: Representation, simples, seed: int = 1):
    """Ascending socle layers as multisets [(simple index, multiplicity)].

    The simples list must cover every composition factor; this is checked via
    chop so an incomplete list fails loudly.
    """
    for s, _m in chop(rep, seed):
        if all(iso(s, t, seed) is None for t in simples if t.dim == s.dim):
            raise IncompleteSimplesList(f"factor {s.label} missing from the simples list")
    layers = []
    current = rep
    while current.dim > 0:
        soc, counts = socle(current, simples)
        if soc.rows == 0:
            raise IncompleteSimplesList("no socle found; simples list incomplete")
        layers.append(counts)
        _sub, current = split(current, soc)
    return layers


# ---------------------------------------------------------------------------
# composition series with adapted basis, generation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionSeries:
    rep: Representation
    # strictly ascending invariant subspaces, last = full: term i is spanned
    # by the rows of the first i + 1 blocks of the adapted basis
    chain: tuple[FqMatrix, ...]
    factors: tuple[Representation, ...]
    adapted_basis: FqMatrix
    adapted_inverse: FqMatrix = field(repr=False)
    block_sizes: tuple[int, ...] = ()

    def diagonal_blocks(self, m: FqMatrix) -> list[FqMatrix]:
        conj = mat_mul(mat_mul(self.adapted_basis, m), self.adapted_inverse)
        out = []
        at = 0
        for s in self.block_sizes:
            out.append(FqMatrix(self.rep.field, conj.arr[at : at + s, at : at + s].copy()))
            at += s
        return out

    def is_block_lower(self, m: FqMatrix) -> bool:
        conj = mat_mul(mat_mul(self.adapted_basis, m), self.adapted_inverse)
        at = 0
        for s in self.block_sizes:
            if conj.arr[at : at + s, at + s :].any():
                return False
            at += s
        return True


def composition_series(rep: Representation, seed: int = 1) -> CompositionSeries:
    """A composition series with a basis realizing block-lower-triangular form.

    The factors are the leaves of the MeatAxe recursion that `chop` runs, and
    the adapted basis is assembled from its split witnesses; each chain term
    is spanned by the rows of the leading blocks.  The zero module has the empty series."""
    F = rep.field
    leaves, tree = _meataxe(rep, seed)
    A = _adapted_basis(F, rep.dim, tree)
    sizes = tuple(s.dim for s in leaves)
    chain = tuple(FqMatrix(F, A[:end]) for end in np.cumsum(sizes, dtype=int))
    basis = FqMatrix(F, A)
    return CompositionSeries(rep, chain, tuple(leaves), basis, inverse(basis), sizes)


def check_generation(series: CompositionSeries, extra, seed: int = 1):
    """(preserved, diag_isos_consistent) for extra algebra elements.

    preserved: every extra matrix stays block-lower-triangular in the adapted
    basis.  diag_isos_consistent: every intertwiner between isomorphic factors
    of the series still intertwines the extra matrices' diagonal blocks.
    """
    for m in extra:
        if m.rows != series.rep.dim or m.cols != series.rep.dim:
            raise ShapeMismatch("extra matrix of the wrong size")
    preserved = all(series.is_block_lower(m) for m in extra)
    pairs = []
    n = len(series.factors)
    for i in range(n):
        for j in range(i + 1, n):
            if series.factors[i].dim != series.factors[j].dim:
                continue
            T = iso(series.factors[i], series.factors[j], seed)
            if T is not None:
                pairs.append((i, j, T))
    consistent = True
    if preserved:
        for m in extra:
            blocks = series.diagonal_blocks(m)
            for i, j, T in pairs:
                if mat_mul(blocks[i], T) != mat_mul(T, blocks[j]):
                    consistent = False
                    break
            if not consistent:
                break
    else:
        consistent = False
    return preserved, consistent
