"""Independent brute-force oracles used by the test suite.

These deliberately avoid the word-stream chopping route: submodule lattices
are enumerated via minimal submodules of quotients (pure hom/null-space
computations), projective covers come from Fitting splittings of the regular
module under random commuting endomorphisms, and composition multiplicities
are hom dimensions against the covers.  The kernel oracles are the earlier
implementations of the elementwise field ops (base-p digits for sums and
negatives, discrete logs for products and inverses, every call through
numpy), of the matrix product (one integer product per pair of digit planes),
of echelonize (one full-width pass per pivot), of spin (one vector times
one generator at a time) and of the Kronecker product (`np.kron` mod p, or
exp/log outer sums).  `tables_from_regular` is the earlier table path: the
simples are the factors of the regular module, each Brauer value a sum of
lifted eigenvalues, found by a full factorization of the characteristic
polynomial.  `scalar_termwise` is the earlier scalar product, one normalized
Cyclotomic operation per step.  `dtd_solve_rows` is the earlier D^T D = C solver: it
lists every row in the box prod(isqrt(C_jj) + 1) and tries k-multisets of
those rows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from modchar import ctab, grp, rep
from modchar.cyclo import Cyclotomic, matrix_order
from modchar.errors import Infeasible, NonIntegral
from modchar.gfla import (
    EchelonForm,
    FieldSpec,
    FqMatrix,
    FqPolynomial,
    WorkBasis,
    char_poly,
    echelonize,
    field_make,
    inverse,
    irreducible_factors,
    mat_mul,
    nullspace,
    row_space,
)


def add_digits(F, a, b):
    """a + b over F, digit by digit in base p."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if F.p == 2:
        return np.bitwise_xor(a, b)
    return ((F._dig[a] + F._dig[b]) % F.p) @ F._pow


def neg_digits(F, a):
    a = np.asarray(a, dtype=np.int64)
    if F.p == 2:
        return a.copy()
    return ((-F._dig[a]) % F.p) @ F._pow


def mul_logexp(F, a, b):
    """a.b over F as exp[log a + log b], 0 where a factor is 0."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    res = F._exp[F._log[a] + F._log[b]]
    return np.where((a == 0) | (b == 0), np.int64(0), res)


def inv_logexp(F, a):
    a = np.asarray(a, dtype=np.int64)
    if np.any(a == 0):
        raise ZeroDivisionError("inverse of 0 in GF(q)")
    return F._exp[(F.q - 1 - F._log[a]) % (F.q - 1)]


def matmul_planes(F, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A.B over F: the k^2 digit-plane products, summed by degree and reduced
    through the digits of w^s for s < 2k - 1."""
    p, k = F.p, F.k
    if k == 1:
        return (A @ B) % p
    DA = np.moveaxis(F._dig[A], -1, 0)  # (k, n, m)
    DB = np.moveaxis(F._dig[B], -1, 0)
    planes = [None] * (2 * k - 1)
    for d in range(k):
        for e in range(k):
            P = DA[d] @ DB[e]
            s = d + e
            planes[s] = P if planes[s] is None else planes[s] + P
    red = F._dig[F._exp[: 2 * k - 1]]  # (2k-1, k) digits of w^s
    out_digits = np.zeros(A.shape[:-1] + B.shape[1:] + (k,), dtype=np.int64)
    for s in range(2 * k - 1):
        Ps = planes[s] % p
        for f in range(k):
            if red[s, f]:
                out_digits[..., f] += red[s, f] * Ps
    return (out_digits % p) @ F._pow


def echelonize_unblocked(m: FqMatrix) -> EchelonForm:
    """RREF with the first-nonzero-column/topmost-row pivot rule, every pivot
    clearing its column in all rows across the full width."""
    F = m.field
    A = m.arr.copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = F.inv(A[r, c])
        A[r] = F.mul(A[r], inv)
        col = A[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            factors = F.neg(col[mask])
            A[mask] = F.add(A[mask], F.mul(factors[:, None], A[r][None, :]))
        pivots.append(c)
        r += 1
    return EchelonForm(r, tuple(pivots), FqMatrix(F, A))


def spin_by_vectors(r: rep.Representation, seeds: FqMatrix) -> FqMatrix:
    """Canonical basis of the submodule generated by the seeds, closed one
    vector times one generator at a time through a queue of the raw vectors
    whose insertion grew the span."""
    F = r.field
    basis = WorkBasis(F, r.dim)
    queue = [row.copy() for row in seeds.arr if basis.insert(row.copy())]
    while queue:
        v = queue.pop(0)
        for g in r.gens:
            w = matmul_planes(F, v[None, :], g.arr)[0]
            if basis.insert(w):
                queue.append(w)
    return basis.matrix()


def all_submodules(r: rep.Representation, simples, cap: int = 50000):
    """Every invariant subspace of r, as canonical RREF bases (bytes-keyed).

    BFS: a submodule above U corresponds to a minimal submodule of r/U, and
    those are the images of the projective points of Hom(S, r/U) over all
    simples S (nonzero homs from simples are injective).
    """
    F = r.field
    n = r.dim
    zero = FqMatrix.zeros(F, 0, n)
    seen = {zero.key(): zero}
    queue = [zero]
    while queue:
        U = queue.pop()
        piv = list(echelonize(U).pivots) if U.rows else []
        comp = [j for j in range(n) if j not in piv]
        if not comp:
            continue
        _sub, quot = rep.split(r, U) if U.rows else (None, r)
        for s in simples:
            homs = rep.hom(s, quot)
            if not homs:
                continue
            for point in rep._projective_points(F, np.array([h.arr.reshape(-1) for h in homs])):
                H = point.reshape(s.dim, quot.dim)
                img = row_space(FqMatrix(F, H))
                lifted = np.zeros((img.rows, n), dtype=np.int64)
                lifted[:, comp] = img.arr
                if U.rows:
                    stacked = np.vstack([U.arr, lifted])
                else:
                    stacked = lifted
                W = row_space(FqMatrix(F, stacked))
                key = W.key()
                if key not in seen:
                    seen[key] = W
                    queue.append(W)
                    if len(seen) > cap:
                        raise RuntimeError(f"submodule count exceeded the cap {cap}")
    return list(seen.values())


def maximal_chain_factors(r: rep.Representation, submodules, simples, seed=1):
    """Composition multiset (indices into simples) read off a maximal chain
    of the enumerated lattice."""
    by_dim = sorted(submodules, key=lambda m: m.rows)
    chain = [by_dim[0]]
    current = by_dim[0]
    while current.rows < r.dim:
        best = None
        for W in by_dim:
            if W.rows <= current.rows:
                continue
            # current < W?
            wb = WorkBasis(r.field, r.dim)
            for row in W.arr:
                wb.insert(row.copy())
            if all(wb.contains(row) for row in current.arr):
                if best is None or W.rows < best.rows:
                    best = W
        chain.append(best)
        current = best
    counts = [0] * len(simples)
    for below, above in zip(chain, chain[1:]):
        subq, _ = rep.split(r, above)
        # factor = above/below: restrict to the subrep on `above`, then quotient
        piv = list(echelonize(above).pivots)
        coords = below.arr[:, piv] if below.rows else np.zeros((0, above.rows), dtype=np.int64)
        inner = FqMatrix(r.field, coords)
        ssub, factor = rep.split(subq, inner) if below.rows else (None, subq)
        matched = False
        for si, s in enumerate(simples):
            if s.dim == factor.dim and rep.iso(s, factor, seed) is not None:
                counts[si] += 1
                matched = True
                break
        assert matched, f"chain factor of dim {factor.dim} matches no simple"
    return counts


def projective_covers(g: grp.PermGroup, field, simples, seed: int = 1):
    """Indecomposable projective summands of the regular module, one per
    simple, via Fitting splittings.

    Endomorphisms of the regular right module are left multiplications; a
    summand's endomorphisms are obtained by composing with the equivariant
    projection onto it, which is carried along the recursion.  Returns covers
    aligned with `simples` (cover i has top simples[i]).
    """
    reg = grp.regular_rep(g, field)
    rng = random.Random(seed)
    n = g.order

    def left_mult_matrix(coeffs):
        m = np.zeros((n, n), dtype=np.int64)
        for c, xi in coeffs:
            x = g.elements[xi]
            for h in range(n):
                target = g.index[grp.perm_mul(x, g.elements[h])]
                m[h, target] = int(field.add(np.int64(m[h, target]), np.int64(c)))
        return m

    def selector(pivots):
        s = np.zeros((n, len(pivots)), dtype=np.int64)
        for i, pc in enumerate(pivots):
            s[pc, i] = 1
        return s

    parts = []

    def split_rec(piece, rows, proj):
        """piece: subrep in the RREF coordinates of `rows` (RREF in ambient);
        proj: ambient equivariant projector onto rowspace(rows)."""
        tops = [len(rep.hom(piece, s)) for s in simples]
        if sum(tops) == 1:
            parts.append((piece, tops.index(1)))
            return
        piv = list(echelonize(FqMatrix(field, rows)).pivots)
        for _ in range(80):
            kterms = rng.randint(1, 3)
            coeffs = [(rng.randrange(1, field.q), rng.randrange(n)) for _ in range(kterms)]
            theta_amb = left_mult_matrix(coeffs)
            img = field.matmul(field.matmul(rows, theta_amb), proj)
            theta = FqMatrix(field, img[:, piv])
            power = theta
            e = 1
            while e < piece.dim:
                power = mat_mul(power, power)
                e *= 2
            im = row_space(power)
            ker = nullspace(power.transpose())
            if im.rows == 0 or ker.rows == 0:
                continue
            assert im.rows + ker.rows == piece.dim
            B = FqMatrix(field, np.vstack([ker.arr, im.arr]))
            Binv = inverse(B)
            for offset, basis in ((0, ker), (ker.rows, im)):
                part, _q = rep.split(piece, basis)
                rpart = row_space(basis)
                rows_child = field.matmul(rpart.arr, rows)
                mask = np.zeros((piece.dim, piece.dim), dtype=np.int64)
                for i in range(basis.rows):
                    mask[offset + i, offset + i] = 1
                pi_piece = field.matmul(field.matmul(Binv.arr, mask), B.arr)
                proj_child = field.matmul(
                    field.matmul(field.matmul(proj, selector(piv)), pi_piece), rows
                )
                split_rec(part, rows_child, proj_child)
            return
        raise RuntimeError("no splitting endomorphism found within the budget")

    eye = np.eye(n, dtype=np.int64)
    split_rec(reg, eye, eye)
    covers: list = [None] * len(simples)
    counts = [0] * len(simples)
    for piece, top in parts:
        counts[top] += 1
        if covers[top] is None:
            covers[top] = piece
    for si, s in enumerate(simples):
        assert counts[si] == s.dim, (
            f"cover of simple {si} appears {counts[si]} times, expected {s.dim}"
        )
    return covers


def cartan_from_covers(covers):
    """C[i][j] = multiplicity of simple j in cover i = dim Hom(P_j, P_i)."""
    l = len(covers)
    C = [[0] * l for _ in range(l)]
    for i in range(l):
        for j in range(l):
            C[i][j] = len(rep.hom(covers[j], covers[i]))
    return C


def multiplicity_oracle(covers, module):
    """Composition multiplicity of each simple in `module` as hom dims."""
    return [len(rep.hom(p, module)) for p in covers]


def mat_kron_logexp(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    F = a.field
    if F.k == 1:
        return FqMatrix(F, np.kron(a.arr, b.arr) % F.p)
    la, lb = F._log[a.arr], F._log[b.arr]
    res = F._exp[np.add.outer(la, lb).transpose(0, 2, 1, 3)]
    mask = np.multiply.outer(a.arr != 0, b.arr != 0).transpose(0, 2, 1, 3)
    res = np.where(mask, res, np.int64(0))
    return FqMatrix(F, res.reshape(a.rows * b.rows, a.cols * b.cols))


@dataclass(frozen=True)
class BrauerLift:
    """Multiplicative lift GF(q)* -> mu_{q-1}: w^m -> zeta_{q-1}^m."""

    field: FieldSpec

    def lift(self, value: int) -> Cyclotomic:
        if value == 0:
            raise ZeroDivisionError("0 has no Brauer lift")
        m = int(self.field._log[value])
        return Cyclotomic.zeta(self.field.q - 1, m)

    def table(self) -> dict[int, Cyclotomic]:
        return {
            int(v): self.lift(int(v))
            for v in self.field._exp[: self.field.q - 1]
        }


def brauer_char_value_summed(mat: FqMatrix) -> Cyclotomic:
    """Sum of the lifted eigenvalues, one Cyclotomic addition per eigenvalue."""
    F = mat.field
    order = matrix_order(mat)
    assert order % F.p
    m = F.k
    while (F.p**m - 1) % order:
        m += F.k
    ext = field_make(F.p, m)
    cpx = FqPolynomial(ext, F.embed_into(ext)[char_poly(mat).coeffs])
    lifted = Cyclotomic.zero()
    for factor, mult in irreducible_factors(cpx, seed=1):
        assert factor.degree == 1
        root = int(ext.neg(np.int64(int(factor.coeffs[0]))))
        lifted = lifted + mult * BrauerLift(ext).lift(root)
    return lifted


def scalar_termwise(table: ctab.CharTable, a: ctab.Character, b: ctab.Character) -> Fraction:
    """(1/|G|) sum over classes of |C| a(C) conj(b(C)), normalizing after
    every addition, product and conjugation."""
    total = Cyclotomic.zero()
    for ci, cls in enumerate(table.classes):
        total = total + Fraction(cls.size) * a.values[ci] * b.values[ci].conj()
    total = Fraction(1, table.group_order) * total
    if not total.is_rational():
        raise NonIntegral(f"scalar product irrational: {total}")
    return total.as_fraction()


def tables_from_regular(g: grp.PermGroup, p: int | None = None, seed: int = 1):
    """(CharTable, simples) from chopping the regular module: over GF(r) for
    the ordinary table (p None), over GF(p^2) for the Brauer table at p.
    Rows are sorted trivial first, then by degree and values; the labels are
    chop's, so they follow discovery in the regular module."""
    cls = grp.conjugacy_classes(g, p)
    if p is None:
        F = field_make(ctab._auxiliary_prime(g.exponent(), g.order), 1)
    else:
        F = field_make(p, 2)
    factors = rep.chop(grp.regular_rep(g, F), seed)
    keep = [i for i in range(cls.count) if cls.p_regular(p)[i]]
    chars = [
        ctab.Character(
            tuple(brauer_char_value_summed(grp.element_matrix(g, s, cls.reps[i])) for i in keep),
            "brauer" if p else "ordinary",
            s.label,
        )
        for s, _m in factors
    ]
    one = Cyclotomic.one()

    def sort_key(i):
        ch = chars[i]
        return (any(v != one for v in ch.values), ch.degree_int(), repr([v.coeffs for v in ch.values]))

    order = sorted(range(len(chars)), key=sort_key)
    labels = cls.labels()
    classes = tuple(ctab.ClassInfo(labels[i], cls.sizes[i], cls.orders[i], True) for i in keep)
    table = ctab.CharTable(g.order, classes, tuple(chars[i] for i in order), p, dict(cls.power_maps))
    return table, tuple(factors[i][0] for i in order)


def dtd_solve_rows(inst) -> list[tuple[tuple[int, ...], ...]]:
    """All D >= 0 with inst.k rows and D^T D = inst.cartan, up to row order.

    Depth-first over candidate rows in descending lexicographic order (each
    multiset appears once), pruning on partial column sums.
    """
    C = [list(r) for r in inst.cartan]
    l = len(C)
    for i in range(l):
        if C[i][i] < 1:
            raise Infeasible("Cartan diagonal entries must be positive")
        for j in range(l):
            if C[i][j] != C[j][i]:
                raise Infeasible("Cartan matrix must be symmetric")
    maxv = [isqrt(C[j][j]) for j in range(l)]
    rows = sorted(itertools.product(*(range(m, -1, -1) for m in maxv)), reverse=True)
    solutions = []

    def feasible(partial, count):
        # remaining diagonal must be nonnegative and fillable by <= remaining rows
        rem_rows = inst.k - count
        for j in range(l):
            need = C[j][j] - partial[j][j]
            if need < 0:
                return False
            if need > rem_rows * maxv[j] * maxv[j]:
                return False
        for a in range(l):
            for b in range(a + 1, l):
                if partial[a][b] > C[a][b]:
                    return False
        return True

    partial = [[0] * l for _ in range(l)]

    def rec(start, count, chosen):
        if count == inst.k:
            if all(partial[a][b] == C[a][b] for a in range(l) for b in range(l)):
                solutions.append(tuple(chosen))
            return
        for ri in range(start, len(rows)):
            v = rows[ri]
            for a in range(l):
                for b in range(l):
                    partial[a][b] += v[a] * v[b]
            if feasible(partial, count + 1):
                chosen.append(v)
                rec(ri, count + 1, chosen)
                chosen.pop()
            for a in range(l):
                for b in range(l):
                    partial[a][b] -= v[a] * v[b]

    rec(0, 0, [])
    canonical = sorted({tuple(sorted(sol, reverse=True)) for sol in solutions})
    if not canonical:
        raise Infeasible("no factorization D^T D = C with the required row count")
    return canonical
