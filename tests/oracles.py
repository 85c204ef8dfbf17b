"""Independent brute-force oracles used by the test suite.

These deliberately avoid the word-stream chopping route: submodule lattices
are enumerated via minimal submodules of quotients (pure hom/null-space
computations), projective covers come from Fitting splittings of the regular
module under random commuting endomorphisms, and composition multiplicities
are hom dimensions against the covers.  The kernel oracles are the earlier
implementations of the elementwise field ops (base-p digits for sums and
negatives, discrete logs for products and inverses, every call through
numpy), of the matrix product (one integer product per pair of digit planes),
of echelonize (one full-width pass per pivot; `echelonize_panel` is the
earlier right-looking blocked elimination, one product per 16-column panel),
of spin (one vector times
one generator at a time) and of the Kronecker product (`np.kron` mod p, or
exp/log outer sums).  `tables_from_regular` is the earlier table path: the
simples are the factors of the regular module, each Brauer value a sum of
lifted eigenvalues, found by a full factorization of the characteristic
polynomial.  `tensor_closure_by_iso` is the earlier tensor closure, which told
a new simple from the known ones by `rep.iso` rather than by its Brauer
character.  `scalar_termwise` is the earlier scalar product, one normalized
Cyclotomic operation per step.  `dtd_solve_rows` is the earlier D^T D = C solver: it
lists every row in the box prod(isqrt(C_jj) + 1) and tries k-multisets of
those rows.  `irreducible_factors_full` is the earlier eager factorization
(squarefree, distinct-degree over every degree up to the part's, then
equal-degree, one sorted list at the end), `is_irreducible_full` the Norton
loop over it and `iso_full` `rep.iso` on it.  `iso_standard_basis` is the
earlier isomorphism test: Parker's standard basis spun one vector times one
generator at a time, its schedule replayed from each candidate point.
`projective_points` is the earlier candidate walk of `rep.iso`: every
normalized point of a kernel, in lexicographic order, one graph spin each;
`all_submodules` and `iso_standard_basis` still walk it.
`field_tables_per_power` builds a field's tables from its exp table computed
one power of w at a time.  `grid_by_tokens` and `grid_text_by_str` are the
earlier MTX/PRM/REP body reader and writer: one `int()` per whitespace-split
token and one `str()` per entry.  `normal_form_by_descent` is the earlier
cyclotomic normal form: a special rule for conductors 2 mod 4, then a descent
to Q(zeta_{n/p}) when the value is fixed by every a = 1 mod n/p (one reduction
mod Phi_n per a) and a phi(n) x phi(n/p) rational solve;
`cyclotomic_polynomial_by_exact_division` builds Phi_n by its own exact
integer division with a leading-coefficient check.  `nullspace_by_row_space`
is the earlier null space, which echelonized the kernel rows it built once
more, and `composition_series_by_links` the earlier composition series, with
its own MeatAxe recursion and one elimination per chain link.
`blocks_by_least_factor` is the earlier block distribution: it reduces modulo
the maximal ideal of the lexicographically least irreducible factor of Phi_e
mod p at the least root of that factor, found by factoring; and
`clifford_index2_by_columns` the earlier index-2 Clifford builder, which walks
the column order once per row, in one branch per row kind, and once more for
the column degrees.  `fitting_match_by_solves` is the earlier Fitting
matching, one rational solve per bijection and column;
`sd16_by_branches` the earlier semidihedral analysis, which solved its four
relations in an unrolled loop of eight branches; and
`enumerate_candidates_recursive` the earlier candidate search, a recursion
over the indecomposable columns.  `rref_rational_fractions` is the earlier
Gauss-Jordan over Q, one `Fraction` operation per entry, and
`verify_matrix_fractions` the earlier final check, which rebuilt a list of
Fractions per nonzero term of D; `divmod_monic_dense` is the earlier long
division by a monic polynomial, which subtracted every coefficient of the
divisor, zero or not.  `WorkBasisRows` is the earlier `gfla.WorkBasis`, one
row reduced and inserted at a time; `spin_by_vectors`, `maximal_chain_factors`
and `_standard_basis` grow their bases in it.  `char_poly_krylov` and
`min_poly_krylov` are the earlier polynomials: one Krylov chain per standard
seed, each vector reduced against the chain in a `WorkBasisRows`, the
characteristic polynomial's chains taken modulo those before.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from modchar import ctab, dxm, grp, rep
from modchar.cyclo import Cyclotomic, cyclotomic_polynomial, euler_phi, rref_rational, solve_rational
from modchar.errors import (
    ActionNotInvolution,
    AmbiguousCase,
    FormatError,
    FusionDegreeMismatch,
    GeneratorCountMismatch,
    IdealChoiceFailure,
    Infeasible,
    NoAdmissibleMatching,
    NoConsistentSigns,
    NonIntegral,
    SelfCheckFailed,
    Undecided,
)
from modchar.gfla import (
    EchelonForm,
    FieldSpec,
    FqMatrix,
    FqPolynomial,
    _equal_degree,
    _pow_mod,
    char_poly,
    echelonize,
    factorize,
    field_make,
    inverse,
    irreducible_factors,
    mat_mul,
    nullspace,
    row_space,
    squarefree_parts,
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


def echelonize_panel(m: FqMatrix) -> EchelonForm:
    """Right-looking blocked Gauss-Jordan: the pivot loop runs on one panel of
    16 columns at a time (one panel for at most 64 columns and over GF(2^k),
    k > 1).  Before the last panel it also carries Y, where Y[i, j] is the
    coefficient of the panel's j-th pivot row (as it entered the panel) in
    row i; the trailing columns T take all of the panel's row operations at
    once, T[S] = 0 and T += Y.T[S] for the pivot rows S."""
    F = m.field
    A = m.arr.copy()
    rows, cols = A.shape
    width = max(cols, 1) if cols <= 64 or (F.p == 2 and F.k > 1) else 16
    pivots = []
    r = 0
    for c0 in range(0, cols, width):
        if r == rows:
            break
        c1 = min(c0 + width, cols)
        b = c1 - c0
        blocked = c1 < cols
        W = np.hstack([A[:, c0:c1], np.zeros((rows, b), dtype=np.int64)]) if blocked else A[:, c0:]
        r0 = r
        for c in range(b):
            if r == rows:
                break
            nz = np.nonzero(W[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                W[[r, pr]] = W[[pr, r]]
                if blocked:
                    A[[r, pr], c1:] = A[[pr, r], c1:]
            if blocked:
                W[r, b + r - r0] = 1
            inv = F.inv(W[r, c])
            W[r, c:] = F.mul(W[r, c:], inv)
            col = W[:, c].copy()
            col[r] = 0
            mask = col != 0
            if mask.any():
                factors = F.neg(col[mask])
                W[mask, c:] = F.add(W[mask, c:], F.mul(factors[:, None], W[r, c:][None, :]))
            pivots.append(c0 + c)
            r += 1
        if blocked and r > r0:
            A[:, c0:c1] = W[:, :b]
            T = A[:, c1:]
            S = T[r0:r].copy()
            T[r0:r] = 0
            A[:, c1:] = F.add(T, F.matmul(W[:, b : b + r - r0], S))
    return EchelonForm(r, tuple(pivots), FqMatrix(F, A))


class WorkBasisRows:
    """The earlier `gfla.WorkBasis`: a list of RREF rows grown one row at a
    time, each reduction and insertion a Python loop over the rows."""

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def __len__(self):
        return len(self.rows)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        F = self.field
        v = v.copy()
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                v = F.add(v, F.mul(F.neg(c), row))
        return v

    def insert(self, v: np.ndarray) -> bool:
        """Reduce v and insert the remainder; True when the basis grew."""
        F = self.field
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        v = F.mul(F.inv(v[pc]), v)
        for i in range(len(self.rows)):
            c = self.rows[i][pc]
            if c:
                self.rows[i] = F.add(self.rows[i], F.mul(F.neg(c), v))
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < pc:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pc)
        return True

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def matrix(self) -> FqMatrix:
        if not self.rows:
            return FqMatrix.zeros(self.field, 0, self.width)
        return FqMatrix(self.field, np.array(self.rows, dtype=np.int64))


def _krylov(m: FqMatrix, v: np.ndarray, quotient: WorkBasisRows | None):
    """(f, span) for the Krylov chain v, vA, vA^2, ... of A = m, taken
    modulo the span of `quotient` when one is given: f is the monic relation
    of least degree among the chain vectors, and the rows of span, reduced
    against each other, span the independent ones before it."""
    F = m.field
    n = m.rows
    local = WorkBasisRows(F, 2 * n + 1)
    t = 0
    while True:
        aug = np.zeros(2 * n + 1, dtype=np.int64)
        aug[:n] = v if quotient is None else quotient.reduce(v)
        aug[n + t] = 1
        red = local.reduce(aug)
        if not red[:n].any():
            # red holds the bookkeeping of the dependency; make x^t monic
            return FqPolynomial(F, red[n : n + t + 1].tolist()).monic(), [row[:n] for row in local.rows]
        local.insert(aug)
        v = F.matmul(v[None, :], m.arr)[0]
        t += 1


def min_poly_krylov(m: FqMatrix) -> FqPolynomial:
    """The earlier `gfla.min_poly`: the lcm of the minimal polynomials of
    the standard seeds e_0, e_1, ... outside the Krylov chains seen so far."""
    F = m.field
    n = m.rows
    result = FqPolynomial.one(F)
    seen = WorkBasisRows(F, n)
    for s in range(n):
        if result.degree == n:
            break
        seed = np.zeros(n, dtype=np.int64)
        seed[s] = 1
        if seen.contains(seed):
            continue
        f, span = _krylov(m, seed, None)
        for v in span:
            seen.insert(v)
        result = result.lcm(f)
    return result.monic()


def char_poly_krylov(m: FqMatrix) -> FqPolynomial:
    """The earlier `gfla.char_poly`: the product of relative Krylov factors,
    each standard seed outside the span of the previous chains contributing
    the minimal polynomial of its action on the quotient."""
    F = m.field
    n = m.rows
    result = FqPolynomial.one(F)
    glob = WorkBasisRows(F, n)
    for s in range(n):
        if len(glob) == n:
            break
        seed = np.zeros(n, dtype=np.int64)
        seed[s] = 1
        if glob.contains(seed):
            continue
        f, span = _krylov(m, seed, glob)
        for v in span:
            glob.insert(v)
        result = result.mul(f)
    return result.monic()


def spin_by_vectors(r: rep.Representation, seeds: FqMatrix) -> FqMatrix:
    """Canonical basis of the submodule generated by the seeds, closed one
    vector times one generator at a time through a queue of the raw vectors
    whose insertion grew the span."""
    F = r.field
    basis = WorkBasisRows(F, r.dim)
    queue = [row.copy() for row in seeds.arr if basis.insert(row.copy())]
    while queue:
        v = queue.pop(0)
        for g in r.gens:
            w = matmul_planes(F, v[None, :], g.arr)[0]
            if basis.insert(w):
                queue.append(w)
    return basis.matrix()


def projective_points(F, basis_rows):
    """All nonzero combinations of the rows, normalized so the first nonzero
    coefficient is 1, in deterministic lexicographic order."""
    d = len(basis_rows)
    for lead in range(d):
        tails = itertools.product(range(F.q), repeat=d - lead - 1)
        for tail in tails:
            coeffs = [0] * lead + [1] + list(tail)
            v = np.zeros(basis_rows.shape[1], dtype=np.int64)
            for c, row in zip(coeffs, basis_rows):
                if c:
                    v = F.add(v, F.mul(np.int64(c), row))
            yield v


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
            for point in projective_points(F, np.array([h.arr.reshape(-1) for h in homs])):
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
            wb = WorkBasisRows(r.field, r.dim)
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


def brauer_char_value_summed(mat: FqMatrix, order: int) -> Cyclotomic:
    """Sum of the lifted eigenvalues, one Cyclotomic addition per eigenvalue;
    `order` is the element's order, prime to p."""
    F = mat.field
    assert order % F.p
    m = F.k
    while (F.p**m - 1) % order:
        m += F.k
    ext = field_make(F.p, m)
    cpx = FqPolynomial(ext, F.embed_into(ext)[list(char_poly(mat).coeffs)])
    lifted = Cyclotomic.zero()
    for factor, mult in irreducible_factors_full(cpx):
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


def tensor_closure_by_iso(g: grp.PermGroup, F, count: int, seed: int = 1) -> list:
    """The earlier tensor closure: a chopped factor of S (x) T is kept when
    `rep.iso` finds it isomorphic to no simple found before (of its dimension);
    the search order and stop are those of ctab._tensor_closure."""
    natural = [s for s, _m in rep.chop(grp.perm_rep(g, F), seed)]
    movers = [t for t in natural if not ctab._is_trivial(t)]
    simples = list(natural)
    queue = deque(movers)
    while queue and len(simples) < count:
        s = queue.popleft()
        for t in movers:
            for f, _m in rep.chop(rep.tensor(s, t), seed):
                if not any(k.dim == f.dim and rep.iso(k, f, seed) is not None for k in simples):
                    simples.append(f)
                    queue.append(f)
            if len(simples) >= count:
                break
    if len(simples) < count:
        raise SelfCheckFailed(f"the tensor closure found {len(simples)} simple modules, not {count}")
    return simples


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
            tuple(brauer_char_value_summed(grp.element_matrix(g, s, cls.reps[i]), cls.orders[i]) for i in keep),
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


def _distinct_degree(f: FqPolynomial) -> list[tuple[FqPolynomial, int]]:
    F = f.field
    out = []
    x = FqPolynomial.x(F)
    h = x
    g = f
    d = 0
    while g.degree >= 1 and d < g.degree:
        d += 1
        h = _pow_mod(h, F.q, g)
        gd = h.sub(x).gcd(g)
        if gd.degree >= 1:
            out.append((gd, d))
            g = g.divmod(gd)[0]
            h = h.mod(g)
    if g.degree >= 1:
        out.append((g, g.degree))
    return out


def irreducible_factors_full(f: FqPolynomial) -> list[tuple[FqPolynomial, int]]:
    """Monic irreducible factors with multiplicities, canonically sorted."""
    rng = random.Random(1 ^ 0x5EED)
    collected: dict[tuple, tuple[FqPolynomial, int]] = {}
    for g, mult in squarefree_parts(f):
        for part, d in _distinct_degree(g):
            for irr in _equal_degree(part, d, rng):
                k = irr.key()
                if k in collected:
                    collected[k] = (irr, collected[k][1] + mult)
                else:
                    collected[k] = (irr, mult)
    return [collected[k] for k in sorted(collected)]


def is_irreducible_full(r: rep.Representation, seed: int = 1):
    """Norton's criterion as `rep.is_irreducible`, every factor list complete."""
    F = r.field
    if r.dim == 1:
        return True, rep.IrreducibilityCertificate(rep.AlgebraWord(()), FqPolynomial.x(F), 1)
    r_t = rep._transpose_rep(r)
    stream = rep.word_stream(r.ngens, F.p, seed)
    for _ in range(rep.WORD_BUDGET * rep.WORD_ESCALATIONS):
        word = next(stream)
        w = word.evaluate(r)
        if w.is_zero():
            continue
        for f, _mult in irreducible_factors_full(char_poly(w)):
            fw = f.eval_matrix(w)
            ker = nullspace(fw.transpose())
            nu = ker.rows
            sub = rep.spin(r, FqMatrix(F, ker.arr[-1:]))
            if sub.rows < r.dim:
                return False, sub
            if nu == f.degree:
                subt = rep.spin(r_t, FqMatrix(F, nullspace(fw).arr[:1]))
                if subt.rows == r.dim:
                    return True, rep.IrreducibilityCertificate(word, f, nu)
                return False, nullspace(subt)
    raise rep.Undecided("no verdict within the word budget")


_rep_iso = rep.iso  # the library's function, even while a test wraps rep.iso


def iso_full(a: rep.Representation, b: rep.Representation, seed: int = 1):
    """`rep.iso` with each factor list complete before its first factor is
    read (the function body is otherwise the one in `rep`)."""
    lazy = rep.irreducible_factors
    rep.irreducible_factors = lambda f: iter(irreducible_factors_full(f))
    try:
        return _rep_iso(a, b, seed)
    finally:
        rep.irreducible_factors = lazy


def _standard_basis(r: rep.Representation, v: np.ndarray):
    """Spin v recording a deterministic schedule; returns (basis rows in
    discovery order, schedule) where schedule entries are (source, gen)."""
    F = r.field
    rows = [v.copy()]
    schedule = []
    basis = WorkBasisRows(F, r.dim)
    basis.insert(v.copy())
    i = 0
    while i < len(rows) and len(rows) < r.dim:
        for gi, g in enumerate(r.gens):
            w = F.matmul(rows[i][None, :], g.arr)[0]
            if basis.insert(w):
                rows.append(w)
                schedule.append((i, gi))
                if len(rows) == r.dim:
                    break
        i += 1
    return rows, schedule


def _intertwines(a, b, H):
    return all(mat_mul(ga, H) == mat_mul(H, gb) for ga, gb in zip(a.gens, b.gens))


def iso_standard_basis(a: rep.Representation, b: rep.Representation, seed: int = 1):
    """The earlier `rep.iso`: the standard basis A of a spun from va, for
    each point vb the schedule replayed from vb in b as B, then A^-1 B
    accepted when B has full rank and it intertwines."""
    if a.ngens != b.ngens:
        raise GeneratorCountMismatch("different generator counts")
    if a.field != b.field or a.dim != b.dim:
        return None
    if a.dim == 0:
        return FqMatrix.zeros(a.field, 0, 0)
    F = a.field
    stream = rep.word_stream(a.ngens, F.p, seed)
    for _ in range(rep.WORD_BUDGET):
        word = next(stream)
        wa = word.evaluate(a)
        wb = word.evaluate(b)
        cpa = char_poly(wa)
        if cpa != char_poly(wb):
            return None
        usable = None
        for f, _m in irreducible_factors(cpa):
            kera = nullspace(f.eval_matrix(wa).transpose())
            if kera.rows == f.degree:
                usable = (f, kera)
                break
        if usable is None:
            continue
        f, kera = usable
        kerb = nullspace(f.eval_matrix(wb).transpose())
        if kerb.rows != kera.rows:
            return None
        rows_a, schedule = _standard_basis(a, kera.arr[0])
        if len(rows_a) < a.dim:
            continue
        Ainv = inverse(FqMatrix(F, np.array(rows_a)))
        for vb in projective_points(F, kerb.arr):
            rows_b = [vb.copy()]
            for src, gi in schedule:
                rows_b.append(F.matmul(rows_b[src][None, :], b.gens[gi].arr)[0])
            B = FqMatrix(F, np.array(rows_b))
            if echelonize(B).rank < b.dim:
                continue
            H = mat_mul(Ainv, B)
            if _intertwines(a, b, H):
                return H
        return None
    raise Undecided("no standard-basis word found")


def field_tables_per_power(F: FieldSpec) -> dict[str, np.ndarray]:
    """exp, log, neg, inv, add, mul and mulx of F from w^0 .. w^(q-2), each
    the previous power times w reduced by the Conway polynomial."""
    p, k, q = F.p, F.k, F.q
    pw = [p**i for i in range(k)]
    exp = np.zeros(2 * (q - 1), dtype=np.int64)
    cur = [1] + [0] * (k - 1)
    for i in range(q - 1):
        exp[i] = sum(c * pp for c, pp in zip(cur, pw))
        carry = cur[-1]
        cur = [0] + cur[:-1]
        for j in range(k):
            cur[j] = (cur[j] - carry * F.conway[j]) % p
    exp[q - 1 :] = exp[: q - 1]
    log = np.zeros(q, dtype=np.int64)
    log[exp[: q - 1]] = np.arange(q - 1)
    v = np.arange(q, dtype=np.int64)
    dig = np.stack([(v // pp) % p for pp in pw], axis=1)
    tables = {"exp": exp, "log": log, "neg": ((-dig) % p) @ np.array(pw)}
    tables["inv"] = np.where(v == 0, 0, exp[(q - 1 - log) % (q - 1)])

    def mul(a, b):
        return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])

    if k > 1 and q <= 256:
        a, b = np.meshgrid(v, v, indexing="ij")
        if p > 2:
            tables["add"] = ((dig[a] + dig[b]) % p) @ np.array(pw)
        tables["mul"] = mul(a, b)
    tables["mulx"] = np.stack([dig[mul(v, exp[d])] for d in range(k)])
    return tables


def grid_by_tokens(lines: list[str], rows: int, cols: int, bound: int) -> np.ndarray:
    """The rows x cols int64 array of the integer tokens in `lines`, read in
    any line layout: exactly rows * cols of them, each in 0..bound-1."""
    try:
        values = [int(t) for line in lines for t in line.split()]
        if len(values) != rows * cols:
            raise FormatError(f"expected {rows * cols} entries ({rows} x {cols}), got {len(values)}")
        arr = np.array(values, dtype=np.int64).reshape(rows, cols)
        if arr.size and (arr.min() < 0 or arr.max() >= bound):
            raise ValueError
    except (ValueError, OverflowError):
        raise FormatError(f"entries must be integers in 0..{bound - 1}") from None
    return arr


def grid_text_by_str(arr) -> str:
    """One line of space-separated integers per row of a 2-dimensional array,
    each ending in a newline."""
    return "".join(" ".join(map(str, row)) + "\n" for row in arr.tolist())


@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_exact_division(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d:
            continue
        num = _exact_int_div(num, list(cyclotomic_polynomial_by_exact_division(d)))
    return tuple(num)


def _exact_int_div(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise SelfCheckFailed("inexact division of integer polynomials")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dc in enumerate(den):
                num[i + j] -= q * dc
    if any(num):
        raise SelfCheckFailed("nonzero remainder in an exact polynomial division")
    return out


def _reduce_by_division(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = list(cyclotomic_polynomial_by_exact_division(n))
    deg = len(phi) - 1
    cs = list(coeffs)
    if len(cs) > n:
        folded = [Fraction(0)] * n
        for i, c in enumerate(cs):
            folded[i % n] += c
        cs = folded
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            cs[i] = Fraction(0)
            for j in range(deg):
                cs[i - deg + j] -= c * phi[j]
    cs = cs[:deg]
    while len(cs) < deg:
        cs.append(Fraction(0))
    return tuple(cs)


def normal_form_by_descent(n: int, coeffs) -> tuple[int, tuple[Fraction, ...]]:
    """(minimal conductor, power-basis coordinates there) of the exponent
    list `coeffs` in zeta_n."""
    cs = list(_reduce_by_division(n, [Fraction(c) for c in coeffs]))
    changed = True
    while changed:
        changed = False
        if n % 2 == 0 and (n // 2) % 2 == 1 and n > 2:
            m = n // 2
            # zeta_n = -zeta_m^((m+1)//2)
            out = [Fraction(0)] * m
            for i, c in enumerate(cs):
                if c:
                    k = (i * ((m + 1) // 2)) % m
                    out[k] += c if i % 2 == 0 else -c
            n, cs = m, list(_reduce_by_division(m, out))
            changed = True
            continue
        for p in sorted(factorize(n)):
            m = n // p
            desc = _try_descend(n, cs, m)
            if desc is not None:
                n, cs = m, desc
                changed = True
                break
    return n, tuple(cs)


def _try_descend(n: int, cs: list[Fraction], m: int) -> list[Fraction] | None:
    """Express the element in Q(zeta_m) if it lies there (m | n)."""
    # invariance under Gal(Q(zeta_n)/Q(zeta_m)) = {a mod n : a = 1 mod m}
    for a in range(1, n):
        if gcd(a, n) != 1 or a % m != 1 % m or a == 1:
            continue
        out = [Fraction(0)] * n
        for i, c in enumerate(cs):
            out[(i * a) % n] += c
        if tuple(_reduce_by_division(n, out)) != tuple(cs):
            return None
    # solve for coefficients over the zeta_m power basis
    stride = n // m
    cols = [_reduce_by_division(n, [Fraction(0)] * (j * stride) + [Fraction(1)])
            for j in range(euler_phi(m))]
    mat = [[col[i] for col in cols] for i in range(euler_phi(n))]
    return solve_rational(mat, cs)


def nullspace_by_row_space(m: FqMatrix) -> FqMatrix:
    """The earlier `gfla.nullspace`: eliminate m, write one kernel row per free
    column, then echelonize those rows again through `row_space`."""
    F = m.field
    ech = echelonize(m)
    piv = list(ech.pivots)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    if not free.size:
        return FqMatrix.zeros(F, 0, m.cols)
    out = np.zeros((free.size, m.cols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, piv] = F.neg(ech.matrix.arr[: ech.rank][:, free]).T
    return row_space(FqMatrix(F, out))


def composition_series_by_links(r: rep.Representation, seed: int = 1) -> rep.CompositionSeries:
    """The earlier `rep.composition_series`: its own Norton/split recursion
    builds the chain link by link (each witness echelonized again, each
    quotient link lifted and put through `row_space`), the adapted rows are
    chosen by one more elimination per link, and the factors are the diagonal
    blocks of the generators in that basis."""
    F = r.field

    def find_chain(m: rep.Representation) -> list[FqMatrix]:
        if m.dim == 0:
            return []
        verdict, witness = rep.is_irreducible(m, seed)
        if verdict:
            return [FqMatrix.identity(F, m.dim)]
        sub_rep, quot_rep = rep.split(m, witness)
        ech = echelonize(witness)
        U = FqMatrix(F, ech.matrix.arr[: ech.rank])
        chain = [FqMatrix(F, F.matmul(c.arr, U.arr)) for c in find_chain(sub_rep)[:-1]]
        chain.append(U)
        comp = [j for j in range(m.dim) if j not in ech.pivots]
        for c in find_chain(quot_rep):
            lifted = np.zeros((c.rows, m.dim), dtype=np.int64)
            lifted[:, comp] = c.arr
            chain.append(row_space(FqMatrix(F, np.vstack([U.arr, lifted]))))
        return chain

    chain = find_chain(r)
    rows = []
    prev = FqMatrix.zeros(F, 0, r.dim)
    sizes = []
    for link in chain:
        ech = echelonize(FqMatrix(F, np.vstack([prev.arr, link.arr]).T))
        new_rows = link.arr[[c - prev.rows for c in ech.pivots[prev.rows :]]]
        sizes.append(len(new_rows))
        rows.append(new_rows)
        prev = link
    A = FqMatrix(F, np.vstack(rows))
    Ainv = inverse(A)
    series = rep.CompositionSeries(r, tuple(chain), (), A, Ainv, tuple(sizes))
    blocks = [series.diagonal_blocks(g) for g in r.gens]
    factors = tuple(
        rep.Representation(F, s, tuple(blocks[g][bi] for g in range(r.ngens))) for bi, s in enumerate(sizes)
    )
    return rep.CompositionSeries(r, tuple(chain), factors, A, Ainv, tuple(sizes))


def blocks_by_least_factor(table: ctab.CharTable, p: int) -> ctab.BlockData:
    """The earlier `ctab.blocks`: central characters reduced mod the maximal
    ideal given by the lexicographically least irreducible factor h of Phi_e
    mod p (e the conductor of the values), at the least root of h in
    GF(p^deg h), every residue on numpy int64 scalars."""
    if any(chi.degree.is_zero() for chi in table.characters):
        raise NonIntegral("a character of degree 0 has no central character")
    e = table.conductor()
    Fp = field_make(p, 1)
    phi_poly = FqPolynomial(Fp, [c % p for c in cyclotomic_polynomial(e)])
    least = next(irreducible_factors(phi_poly), None)  # canonical order
    if least is None:
        raise IdealChoiceFailure("cyclotomic polynomial has no factors")
    h = least[0]
    m = h.degree
    E = field_make(p, m) if m > 1 else Fp
    hx = FqPolynomial(E, Fp.embed_into(E)[list(h.coeffs)]) if m > 1 else h
    roots = []
    for g, _mult in irreducible_factors(hx):
        if g.degree > 1:  # the linear factors come first
            break
        roots.append(g.field.neg(g.coeffs[0]))
    if not roots:
        raise IdealChoiceFailure("no root of the chosen factor in its field")
    theta = min(roots)

    def reduce(v: Cyclotomic) -> int:
        if e % v.n:
            raise IdealChoiceFailure("conductor does not divide the exponent")
        acc = np.int64(0)
        tpow = E.pow_el(theta, e // v.n)
        for i, c in enumerate(v.coeffs):
            if c == 0:
                continue
            if c.denominator % p == 0:
                raise IdealChoiceFailure("denominator not invertible mod p")
            den_inv = pow(c.denominator % p, p - 2, p) if c.denominator % p != 1 else 1
            term = E.mul(np.int64((c.numerator % p) * den_inv % p), np.int64(E.pow_el(tpow, i)))
            acc = E.add(acc, term)
        return int(acc)

    sigs = []
    for chi in table.characters:
        deg = chi.degree.as_fraction()
        sigs.append(tuple(reduce((Fraction(cls.size) / deg) * chi.values[ci])
                          for ci, cls in enumerate(table.classes)))
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(sigs):
        groups.setdefault(s, []).append(i)
    blocks_list = sorted(groups.values(), key=lambda idxs: idxs[0])
    nu_g = ctab._nu(p, table.group_order)
    defects = tuple(nu_g - min(ctab._nu(p, table.characters[i].degree_int()) for i in members)
                    for members in blocks_list)
    return ctab.BlockData(table, p, tuple(tuple(b) for b in blocks_list), defects)


def clifford_index2_by_columns(g_block, brauer_pairs, ordinary_pairs, row_plan=None, morita_split=False):
    """The earlier `ctab.clifford_index2`: the column order as ("inv", j) and
    ("pair", (a, b)) entries, walked once per output row in an "ext" and a
    "fuse" branch, and once more for the column degrees."""
    for a, b in brauer_pairs:
        if a == b:
            raise ActionNotInvolution("column pair must have distinct members")
    for a, b in ordinary_pairs:
        if a == b:
            raise ActionNotInvolution("row pair must have distinct members")
        if g_block.row_degrees[a] != g_block.row_degrees[b]:
            raise FusionDegreeMismatch("swapped ordinary characters must share a degree")
    if morita_split:
        if brauer_pairs or ordinary_pairs:
            raise FusionDegreeMismatch("a Morita-split cover has no fused pairs")
        return ctab.CliffordResult(tuple(replace(g_block, label=f"{g_block.label}{sign}") for sign in "+-"))
    pair_of = {}
    for pr in brauer_pairs:
        pair_of[pr[0]] = pr
        pair_of[pr[1]] = pr
    col_order = []
    for j in range(g_block.l):
        if j in pair_of:
            if j == pair_of[j][0]:
                col_order.append(("pair", pair_of[j]))
        else:
            col_order.append(("inv", j))
    swapped_rows = {a for a, b in ordinary_pairs} | {b for a, b in ordinary_pairs}
    if row_plan is None:
        row_plan = tuple(
            ("ext", i) for i in range(g_block.k) if i not in swapped_rows for _ in (0, 1)
        ) + tuple(("fuse", pr) for pr in ordinary_pairs)
    new_rows, new_labels, new_degrees = [], [], []
    for kind, payload in row_plan:
        if kind == "ext":
            i = payload
            row = []
            for ck, cp in col_order:
                if ck == "inv":
                    row.append(g_block.matrix[i][cp])
                else:
                    a, b = cp
                    if g_block.matrix[i][a] != g_block.matrix[i][b]:
                        raise FusionDegreeMismatch(
                            f"invariant row {i} differs on the swapped column pair {cp}"
                        )
                    row.append(g_block.matrix[i][a])
            new_rows.append(tuple(row))
            new_labels.append(g_block.row_labels[i])
            new_degrees.append(g_block.row_degrees[i])
        elif kind == "fuse":
            r1, r2 = payload
            row = []
            for ck, cp in col_order:
                c = cp if ck == "inv" else cp[0]
                row.append(g_block.matrix[r1][c] + g_block.matrix[r2][c])
            new_rows.append(tuple(row))
            new_labels.append(f"{g_block.row_labels[r1]}+{g_block.row_labels[r2]}")
            new_degrees.append(g_block.row_degrees[r1] + g_block.row_degrees[r2])
        else:
            raise ValueError(f"unknown row plan entry {kind!r}")
    col_degs = []
    if g_block.col_degrees:
        for ck, cp in col_order:
            if ck == "inv":
                col_degs.append(g_block.col_degrees[cp])
            else:
                a, b = cp
                col_degs.append(g_block.col_degrees[a] + g_block.col_degrees[b])
    result = ctab.BlockDecomposition(
        label=f"{g_block.label}.2",
        p=g_block.p,
        row_labels=tuple(new_labels),
        row_degrees=tuple(new_degrees),
        matrix=tuple(new_rows),
        col_degrees=tuple(col_degs),
    )
    return ctab.CliffordResult((result,))


def fitting_match_by_solves(state, problem):
    """The earlier `dxm.fitting_match`: the bijections from a generator, and
    one rational solve of the basic set plus the unmet unit columns per
    bijection and E-column."""
    k = state.k
    erows = len(problem.e_row_degrees)
    met = [i for i in range(k) if problem.regular_multiplicities[i]]
    unmet = [i for i in range(k) if not problem.regular_multiplicities[i]]
    if len(met) != erows:
        raise NoAdmissibleMatching("row counts disagree with the regular character")
    pinned = dict(problem.pinned)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for er in range(erows):
        d = problem.e_row_degrees[er]
        groups.setdefault(d, ([], []))[0].append(er)
    for i in met:
        d = problem.regular_multiplicities[i]
        if d not in groups:
            raise NoAdmissibleMatching(f"no E-row of degree {d}")
        groups[d][1].append(i)
    for d, (a, b) in groups.items():
        if len(a) != len(b):
            raise NoAdmissibleMatching(f"degree multiset mismatch at {d}")
    basics = state.basic_matrix()
    unknown_cols = []
    for u in unmet:
        ev = [Fraction(0)] * k
        ev[u] = Fraction(-1)
        unknown_cols.append(tuple(ev))
    full = basics + unknown_cols
    if len(rref_rational([[col[i] for col in full] for i in range(k)], len(full))) < len(full):
        raise NoAdmissibleMatching("unmet ordinaries are not determined by the basic set")
    survivors = []
    group_items = sorted(groups.items())

    def bijections():
        per_group = []
        for d, (es, bs) in group_items:
            perms = []
            for pb in itertools.permutations(bs):
                ok = True
                for e, b in zip(es, pb):
                    if e in pinned and pinned[e] != b:
                        ok = False
                        break
                if ok:
                    perms.append(tuple(zip(es, pb)))
            per_group.append(perms)
        for combo in itertools.product(*per_group):
            m = {}
            for pairs in combo:
                for e, b in pairs:
                    m[e] = b
            yield m

    ncols = len(problem.e_decomposition[0]) if problem.e_decomposition else 0
    for assignment in bijections():
        cols = []
        ok = True
        for cj in range(ncols):
            base = [Fraction(0)] * k
            for er in range(erows):
                base[assignment[er]] = Fraction(problem.e_decomposition[er][cj])
            sol = dxm.solve_exact(full, tuple(base))
            if sol is None:
                ok = False
                break
            coeffs = sol[: len(basics)]
            fills = sol[len(basics):]
            if any(c.denominator != 1 for c in coeffs):
                ok = False
                break
            if any(f.denominator != 1 or f < 0 for f in fills):
                ok = False
                break
            column = list(base)
            for u, f in zip(unmet, fills):
                column[u] = f
            cols.append(dxm._vec(column))
        if ok:
            survivors.append((dict(assignment), cols))
    if not survivors:
        raise NoAdmissibleMatching("no bijection passes the integrality filter")
    return survivors


def sd16_by_branches(inst):
    """The earlier `dxm.sd16_analyze`: the case search by four separate
    tests, then x1..x4 from an unrolled loop of eight branches, one per
    relation and unknown."""
    h0 = [(lbl, deg) for lbl, deg, h in inst.chars if h == 0]
    h1 = [(lbl, deg) for lbl, deg, h in inst.chars if h == 1]
    h2 = [(lbl, deg) for lbl, deg, h in inst.chars if h == 2]
    star_deg = h1[0][1]
    if any(d != star_deg for _, d in h1):
        raise NoConsistentSigns("height-one characters must share a degree")
    hat_deg = h2[0][1]
    found = []
    for case_idx, deltas in enumerate(dxm.SD16_SIGN_CASES):
        d1, d2, d3, d4 = deltas
        for perm in itertools.permutations(range(4)):
            degs = [h0[i][1] for i in perm]
            if d1 * degs[0] + d2 * degs[1] != star_deg:
                continue
            if -d3 * degs[2] - d4 * degs[3] != star_deg:
                continue
            if d2 * degs[1] + d4 * degs[3] != hat_deg:
                continue
            if -d1 * degs[0] - d3 * degs[2] != hat_deg:
                continue
            found.append((case_idx, perm))
    if not found:
        raise NoConsistentSigns("no sign case satisfies the degree relations")
    classes = []
    seen = set()
    for case_idx, perm in found:
        if (case_idx, perm) in seen:
            continue
        d = dxm.SD16_SIGN_CASES[case_idx]
        partner_delta = (-d[3], -d[2], -d[1], -d[0])
        partner_perm = (perm[3], perm[2], perm[1], perm[0])
        seen.add((case_idx, perm))
        if partner_delta in dxm.SD16_SIGN_CASES:
            seen.add((dxm.SD16_SIGN_CASES.index(partner_delta), partner_perm))
        classes.append((case_idx, perm))
    if len(classes) > 1:
        raise AmbiguousCase(f"{len(classes)} inequivalent sign solutions")
    case_idx, perm = classes[0]
    deltas = dxm.SD16_SIGN_CASES[case_idx]
    labeling = tuple(h0[i][0] for i in perm)
    bpos = min(range(4), key=lambda i: h0[perm[i]][1])
    d1, d2, d3, d4 = deltas

    def combo(scale, vec, scale2=0, vec2=(0, 0, 0)):
        return tuple(scale * a + scale2 * b for a, b in zip(vec, vec2))

    star = (0, 1, 0)
    hat = (0, 0, 1)
    vecs = {bpos: (1, 0, 0)}
    for _ in range(4):
        for i in range(4):
            if i in vecs:
                continue
            if i == 0 and 1 in vecs:
                vecs[0] = combo(d1, star, -d1 * d2, vecs[1])
            elif i == 1 and 0 in vecs:
                vecs[1] = combo(d2, star, -d1 * d2, vecs[0])
            elif i == 3 and 1 in vecs:
                vecs[3] = combo(d4, hat, -d2 * d4, vecs[1])
            elif i == 1 and 3 in vecs:
                vecs[1] = combo(d2, hat, -d2 * d4, vecs[3])
            elif i == 2 and 0 in vecs:
                vecs[2] = combo(-d3, hat, -d1 * d3, vecs[0])
            elif i == 0 and 2 in vecs:
                vecs[0] = combo(-d1, hat, -d1 * d3, vecs[2])
            elif i == 2 and 3 in vecs:
                vecs[2] = combo(-d3, star, -d3 * d4, vecs[3])
            elif i == 3 and 2 in vecs:
                vecs[3] = combo(-d4, star, -d3 * d4, vecs[2])
    rows = []
    for lbl, deg, h in inst.chars:
        if h == 1:
            rows.append((0, 1, 0))
        elif h == 2:
            rows.append((0, 0, 1))
        else:
            pos = next(i for i in range(4) if h0[perm[i]][0] == lbl)
            rows.append(vecs[pos])
    basic_labels = (h0[perm[bpos]][0], h1[0][0], h2[0][0])
    return dxm.SD16Result(deltas, labeling, basic_labels, tuple(rows))


def enumerate_candidates_recursive(state):
    """The earlier `dxm.enumerate_candidates`: each open column's refinements
    from a recursion over the indecomposable columns, a running product for
    the cap, and the candidate matrices by index.  It does not end when an
    indecomposable column has no positive entry."""
    k = state.k
    indec = [j for j, c in enumerate(state.proj_basic) if c.indecomposable]
    open_cols = [j for j, c in enumerate(state.proj_basic) if not c.indecomposable]
    options_per_col = []
    for j in open_cols:
        base = state.proj_basic[j].coeffs
        options = []

        def rec(idx, current):
            if idx == len(indec):
                options.append(tuple(current))
                return
            col = state.proj_basic[indec[idx]].coeffs
            t = 0
            while True:
                cand = dxm._vsub(current, dxm._vscale(t, col))
                if any(x < 0 for x in cand):
                    break
                rec(idx + 1, cand)
                t += 1

        rec(0, base)
        options_per_col.append(options)
    total = 1
    for o in options_per_col:
        total *= len(o)
        if total > dxm.CANDIDATE_CAP:
            raise Infeasible(f"candidate count exceeds the cap {dxm.CANDIDATE_CAP}")
    candidates = []
    for combo in itertools.product(*options_per_col):
        cols = {}
        for pos, j in enumerate(open_cols):
            cols[j] = combo[pos]
        full_cols = [cols.get(j, c.coeffs) for j, c in enumerate(state.proj_basic)]
        candidates.append(tuple(tuple(int(full_cols[j][i]) for j in range(state.l)) for i in range(k)))
    candidates = sorted(set(candidates))
    return replace(state, candidates=tuple(candidates)).with_log(f"enumerated {len(candidates)} candidates")


def rref_rational_fractions(A, ncols):
    """The earlier `cyclo.rref_rational`: Gauss-Jordan over Q on rows of
    Fractions, in place, dividing the pivot row by its pivot and subtracting
    it from every other row with a nonzero in the pivot column."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return pivots


def verify_matrix_fractions(D, ordinary_vectors, brauer_vectors):
    """The earlier `dxm.verify_matrix`: chi_i = sum_j D[i][j] phi_j, summed
    term by term in Fractions."""
    k = len(D)
    l = len(D[0]) if k else 0
    if len(ordinary_vectors) != k or len(brauer_vectors) != l:
        return False
    if any(x < 0 or int(x) != x for row in D for x in row):
        return False
    width = len(brauer_vectors[0]) if brauer_vectors else 0
    for i in range(k):
        acc = [Fraction(0)] * width
        for j in range(l):
            if D[i][j]:
                acc = [x + D[i][j] * y for x, y in zip(acc, brauer_vectors[j])]
        if list(ordinary_vectors[i]) != acc:
            return False
    return True


def divmod_monic_dense(num, den):
    """The earlier `cyclo._divmod_monic`: each step subtracts c times every
    coefficient of the monic den, zero or not."""
    rem = list(num)
    deg = len(den) - 1
    quo = [0] * (len(rem) - deg)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            quo[i - deg] = c
            for j in range(deg + 1):
                rem[i - deg + j] -= c * den[j]
    return quo, rem[:deg]
