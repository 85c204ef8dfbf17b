"""Exact arithmetic in small finite fields GF(p^k) and dense linear algebra over them.

Elements are packed integers: the element sum(a_i * w^i) is stored as
sum(a_i * p^i), where w is the canonical generator (a root of the Conway
polynomial of GF(p^k)).  All bulk operations work on numpy int64 arrays of
packed values, so matrix arithmetic stays vectorized.  Elementwise arithmetic
is table lookup, the table chosen once per field (see `FieldSpec`): XOR adds
over GF(2^k), `% p` over prime fields, q x q add and mul tables up to q = 256,
and above that discrete-log tables for products and base-p digits for sums;
negation and inversion are length-q tables.  A scalar call reads Python-list
copies of the same tables and returns a Python int; polynomials (`FqPolynomial`)
are tuples of such ints and loop over those lists.  They are the one polynomial
type: the MeatAxe, the factoring, the Brauer lift and the Conway search use it.
The search builds GF(p) first and tests candidates over it for primitivity
alone, which implies irreducibility.  A matrix product treats
GF(p^k) as the vector space GF(p)^k: the digits of A times the GF(p)-expansion
of B (each entry b replaced by the k x k matrix of x -> x.b) is one product over
GF(p), reduced mod p and packed back.  It runs as float64 BLAS calls on tiles
of at most 2^18 multiply-adds, reduced mod p between inner chunks, which is
exact for every field under the ceiling and keeps BLAS on one thread.
Elimination (`echelonize`, behind rank, row spaces, null spaces, solving and
inversion) is blocked Gauss-Jordan: pivots are found one panel of columns at a
time, and the columns right of the panel take the panel's row operations as
one such product and one add.  A null space is one elimination too: of the
matrix with its columns reversed, whose kernel rows, reversed back, are
already the kernel's RREF.
Every operation is deterministic, so downstream results are bit-reproducible.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompositeCharacteristic,
    FieldTooLarge,
    FieldMismatch,
    NotPrimitive,
    NotSquare,
    SelfCheckFailed,
    ShapeMismatch,
)

FIELD_CEILING = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Conway polynomials
#
# Computed from the definition: the minimal monic primitive polynomial of
# degree k over GF(p) compatible with the Conway polynomials of all proper
# subfields, minimality taken in the standard alternating-sign lexicographic
# order.  Degree 1 needs no polynomial code: it is x - g for the least
# primitive root g mod p, so GF(p) can be built first.  Larger degrees are
# tested as `FqPolynomial`s over GF(p).  A candidate f in which x has order
# p^k - 1 is primitive, and also irreducible: GF(p)[x]/f then has p^k - 1
# units out of p^k elements, so it is a field.  Results are cached in memory
# only: nothing outside the process is read back, so a field's tables never
# rest on an unchecked polynomial.
# ---------------------------------------------------------------------------

_conway_mem: dict[tuple[int, int], tuple[int, ...]] = {}


def conway_polynomial(p: int, k: int) -> tuple[int, ...]:
    """Coefficients (ascending, length k+1) of the Conway polynomial of GF(p^k)."""
    key = (p, k)
    if key not in _conway_mem:
        q1 = p**k - 1
        cofactors = [q1 // r for r in factorize(q1)]
        if k == 1:
            g = next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in cofactors))
            _conway_mem[key] = ((-g) % p, 1)
        else:
            _conway_mem[key] = _conway_search(p, k, cofactors)
    return _conway_mem[key]


def _conway_search(p: int, k: int, cofactors: list[int]) -> tuple[int, ...]:
    F = field_make(p, 1)
    x = FqPolynomial.x(F)
    q1 = p**k - 1
    # Conway(p, d) must vanish at x^((p^k-1)/(p^d-1)), the image of its root.
    # For d = 1 that says x^((p^k-1)/(p-1)) = g, so x^(p^k-1) = g^(p-1) = 1,
    # and no x^(p^k-1)/r = 1 for a prime r | p^k - 1 leaves x of order p^k - 1.
    subfields = [(conway_polynomial(p, d), q1 // (p**d - 1)) for d in range(1, k) if k % d == 0]
    # candidates ordered by the tuple (c_{k-1},...,c_0) with
    # f(x) = x^k - c_{k-1} x^(k-1) + c_{k-2} x^(k-2) - ...
    for idx in range(p**k):
        # idx in base p, most significant digit first, is (c_{k-1}, ..., c_0)
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        for j in range(k):
            idx, c = divmod(idx, p)
            coeffs[j] = (-c) % p if (k - j) % 2 else c
        if coeffs[0] == 0:  # root 0 is never a unit, let alone primitive
            continue
        f = FqPolynomial._of(F, coeffs)
        if not all(_horner_mod(sub, _pow_mod(x, e, f), f).is_zero() for sub, e in subfields):
            continue
        if not any(_pow_mod(x, e, f).coeffs == (1,) for e in cofactors):
            return f.coeffs
    raise FieldTooLarge(f"no Conway polynomial found for GF({p}^{k})")


def _horner_mod(coeffs, y: FqPolynomial, f: FqPolynomial) -> FqPolynomial:
    """The polynomial with ascending prime-field coefficients, evaluated at y mod f."""
    F = f.field
    acc = FqPolynomial.zero(F)
    for c in reversed(coeffs):
        acc = acc.mul(y).add(FqPolynomial._of(F, [c])).mod(f)
    return acc


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------

ZECH_ZERO = -1  # sentinel: log of 0 in the Zech table
TABLE_CEILING = 256  # the largest q with q x q add and mul tables

# argument types that take the scalar path of the elementwise ops
_SCALARS = frozenset({int} | {np.dtype(c).type for c in np.typecodes["AllInteger"]})

# multiply-adds per float64 BLAS call.  A sum of at most 2^18 products of
# GF(p) digits, p < 2^16, stays below 2^50, so it is exact in a double; and
# OpenBLAS runs a call this small on the calling thread, so no worker thread
# wakes up to spin on process CPU.
_TILE = 1 << 18


def _tile(n: int, m: int, n2: int, budget: int = _TILE) -> tuple[int, int, int]:
    """Rows, inner length and columns of the blocks of an n x m by m x n2
    product (all positive), at most `budget` multiply-adds each.  The inner
    dimension is cut into equal chunks, only as far as needed to leave room
    for a 16 x 16 block of rows and columns; rows and columns share the rest."""
    if n * m * n2 <= budget:  # what the rule below gives, without its arithmetic
        return n, m, n2
    cap = max(1, budget // (min(n, 16) * min(n2, 16)))
    inner = -(-m // -(-m // cap))
    rest = budget // inner
    cols = min(n2, rest // min(n, math.isqrt(rest)))
    return min(n, rest // cols), inner, cols


class FieldSpec:
    """A small finite field GF(p^k) with its arithmetic tables.

    Immutable; construct via field_make().  Tables (numpy int64 unless noted):
      exp[i]  packed value of w^i for 0 <= i <= 2(q-2)
      log[v]  discrete log of the packed value v (log[0] is a dummy 0)
      zech[m] log(1 + w^m), or ZECH_ZERO when 1 + w^m = 0
      dig[v]  base-p digit vector of v
      neg[v], inv[v]  -v and 1/v (inv[0] is a dummy 0)
      add[a, b]  a + b, only for odd p with k > 1 and q <= 256
      mul[a, b]  a.b, only for k > 1 and q <= 256
      mulx[d, v] digit vector of w^d.v; mulx[:, v] is the k x k matrix over
              GF(p) of x -> x.v (narrowest unsigned dtype that holds p - 1)

    The elementwise ops take numpy arrays (int64 results) or scalars.  An
    argument list of only Python or numpy integers is a scalar call, which
    returns a Python int from list copies of the tables without a numpy call.
    Which table each op reads:
      add  p = 2: XOR.  k = 1: (a + b) % p.  q <= 256: the add table.
           Otherwise, odd p with k > 1 and q > 256, base-p digits for
           arrays and Zech logarithms for scalars.
      neg  the neg table.
      mul  arrays: (a * b) % p for k = 1, the mul table for q <= 256, and
           exp[log a + log b] above; scalars: the exp/log lists.
      inv  the inv table; 0 raises ZeroDivisionError.
    """

    def __init__(self, p: int, k: int):
        # the size first: k > 16 exceeds the ceiling for every p >= 2, and a
        # huge p or k would make p**k or the primality test hang
        if not 1 <= k <= 16 or p**k > FIELD_CEILING:
            raise FieldTooLarge(f"GF({p}^{k}) exceeds the ceiling {FIELD_CEILING}")
        if not is_prime(p):
            raise CompositeCharacteristic(f"{p} is not prime")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.conway = conway_polynomial(p, k)
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        v = np.arange(q, dtype=np.int64)
        dig = np.empty((q, k), dtype=np.int64)
        t = v.copy()
        for i in range(k):
            dig[:, i] = t % p
            t //= p
        self._dig = dig
        self._pow = p ** np.arange(k, dtype=np.int64)
        self._pow_f = self._pow.astype(np.float64)
        # digits of w^0 .. w^(q-2) by doubling: with the digits of w^0 ..
        # w^(n-1) known, those of w^n .. w^(2n-1) are them times the k x k
        # GF(p) matrix of x -> x.w^n, which is squared for the next step
        step = np.zeros((k, k), dtype=np.int64)  # x -> x.w: the companion matrix
        step[np.arange(k - 1), np.arange(1, k)] = 1
        step[k - 1] = [(-c) % p for c in self.conway[:k]]
        powers = np.zeros((1, k), dtype=np.int64)
        powers[0, 0] = 1
        Fp = self if k == 1 else field_make(p)  # a product over GF(p) reads no table
        while len(powers) < q - 1:
            powers = np.vstack([powers, Fp.matmul(powers, step)])
            step = Fp.matmul(step, step)
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        exp[: q - 1] = powers[: q - 1] @ self._pow
        hits = np.bincount(exp[: q - 1], minlength=q)
        if hits[0] or (hits[1:] != 1).any():
            raise NotPrimitive(f"the Conway polynomial {self.conway} of {self!r} is not primitive")
        exp[q - 1 :] = exp[: q - 1]
        self._exp = exp
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1, dtype=np.int64)
        self._log = log
        self._neg = ((-dig) % p) @ self._pow
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
        self._inv = inv
        self._add = self._mul = None
        if k > 1 and q <= TABLE_CEILING:
            if p > 2:  # digitwise sums, one more leading digit per step
                one = np.add.outer(np.arange(p), np.arange(p)) % p
                add = one
                for i in range(1, k):
                    add = (add[None, :, None, :] + p**i * one[:, None, :, None]).reshape(p * len(add), -1)
                self._add = add
            mul = exp[np.add.outer(log, log)]
            mul[0, :] = mul[:, 0] = 0
            self._mul = mul
        # Zech logarithms: zech[m] = log(1 + w^m)
        ones = self.add(np.int64(1), exp[: q - 1])
        zech = np.where(ones == 0, np.int64(ZECH_ZERO), log[ones])
        self.zech = zech
        # list copies for the scalar path
        self._exp_l, self._log_l = exp_l, log_l = exp.tolist(), log.tolist()
        self._neg_l, self._inv_l = self._neg.tolist(), inv.tolist()
        self._add_s = _scalar_add(p, k, self._add, exp_l, log_l, zech.tolist())
        self.omega = int(exp[1]) if q > 2 else 1
        self.neg_one = self.neg(1)
        # axis order (d, v, f): one np.take along v lays M(B) out row-major
        mulx = np.empty((k, q, k), dtype=np.min_scalar_type(p - 1))
        narrow = dig.astype(mulx.dtype)  # gathered whole rows: no (q, k) int64 temporary
        for d in range(k):
            np.take(narrow, self.mul(v, exp[d]), axis=0, out=mulx[d])
        self._mulx = mulx

    # -- elementwise packed arithmetic (numpy arrays or scalars) ------------

    def add(self, a, b):
        if type(a) in _SCALARS and type(b) in _SCALARS:
            return self._add_s(int(a), int(b))
        p = self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if p == 2:
            return np.bitwise_xor(a, b)
        if self.k == 1:
            return (a + b) % p
        if self._add is not None:
            return self._add[a, b]
        return ((self._dig[a] + self._dig[b]) % p) @ self._pow

    def neg(self, a):
        if type(a) in _SCALARS:
            return self._neg_l[a]
        return self._neg[np.asarray(a, dtype=np.int64)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if type(a) in _SCALARS and type(b) in _SCALARS:
            return self._exp_l[self._log_l[a] + self._log_l[b]] if a and b else 0
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a * b) % self.p
        if self._mul is not None:
            return self._mul[a, b]
        res = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), np.int64(0), res)

    def inv(self, a):
        if type(a) in _SCALARS:
            if not a:
                raise ZeroDivisionError("inverse of 0 in GF(q)")
            return self._inv_l[a]
        a = np.asarray(a, dtype=np.int64)
        if not a.all():
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._inv[a]

    def zech_add(self, a, b):
        """Addition through the Zech-logarithm table (reference path for tests)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        q1 = self.q - 1
        la, lb = self._log[a], self._log[b]
        m = (lb - la) % q1
        z = self.zech[m]
        res = self._exp[(la + z) % q1]
        res = np.where(z == ZECH_ZERO, np.int64(0), res)
        res = np.where(a == 0, b, res)
        res = np.where(b == 0, a, res)
        return res

    def pow_el(self, a: int, e: int) -> int:
        a = int(a)
        if a == 0:
            return 0 if e else 1
        return self._exp_l[(self._log_l[a] * e) % (self.q - 1)]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        q1 = self.q - 1
        la = self._log_l[a]
        return q1 // math.gcd(la, q1) if la else 1

    def embed_into(self, other: "FieldSpec"):
        """Packed-value map GF(q) -> GF(q^t) along the Conway-compatible embedding."""
        if other.p != self.p or other.k % self.k:
            raise FieldMismatch("no embedding between these fields")
        stride = (other.q - 1) // (self.q - 1)
        table = np.zeros(self.q, dtype=np.int64)
        table[self._exp[: self.q - 1]] = other._exp[
            (self._log[self._exp[: self.q - 1]] * stride) % (other.q - 1)
        ]
        return table

    # -- matrix multiply kernel ---------------------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A.B over GF(q) as an exact product over GF(p).

        The digits of A form an n x km matrix DA[i,(d,j)] = digit d of A[i,j];
        B expands to the km x n'k matrix M(B)[(d,j),(l,f)] = digit f of
        w^d.B[j,l].  DA.M(B) reduced mod p holds the digits of A.B; for k = 1
        both are A and B themselves.  The product runs in blocks of rows and
        columns (`_block`) whose float64 BLAS calls do at most _TILE
        multiply-adds each (`_tile`).  B is expanded one block of columns at a
        time, so a small product is one block and one BLAS call.
        """
        if A.shape[-1] != B.shape[0]:
            raise ShapeMismatch(f"matmul {A.shape} x {B.shape}")
        k = self.k
        n, m, n2 = math.prod(A.shape[:-1]), B.shape[0], math.prod(B.shape[1:])
        shape = A.shape[:-1] + B.shape[1:]
        if not (n and m and n2):
            return np.zeros(shape, dtype=np.int64)
        A2, B2 = A.reshape(n, m), B.reshape(m, n2)
        DA = A2 if k == 1 else np.take(self._dig, A2, axis=0).transpose(0, 2, 1).reshape(n, k * m)
        X = DA.astype(np.float64)
        rows, inner, cols = _tile(n, k * m, n2, _TILE // k)
        if (rows, cols) == (n, n2):  # one block: nothing to assemble
            return self._block(X, self._expand(B2), inner).reshape(shape)
        out = np.empty((n, n2), dtype=np.int64)
        for c0 in range(0, n2, cols):
            Y = self._expand(B2[:, c0 : c0 + cols])
            for r0 in range(0, n, rows):
                out[r0 : r0 + rows, c0 : c0 + cols] = self._block(X[r0 : r0 + rows], Y, inner)
        return out.reshape(shape)

    def _expand(self, B: np.ndarray) -> np.ndarray:
        """M(B) as float64; B itself for k = 1."""
        if self.k == 1:
            return B.astype(np.float64)
        return np.take(self._mulx, B, axis=1).reshape(self.k * len(B), -1).astype(np.float64)

    def _block(self, X: np.ndarray, Y: np.ndarray, inner: int) -> np.ndarray:
        """X.Y over GF(p), packed to GF(q) values, for one block of rows and
        columns: one np.matmul per chunk of `inner` columns of X, its exact
        float sums reduced mod p in int64 before the next chunk is added; for
        k > 1, one more np.matmul packs the k digits of each value with the
        powers of p."""
        p, k = self.p, self.k
        for i0 in range(0, X.shape[1], inner):
            prod = np.matmul(X[:, i0 : i0 + inner], Y[i0 : i0 + inner]).astype(np.int64)
            acc = (prod if i0 == 0 else acc + prod) % p
        if k > 1:
            digits = acc.reshape(-1, k).astype(np.float64)
            acc = np.matmul(digits, self._pow_f).astype(np.int64).reshape(len(acc), -1)
        return acc

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


def _scalar_add(p, k, table, exp_l, log_l, zech_l):
    """a + b on Python ints in range, from Python lists only: XOR for p = 2,
    (a + b) % p for k = 1, the add table's list copy up to q = 256, and Zech
    logarithms above."""
    if p == 2:
        return operator.xor
    if k == 1:
        return lambda a, b: (a + b) % p
    if table is not None:
        rows = table.tolist()
        return lambda a, b: rows[a][b]
    q1 = len(log_l) - 1

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log_l[a]
        z = zech_l[(log_l[b] - la) % q1]
        return 0 if z == ZECH_ZERO else exp_l[la + z]

    return add


_field_mem: dict[tuple[int, int], FieldSpec] = {}


def field_make(p: int, k: int = 1) -> FieldSpec:
    """The field GF(p^k) with its Conway polynomial; cached per (p, k)."""
    key = (p, k)
    if key not in _field_mem:
        _field_mem[key] = FieldSpec(p, k)
    return _field_mem[key]


def root_of_unity(F: FieldSpec, e: int) -> tuple[FieldSpec, int]:
    """The least extension E = GF(p^m) of F with e | p^m - 1, and the
    primitive e-th root of unity w^((p^m - 1)/e) in it, w the Conway
    generator of E.

    This is the one choice of zeta_e in characteristic p:
    cyclo.brauer_char_value lifts eigenvalues through it and ctab.blocks
    reduces central characters through it.  e must be prime to p.  The
    search stops at FIELD_CEILING, where field_make raises FieldTooLarge.
    """
    p, m = F.p, F.k
    while (p**m - 1) % e and p**m <= FIELD_CEILING:
        m += F.k
    E = field_make(p, m)
    return E, E.pow_el(E.omega, (E.q - 1) // e)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class FqMatrix:
    """An immutable dense matrix of packed GF(q) values."""

    __slots__ = ("field", "arr")

    def __init__(self, field: FieldSpec, arr):
        a = np.array(arr, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeMismatch("matrix data must be 2-dimensional")
        if a.size and (a.min() < 0 or a.max() >= field.q):
            raise ShapeMismatch("entry out of range for the field")
        a.flags.writeable = False
        self.field = field
        self.arr = a

    # construction helpers
    @staticmethod
    def zeros(field, rows, cols):
        return FqMatrix(field, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field, n):
        return FqMatrix(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self):
        return self.arr.shape[0]

    @property
    def cols(self):
        return self.arr.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.field == other.field
            and self.arr.shape == other.arr.shape
            and bool(np.array_equal(self.arr, other.arr))
        )

    def __hash__(self):
        return hash((self.field, self.arr.shape, self.arr.tobytes()))

    def key(self) -> bytes:
        return self.arr.tobytes()

    def __repr__(self):
        return f"FqMatrix({self.field}, {self.rows}x{self.cols})"

    def transpose(self):
        return FqMatrix(self.field, self.arr.T.copy())

    def is_zero(self):
        return not self.arr.any()

    def stack(self, other: "FqMatrix") -> "FqMatrix":
        if self.field != other.field or self.cols != other.cols:
            raise ShapeMismatch("stack needs equal widths over one field")
        return FqMatrix(self.field, np.vstack([self.arr, other.arr]))


def mat_add(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    if a.field != b.field:
        raise FieldMismatch("add over different fields")
    if a.arr.shape != b.arr.shape:
        raise ShapeMismatch(f"add {a.arr.shape} + {b.arr.shape}")
    return FqMatrix(a.field, a.field.add(a.arr, b.arr))


def mat_mul(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    if a.field != b.field:
        raise FieldMismatch("mul over different fields")
    if a.cols != b.rows:
        raise ShapeMismatch(f"mul {a.arr.shape} x {b.arr.shape}")
    return FqMatrix(a.field, a.field.matmul(a.arr, b.arr))


def mat_kron(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    if a.field != b.field:
        raise FieldMismatch("kron over different fields")
    # entry (i, k, j, l) is a[i, j] * b[k, l]: row i*rb + k, column j*cb + l
    res = a.field.mul(a.arr[:, None, :, None], b.arr[None, :, None, :])
    return FqMatrix(a.field, res.reshape(a.rows * b.rows, a.cols * b.cols))


def mat_arith(a: FqMatrix, b: FqMatrix, kind: str) -> FqMatrix:
    if kind == "add":
        return mat_add(a, b)
    if kind == "mul":
        return mat_mul(a, b)
    if kind == "kron":
        return mat_kron(a, b)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class EchelonForm:
    rank: int
    pivots: tuple[int, ...]
    matrix: FqMatrix


def _panel_width(F: FieldSpec, cols: int) -> int:
    """Columns per elimination panel.  A matrix of at most 64 columns is one
    panel, so small eliminations keep the plain pivot loop (16-column panels
    were not measurably faster there); so is every matrix over GF(2^k) with
    k > 1, where XOR adds beat the k^2 expansion of the panel product;
    otherwise 16 columns."""
    if cols <= 64 or (F.p == 2 and F.k > 1):
        return max(cols, 1)
    return 16


def echelonize(m: FqMatrix) -> EchelonForm:
    """Reduced row echelon form with the first-nonzero-column/topmost-row pivot rule.

    Right-looking blocked Gauss-Jordan: the pivot loop runs on one panel of
    columns at a time.  Before the last panel it also carries Y, where Y[i, j]
    is the coefficient of the panel's j-th pivot row (as it entered the
    panel) in row i.  The trailing columns T then take all of the panel's row
    operations at once: T[i] + Y[i].T[S] for the other rows, Y[i].T[S] for
    the pivot rows S, so one product and one add per panel.  The RREF is
    unique, so the result does not depend on the panel width.
    """
    F = m.field
    A = m.arr.copy()
    rows, cols = A.shape
    width = _panel_width(F, cols)
    pivots = []
    r = 0
    for c0 in range(0, cols, width):
        if r == rows:
            break
        c1 = min(c0 + width, cols)
        b = c1 - c0
        blocked = c1 < cols
        # the panel's columns, then (before the last panel) Y
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
            # the pivot row is zero left of c, so only columns c.. change
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


def rank(m: FqMatrix) -> int:
    return echelonize(m).rank


def row_space(m: FqMatrix) -> FqMatrix:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    ech = echelonize(m)
    return FqMatrix(m.field, ech.matrix.arr[: ech.rank].copy())


def nullspace(m: FqMatrix) -> FqMatrix:
    """Canonical (RREF) row basis of {v : m . v^T = 0}, from one elimination.

    m is echelonized with its columns reversed, giving RREF R, pivots P and
    free columns f.  R[i, f] is nonzero only when P_i < f, so the kernel row
    e_f - sum_i R[i, f] e_{P_i} ends in a 1 at f and is zero on the other free
    columns.  Reversing these rows and their columns back gives rows that lead
    with a 1 at a free column, zero on every other free column, in ascending
    order: the RREF of the kernel."""
    F = m.field
    ech = echelonize(FqMatrix(F, m.arr[:, ::-1]))
    piv = list(ech.pivots)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    out = np.zeros((free.size, m.cols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, piv] = F.neg(ech.matrix.arr[: ech.rank][:, free]).T
    return FqMatrix(F, out[::-1, ::-1])


def solve_right(a: FqMatrix, b: FqMatrix):
    """X with a.X = b, or None.  a must have full column rank for uniqueness."""
    F = a.field
    aug = FqMatrix(F, np.hstack([a.arr, b.arr]))
    ech = echelonize(aug)
    R = ech.matrix.arr
    n = a.cols
    for c in ech.pivots:
        if c >= n:
            return None
    X = np.zeros((n, b.cols), dtype=np.int64)
    for i, c in enumerate(ech.pivots):
        X[c] = R[i, n:]
    return FqMatrix(F, X)


def inverse(m: FqMatrix) -> FqMatrix:
    if m.rows != m.cols:
        raise NotSquare("inverse of a non-square matrix")
    X = solve_right(m, FqMatrix.identity(m.field, m.rows))
    if X is None:
        raise ShapeMismatch("matrix is singular")
    return X


# ---------------------------------------------------------------------------
# Incremental echelon workspace (spin-up, Krylov, reductions)
# ---------------------------------------------------------------------------


class WorkBasis:
    """A growing RREF basis supporting reduce/insert on row vectors."""

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


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _strip(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


class FqPolynomial:
    """Dense polynomial over GF(q) in canonical form: `coeffs` is a tuple of
    packed values as Python ints, ascending, with no trailing zeros (the zero
    polynomial is ()).  Each method reads the field's scalar lists once and
    loops over the ints: products through exp/log, sums through the scalar
    add; only eval_matrix builds arrays."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        c = [int(a) for a in coeffs]
        if not all(0 <= a < field.q for a in c):
            raise ShapeMismatch("coefficient out of range for the field")
        self.field = field
        self.coeffs = _strip(c)

    @classmethod
    def _of(cls, field: FieldSpec, c: list) -> "FqPolynomial":
        """From a list of Python ints in range; trailing zeros are dropped
        from the list itself."""
        f = object.__new__(cls)
        f.field = field
        f.coeffs = _strip(c)
        return f

    @staticmethod
    def zero(field):
        return FqPolynomial(field, [])

    @staticmethod
    def one(field):
        return FqPolynomial(field, [1])

    @staticmethod
    def x(field):
        return FqPolynomial(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FqPolynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FqPolynomial({self.field}, {list(self.coeffs)})"

    def key(self):
        return (len(self.coeffs) - 1, self.coeffs)

    def add(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field._add_s
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return FqPolynomial._of(self.field, out)

    def neg(self):
        neg = self.field._neg_l
        return FqPolynomial._of(self.field, [neg[c] for c in self.coeffs])

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPolynomial.zero(F)
        exp, log, add = F._exp_l, F._log_l, F._add_s
        logs_b = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                lc = log[c]
                for j, lb in logs_b:
                    out[i + j] = add(out[i + j], exp[lc + lb])
        return FqPolynomial._of(F, out)

    def scale(self, c):
        F = self.field
        if not c:
            return FqPolynomial.zero(F)
        exp, log = F._exp_l, F._log_l
        lc = log[c]
        return FqPolynomial._of(F, [exp[lc + log[a]] if a else 0 for a in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(self.field._inv_l[lead])

    def divmod(self, other):
        F = self.field
        d = other.coeffs
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dn = len(d)
        if len(r) < dn:
            return FqPolynomial.zero(F), FqPolynomial._of(F, r)
        exp, log, add = F._exp_l, F._log_l, F._add_s
        q1 = F.q - 1
        lneg = log[F.neg_one]
        shift = (lneg - log[d[-1]]) % q1  # -c/lead = c.w^shift
        logs_d = [(j, log[c]) for j, c in enumerate(d[:-1]) if c]
        quot = [0] * (len(r) - dn + 1)
        for i in range(len(r) - dn, -1, -1):
            c = r[i + dn - 1]
            if c:
                lf = (log[c] + shift) % q1
                quot[i] = exp[lf + lneg]
                r[i + dn - 1] = 0
                for j, ld in logs_d:
                    r[i + j] = add(r[i + j], exp[lf + ld])
        return FqPolynomial._of(F, quot), FqPolynomial._of(F, r)

    def mod(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.mod(b)
        return a.monic()

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return FqPolynomial.zero(self.field)
        g = self.gcd(other)
        return self.mul(other).divmod(g)[0].monic()

    def derivative(self):
        F = self.field
        exp, log, p = F._exp_l, F._log_l, F.p
        # i * c_i is the product with the packed image i % p of the integer i
        # (an element of the prime field)
        out = [
            exp[log[i % p] + log[c]] if i % p and c else 0
            for i, c in enumerate(self.coeffs[1:], 1)
        ]
        return FqPolynomial._of(F, out)

    def eval_matrix(self, m: FqMatrix) -> FqMatrix:
        """Horner evaluation at a square matrix argument."""
        F = self.field
        n = m.rows
        if self.is_zero():
            return FqMatrix.zeros(F, n, n)
        acc = FqMatrix(F, F.mul(np.eye(n, dtype=np.int64), self.coeffs[-1]))
        for c in self.coeffs[-2::-1]:
            acc = mat_mul(acc, m)
            if c:
                diag = F.mul(np.eye(n, dtype=np.int64), c)
                acc = FqMatrix(F, F.add(acc.arr, diag))
        return acc

    def frobenius_root(self):
        """For f with zero derivative, the g with g(x)^p = f(x): every p-th
        coefficient of f with the inverse Frobenius applied."""
        F = self.field
        p = F.p
        if not self.is_zero() and (len(self.coeffs) - 1) % p:
            raise SelfCheckFailed(f"frobenius_root of a polynomial of degree {self.degree}, prime to p = {p}")
        # coefficient a -> a^(p^(k-1)) is the inverse of Frobenius on GF(p^k)
        e = p ** (F.k - 1)
        return FqPolynomial._of(F, [F.pow_el(a, e) for a in self.coeffs[::p]])

    def format(self) -> str:
        return " ".join(map(str, self.coeffs))


# -- minimal / characteristic polynomials -----------------------------------


def _krylov(m: FqMatrix, v: np.ndarray, quotient: WorkBasis | None):
    """(f, span) for the Krylov chain v, vA, vA^2, ... of A = m, taken
    modulo the span of `quotient` when one is given: f is the monic relation
    of least degree among the chain vectors, and the rows of span, reduced
    against each other, span the independent ones before it."""
    F = m.field
    n = m.rows
    local = WorkBasis(F, 2 * n + 1)
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


def min_poly(m: FqMatrix) -> FqPolynomial:
    """Minimal polynomial: the lcm of the minimal polynomials of the standard
    seeds e_0, e_1, ... outside the Krylov chains seen so far."""
    if m.rows != m.cols:
        raise NotSquare("min_poly of a non-square matrix")
    F = m.field
    n = m.rows
    result = FqPolynomial.one(F)
    seen = WorkBasis(F, n)
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


def char_poly(m: FqMatrix) -> FqPolynomial:
    """Characteristic polynomial as the product of relative Krylov factors.

    Each standard seed outside the span of the previous Krylov chains
    contributes the minimal polynomial of its induced action on the quotient;
    the product over seeds is the characteristic polynomial.
    """
    if m.rows != m.cols:
        raise NotSquare("char_poly of a non-square matrix")
    F = m.field
    n = m.rows
    result = FqPolynomial.one(F)
    glob = WorkBasis(F, n)
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


# ---------------------------------------------------------------------------
# Factorization over GF(q) (deterministic: seeded equal-degree splitting)
# ---------------------------------------------------------------------------


def _pow_mod(base: FqPolynomial, e: int, mod: FqPolynomial) -> FqPolynomial:
    F = base.field
    result = FqPolynomial.one(F)
    b = base.mod(mod)
    while e:
        if e & 1:
            result = result.mul(b).mod(mod)
        b = b.mul(b).mod(mod)
        e >>= 1
    return result


def squarefree_parts(f: FqPolynomial) -> list[tuple[FqPolynomial, int]]:
    """(g, m) pairs with f = prod g^m, each g squarefree; standard char-p recursion."""
    F = f.field
    out: list[tuple[FqPolynomial, int]] = []
    f = f.monic()

    def rec(g: FqPolynomial, mult: int):
        if g.degree < 1:
            return
        d = g.derivative()
        if d.is_zero():
            rec(g.frobenius_root(), mult * F.p)
            return
        s = g.gcd(d)
        w = g.divmod(s)[0]
        i = 1
        while w.degree >= 1:
            y = w.gcd(s)
            part = w.divmod(y)[0]
            if part.degree >= 1:
                out.append((part.monic(), mult * i))
            w = y
            s = s.divmod(y)[0]
            i += 1
        if s.degree >= 1:
            rec(s, mult)

    rec(f, 1)
    return out


def _equal_degree(f: FqPolynomial, d: int, rng) -> list[FqPolynomial]:
    F = f.field
    n = f.degree
    if n == d:
        return [f.monic()]
    while True:
        a = FqPolynomial(F, [rng.randrange(F.q) for _ in range(n)])
        if a.degree < 1:
            continue
        g = a.gcd(f)
        if 1 <= g.degree < n:
            split = g
        else:
            if F.p == 2:
                t = a
                acc = a
                for _ in range(d * F.k - 1):
                    t = t.mul(t).mod(f)
                    acc = acc.add(t)
                split = acc.gcd(f)
            else:
                e = (F.q**d - 1) // 2
                b = _pow_mod(a, e, f)
                split = b.sub(FqPolynomial.one(F)).gcd(f)
            if split.degree < 1 or split.degree == n:
                continue
        left = split.monic()
        right = f.divmod(left)[0].monic()
        return _equal_degree(left, d, rng) + _equal_degree(right, d, rng)


def irreducible_factors(f: FqPolynomial):
    """Monic irreducible factors with multiplicities, yielded lazily in
    canonical (key) order: every factor of degree 1, then of degree 2, and so
    on.  Degree d costs one x^(q^d) and one gcd per squarefree part (a part
    of degree below 2d is irreducible and waits for its own degree), so a
    caller that stops at a low-degree factor never factors further.  The
    factors are unique, so they do not depend on how the equal-degree
    splitting consumes its random stream, which is fixed here."""
    rng = random.Random(1 ^ 0x5EED)
    F = f.field
    x = FqPolynomial.x(F)
    # (unfactored rest of a squarefree part, x^(q^d) mod the rest, multiplicity)
    parts = [(g, x, mult) for g, mult in squarefree_parts(f)]
    whole: list[tuple[FqPolynomial, int]] = []  # irreducible rests
    d = 0
    while parts or whole:
        d += 1
        batch = [(g, mult) for g, mult in whole if g.degree == d]
        whole = [(g, mult) for g, mult in whole if g.degree > d]
        rest = []
        for g, h, mult in parts:
            if g.degree < 2 * d:
                (batch if g.degree == d else whole).append((g, mult))
                continue
            h = _pow_mod(h, F.q, g)
            gd = h.sub(x).gcd(g)
            if gd.degree >= 1:
                batch.extend((irr, mult) for irr in _equal_degree(gd, d, rng))
                g = g.divmod(gd)[0]
                if g.degree < 1:
                    continue
                h = h.mod(g)
            rest.append((g, h, mult))
        parts = rest
        merged: dict[tuple, tuple[FqPolynomial, int]] = {}
        for irr, mult in batch:
            k = irr.key()
            merged[k] = (merged[k][0], merged[k][1] + mult) if k in merged else (irr, mult)
        for k in sorted(merged):
            yield merged[k]
