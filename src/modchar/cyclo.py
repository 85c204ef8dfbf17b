"""Exact cyclotomic-integer arithmetic, Galois actions, and Brauer lifts.

A Cyclotomic is stored in the power basis of the n-th cyclotomic field with
rational coefficients, reduced modulo the n-th cyclotomic polynomial and
normalized to the minimal conductor, so equality is plain coefficient
equality.

The normal form is reached in two steps.  The exponent list is reduced mod
Phi_n by the one monic long division (`_divmod_monic`, which also builds
Phi_n from x^n - 1).  Then, for each prime p of n in increasing order, the
value descends to m = n/p for as long as it lies in Q(zeta_m):
  - p | m: Phi_n(x) = Phi_m(x^p), so it lies there exactly when its
    coordinates off the multiples of p vanish, and those at the multiples
    are its coordinates in Q(zeta_m);
  - p not dividing m: the mean over Gal(Q(zeta_n)/Q(zeta_m)), the relative
    trace divided by p - 1, sends zeta_n^i to zeta_m^(a i) with a = 1/p mod
    m, times 1 for p | i and -1/(p-1) otherwise; the value lies in Q(zeta_m)
    exactly when this mean, written back in Q(zeta_n), equals it.  For p = 2
    this takes every conductor 2 mod 4 to its odd half.
Each prime is tried until its first failure: a later conductor n' divides
n, so Q(zeta_{n'/p}) lies in Q(zeta_{n/p}) and the step fails there too.
(Cf. Breuer, Integral bases for subfields of cyclotomic fields, AAECC 8,
1997.)

Normalizing costs more than the arithmetic, so sums of many terms
are gathered as one exponent list and normalized once: `weighted_inner` for
scalar products, and `brauer_char_value`, which counts the eigenvalues of a
p-regular element among the roots of unity of its order e and builds one
Cyclotomic(e, counts), e given by the group layer.  The lift sends the
Conway generator w of GF(q) to exp(2 pi i / (q-1)) in the compatible way,
w^m -> zeta_{q-1}^m, so the eigenvalue w^(j(q-1)/e) lifts to zeta_e^j.

`rref_rational` is the one Gauss-Jordan elimination over Q (with
`solve_rational` on top, behind `Cyclotomic.inverse`, `ctab` and `dxm`).
Its rows come in and go out as ints or Fractions, but the elimination runs
on integers: each row is scaled once by the lcm of its denominators and
reduced fraction-free (Bareiss), and Fractions are built once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (
    FormatError,
    NonUnitGaloisExponent,
    NotSquarefree,
    PRegularViolation,
    SelfCheckFailed,
    ShapeMismatch,
)
from .gfla import FqMatrix, FqPolynomial, char_poly, factorize, mat_mul, root_of_unity


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the product of Phi_d for proper divisors d
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
            if any(rem):
                raise SelfCheckFailed("nonzero remainder in an exact polynomial division")
    return tuple(num)


def _divmod_monic(num, den) -> tuple[list, list]:
    """Quotient and remainder of num by the monic den, as ascending coefficient
    lists of ints or Fractions; num has at least len(den) - 1 entries, the
    remainder exactly that many.  Each step subtracts only den's nonzero
    lower terms (Phi_5040 has 33 nonzero coefficients of 1153)."""
    rem = list(num)
    deg = len(den) - 1
    terms = [(j, d) for j, d in enumerate(den[:deg]) if d]
    quo = [0] * (len(rem) - deg)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            quo[i - deg] = c
            for j, d in terms:
                rem[i - deg + j] -= c * d
    return quo, rem[:deg]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def _reduce_mod_phi(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce an exponent list in zeta_n to the power basis mod Phi_n."""
    phi = cyclotomic_polynomial(n)
    cs = list(coeffs)
    if len(cs) > n:
        folded = [Fraction(0)] * n
        for i, c in enumerate(cs):
            folded[i % n] += c
        cs = folded
    cs += [Fraction(0)] * (len(phi) - 1 - len(cs))
    return tuple(_divmod_monic(cs, phi)[1])


class Cyclotomic:
    """An exact element of Q(zeta_n), canonical minimal-conductor form."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs, _normalized=False):
        if _normalized:
            self.n = n
            self.coeffs = tuple(coeffs)
            return
        cs = [Fraction(c) for c in coeffs]
        n, cs = _normalize(n, cs)
        self.n = n
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Cyclotomic":
        return Cyclotomic(1, [Fraction(0)], _normalized=True)

    @staticmethod
    def one() -> "Cyclotomic":
        return Cyclotomic(1, [Fraction(1)], _normalized=True)

    @staticmethod
    def from_rational(x) -> "Cyclotomic":
        return Cyclotomic(1, [Fraction(x)], _normalized=True)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        k %= n
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return Cyclotomic(n, coeffs)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return self.n == 1

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self} is irrational")
        return self.coeffs[0]

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return f.numerator

    # -- arithmetic -----------------------------------------------------------

    def _lift_to(self, n: int) -> list[Fraction]:
        """Coefficients as an exponent list for zeta_n (n multiple of self.n)."""
        stride = n // self.n
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[(i * stride) % n] += c
        return out

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        n = lcm(self.n, other.n)
        a = self._lift_to(n)
        b = other._lift_to(n)
        return Cyclotomic(n, [x + y for x, y in zip(a, b)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.n, [-c for c in self.coeffs], _normalized=True)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        n = lcm(self.n, other.n)
        a = self._lift_to(n)
        b = other._lift_to(n)
        out = [Fraction(0)] * n
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[(i + j) % n] += ai * bj
        return Cyclotomic(n, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the multiplication matrix over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.n == 1:
            return Cyclotomic.from_rational(1 / self.coeffs[0])
        phi = euler_phi(self.n)
        cols = [(self * Cyclotomic.zeta(self.n, j)).coords(self.n) for j in range(phi)]
        mat = [[col[i] for col in cols] for i in range(phi)]
        return Cyclotomic(self.n, solve_rational(mat, [1] + [0] * (phi - 1)))

    def coords(self, n: int) -> list[Fraction]:
        """The phi(n) coordinates over the power basis 1, zeta_n, zeta_n^2, ...
        of Q(zeta_n), for n a multiple of the conductor."""
        return list(self.coeffs if self.n == n else _reduce_mod_phi(n, self._lift_to(n)))

    def galois(self, a: int) -> "Cyclotomic":
        """The automorphism zeta_n -> zeta_n^a; a must be a unit mod n."""
        if gcd(a, self.n) != 1:
            raise NonUnitGaloisExponent(f"{a} is not a unit modulo {self.n}")
        out = [Fraction(0)] * self.n
        for i, c in enumerate(self.coeffs):
            out[(i * a) % self.n] += c
        return Cyclotomic(self.n, out)

    def conj(self) -> "Cyclotomic":
        return self.galois(-1 % self.n) if self.n > 1 else self

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return format_cyclotomic(self)


def _coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x)
    raise TypeError(f"cannot coerce {x!r} to Cyclotomic")


def weighted_inner(weights, xs, ys) -> Cyclotomic:
    """sum_i w_i x_i conj(y_i) for rationals w and equal-length sequences x, y
    of Cyclotomics.

    Every product is added into one exponent list at the lcm n of the
    conductors (conjugation negates the exponent mod n), and the sum is
    normalized once.
    """
    n = lcm(1, *(v.n for v in xs), *(v.n for v in ys))
    out = [Fraction(0)] * n
    for w, x, y in zip(weights, xs, ys, strict=True):
        sx, sy = n // x.n, n // y.n
        for i, a in enumerate(x.coeffs):
            if a:
                wa = w * a
                for j, b in enumerate(y.coeffs):
                    if b:
                        out[(i * sx - j * sy) % n] += wa * b
    return Cyclotomic(n, out)


def _normalize(n: int, coeffs: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """The minimal conductor and the power-basis coordinates there (see the
    module docstring)."""
    cs = _reduce_mod_phi(n, coeffs)
    for p in sorted(factorize(n)):
        while n % p == 0:
            down = _descend(n, p, cs)
            if down is None:
                break
            n, cs = n // p, down
    return n, cs


def _descend(n: int, p: int, cs: tuple[Fraction, ...]) -> tuple[Fraction, ...] | None:
    """The coordinates in Q(zeta_m), m = n/p, of the element with coordinates
    cs in Q(zeta_n), or None when it does not lie in Q(zeta_m)."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p): 1, zeta_n, ..., zeta_n^(p-1) is a basis over
        # Q(zeta_m) = Q(zeta_n^p), so the element lies there when its
        # coordinates off the multiples of p vanish
        if any(c for i, c in enumerate(cs) if i % p):
            return None
        return cs[::p]
    # the mean over Gal(Q(zeta_n)/Q(zeta_m)) = Gal(Q(zeta_p)/Q): with
    # a = 1/p mod m, zeta_n^i = zeta_p^(i/m) zeta_m^(a i), and the mean of the
    # conjugates of zeta_p^j is 1 for p | j and -1/(p-1) otherwise
    a = pow(p, -1, m)
    off = Fraction(-1, p - 1)
    mean = [Fraction(0)] * m
    for i, c in enumerate(cs):
        if c:
            mean[a * i % m] += c if i % p == 0 else c * off
    down = _reduce_mod_phi(m, mean)
    up = [Fraction(0)] * (p * len(down))
    up[::p] = down
    return down if _reduce_mod_phi(n, up) == cs else None


# -- exact linear algebra over Q ----------------------------------------------

_ZERO = Fraction(0)  # shared by every zero entry rref_rational writes


def rref_rational(A: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan elimination, in place, on the rows of A (ints or
    Fractions), with pivots sought only in the first ncols columns; returns
    the pivot columns and leaves every row of A a list of Fractions.

    The reduced row echelon form over Q is unique, so A and the pivots are
    the same whatever the row operations were.  Inside, the work is on
    integers.  Each row is scaled once by the lcm of its denominators; the
    elimination is then fraction-free (Bareiss, Math. Comp. 22, 1968), with
    the same pivot choice and row swaps as over Q.  Each pivot d_k is the
    determinant of the pivot rows and columns so far.  A row last updated at
    pivot d is d times its row over Q, and its next update,
    (d_k row - f top) / d, divides exactly, so a row with a zero in the pivot
    column is left as it is.  Fractions are built once at the end: each row
    is divided by its level, and a row beyond the rank also by its scale."""
    scale = [lcm(*(x.denominator for x in row)) for row in A]
    B = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(A, scale)]
    level = [1] * len(B)  # B[i] is level[i] times row i of the elimination over Q
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(B)) if B[i][c]), None)
        if pr is None:
            continue
        for xs in (B, scale, level):
            xs[r], xs[pr] = xs[pr], xs[r]
        top, d = B[r], level[r]
        if d != prev:  # bring the pivot row up to the last pivot's level
            top = B[r] = [x * prev // d for x in top]
        piv = top[c]
        for i, row in enumerate(B):
            f = row[c]
            if f and i != r:
                d = level[i]
                B[i] = ([(piv * x - f * y) // d for x, y in zip(row, top)] if d != 1
                        else [piv * x - f * y for x, y in zip(row, top)])
                level[i] = piv
        level[r] = prev = piv
        pivots.append(c)
    r = len(pivots)
    for i, row in enumerate(B):
        d = level[i] if i < r else level[i] * scale[i]
        A[i] = [Fraction(x, d) if x else _ZERO for x in row]
    return pivots


def solve_rational(mat, rhs) -> list[Fraction] | None:
    """The x with mat . x = rhs and every free unknown 0, or None when the
    system is inconsistent; mat is a list of rows of ints or Fractions."""
    ncols = len(mat[0]) if mat else 0
    A = [list(row) + [b] for row, b in zip(mat, rhs)]
    pivots = rref_rational(A, ncols)
    if any(row[ncols] != 0 for row in A[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for row, c in zip(A, pivots):
        sol[c] = row[ncols]
    return sol


def cyc_arith(a: Cyclotomic, b: Cyclotomic | None, kind: str, sigma: int | None = None):
    """Dispatch: add | mul | conj | galois(sigma)."""
    if kind == "add":
        return a + b
    if kind == "mul":
        return a * b
    if kind == "conj":
        return a.conj()
    if kind == "galois":
        return a.galois(sigma)
    raise ValueError(f"unknown kind {kind!r}")


# -- text form ---------------------------------------------------------------


def format_cyclotomic(v: Cyclotomic) -> str:
    if v.n == 1:
        f = v.coeffs[0]
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    parts = ",".join(
        str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        for c in v.coeffs
    )
    return f"cyc({v.n})[{parts}]"


def parse_cyclotomic(s: str, conductor_divides: int) -> Cyclotomic:
    """Inverse of format_cyclotomic: an integer, `a/b`, or `cyc(n)[c0,c1,...]`
    with such coefficients and n dividing `conductor_divides`; anything else
    is a FormatError.  n is checked before the value is built, whose cost
    grows faster than n."""
    s = s.strip()
    try:
        if not s.startswith("cyc("):
            return Cyclotomic.from_rational(_rational(s))
        n, close, body = s[4:].partition(")")
        if not (close and body.startswith("[") and body.endswith("]") and int(n) >= 1):
            raise ValueError
        if conductor_divides % int(n):
            raise FormatError(f"conductor {int(n)} of {s[:60]!r} does not divide {conductor_divides}")
        coeffs = [_rational(t) for t in body[1:-1].split(",")] if body != "[]" else []
        return Cyclotomic(int(n), coeffs)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad cyclotomic value {s[:60]!r}") from None


def _rational(t: str) -> Fraction:
    num, _, den = t.partition("/")
    return Fraction(int(num), int(den or 1))


# -- ATLAS-style names for the quadratic irrationalities ----------------------


def atlas_b(n: int) -> Cyclotomic:
    """b_n = (-1 + sqrt(n*)) / 2 with n* = n for n = 1 mod 4, else -n."""
    total = Cyclotomic.zero()
    for r in range(1, n):
        if gcd(r, n) == 1 and pow(r, (n - 1) // 2, n) == 1:
            total = total + Cyclotomic.zeta(n, r)
    return total


def atlas_i(n: int) -> Cyclotomic:
    """i_n = sqrt(-n)."""
    return gauss_sqrt(-n)


def gauss_sqrt(d: int) -> Cyclotomic:
    """sqrt(d) for a squarefree integer d, via Gauss sums."""
    if d == 1:
        return Cyclotomic.one()
    if d < 0:
        return Cyclotomic.zeta(4) * gauss_sqrt(-d)
    out = Cyclotomic.one()
    for p, e in sorted(factorize(d).items()):
        if e > 1:
            raise NotSquarefree(f"gauss_sqrt needs a squarefree argument, not {d}")
        out = out * _sqrt_prime(p)
    return out


def _sqrt_prime(p: int) -> Cyclotomic:
    if p == 2:
        return Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7)
    g = Cyclotomic.zero()
    for r in range(1, p):
        leg = pow(r, (p - 1) // 2, p)
        term = Cyclotomic.zeta(p, r)
        g = g + (term if leg == 1 else -term)
    # Gauss: g = sqrt(p) for p = 1 mod 4 and i*sqrt(p)... normalize
    if p % 4 == 1:
        return g
    return g * Cyclotomic.zeta(4, 3)  # g = i sqrt(p); divide by i


def atlas_name(v: Cyclotomic) -> str | None:
    """Pretty ATLAS name (b_n or i_n) for the supported quadratic cases."""
    if v.n == 1:
        return None
    n = v.n
    if n % 2 == 1 and n > 1:
        if v == atlas_b(n):
            return f"b{n}"
        if v == Cyclotomic.from_rational(-1) - atlas_b(n):
            return f"b{n}*"
    for m in range(1, 61):
        if any(e > 1 for e in factorize(m).values()):
            continue
        im = atlas_i(m)
        if v == im:
            return f"i{m}"
        if v == -im:
            return f"-i{m}"
    return None


# ---------------------------------------------------------------------------
# Brauer lifts
# ---------------------------------------------------------------------------


def brauer_char_value(element: FqMatrix, order: int) -> Cyclotomic:
    """Lift the eigenvalues of the representing matrix of a p-regular element.

    `element` is the representing FqMatrix itself (callers with group words
    evaluate them first); `order`, the element's order e in the group
    (`ClassData.orders`), must be prime to p with element^e = I, so the
    matrix is semisimple and its eigenvalues are e-th roots of unity in the
    smallest extension GF(p^m) with e | p^m - 1 that contains GF(q).  The
    characteristic polynomial is divided there by x - w^(j(p^m-1)/e) for
    j = 0, ..., e-1, as often as it goes; the count c_j lifts to c_j zeta_e^j,
    and the value is normalized once, as Cyclotomic(e, counts): the same
    value at any multiple of the matrix's own order, the roots being
    Conway-compatible.  A singular matrix is refused first.
    """
    mat = element
    if mat.rows != mat.cols:
        raise ShapeMismatch(f"representing matrix is {mat.rows} x {mat.cols}")
    F = mat.field
    p = F.p
    cp = char_poly(mat)
    if cp.coeffs[0] == 0:  # the constant term is +-det
        raise PRegularViolation("singular representing matrix")
    if order < 1 or order % p == 0:
        raise PRegularViolation(f"element order {order} is not a positive number prime to {p}")
    power = mat
    for bit in bin(order)[3:]:  # repeated squaring, leading bit first
        power = mat_mul(power, power)
        if bit == "1":
            power = mat_mul(power, mat)
    if power != FqMatrix.identity(F, mat.rows):
        raise PRegularViolation(f"the representing matrix to the power {order} is not the identity")
    ext, step = root_of_unity(F, order)
    poly = FqPolynomial(ext, F.embed_into(ext)[list(cp.coeffs)].tolist())
    counts = [0] * order
    root = 1
    for j in range(order):
        linear = FqPolynomial(ext, [ext.neg(root), 1])
        while poly.degree > 0:
            quot, rem = poly.divmod(linear)
            if not rem.is_zero():
                break
            poly = quot
            counts[j] += 1
        root = ext.mul(root, step)
    if poly.degree > 0:
        raise SelfCheckFailed("eigenvalue outside the chosen extension")
    return Cyclotomic(order, counts)
