"""Cyclotomic arithmetic, Galois actions, Brauer lifts."""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modchar import cyclo, gfla, grp, rep
from modchar.cyclo import (
    Cyclotomic,
    atlas_b,
    atlas_i,
    atlas_name,
    brauer_char_value,
    cyc_arith,
    cyclotomic_polynomial,
    euler_phi,
    format_cyclotomic,
    gauss_sqrt,
    parse_cyclotomic,
    rref_rational,
    solve_rational,
)
from modchar.dxm import invert_rational
from modchar.errors import FieldTooLarge, NonUnitGaloisExponent, PRegularViolation, ShapeMismatch, SingularA

sys.path.insert(0, str(Path(__file__).parent))
import oracles  # noqa: E402


def test_minimal_polynomial_relation():
    z3 = Cyclotomic.zeta(3)
    assert z3 + Cyclotomic.zeta(3, 2) == Cyclotomic.from_rational(-1)
    assert cyc_arith(z3, Cyclotomic.zeta(3, 2), "add") == Cyclotomic.from_rational(-1)


def test_galois_and_conjugation():
    v = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)
    assert cyc_arith(v, None, "galois", 2) == Cyclotomic.zeta(5, 2) + Cyclotomic.zeta(5, 3)
    z4 = Cyclotomic.zeta(4)
    assert cyc_arith(z4, None, "conj") == -z4
    with pytest.raises(NonUnitGaloisExponent):
        Cyclotomic.zeta(6).galois(3)


def test_conductor_normalization():
    z6 = Cyclotomic.zeta(6)
    assert z6.n == 3  # zeta_6 = -zeta_3^2 lives in the conductor-3 field
    v = Cyclotomic.zeta(8) * Cyclotomic.zeta(8, 7)
    assert v == Cyclotomic.one() and v.n == 1
    s = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 2) + Cyclotomic.zeta(5, 3) + Cyclotomic.zeta(5, 4)
    assert s == Cyclotomic.from_rational(-1)


def test_multiplicative_structure():
    w = Cyclotomic.zeta(7) + 2
    assert w * w.inverse() == Cyclotomic.one()
    a = Cyclotomic.zeta(12)
    assert a * a * a == Cyclotomic.zeta(4)


def test_gauss_sqrts_and_atlas_names():
    assert gauss_sqrt(5) * gauss_sqrt(5) == Cyclotomic.from_rational(5)
    assert atlas_i(10) * atlas_i(10) == Cyclotomic.from_rational(-10)
    b19 = atlas_b(19)
    # b19 = (-1 + sqrt(-19))/2 satisfies x^2 + x + 5 = 0
    assert b19 * b19 + b19 + 5 == Cyclotomic.zero()
    assert atlas_name(b19) == "b19"
    assert atlas_name(atlas_i(10)) == "i10"
    assert atlas_name(Cyclotomic.from_rational(3)) is None


def test_text_format_roundtrip():
    vals = [
        Cyclotomic.from_rational(Fraction(-7, 3)),
        Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4),
        Cyclotomic.zeta(8),
    ]
    for v in vals:
        assert parse_cyclotomic(format_cyclotomic(v), v.n) == v


def test_brauer_lift_multiplicative():
    F4 = gfla.field_make(2, 2)
    lift = oracles.BrauerLift(F4)
    table = lift.table()
    for a in range(1, 4):
        for b in range(1, 4):
            prod = int(F4.mul(*map(__import__("numpy").int64, (a, b))))
            assert table[a] * table[b] == table[prod]
        # the eigenvalue a of a 1 x 1 matrix lifts the same way, at q - 1 = 3
        m = gfla.FqMatrix(F4, [[a]])
        assert brauer_char_value(m, 3) == table[a]
    assert table[1] == Cyclotomic.one()


def test_brauer_char_value_examples():
    F2 = gfla.field_make(2, 1)
    c3 = rep.Representation(F2, 2, (gfla.FqMatrix(F2, [[0, 1], [1, 1]]),))
    val = brauer_char_value(c3.gens[0], 3)
    assert val == Cyclotomic.from_rational(-1)  # zeta3 + zeta3^2
    ident = gfla.FqMatrix.identity(F2, 2)
    assert brauer_char_value(ident, 1) == Cyclotomic.from_rational(2)
    triv = rep.Representation(F2, 1, (gfla.FqMatrix.identity(F2, 1),))
    assert brauer_char_value(triv.gens[0], 1) == Cyclotomic.one()
    # order divisible by p is refused
    c2bad = gfla.FqMatrix(F2, [[1, 1], [0, 1]])  # order 2 in characteristic 2
    with pytest.raises(PRegularViolation):
        brauer_char_value(c2bad, 2)


def test_singular_matrix_is_refused_at_once():
    F3 = gfla.field_make(3, 1)
    t0 = time.process_time()
    with pytest.raises(PRegularViolation, match="singular representing matrix"):
        brauer_char_value(gfla.FqMatrix(F3, [[1, 0], [0, 0]]), 2)
    assert time.process_time() - t0 < 1.0
    with pytest.raises(ShapeMismatch):
        brauer_char_value(gfla.FqMatrix(F3, [[1, 0, 0], [0, 1, 0]]), 2)
    with pytest.raises(ShapeMismatch):
        brauer_char_value(gfla.FqMatrix(F3, [[1, 0], [0, 1], [0, 0]]), 2)


def test_lift_refuses_an_order_that_is_not_the_elements():
    """The order is given, not sought: an order divisible by p, or one that
    the matrix's own order does not divide, is refused."""
    F5 = gfla.field_make(5, 1)
    m = gfla.FqMatrix(F5, [[0, 1], [1, 0]])  # order 2
    assert brauer_char_value(m, 2) == brauer_char_value(m, 4) == Cyclotomic.zero()
    for order in (0, -2, 5, 10, 3):
        with pytest.raises(PRegularViolation):
            brauer_char_value(m, order)
    F2 = gfla.field_make(2, 1)
    c3 = gfla.FqMatrix(F2, [[0, 1], [1, 1]])  # order 3
    with pytest.raises(PRegularViolation, match="power 5"):
        brauer_char_value(c3, 5)


def test_lift_beyond_the_field_ceiling_is_refused_quickly():
    """The companion matrix of the primitive x^20 + x^3 + 1 over GF(2) has
    order 2^20 - 1: its power is checked in about 40 products, and the
    roots of unity would need GF(2^20), beyond the ceiling."""
    F2 = gfla.field_make(2, 1)
    f = [1, 0, 0, 1] + [0] * 16
    rows = [[int(j == i + 1) for j in range(20)] for i in range(19)] + [f]
    t0 = time.process_time()
    with pytest.raises(FieldTooLarge):
        brauer_char_value(gfla.FqMatrix(F2, rows), 2**20 - 1)
    assert time.process_time() - t0 < 0.5


def test_brauer_value_is_class_function():
    F9 = gfla.field_make(3, 2)
    g = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2)]), grp.perm_from_cycles(3, [(1, 2, 3)])])
    reg = grp.regular_rep(g, F9)
    simple = [f for f, _ in rep.chop(reg, 1)][0]
    cls = grp.conjugacy_classes(g, 3)
    for rep_elem in cls.reps:
        base = None
        # conjugates of the representative share the value
        for gen in g.gens:
            conj = grp.perm_mul(grp.perm_mul(grp.perm_inv(gen), rep_elem), gen)
            if conj == rep_elem:
                continue
            if grp.perm_order(conj) % 3 == 0:
                continue
            order = grp.perm_order(rep_elem)
            v1 = brauer_char_value(grp.element_matrix(g, simple, rep_elem), order)
            v2 = brauer_char_value(grp.element_matrix(g, simple, conj), order)
            assert v1 == v2


def test_value_at_inverse_is_conjugate():
    F4 = gfla.field_make(2, 2)
    g = grp.enumerate_group([grp.perm_from_cycles(5, [(1, 2, 3, 4, 5)]), grp.perm_from_cycles(5, [(3, 4, 5)])])
    reg = grp.regular_rep(g, F4)
    simples = [f for f, _ in rep.chop(reg, 1) if f.dim == 2]
    s = simples[0]
    five = next(e for e in g.elements if grp.perm_order(e) == 5)
    m = grp.element_matrix(g, s, five)
    minv = grp.element_matrix(g, s, grp.perm_inv(five))
    assert brauer_char_value(minv, 5) == brauer_char_value(m, 5).conj()


def test_liftable_module_matches_ordinary_values():
    """The natural permutation module of S3 lifts; its Brauer character at
    p = 5 (coprime to |G|) equals the ordinary permutation character."""
    F5 = gfla.field_make(5, 1)
    g = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2)]), grp.perm_from_cycles(3, [(1, 2, 3)])])
    nat = grp.perm_rep(g, F5)
    cls = grp.conjugacy_classes(g, 5)
    for i, r in enumerate(cls.reps):
        fixed = sum(1 for pt in range(3) if r[pt] == pt)
        v = brauer_char_value(grp.element_matrix(g, nat, r), grp.perm_order(r))
        assert v == Cyclotomic.from_rational(fixed)


@pytest.mark.parametrize("value, n", [("cyc(5)[1,0,2,-1]", 5), ("cyc(5)[1,0,2,-1]", 15), ("-3/2", 8), ("cyc(4)[0,1]", 12)])
def test_coords_are_power_basis_coordinates(value, n):
    v = parse_cyclotomic(value, n)
    coords = v.coords(n)
    assert len(coords) == euler_phi(n)
    assert sum((c * Cyclotomic.zeta(n, i) for i, c in enumerate(coords)), Cyclotomic.zero()) == v


# -- the normal form ----------------------------------------------------------


@st.composite
def subfield_exponent_lists(draw):
    """(n, exponent list in zeta_n) for n <= 120: a value of Q(zeta_d) for a
    divisor d of n, written at n, plus x^k Phi_n(x) (zero, but it moves terms
    up to degree 2n - 1) and sometimes one stray term off the subfield."""
    n = draw(st.integers(1, 120))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    cs = [Fraction(0)] * (2 * n)
    for e, c in draw(st.lists(st.tuples(st.integers(0, d - 1), coeff), max_size=8)):
        cs[e * (n // d)] += c
    k, c = draw(st.integers(0, n - 1)), draw(st.integers(-2, 2))
    for j, f in enumerate(cyclotomic_polynomial(n)):
        cs[k + j] += c * f
    if draw(st.integers(0, 3)) == 0:
        cs[draw(st.integers(0, n - 1))] += 1
    return n, cs


@given(subfield_exponent_lists())
@settings(max_examples=300)
@example((6, [0, 0, 1]))  # zeta_3: p = 2 with 2 not dividing m = 3
@example((12, [0, 0, 0, 0, 1]))  # zeta_3: p = 2 with 2 | m = 6, then p = 2 again
@example((9, [0, 0, 0, 2]))  # 2 zeta_3: p = 3 with 3 | m = 3
@example((15, [0, 0, 0, 1, 0, 0, 1]))  # zeta_5 + zeta_5^2: p = 3 with 3 not dividing m = 5
@example((60, [Fraction(1, 2)] * 60))  # half the sum of all 60th roots: 0
def test_normal_form_matches_the_descent_oracle(case):
    n, cs = case
    v = Cyclotomic(n, cs)
    assert (v.n, v.coeffs) == oracles.normal_form_by_descent(n, cs)
    assert all(type(c) is Fraction for c in v.coeffs)


def test_cyclotomic_polynomial_matches_the_division_oracle():
    for n in range(1, 201):
        assert cyclotomic_polynomial(n) == oracles.cyclotomic_polynomial_by_exact_division(n), n


# -- exact rational elimination ----------------------------------------------


def _product(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)] for row in A]


@st.composite
def rational_matrices(draw, square=False):
    """Integer matrices with entries -3..3, up to 6 x 6, as Fractions; half
    of them a product through a smaller inner dimension, so often singular."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))

    def block(r, c):
        return draw(st.lists(st.lists(st.integers(-3, 3).map(Fraction), min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        return _product(block(rows, inner), block(inner, cols))
    return block(rows, cols)


@given(rational_matrices(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_solve_rational_solves_consistent_systems(A, x0):
    rhs = [row[0] for row in _product(A, [[Fraction(x)] for x in x0[: len(A[0])]])]
    x = solve_rational(A, rhs)
    assert [row[0] for row in _product(A, [[c] for c in x])] == rhs


@given(rational_matrices(), st.integers(1, 3))
def test_solve_rational_rejects_a_zero_row_with_nonzero_rhs(A, b):
    zero_row = [Fraction(0)] * len(A[0])
    assert solve_rational(A + [zero_row], [Fraction(0)] * len(A) + [Fraction(b)]) is None


@given(rational_matrices())
def test_rref_rational_pivots_match_sympy(A):
    _, expected = sympy.Matrix(A).rref()
    pivots = rref_rational([row[:] for row in A], len(A[0]))
    assert pivots == list(expected)
    assert len(pivots) == sympy.Matrix(A).rank()


@given(rational_matrices(square=True))
def test_invert_rational_inverts_or_raises_singular(M):
    n = len(M)
    if sympy.Matrix(M).rank() < n:
        with pytest.raises(SingularA):
            invert_rational(M)
    else:
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert _product(invert_rational(M), M) == identity


@st.composite
def mixed_rational_matrices(draw):
    """Matrices of ints and Fractions with denominators 1..6, tall or wide,
    some rows zero, with ncols anywhere from 0 to the width."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
    A = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for at in draw(st.lists(st.integers(0, rows), max_size=2)):
        A.insert(at, [draw(st.sampled_from([0, Fraction(0)])) for _ in range(cols)])
    return A, draw(st.integers(0, cols))


@given(mixed_rational_matrices())
@example(([[1, Fraction(1, 2), 3], [2, 1, 5], [0, 0, 0], [Fraction(1, 3), Fraction(1, 6), 1]], 2))
def test_rref_rational_equals_the_fraction_oracle(case):
    """The integer elimination leaves the same A, row for row, and the same
    pivots as Gauss-Jordan over Fractions, also below the rank and beyond
    ncols; every entry comes out a Fraction."""
    A, ncols = case
    expected = [[Fraction(x) for x in row] for row in A]
    pivots = oracles.rref_rational_fractions(expected, ncols)
    got = [list(row) for row in A]
    assert rref_rational(got, ncols) == pivots
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)


def test_divmod_monic_equals_the_dense_loop():
    rng = random.Random(25)
    for n in (1, 2, 12, 30, 105, 210):
        phi = cyclotomic_polynomial(n)
        for size in (len(phi) - 1, len(phi), 3 * n):
            num = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.3 else 0
                   for _ in range(size)]
            assert cyclo._divmod_monic(num, phi) == oracles.divmod_monic_dense(num, phi), (n, size)


def test_reducing_a_twelve_term_value_at_5040_is_fast():
    """The long division walks only Phi_n's nonzero coefficients (33 of 1153
    at n = 5040): one 12-term exponent list reduces in well under 0.2 s and
    equals the dense loop's remainder."""
    n = 5040
    phi = cyclotomic_polynomial(n)
    cs = [Fraction(0)] * n
    for e in random.Random(5).sample(range(n), 12):
        cs[e] = Fraction(1)
    t0 = time.process_time()
    reduced = cyclo._reduce_mod_phi(n, cs)
    elapsed = time.process_time() - t0
    assert list(reduced) == oracles.divmod_monic_dense(cs, phi)[1]
    assert elapsed < 0.2, elapsed


def test_dense_eliminations_equal_the_fraction_oracle():
    """Entry growth guard: the inverse of a seeded element of Q(zeta_105)
    (a 48 x 48 system) and of a seeded 40 x 40 integer matrix equal the
    Gauss-Jordan over Fractions."""
    rng = random.Random(105)
    x = Cyclotomic(105, [rng.randint(-2, 2) for _ in range(105)])
    phi = euler_phi(105)
    cols = [(x * Cyclotomic.zeta(105, j)).coords(105) for j in range(phi)]
    A = [[col[i] for col in cols] + [Fraction(int(i == 0))] for i in range(phi)]
    assert oracles.rref_rational_fractions(A, phi) == list(range(phi))
    assert x.inverse() == Cyclotomic(105, [row[phi] for row in A])
    M = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    A = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(40)] for i, row in enumerate(M)]
    assert oracles.rref_rational_fractions(A, 40) == list(range(40))
    assert invert_rational(M) == [row[40:] for row in A]
