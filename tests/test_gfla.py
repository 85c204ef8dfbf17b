"""Field kernel tests: Conway polynomials, arithmetic, echelon, polynomials."""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modchar import gfla
from modchar.errors import (
    CompositeCharacteristic,
    FieldTooLarge,
    NotPrimitive,
    NotSquare,
    ShapeMismatch,
)

sys.path.insert(0, str(Path(__file__).parent))
import oracles  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


@functools.lru_cache(maxsize=None)
def brute_force_conway(p, k):
    """Independent search, written from the definition on plain integer
    tuples: the least monic f of degree k, in the alternating-sign order, in
    which x has order p^k - 1 (so f is primitive, hence irreducible) and
    which is compatible with the proper subfields: the polynomial this search
    gives for each proper divisor d of k vanishes at x^((p^k-1)/(p^d-1)) mod f.
    The order of x is found by multiplying by x mod f again and again."""
    q1 = p**k - 1
    one = (1,) + (0,) * (k - 1)
    for idx in range(p**k):
        digits = []
        t = idx
        for _ in range(k):
            digits.append(t % p)
            t //= p
        cvals = list(reversed(digits))
        f = [0] * (k + 1)
        f[k] = 1
        for j in range(k):
            f[j] = ((-1) ** ((k - j) % 2) * cvals[k - 1 - j]) % p
        # powers[i] = x^i mod f, as a tuple of k coefficients, until x^i = 1
        powers = [one]
        while len(powers) <= q1:
            v = powers[-1]
            powers.append(tuple((a - v[-1] * b) % p for a, b in zip((0,) + v[:-1], f)))
            if powers[-1] == one:
                break
        if len(powers) != q1 + 1 or powers[-1] != one:
            continue
        for d in range(1, k):
            if k % d:
                continue
            e = q1 // (p**d - 1)
            value = [0] * k
            for j, c in enumerate(brute_force_conway(p, d)):
                value = [(a + c * b) % p for a, b in zip(value, powers[e * j % q1])]
            if any(value):
                break
        else:
            return tuple(f)
    raise AssertionError("no candidate")


def _fields_up_to(limit):
    return [(p, k) for p in range(2, limit + 1) if gfla.is_prime(p) for k in range(1, 17) if p**k <= limit]


@pytest.mark.parametrize("p,k", _fields_up_to(125))
def test_conway_matches_brute_force(p, k):
    assert gfla.conway_polynomial(p, k) == brute_force_conway(p, k)


def test_conway_digest_up_to_4096():
    """All 604 fields with p^k <= 4096, p ascending and then k ascending."""
    listed = repr([(p, k, gfla.conway_polynomial(p, k)) for p, k in _fields_up_to(4096)])
    assert hashlib.sha256(listed.encode()).hexdigest() == (
        "b41d54e2015224ecbbd8d0d8eb0e54ff4f3f65c6ceb04656a7f1e35ef2766aae"
    )


def test_conway_prime_fields():
    assert gfla.conway_polynomial(2, 1) == (1, 1)
    assert gfla.conway_polynomial(3, 1) == (1, 1)  # x - 2 over GF(3)
    assert gfla.conway_polynomial(5, 1) == (3, 1)  # x - 2


def test_conway_gf4_unique_primitive_quadratic():
    assert gfla.conway_polynomial(2, 2) == (1, 1, 1)


def test_conway_gf9_brute_force():
    assert gfla.conway_polynomial(3, 2) == brute_force_conway(3, 2) == (2, 2, 1)


def test_conway_gf16_gf25_brute_force():
    assert gfla.conway_polynomial(2, 4) == brute_force_conway(2, 4)
    assert gfla.conway_polynomial(5, 2) == brute_force_conway(5, 2)


def test_planted_conway_cache_is_ignored(tmp_path):
    """x^2 + 1 is irreducible over GF(3) but not primitive; a field built on it
    would be silently wrong.  Neither cache location is read or written."""
    planted = {"3,2": [1, 0, 1]}
    home_cache = tmp_path / "home" / ".cache" / "modchar" / "conway.json"
    env_cache = tmp_path / "env" / "conway.json"
    for path in (home_cache, env_cache):
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(planted))
    env = dict(os.environ, HOME=str(tmp_path / "home"), MODCHAR_CONWAY_CACHE=str(env_cache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "from modchar import gfla\n"
        "F = gfla.field_make(3, 2)\n"
        "print(*F.conway, F.element_order(F.omega))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2", "2", "1", "8"]
    for path in (home_cache, env_cache):
        assert json.loads(path.read_text()) == planted
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["conway.json", "conway.json"]


def test_non_primitive_conway_rejected(monkeypatch):
    monkeypatch.setitem(gfla._conway_mem, (3, 2), (1, 0, 1))
    with pytest.raises(NotPrimitive):
        gfla.FieldSpec(3, 2)


def test_field_errors():
    with pytest.raises(CompositeCharacteristic):
        gfla.field_make(6, 1)
    with pytest.raises(FieldTooLarge):
        gfla.field_make(2, 17)


@pytest.mark.parametrize("p,k,e", [(2, 1, 1), (2, 1, 3), (2, 1, 7), (2, 2, 5), (3, 1, 4), (3, 2, 5), (5, 1, 3), (7, 1, 9)])
def test_root_of_unity_is_primitive_in_the_least_extension(p, k, e):
    E, zeta = gfla.root_of_unity(gfla.field_make(p, k), e)
    assert E.k % k == 0 and (E.q - 1) % e == 0
    assert all((p**m - 1) % e for m in range(k, E.k, k))
    assert E.element_order(zeta) == e
    assert zeta == E.pow_el(E.omega, (E.q - 1) // e)


def test_root_of_unity_stops_at_the_field_ceiling():
    # 2 has order 99990 mod 99991: the search ends at the ceiling, not there
    with pytest.raises(FieldTooLarge):
        gfla.root_of_unity(gfla.field_make(2), 99991)


def test_omega_has_full_order():
    for (p, k) in [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1)]:
        F = gfla.field_make(p, k)
        assert F.element_order(F.omega) == F.q - 1


def test_mat_arith_examples():
    F2 = gfla.field_make(2, 1)
    i2 = gfla.FqMatrix.identity(F2, 2)
    assert gfla.mat_arith(i2, i2, "mul") == i2
    F4 = gfla.field_make(2, 2)
    w = gfla.FqMatrix(F4, [[F4.omega]])
    ww = gfla.mat_arith(w, w, "mul")
    # omega^2 = omega + 1 from the Conway polynomial x^2+x+1
    assert int(ww.arr[0, 0]) == int(F4.add(np.int64(F4.omega), np.int64(1)))
    a = gfla.FqMatrix(F2, [[1, 0], [1, 1]])
    b = gfla.FqMatrix(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    k = gfla.mat_arith(a, b, "kron")
    assert k.arr.shape == (6, 6)
    assert np.array_equal(k.arr[:3, :3], b.arr)
    assert np.array_equal(k.arr[:3, 3:], np.zeros((3, 3), dtype=int))
    with pytest.raises(ShapeMismatch):
        gfla.mat_arith(a, b, "mul")


@pytest.mark.parametrize("p,k", [(2, 1), (3, 2), (2, 8), (3, 6)])
def test_mat_kron_matches_logexp_oracle(p, k):
    """One broadcast F.mul against np.kron mod p (k = 1) and exp/log outer
    sums (k > 1), on shapes with zero entries, single rows and empty sides."""
    F = gfla.field_make(p, k)
    rng = np.random.default_rng(p * 100 + k)
    for (ra, ca), (rb, cb) in [((2, 3), (3, 2)), ((1, 4), (4, 1)), ((5, 5), (3, 3)), ((0, 3), (2, 2)), ((3, 3), (2, 0))]:
        a = gfla.FqMatrix(F, rng.integers(0, F.q, (ra, ca)) * (rng.random((ra, ca)) < 0.7))
        b = gfla.FqMatrix(F, rng.integers(0, F.q, (rb, cb)))
        got = gfla.mat_kron(a, b)
        assert got.arr.shape == (ra * rb, ca * cb)
        assert got == oracles.mat_kron_logexp(a, b)


MATMUL_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (3, 4), (251, 1), (2, 8)]
MATMUL_SHAPES = [(0, 4, 3), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 7, 5), (1, 1, 1), (4, 6, 9), (9, 2, 1)]


@pytest.mark.parametrize("p,k", MATMUL_FIELDS)
def test_matmul_matches_digit_planes(p, k):
    F = gfla.field_make(p, k)
    rng = np.random.default_rng(p * 100 + k)
    for n, m, n2 in MATMUL_SHAPES:
        A = rng.integers(0, F.q, (n, m))
        B = rng.integers(0, F.q, (m, n2))
        got = F.matmul(A, B)
        assert got.dtype == np.int64 and got.shape == (n, n2)
        assert np.array_equal(got, oracles.matmul_planes(F, A, B))
    # the extreme entries: every product term is (q-1).(q-1)
    full = np.full((3, 40), F.q - 1, dtype=np.int64)
    assert np.array_equal(F.matmul(full, full.T), oracles.matmul_planes(F, full, full.T))
    # a single row, as spin and the Krylov chains use it
    v = rng.integers(0, F.q, 13)
    B = rng.integers(0, F.q, (13, 11))
    assert np.array_equal(F.matmul(v[None, :], B)[0], oracles.matmul_planes(F, v[None, :], B)[0])
    assert np.array_equal(F.matmul(v, B), oracles.matmul_planes(F, v, B))


def test_mulx_table_dtype_and_exactness_bound():
    assert gfla.field_make(2, 8)._mulx.dtype == np.uint8
    assert gfla.field_make(251, 1)._mulx.dtype == np.uint8
    assert gfla.field_make(257, 1)._mulx.dtype == np.uint16
    # one block's sums of digit products, plus a reduced remainder, are exact
    # in a double for every field under the ceiling
    assert gfla._TILE * (gfla.FIELD_CEILING - 1) ** 2 + gfla.FIELD_CEILING < 2**53


# products larger than one tile; over every field of MATMUL_FIELDS they cross
# a tile in rows, in columns and in the inner dimension
TILE_SHAPES = [(2000, 12, 12), (12, 12, 2000), (3, 40000, 3), (100, 300, 100)]


@pytest.mark.parametrize("p,k", MATMUL_FIELDS)
def test_matmul_across_tiles_matches_digit_planes(p, k):
    F = gfla.field_make(p, k)
    rng = np.random.default_rng(p * 100 + k + 1)
    crossed = set()
    for n, m, n2 in TILE_SHAPES:
        tile = gfla._tile(n, k * m, n2, gfla._TILE // k)
        crossed |= {axis for axis, t, full in zip("rmc", tile, (n, k * m, n2)) if t < full}
        A = rng.integers(0, F.q, (n, m))
        B = rng.integers(0, F.q, (m, n2))
        assert np.array_equal(F.matmul(A, B), oracles.matmul_planes(F, A, B)), (n, m, n2)
    assert crossed == set("rmc")


def test_matmul_spin_row_over_gf4():
    """One row times a 3600 x 3600 matrix over GF(4): the product `spin` makes
    for one vector of a 60-dimensional module with 60 generators side by
    side.  Checked against row-by-row sums of F.mul (addition is XOR)."""
    F = gfla.field_make(2, 2)
    rng = np.random.default_rng(3600)
    v = rng.integers(0, 4, (1, 3600))
    B = rng.integers(0, 4, (3600, 3600), dtype=np.uint8)  # the kernel only indexes B
    want = np.zeros(3600, dtype=np.int64)
    for j in range(0, 3600, 200):
        want ^= np.bitwise_xor.reduce(F.mul(v[0, j : j + 200, None], B[j : j + 200]), axis=0)
    assert np.array_equal(F.matmul(v, B)[0], want)


def test_matmul_extreme_entries_past_one_tile():
    """Inner dimension 2^18 + 5 over GF(65521), every entry p - 1: each term
    is (p - 1)^2 = 1, so the product is m mod p, summed over two inner chunks."""
    F = gfla.field_make(65521, 1)
    m = 2**18 + 5
    a = np.full((1, m), 65520, dtype=np.int64)
    assert F.matmul(a, a.T).tolist() == [[m % 65521]]


@given(st.integers(1, 10**5), st.integers(1, 10**6), st.integers(1, 10**5), st.sampled_from([1, 2, 8, 16]))
def test_tiles_fit_the_budget_and_keep_a_small_product_whole(n, m, n2, k):
    budget = gfla._TILE // k
    rows, inner, cols = gfla._tile(n, m, n2, budget)
    assert 1 <= rows <= n and 1 <= inner <= m and 1 <= cols <= n2
    assert rows * inner * cols <= budget
    if n * m * n2 <= budget:
        assert (rows, inner, cols) == (n, m, n2)


def test_matmul_blas_calls_stay_within_one_tile(monkeypatch):
    """Every product the kernel makes is an explicit float64 np.matmul of at
    most _TILE multiply-adds, so OpenBLAS keeps it on the calling thread."""
    calls = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        calls.append((a.dtype, b.dtype, a.shape[0] * a.shape[1] * (b.shape[1] if b.ndim == 2 else 1)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(7)
    for p, k in MATMUL_FIELDS:
        F = gfla.field_make(p, k)
        for n, m, n2 in TILE_SHAPES + [(60, 60, 60), (1, 60, 3600), (5, 5, 5)]:
            F.matmul(rng.integers(0, F.q, (n, m)), rng.integers(0, F.q, (m, n2)))
        gfla.echelonize(gfla.FqMatrix(F, rng.integers(0, F.q, (70, 90))))
    assert calls
    assert all(a == b == np.float64 for a, b, _ in calls)
    assert max(macs for _a, _b, macs in calls) <= gfla._TILE


def test_echelonize_examples():
    F3 = gfla.field_make(3, 1)
    z = gfla.FqMatrix.zeros(F3, 3, 4)
    assert gfla.echelonize(z).rank == 0
    i5 = gfla.FqMatrix.identity(F3, 5)
    ech = gfla.echelonize(i5)
    assert ech.rank == 5 and ech.pivots == (0, 1, 2, 3, 4)
    m = gfla.FqMatrix(F3, [[1, 2], [2, 1]])  # determinant = -3 = 0 mod 3
    ech = gfla.echelonize(m)
    assert ech.rank == 1 and ech.pivots == (0,)
    # idempotence
    again = gfla.echelonize(ech.matrix)
    assert again.matrix == ech.matrix


def test_nullspace_examples():
    F2 = gfla.field_make(2, 1)
    inv = gfla.FqMatrix(F2, [[1, 1], [0, 1]])
    assert gfla.nullspace(inv).rows == 0
    z = gfla.FqMatrix.zeros(F2, 3, 3)
    ns = gfla.nullspace(z)
    assert ns == gfla.FqMatrix.identity(F2, 3)
    m = gfla.FqMatrix(F2, [[1, 1]])
    assert gfla.nullspace(m).arr.tolist() == [[1, 1]]


def test_min_char_poly_examples():
    F2 = gfla.field_make(2, 1)
    i3 = gfla.FqMatrix.identity(F2, 3)
    assert list(gfla.min_poly(i3).coeffs) == [1, 1]  # x - 1
    comp = gfla.FqMatrix(F2, [[0, 1], [1, 1]])
    assert list(gfla.min_poly(comp).coeffs) == [1, 1, 1]
    assert list(gfla.char_poly(comp).coeffs) == [1, 1, 1]
    two = gfla.FqMatrix(F2, [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]])
    assert list(gfla.min_poly(two).coeffs) == [1, 1, 1]
    sq = gfla.FqPolynomial(F2, [1, 1, 1])
    assert gfla.char_poly(two) == sq.mul(sq)
    with pytest.raises(NotSquare):
        gfla.min_poly(gfla.FqMatrix.zeros(F2, 2, 3))


def test_associativity_distributivity_random():
    rng = random.Random(7)
    for (p, k) in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        F = gfla.field_make(p, k)
        for _ in range(5):
            a = gfla.FqMatrix(F, [[rng.randrange(F.q) for _ in range(3)] for _ in range(3)])
            b = gfla.FqMatrix(F, [[rng.randrange(F.q) for _ in range(3)] for _ in range(3)])
            c = gfla.FqMatrix(F, [[rng.randrange(F.q) for _ in range(3)] for _ in range(3)])
            assert gfla.mat_mul(gfla.mat_mul(a, b), c) == gfla.mat_mul(a, gfla.mat_mul(b, c))
            left = gfla.mat_mul(a, gfla.mat_add(b, c))
            right = gfla.mat_add(gfla.mat_mul(a, b), gfla.mat_mul(a, c))
            assert left == right


# every field with q <= 256 that the library, its tests or its benchmark build:
# GF(2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 29, 31, 49, 64, 81, 121, 243, 251, 256)
TABLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                (2, 4), (5, 2), (3, 3), (29, 1), (31, 1), (7, 2), (2, 6), (3, 4), (11, 2),
                (3, 5), (251, 1), (2, 8)]


def _check_against_oracles(F, a, b):
    """add/neg/sub/mul/inv on the pairs (a[i], b[i]) against the digit and
    log/exp oracles: as int64 arrays, as Python ints and as numpy int64s, and
    with a scalar left operand against an array."""
    want = {
        "add": oracles.add_digits(F, a, b),
        "sub": oracles.add_digits(F, a, oracles.neg_digits(F, b)),
        "mul": oracles.mul_logexp(F, a, b),
        "neg": oracles.neg_digits(F, a),
    }
    nz = b[b != 0]
    want_inv = oracles.inv_logexp(F, nz)
    got = {"add": F.add(a, b), "sub": F.sub(a, b), "mul": F.mul(a, b), "neg": F.neg(a)}
    got_inv = F.inv(nz)
    for name, arr in list(got.items()) + [("inv", got_inv)]:
        assert arr.dtype == np.int64, (F, name)
    for name in want:
        assert np.array_equal(got[name], want[name]), (F, name)
    assert np.array_equal(got_inv, want_inv), F
    for kind in (int, np.int64):
        al = [kind(x) for x in a.tolist()]
        bl = [kind(x) for x in b.tolist()]
        scalar = {
            "add": [F.add(x, y) for x, y in zip(al, bl)],
            "sub": [F.sub(x, y) for x, y in zip(al, bl)],
            "mul": [F.mul(x, y) for x, y in zip(al, bl)],
            "neg": [F.neg(x) for x in al],
        }
        for name, vals in scalar.items():
            assert all(type(v) is int for v in vals), (F, kind, name)
            assert vals == want[name].tolist(), (F, kind, name)
        invs = [F.inv(kind(x)) for x in nz.tolist()]
        assert all(type(v) is int for v in invs) and invs == want_inv.tolist(), (F, kind)
    c = np.int64(b[-1])
    for name, fn, ref in (("add", F.add, oracles.add_digits), ("mul", F.mul, oracles.mul_logexp)):
        mixed = fn(c, a)
        assert mixed.dtype == np.int64 and np.array_equal(mixed, ref(F, c, a)), (F, name)


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_field_ops_match_oracles_on_all_pairs(p, k):
    F = gfla.field_make(p, k)
    a = np.repeat(np.arange(F.q, dtype=np.int64), F.q)
    b = np.tile(np.arange(F.q, dtype=np.int64), F.q)
    _check_against_oracles(F, a, b)


@pytest.mark.parametrize("p,k", [(5, 4), (3, 6), (2, 16), (65521, 1)])
def test_field_ops_match_oracles_on_sampled_pairs(p, k):
    F = gfla.field_make(p, k)
    rng = np.random.default_rng(p * 100 + k)
    a = rng.integers(0, F.q, size=5000)
    b = rng.integers(0, F.q, size=5000)
    a[:3], b[:3] = 0, (0, 1, F.q - 1)
    _check_against_oracles(F, a, b)


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (3, 2), (2, 8), (3, 6)])
def test_inverse_of_zero_raises_on_both_paths(p, k):
    F = gfla.field_make(p, k)
    for zero in (0, np.int64(0), np.array([1, 0]), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)


def test_zech_agrees_small():
    for (p, k) in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        F = gfla.field_make(p, k)
        a = np.repeat(np.arange(F.q), F.q)
        b = np.tile(np.arange(F.q), F.q)
        assert np.array_equal(F.add(a, b), F.zech_add(a, b))


def test_polynomial_factorization_roundtrip():
    rng = random.Random(11)
    for (p, k) in [(2, 1), (3, 1), (2, 2)]:
        F = gfla.field_make(p, k)
        for _ in range(10):
            coeffs = [rng.randrange(F.q) for _ in range(rng.randint(2, 8))] + [1]
            f = gfla.FqPolynomial(F, coeffs).monic()
            if f.degree < 1:
                continue
            prod = gfla.FqPolynomial.one(F)
            for fac, mult in gfla.irreducible_factors(f):
                for _ in range(mult):
                    prod = prod.mul(fac)
            assert prod == f


def test_solve_and_inverse():
    F3 = gfla.field_make(3, 1)
    m = gfla.FqMatrix(F3, [[1, 2], [0, 1]])
    inv = gfla.inverse(m)
    assert gfla.mat_mul(m, inv) == gfla.FqMatrix.identity(F3, 2)


# -- blocked echelonize against the unblocked oracle ---------------------------

NULLSPACE_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (251, 1), (2, 8)]


@settings(max_examples=300)
@given(
    st.sampled_from(NULLSPACE_FIELDS),
    st.integers(0, 12),
    st.integers(0, 14),
    st.sampled_from(["zero", "full rank", "low rank"]),
    st.integers(0, 2**32 - 1),
)
def test_nullspace_matches_row_space_oracle(pk, rows, cols, kind, seed):
    """The one-elimination null space equals the earlier one, which
    echelonized its kernel rows again: both are the kernel's RREF."""
    F = gfla.field_make(*pk)
    rng = np.random.default_rng(seed)
    r = min(rows, cols)
    if kind == "zero":
        arr = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "full rank":
        # a unit matrix planted on r random columns of a random matrix
        arr = rng.integers(0, F.q, (rows, cols))
        arr[np.arange(r)[:, None], rng.choice(cols, r, replace=False)] = np.eye(r, dtype=np.int64)
    else:
        inner = int(rng.integers(0, max(r, 1)))
        arr = F.matmul(rng.integers(0, F.q, (rows, inner)), rng.integers(0, F.q, (inner, cols)))
    m = gfla.FqMatrix(F, arr)
    ns = gfla.nullspace(m)
    assert ns == oracles.nullspace_by_row_space(m)
    assert ns.rows == cols - gfla.rank(m) and ns.cols == cols
    assert not F.matmul(m.arr, ns.arr.T).any()
    if kind == "full rank":
        assert ns.rows == cols - r


def test_nullspace_is_one_elimination(monkeypatch):
    F = gfla.field_make(3, 1)
    m = gfla.FqMatrix(F, np.random.default_rng(0).integers(0, 3, (40, 90)))
    seen = []
    echelonize = gfla.echelonize
    monkeypatch.setattr(gfla, "echelonize", lambda a: seen.append(a.arr.shape) or echelonize(a))
    monkeypatch.setattr(gfla, "row_space", lambda a: pytest.fail("nullspace called row_space"))
    gfla.nullspace(m)
    assert seen == [(40, 90)]


ECHELON_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (251, 1), (2, 8)]
ECHELON_COLS = [63, 64, 65, 100, 200]


def _echelon_cases(F, rng):
    """(name, array) pairs across the panel boundaries: rank-deficient L.R
    products with fewer and with more rows than columns, a zero panel,
    pivots only in the last panel, one row and the zero matrix."""

    def product(rows, cols, inner):
        return F.matmul(rng.integers(0, F.q, (rows, inner)), rng.integers(0, F.q, (inner, cols)))

    for cols in ECHELON_COLS:
        for rows in (cols // 2, cols + 9):
            yield f"{rows}x{cols}", product(rows, cols, 2 * min(rows, cols) // 3)
    zero_panel = product(80, 100, 70)
    zero_panel[:, 16:32] = 0
    yield "zero panel", zero_panel
    last_panel = np.zeros((50, 100), dtype=np.int64)
    last_panel[:, 96:] = rng.integers(0, F.q, (50, 4))
    yield "pivots in the last panel", last_panel
    yield "one row", rng.integers(0, F.q, (1, 200))
    yield "zero", np.zeros((30, 100), dtype=np.int64)


@pytest.mark.parametrize("p,k", ECHELON_FIELDS)
def test_echelonize_matches_unblocked(p, k):
    F = gfla.field_make(p, k)
    rng = np.random.default_rng(p * 1000 + k)
    for name, arr in _echelon_cases(F, rng):
        m = gfla.FqMatrix(F, arr)
        ech = gfla.echelonize(m)
        assert ech == oracles.echelonize_unblocked(m), name
        # nullspace: a basis of the kernel of the right dimension, in RREF
        ns = gfla.nullspace(m)
        assert ns.rows == m.cols - ech.rank, name
        assert not F.matmul(m.arr, ns.arr.T).any(), name
        assert gfla.row_space(ns) == ns, name
        # solve_right: a consistent right-hand side is solved with the free
        # unknowns zero; a random one is solvable exactly when it adds no rank
        X0 = rng.integers(0, F.q, (m.cols, 3))
        b = gfla.FqMatrix(F, F.matmul(m.arr, X0))
        X = gfla.solve_right(m, b)
        free = [c for c in range(m.cols) if c not in ech.pivots]
        assert X is not None and gfla.mat_mul(m, X) == b and not X.arr[free].any(), name
        b = gfla.FqMatrix(F, rng.integers(0, F.q, (m.rows, 2)))
        X = gfla.solve_right(m, b)
        consistent = gfla.rank(gfla.FqMatrix(F, np.hstack([m.arr, b.arr]))) == ech.rank
        assert (X is not None) == consistent, name
        if X is not None:
            assert gfla.mat_mul(m, X) == b, name


@pytest.mark.parametrize("p,k", ECHELON_FIELDS)
def test_inverse_across_panels(p, k):
    F = gfla.field_make(p, k)
    rng = np.random.default_rng(p * 1000 + k + 1)
    for n in (63, 64, 65, 100):
        # unit lower times unit upper triangular: always invertible
        lower = np.tril(rng.integers(0, F.q, (n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(0, F.q, (n, n)), 1) + np.eye(n, dtype=np.int64)
        m = gfla.FqMatrix(F, F.matmul(lower, upper))
        assert gfla.mat_mul(m, gfla.inverse(m)) == gfla.FqMatrix.identity(F, n)
        singular = gfla.FqMatrix(F, F.matmul(rng.integers(0, F.q, (n, n - 5)), rng.integers(0, F.q, (n - 5, n))))
        with pytest.raises(ShapeMismatch):
            gfla.inverse(singular)


# -- polynomials on Python ints and the lazy factor stream ----------------------

STREAM_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4), (29, 1)]


def _random_monic(F, rng, degree):
    return gfla.FqPolynomial(F, [rng.randrange(F.q) for _ in range(degree)] + [1])


def _stream_cases(F, rng, count):
    """Products of random monic factors of degree 1..4, some of them squared
    or cubed, and p-th powers (zero derivative: `frobenius_root`)."""
    one = gfla.FqPolynomial.one(F)
    for i in range(count):
        f = one
        for _ in range(rng.randint(1, 4)):
            g = _random_monic(F, rng, rng.randint(1, 4))
            for _ in range(rng.choice((1, 1, 2, 3))):
                f = f.mul(g)
        if i % 5 == 0:
            g = _random_monic(F, rng, rng.randint(1, 3 if F.p < 29 else 1))
            power = one
            for _ in range(F.p):
                power = power.mul(g)
            f = f.mul(power) if i % 10 else power
        yield f


@pytest.mark.parametrize("p,k", STREAM_FIELDS)
def test_factor_stream_matches_eager_oracle(p, k):
    F = gfla.field_make(p, k)
    rng = random.Random(100 * p + k)
    for f in _stream_cases(F, rng, 60):
        assert list(gfla.irreducible_factors(f)) == oracles.irreducible_factors_full(f), (F, f.coeffs)
    assert list(gfla.irreducible_factors(gfla.FqPolynomial.one(F))) == []


def test_factor_stream_stops_at_the_degree_it_reads(monkeypatch):
    """Over GF(29), (x - 3)(x^2 - 2)(x^2 - 3) is squarefree with one linear
    factor (2 and 3 are non-squares mod 29): the linear factor arrives after
    the degree-1 gcd alone, and only reading on takes x^(q^2)."""
    F = gfla.field_make(29, 1)
    f = gfla.FqPolynomial(F, [26, 1]).mul(gfla.FqPolynomial(F, [27, 0, 1])).mul(gfla.FqPolynomial(F, [26, 0, 1]))
    calls = []
    pow_mod = gfla._pow_mod

    def counted(base, e, mod):
        calls.append((e, mod.degree))
        return pow_mod(base, e, mod)

    monkeypatch.setattr(gfla, "_pow_mod", counted)
    stream = gfla.irreducible_factors(f)
    assert next(stream) == (gfla.FqPolynomial(F, [26, 1]), 1)
    assert calls == [(29, 5)]  # x^q mod f for the degree-1 gcd, nothing else
    rest = list(stream)
    assert [g.degree for g, _ in rest] == [2, 2]
    assert (29, 4) in calls[1:]  # x^(q^2) mod the quartic rest


POLY_FIELDS = STREAM_FIELDS + [(3, 3), (2, 8)]


@st.composite
def polys(draw, count):
    p, k = draw(st.sampled_from(POLY_FIELDS))
    F = gfla.field_make(p, k)
    coeffs = st.lists(st.integers(0, F.q - 1), max_size=9)
    return [gfla.FqPolynomial(F, draw(coeffs)) for _ in range(count)]


def _int_coeffs(*fs):
    for f in fs:
        assert type(f.coeffs) is tuple and all(type(c) is int for c in f.coeffs), f
        assert not f.coeffs or f.coeffs[-1] != 0, f
        assert f.format() == " ".join(str(c) for c in f.coeffs)


@given(polys(2))
def test_poly_divmod_property(ab):
    a, b = ab
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert q.mul(b).add(r) == a
    assert r.degree < b.degree
    _int_coeffs(q, r)


@given(polys(2))
def test_poly_gcd_property(ab):
    a, b = ab
    g = a.gcd(b)
    _int_coeffs(g)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.coeffs[-1] == 1
    assert a.mod(g).is_zero() and b.mod(g).is_zero()
    ell = a.lcm(b)
    _int_coeffs(ell)
    if not (a.is_zero() or b.is_zero()):
        assert ell.mod(a.monic()).is_zero() and ell.mod(b.monic()).is_zero()


@given(polys(2))
def test_poly_derivative_product_rule(ab):
    a, b = ab
    lhs = a.mul(b).derivative()
    assert lhs == a.derivative().mul(b).add(a.mul(b.derivative()))
    _int_coeffs(lhs, a.neg(), a.sub(b), a.monic(), a.scale(1), a.scale(0))


@given(polys(2))
def test_poly_eq_hash_key_agree(ab):
    a, b = ab
    F = a.field
    for same in (gfla.FqPolynomial(F, list(a.coeffs) + [0, 0]),
                 gfla.FqPolynomial(F, np.array(a.coeffs + (0,), dtype=np.int64)),
                 gfla.FqPolynomial(F, [np.int64(c) for c in a.coeffs])):
        _int_coeffs(same)
        assert same == a and hash(same) == hash(a) and same.key() == a.key()
    assert (a == b) == (a.key() == b.key()) == (a.coeffs == b.coeffs)
    assert a.key() == (a.degree, a.coeffs)


def test_poly_results_hold_python_ints():
    """char_poly and min_poly come out of int64 Krylov rows; their
    coefficients and format() must still be Python ints."""
    F = gfla.field_make(3, 2)
    m = gfla.FqMatrix(F, np.random.default_rng(3).integers(0, F.q, (6, 6)))
    for f in (gfla.char_poly(m), gfla.min_poly(m)):
        _int_coeffs(f)
        assert f.eval_matrix(m).is_zero()
    for g, _mult in gfla.irreducible_factors(gfla.char_poly(m)):
        _int_coeffs(g)



def test_poly_rejects_coefficients_out_of_range():
    """Like FqMatrix: -1 used to index the scalar lists from the end (a silent
    wrong product over GF(4)), and 7 ended in an IndexError."""
    F = gfla.field_make(2, 2)
    for bad in ([-1, 1], [7, 1], [0, 4]):
        with pytest.raises(ShapeMismatch):
            gfla.FqPolynomial(F, bad)
    assert gfla.FqPolynomial(F, [3, 1]).mul(gfla.FqPolynomial(F, [1, 1])).coeffs == (3, 2, 1)


# -- field tables built by doubling against one power at a time ----------------

DOUBLING_FIELDS = [(2, k) for k in range(1, 17)] + [(3, k) for k in range(1, 7)] + [(251, 1), (5, 2)]


@pytest.mark.parametrize("p,k", DOUBLING_FIELDS)
def test_field_tables_match_per_power_oracle(p, k):
    F = gfla.field_make(p, k)
    want = oracles.field_tables_per_power(F)
    for name in ("exp", "log", "neg", "inv"):
        assert np.array_equal(getattr(F, f"_{name}"), want[name]), name
    for name in ("add", "mul"):
        got = getattr(F, f"_{name}")
        assert (got is None) == (name not in want), name
        assert got is None or np.array_equal(got, want[name]), name
    assert F._mulx.shape == (k, F.q, k)
    for d in range(k):
        assert np.array_equal(F._mulx[d], want["mulx"][d]), d
