"""Character table machinery: tables, blocks, heights, basic sets, Clifford."""

import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modchar import cli, ctab, gfla, grp, rep
from modchar.cyclo import Cyclotomic, brauer_char_value
from modchar.errors import (
    ActionNotInvolution,
    FusionDegreeMismatch,
    NonIntegral,
    NotInSpan,
    SelfCheckFailed,
)
from modchar.fixtures import load
from modchar.gfla import field_make

sys.path.insert(0, str(Path(__file__).parent))
import oracles  # noqa: E402


def s3():
    return grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2)]), grp.perm_from_cycles(3, [(1, 2, 3)])])


def a5():
    return grp.enumerate_group([grp.perm_from_cycles(5, [(1, 2, 3, 4, 5)]), grp.perm_from_cycles(5, [(3, 4, 5)])])


def test_ordinary_table_s3():
    t = ctab.ordinary_table(s3())
    assert [c.degree_int() for c in t.characters] == [1, 1, 2]
    # first character is the trivial one
    assert all(v == Cyclotomic.one() for v in t.characters[0].values)
    # row orthogonality was asserted at construction; spot-check a scalar
    assert ctab.scalar(t, t.characters[2], t.characters[2]) == 1
    assert ctab.scalar(t, t.characters[2], t.characters[0]) == 0


GROUPS = {
    "S3": (3, [[(1, 2)], [(1, 2, 3)]]),
    "A4": (4, [[(1, 2), (3, 4)], [(1, 2, 3)]]),
    "S4": (4, [[(1, 2)], [(1, 2, 3, 4)]]),
    "A5": (5, [[(1, 2, 3, 4, 5)], [(3, 4, 5)]]),
    "S5": (5, [[(1, 2)], [(1, 2, 3, 4, 5)]]),
    "A6": (6, [[(1, 2, 3, 4, 5)], [(4, 5, 6)]]),
    "C7": (7, [[(1, 2, 3, 4, 5, 6, 7)]]),
    "C5": (5, [[(1, 2, 3, 4, 5)]]),
    "C13": (13, [[tuple(range(1, 14))]]),
    "D10": (5, [[(1, 2, 3, 4, 5)], [(2, 5), (3, 4)]]),
    "7:3": (7, [[(1, 2, 3, 4, 5, 6, 7)], [(2, 3, 5), (4, 7, 6)]]),
    "L2(7)": (7, [[(1, 2, 3, 4, 5, 6, 7)], [(1, 2), (3, 6)]]),
    "A7": (7, [[(1, 2, 3)], [(1, 2, 3, 4, 5, 6, 7)]]),
}
ORDERS = {"S3": 6, "A4": 12, "S4": 24, "A5": 60, "S5": 120}


def group(name):
    n, gens = GROUPS[name]
    return grp.enumerate_group([grp.perm_from_cycles(n, c) for c in gens])


# C7 at p = 2, C5 at p = 3 and C13 at p = 3: GF(p^2) does not split these
# groups, so their tables are chopped over GF(p^m) with these m; p does not
# divide |G|, so the Brauer values are the ordinary values
SPLIT_CASES = {("C7", 2): 6, ("C5", 3): 4, ("C13", 3): 6}
ORACLE_CASES = [(name, p) for name, order in ORDERS.items() for p in (None, 2, 3, 5) if p is None or order % p == 0]
ORACLE_CASES += list(SPLIT_CASES)


@pytest.mark.parametrize("name,p", ORACLE_CASES)
def test_tables_match_regular_module_oracle(name, p):
    g = group(name)
    if (name, p) in SPLIT_CASES:  # the ordinary table, read as the p-modular one
        ordinary = ctab.ordinary_table(g)
        old = replace(ordinary, p=p, characters=tuple(replace(ch, kind="brauer") for ch in ordinary.characters))
        new = ctab.brauer_table(g, p)
    elif p is None:
        old, _old_simples = oracles.tables_from_regular(g, p)
        new = ctab.ordinary_table(g)
    else:
        old, old_simples = oracles.tables_from_regular(g, p)
        new, simples = ctab.brauer_data(g, p)
        assert [s.dim for s in simples] == [s.dim for s in old_simples]
        assert all(rep.iso(a, b) is not None for a, b in zip(simples, old_simples))
        assert [s.label for s in simples] == [ch.label for ch in new.characters]
    assert (new.group_order, new.classes, new.p) == (old.group_order, old.classes, old.p)
    assert [(ch.kind, ch.values) for ch in new.characters] == [(ch.kind, ch.values) for ch in old.characters]
    # canonical labels: degree plus a letter in row order, trivial first
    degrees = [ch.degree_int() for ch in new.characters]
    assert [ch.label for ch in new.characters] == [
        f"{d}{chr(ord('a') + degrees[:i].count(d))}" for i, d in enumerate(degrees)
    ]
    assert new.characters[0].label == "1a"


def test_splitting_degree():
    """GF(p^2) splits every group here at every p dividing its order; the
    cyclic groups at a p prime to their order need a larger field."""
    for name in GROUPS:
        g = group(name)
        for p in gfla.factorize(g.order):
            assert ctab._splitting_degree(grp.conjugacy_classes(g, p), p) == 2, (name, p)
    for (name, p), m in SPLIT_CASES.items():
        assert ctab._splitting_degree(grp.conjugacy_classes(group(name), p), p) == m
    with pytest.raises(SelfCheckFailed):  # over GF(4), C7 has 3 simple modules, not 7
        ctab._tensor_closure(group("C7"), field_make(2, 2), grp.conjugacy_classes(group("C7")).reps, 1)


# C7 at p None lifts from GF(29), where 28 = q - 1 is a proper multiple of the
# conductor 7; C7 at 2, C5 at 3 and C13 at 3 are chopped and lifted over
# GF(2^6), GF(3^4) and GF(3^6)
@pytest.mark.parametrize("name,p", ORACLE_CASES + [("C7", None)])
def test_brauer_char_value_matches_summed_oracle(name, p):
    g = group(name)
    cls = grp.conjugacy_classes(g, p)
    if p is None:
        F = field_make(ctab._auxiliary_prime(g.exponent(), g.order), 1)
        simples = ctab._tensor_closure(g, F, cls.reps, 1).values()
    else:
        simples = ctab.brauer_data(g, p)[1]
    for s in simples:
        for i, regular in enumerate(cls.p_regular(p)):
            if regular:
                m = grp.element_matrix(g, s, cls.reps[i])
                got = brauer_char_value(m, cls.orders[i])
                want = oracles.brauer_char_value_summed(m, cls.orders[i])
                assert (got.n, got.coeffs) == (want.n, want.coeffs)


@pytest.mark.parametrize("name,p", ORACLE_CASES + [("C7", None)])
def test_tensor_closure_matches_iso_keyed_oracle(name, p):
    """Keying the simples by their Brauer characters keeps the modules, and
    the order, that telling them apart by iso kept."""
    g = group(name)
    cls = grp.conjugacy_classes(g, p)
    if p is None:
        F = field_make(ctab._auxiliary_prime(g.exponent(), g.order), 1)
    else:
        F = field_make(p, ctab._splitting_degree(cls, p))
    reps = [x for x, regular in zip(cls.reps, cls.p_regular(p)) if regular]
    new = list(ctab._tensor_closure(g, F, reps, 1).values())
    old = oracles.tensor_closure_by_iso(g, F, len(reps), 1)
    assert [s.dim for s in new] == [s.dim for s in old]
    assert [[m.arr.tolist() for m in s.gens] for s in new] == [[m.arr.tolist() for m in s.gens] for s in old]


def test_tables_compare_no_modules(monkeypatch):
    """The simples are told apart by their Brauer characters alone: building
    a table calls neither rep.iso nor rep.chop."""

    def refused(*args):
        raise AssertionError("a table compared two modules")

    monkeypatch.setattr(rep, "iso", refused)
    monkeypatch.setattr(rep, "chop", refused)
    assert [c.degree_int() for c in ctab.brauer_table(a5(), 2).characters] == [1, 2, 2, 4]
    assert [c.degree_int() for c in ctab.ordinary_table(group("S4")).characters] == [1, 1, 2, 3, 3]


# A7's ordinary table and its Brauer tables at 2, 3, 5 and 7 (Atlas degrees)
A7_DEGREES = {
    None: [1, 6, 10, 10, 14, 14, 15, 21, 35],
    2: [1, 4, 4, 6, 14, 20],
    3: [1, 6, 10, 10, 13, 15],
    5: [1, 6, 8, 10, 10, 13, 15, 35],
    7: [1, 5, 10, 14, 14, 21, 35],
}


# rep.spin calls per A7 table when Norton's test spun every kernel vector of
# a factor whose nullity exceeds its degree; one seed per factor halves them
A7_SPINS_EVERY_KERNEL_VECTOR = {None: 2196, 2: 889, 3: 523, 5: 1218, 7: 1160}


@pytest.mark.parametrize("p", list(A7_DEGREES))
def test_tables_of_a7_against_the_literature(monkeypatch, p):
    g = group("A7")
    spins = []
    spin = rep.spin
    monkeypatch.setattr(rep, "spin", lambda r, seeds: spins.append(1) or spin(r, seeds))
    t0 = time.process_time()
    t = ctab.ordinary_table(g) if p is None else ctab.brauer_table(g, p)
    assert time.process_time() - t0 < 15
    assert len(spins) <= A7_SPINS_EVERY_KERNEL_VECTOR[p] // 2
    assert [ch.degree_int() for ch in t.characters] == A7_DEGREES[p]


# M11's Brauer tables at 3 and 2 (Atlas degrees); its tensor closure at 2
# takes characteristic polynomials of modules up to dimension 440
M11_DEGREES = {
    3: [1, 5, 5, 10, 10, 10, 24, 45],
    2: [1, 10, 16, 16, 44],
}


@pytest.mark.parametrize("p", list(M11_DEGREES))
def test_brauer_tables_of_m11_against_the_literature(p):
    g = grp.enumerate_group([grp.perm_from_cycles(11, [tuple(range(1, 12))]),
                             grp.perm_from_cycles(11, [(3, 7, 11, 8), (4, 10, 5, 6)])])
    assert g.order == 7920
    t0 = time.process_time()
    t = ctab.brauer_table(g, p)
    assert time.process_time() - t0 < 15
    assert [ch.degree_int() for ch in t.characters] == M11_DEGREES[p]


def _scalar_or_error(fn, table, a, b):
    try:
        return fn(table, a, b)
    except NonIntegral as exc:
        return ("NonIntegral", str(exc))


def _scalar_tables():
    for name in ("S4", "A5", "S5"):
        g = group(name)
        yield ctab.ordinary_table(g)
        for p in (2, 3, 5):
            if ORDERS[name] % p == 0:
                yield ctab.brauer_table(g, p)
    yield cli.parse_table((Path(__file__).parent / "golden" / "s4.ctb").read_text())


def test_scalar_matches_termwise_oracle():
    for t in _scalar_tables():
        for a in t.characters:
            for b in t.characters:
                got = _scalar_or_error(ctab.scalar, t, a, b)
                assert got == _scalar_or_error(oracles.scalar_termwise, t, a, b)
    # 3a of A5 against the indicator of the class 5a: 12 * 3a(5a) / 60 is irrational
    t = ctab.ordinary_table(group("A5"))
    three = next(ch for ch in t.characters if ch.label == "3a")
    at_5a = ctab.Character(tuple(Cyclotomic.from_rational(int(c.label == "5a")) for c in t.classes))
    got = _scalar_or_error(ctab.scalar, t, three, at_5a)
    assert got[0] == "NonIntegral"
    assert got == _scalar_or_error(oracles.scalar_termwise, t, three, at_5a)


def test_tables_of_a6_against_the_literature():
    g = group("A6")
    assert [ch.degree_int() for ch in ctab.ordinary_table(g).characters] == [1, 5, 5, 8, 8, 9, 10]
    assert [ch.degree_int() for ch in ctab.brauer_table(g, 2).characters] == [1, 4, 4, 8, 8]
    assert [ch.degree_int() for ch in ctab.brauer_table(g, 3).characters] == [1, 3, 3, 4, 9]


def test_restrict_p_regular():
    t = ctab.ordinary_table(s3())
    trivp, _, chi2p = ctab.restrict_table(t, 3).characters
    assert [v for v in chi2p.values] == [Cyclotomic.from_rational(2), Cyclotomic.zero()]
    # trivial restricts to all-ones
    assert all(v == Cyclotomic.one() for v in trivp.values)
    # p coprime to |G|: restriction changes nothing
    rt = ctab.restrict_table(t, 5)
    assert rt.nclasses == t.nclasses


def test_induce_sign_from_c2():
    g = s3()
    t = ctab.ordinary_table(g)
    c2 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2)])])
    tc2 = ctab.ordinary_table(c2)
    sign = tc2.characters[1]
    cls = grp.conjugacy_classes(g)
    clsH = grp.conjugacy_classes(c2)
    fusion = tuple(cls.class_of[h] for h in clsH.reps)
    ind = ctab.induce(tc2, sign, t, fusion)
    assert [v for v in ind.values] == [
        Cyclotomic.from_rational(3),
        Cyclotomic.from_rational(-1),
        Cyclotomic.zero(),
    ]
    coeffs = ctab.expand_in_irreducibles(t, ind)
    # sign + the 2-dimensional character
    assert coeffs == [Fraction(0), Fraction(1), Fraction(1)]


def test_product_with_trivial():
    t = ctab.ordinary_table(s3())
    chi = t.characters[2]
    assert (chi * t.characters[0]).values == chi.values


def test_blocks_s3_p3():
    t = ctab.ordinary_table(s3())
    b = ctab.blocks(t, 3)
    assert b.blocks == ((0, 1, 2),)
    assert b.defects == (1,)


def test_blocks_coprime_prime():
    t = ctab.ordinary_table(s3())
    b = ctab.blocks(t, 5)
    assert b.nblocks == 3
    assert all(d == 0 for d in b.defects)
    assert all(len(members) == 1 for members in b.blocks)


def test_blocks_a5_p2():
    t = ctab.ordinary_table(a5())
    b = ctab.blocks(t, 2)
    degrees = [t.characters[i].degree_int() for i in range(5)]
    principal = next(m for m in b.blocks if 0 in m)
    defect0 = next(m for m in b.blocks if m != principal)
    assert sorted(degrees[i] for i in principal) == [1, 3, 3, 5]
    assert [degrees[i] for i in defect0] == [4]
    assert b.defects[b.block_of(0)] == 2
    assert b.defects[b.block_of(defect0[0])] == 0


def test_heights():
    t = ctab.ordinary_table(a5())
    b = ctab.blocks(t, 2)
    h0 = ctab.heights(b, b.block_of(0))
    assert set(h0.values()) == {0}
    fx = load("hn_mod2_b1")
    # height formula on the fixture degrees: nu_2(|G|) = 14, defect 4
    def nu2(n):
        v = 0
        while n % 2 == 0:
            n //= 2
            v += 1
        return v

    heights = {lbl: nu2(d) - 10 for lbl, d in zip(fx.row_labels, fx.row_degrees)}
    assert heights["17"] == 0 and heights["34"] == 1 and heights["44"] == 2
    assert sorted(heights.values()) == [0, 0, 0, 0, 1, 1, 1, 2]


def test_block_project():
    t = ctab.ordinary_table(s3())
    b = ctab.blocks(t, 3)
    reg_vals = []
    for ci in range(t.nclasses):
        acc = Cyclotomic.zero()
        for ch in t.characters:
            acc = acc + ch.degree * ch.values[ci]
        reg_vals.append(acc)
    reg = ctab.Character(tuple(reg_vals), "ordinary", "reg")
    proj = ctab.block_project(t, reg, b, 0)
    assert proj.values == reg.values  # single block: projection is the identity
    chi = t.characters[2]
    assert ctab.block_project(t, chi, b, 0).values == chi.values


def test_decompose_basic():
    t = ctab.ordinary_table(a5())
    basic = list(t.characters[:3])
    assert ctab.decompose_basic(basic, t.characters[1]) == [0, 1, 0]
    doubled = ctab.Character(
        tuple(Fraction(2) * v for v in t.characters[0].values), "virtual", "2x"
    )
    assert ctab.decompose_basic(basic, doubled) == [2, 0, 0]
    with pytest.raises(NotInSpan):
        ctab.decompose_basic(basic[:2], t.characters[4])
    half = ctab.Character(
        tuple(Fraction(1, 2) * v for v in t.characters[0].values), "virtual", "x/2"
    )
    with pytest.raises(NonIntegral):
        ctab.decompose_basic(basic, half)


def test_clifford_p2_block_of_defect4():
    fx = load("hn_mod2_b1")
    fx2 = load("hn_mod2_b1_hn2")
    block = ctab.BlockDecomposition(
        "B1", 2, fx.row_labels, fx.row_degrees, fx.matrix, fx.col_degrees
    )
    plan = []
    pairs = []
    for lbl, src in zip(fx2.row_labels, (e[0] for e in fx2.row_extra)):
        if "+" in src:
            a, b = src.split("+")
            pairs.append((fx.row_labels.index(a), fx.row_labels.index(b)))
            plan.append(("fuse", pairs[-1]))
        else:
            plan.append(("ext", fx.row_labels.index(src)))
    res = ctab.clifford_index2(block, (), tuple(set(pairs)), tuple(plan))
    out = res.blocks[0]
    assert out.k == 13 and out.l == 3
    assert out.matrix == fx2.matrix
    assert out.row_degrees == fx2.row_degrees


def test_clifford_errors():
    fx = load("hn_mod2_b1")
    block = ctab.BlockDecomposition(
        "B1", 2, fx.row_labels, fx.row_degrees, fx.matrix, fx.col_degrees
    )
    with pytest.raises(ActionNotInvolution):
        ctab.clifford_index2(block, ((1, 1),), ())
    refused = [  # pairs sharing a member, a row fused with itself, indices outside the block
        (((0, 1), (1, 2)), (), None), ((), ((3, 4), (4, 5)), None), ((), (), (("fuse", (0, 0)),)),
        (((-1, 0),), (), None), (((0, 3),), (), None), ((), ((5, 8),), None),
        ((), (), (("ext", 8),)), ((), (), (("ext", -1),)), ((), (), (("fuse", (0, -8)),)),
    ]
    for cols, rows, plan in refused:
        with pytest.raises(ActionNotInvolution):
            ctab.clifford_index2(block, cols, rows, plan)
    with pytest.raises(FusionDegreeMismatch):
        ctab.clifford_index2(block, (), ((0, 1),))  # degrees 214016 vs 1361920


def test_clifford_morita_split():
    fx = load("hn_mod3_b1")
    block = ctab.BlockDecomposition(
        "B1", 3, fx.row_labels, fx.row_degrees, fx.matrix, fx.col_degrees
    )
    res = ctab.clifford_index2(block, (), (), morita_split=True)
    assert len(res.blocks) == 2
    for out in res.blocks:
        assert out.matrix == fx.matrix


def test_block_project_zero_component():
    t = ctab.ordinary_table(a5())
    b = ctab.blocks(t, 2)
    defect0 = next(bi for bi in range(b.nblocks) if b.defects[bi] == 0)
    # the trivial character has no component in the defect-0 block
    proj = ctab.block_project(t, t.characters[0], b, defect0)
    assert all(v.is_zero() for v in proj.values)


def test_blocks_a4_p3_and_s4_p2():
    a4 = grp.enumerate_group(
        [grp.perm_from_cycles(4, [(1, 2), (3, 4)]), grp.perm_from_cycles(4, [(1, 2, 3)])]
    )
    t = ctab.ordinary_table(a4)
    b = ctab.blocks(t, 3)
    degrees = [c.degree_int() for c in t.characters]
    principal = b.blocks[b.block_of(0)]
    assert sorted(degrees[i] for i in principal) == [1, 1, 1]
    dz = next(m for m in b.blocks if m != principal)
    assert [degrees[i] for i in dz] == [3]
    assert b.defects[b.block_of(dz[0])] == 0
    s4 = grp.enumerate_group(
        [grp.perm_from_cycles(4, [(1, 2)]), grp.perm_from_cycles(4, [(1, 2, 3, 4)])]
    )
    t4 = ctab.ordinary_table(s4)
    b4 = ctab.blocks(t4, 2)
    # S4 has a single 2-block of full defect
    assert b4.nblocks == 1
    assert b4.defects == (3,)


# every prime dividing |G| for the computed tables, p = 2, 3, 5 for the CTB files
BLOCK_PRIMES = {"S3": (2, 3), "A4": (2, 3), "S4": (2, 3), "A5": (2, 3, 5), "S5": (2, 3, 5), "A6": (2, 3, 5),
                "D10": (2, 5), "7:3": (3, 7), "L2(7)": (2, 3, 7), "a5.ctb": (2, 3, 5), "s5.ctb": (2, 3, 5)}


@lru_cache(maxsize=None)
def block_table(name):
    if name.endswith(".ctb"):
        return cli.parse_table((Path(__file__).parents[1] / "bench" / "data" / name).read_text())
    return ctab.ordinary_table(group(name))


@pytest.mark.parametrize("name,p", [(name, p) for name, ps in BLOCK_PRIMES.items() for p in ps])
def test_blocks_match_least_factor_oracle(name, p, monkeypatch):
    """Reducing through the Conway generator gives the partition and defects
    of the least-factor ideal, and builds the same fields."""
    t = block_table(name)
    got = []
    for fn in (ctab.blocks, oracles.blocks_by_least_factor):
        monkeypatch.setattr(gfla, "_field_mem", {})
        b = fn(t, p)
        got.append((b.blocks, b.defects, sorted(gfla._field_mem)))
    assert got[0] == got[1]


@st.composite
def clifford_inputs(draw):
    """A block with 1-6 rows and 1-5 columns, disjoint column pairs, disjoint
    equal-degree row pairs, and the default or a random row plan."""
    k, l = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    matrix = [draw(st.lists(st.integers(0, 2), min_size=l, max_size=l)) for _ in range(k)]
    cols = draw(st.permutations(range(l)))
    brauer = tuple((cols[2 * i], cols[2 * i + 1]) for i in range(draw(st.integers(0, l // 2))))
    if draw(st.booleans()):  # every row invariant on the swapped pairs
        for row in matrix:
            for a, b in brauer:
                row[b] = row[a]
    degrees = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    rows = draw(st.permutations(range(k)))
    ordinary = tuple((rows[2 * i], rows[2 * i + 1]) for i in range(draw(st.integers(0, k // 2))))
    for a, b in ordinary:
        degrees[b] = degrees[a]
    col_degrees = draw(st.one_of(st.just(()), st.tuples(*[st.integers(1, 9)] * l)))
    block = ctab.BlockDecomposition("B", 2, tuple(f"r{i}" for i in range(k)), tuple(degrees),
                                    tuple(map(tuple, matrix)), col_degrees)
    entry = st.one_of(st.tuples(st.just("ext"), st.integers(0, k - 1)),
                      st.tuples(st.just("fuse"), st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
    plan = draw(st.one_of(st.none(), st.lists(entry, max_size=8).map(tuple)))
    return block, brauer, ordinary, plan, draw(st.booleans())


def _outcome(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type is the outcome
        return type(exc)


@settings(max_examples=400)
@given(clifford_inputs())
def test_clifford_matches_column_walk_oracle(args):
    """Equal outcomes, except that a fuse of a row with itself, which the
    oracle accepts, is refused (a Morita split reads no row plan)."""
    plan = args[3] or ()
    if not args[4] and any(kind == "fuse" and payload[0] == payload[1] for kind, payload in plan):
        with pytest.raises(ActionNotInvolution):
            ctab.clifford_index2(*args)
    else:
        assert _outcome(ctab.clifford_index2, args) == _outcome(oracles.clifford_index2_by_columns, args)
