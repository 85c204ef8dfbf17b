"""Module operations: spin, split, chop, iso, dual, tensor, hom, socle."""

import os
import sys

import numpy as np
import pytest

from modchar import ctab, gfla, grp, rep
from modchar.errors import GeneratorCountMismatch, NotInvariant, Undecided, ZeroModule

sys.path.insert(0, os.path.dirname(__file__))
import oracles  # noqa: E402

F2 = gfla.field_make(2, 1)
F3 = gfla.field_make(3, 1)
F4 = gfla.field_make(2, 2)


def s3():
    return grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2)]), grp.perm_from_cycles(3, [(1, 2, 3)])])


def c3_two_dim():
    return rep.Representation(F2, 2, (gfla.FqMatrix(F2, [[0, 1], [1, 1]]),), "c3")


def trivial(field, ngens=1):
    return rep.Representation(field, 1, tuple(gfla.FqMatrix.identity(field, 1) for _ in range(ngens)), "triv")


def test_spin_examples():
    reg = grp.regular_rep(s3(), F3)
    empty = rep.spin(reg, gfla.FqMatrix.zeros(F3, 0, 6))
    assert empty.rows == 0
    ones = rep.spin(reg, gfla.FqMatrix(F3, np.ones((1, 6), dtype=np.int64)))
    assert ones.rows == 1
    full = rep.spin(reg, gfla.FqMatrix.identity(F3, 6))
    assert full.rows == 6


@pytest.mark.parametrize("order", [24, 60])
def test_spin_matches_vector_oracle(order):
    import os, sys

    sys.path.insert(0, os.path.dirname(__file__))
    import oracles

    if order == 24:
        g = grp.enumerate_group([grp.perm_from_cycles(4, [(1, 2)]), grp.perm_from_cycles(4, [(1, 2, 3, 4)])])
    else:
        g = grp.enumerate_group([grp.perm_from_cycles(5, [(1, 2, 3)]), grp.perm_from_cycles(5, [(1, 2, 3, 4, 5)])])
    rng = np.random.default_rng(order)
    for F in (F2, F3, F4, gfla.field_make(3, 2)):
        reg = grp.regular_rep(g, F)
        n = reg.dim
        cases = [
            gfla.FqMatrix.zeros(F, 0, n),
            gfla.FqMatrix.zeros(F, 2, n),
            gfla.FqMatrix.identity(F, n),
            gfla.FqMatrix(F, np.ones((1, n), dtype=np.int64)),
        ]
        for rows in (1, 1, 2, 3):
            sparse = rng.random((rows, n)) < 0.1
            cases.append(gfla.FqMatrix(F, rng.integers(0, F.q, (rows, n)) * sparse))
        for seeds in cases:
            assert rep.spin(reg, seeds) == oracles.spin_by_vectors(reg, seeds)


def test_spin_without_generators():
    bare = rep.Representation(F4, 3, (), "bare")
    seeds = gfla.FqMatrix(F4, [[0, 2, 3], [0, 1, 1], [0, 0, 0]])
    got = rep.spin(bare, seeds)
    assert got == gfla.row_space(seeds) and got.rows == 2
    assert rep.spin(bare, gfla.FqMatrix.zeros(F4, 0, 3)).rows == 0


def test_split_examples():
    reg = grp.regular_rep(s3(), F3)
    sub, quot = rep.split(reg, gfla.FqMatrix.identity(F3, 6))
    assert sub.dim == 6 and quot.dim == 0
    ones = rep.spin(reg, gfla.FqMatrix(F3, np.ones((1, 6), dtype=np.int64)))
    sub, quot = rep.split(reg, ones)
    assert sub.dim == 1 and quot.dim == 5
    sub, quot = rep.split(reg, gfla.FqMatrix.zeros(F3, 0, 6))
    assert sub.dim == 0 and quot.dim == 6
    bad = gfla.FqMatrix(F3, [[1, 0, 0, 0, 0, 0]])
    with pytest.raises(NotInvariant):
        rep.split(reg, bad)


def test_is_irreducible_examples():
    assert rep.is_irreducible(trivial(F2), 1)[0]
    assert rep.is_irreducible(c3_two_dim(), 1)[0]
    two_trivial = rep.Representation(F2, 2, (gfla.FqMatrix.identity(F2, 2),))
    verdict, witness = rep.is_irreducible(two_trivial, 1)
    assert not verdict and witness.rows == 1
    with pytest.raises(ZeroModule):
        rep.is_irreducible(rep.Representation(F2, 0, (gfla.FqMatrix.zeros(F2, 0, 0),)), 1)


def test_chop_s3_regular_and_brute_force():
    reg = grp.regular_rep(s3(), F3)
    factors = rep.chop(reg, 1)
    assert sorted((f.dim, m) for f, m in factors) == [(1, 3), (1, 3)]
    # confirm against exhaustive submodule enumeration
    import sys, os

    sys.path.insert(0, os.path.dirname(__file__))
    import oracles

    simples = [f for f, _ in factors]
    subs = oracles.all_submodules(reg, simples)
    counts = oracles.maximal_chain_factors(reg, subs, simples)
    by_label = {f.label: m for f, m in factors}
    assert counts == [by_label[s.label] for s in simples]


def test_chop_a4_natural():
    a4 = grp.enumerate_group(
        [grp.perm_from_cycles(4, [(1, 2), (3, 4)]), grp.perm_from_cycles(4, [(1, 2, 3)])]
    )
    nat = grp.perm_rep(a4, F4)
    factors = rep.chop(nat, 1)
    dims = sorted((f.dim, m) for f, m in factors)
    assert dims == [(1, 1), (1, 1), (1, 2)]
    # the multiplicity-2 factor is the trivial one
    for f, m in factors:
        if m == 2:
            assert all(g == gfla.FqMatrix.identity(F4, 1) for g in f.gens)


def test_chop_simple_is_itself():
    c = c3_two_dim()
    factors = rep.chop(c, 1)
    assert len(factors) == 1 and factors[0][1] == 1 and factors[0][0].dim == 2


def test_chop_invariant_total_dim():
    reg = grp.regular_rep(s3(), F4)
    factors = rep.chop(reg, 1)
    assert sum(f.dim * m for f, m in factors) == 6


def test_iso_examples():
    c = c3_two_dim()
    h = rep.iso(c, c, 1)
    assert h is not None
    assert rep.iso(c, trivial(F2), 1) is None
    # conjugate copy: generator replaced by a base-changed version
    t = gfla.FqMatrix(F2, [[1, 1], [0, 1]])
    tinv = gfla.inverse(t)
    conj = rep.Representation(
        F2, 2, (gfla.mat_mul(gfla.mat_mul(t, c.gens[0]), tinv),), "conj"
    )
    h = rep.iso(c, conj, 1)
    assert h is not None
    assert gfla.mat_mul(c.gens[0], h) == gfla.mat_mul(h, conj.gens[0])
    # the square-of-generator module is also isomorphic (Galois-conjugate basis)
    sq = rep.Representation(F2, 2, (gfla.mat_mul(c.gens[0], c.gens[0]),), "sq")
    assert rep.iso(c, sq, 1) is not None


def test_dual_examples():
    g = s3()
    nat = grp.perm_rep(g, F3)
    d = rep.dual(nat)
    for a, b in zip(nat.gens, d.gens):
        assert a == b  # permutation matrices are orthogonal
    w = rep.Representation(F4, 1, (gfla.FqMatrix(F4, [[F4.omega]]),))
    dw = rep.dual(w)
    expected = int(F4.pow_el(F4.omega, 2))  # inverse of omega in GF(4) is omega^2
    assert int(dw.gens[0].arr[0, 0]) == expected
    dd = rep.dual(rep.dual(c3_two_dim()))
    assert rep.iso(c3_two_dim(), dd, 1) is not None


def test_tensor_examples():
    c = c3_two_dim()
    t = rep.tensor(c, trivial(F2))
    assert rep.iso(c, t, 1) is not None
    tt = rep.tensor(c, c)
    assert tt.dim == 4
    factors = rep.chop(tt, 1)
    assert sorted((f.dim, m) for f, m in factors) == [(1, 2), (2, 1)]
    # brute force: enumerate all invariant subspaces of the 4-dim module
    import sys, os

    sys.path.insert(0, os.path.dirname(__file__))
    import oracles

    simples = [trivial(F2), c]
    subs = oracles.all_submodules(tt, simples)
    counts = oracles.maximal_chain_factors(tt, subs, simples)
    assert counts == [2, 1]


def test_tensor_order_independence():
    a = c3_two_dim()
    b = rep.Representation(F2, 3, (grp.perm_matrices([(1, 2, 0)], F2)[0],), "cyc")
    ab = rep.chop(rep.tensor(a, b), 1)
    ba = rep.chop(rep.tensor(b, a), 1)
    assert sorted((f.dim, m) for f, m in ab) == sorted((f.dim, m) for f, m in ba)
    for fa, ma in ab:
        assert any(
            ma == mb and fa.dim == fb.dim and rep.iso(fa, fb, 1) is not None
            for fb, mb in ba
        )


def test_hom_schur():
    c = c3_two_dim()
    # simple but not absolutely irreducible: End is GF(4), of GF(2)-dimension 2
    assert len(rep.hom(c, c)) == 2
    # the 2-dim simple of S3 over GF(2) is absolutely irreducible: End = GF(2)
    g0, g1 = grp.perm_matrices([(1, 0, 2), (1, 2, 0)], F2)
    nat = rep.Representation(F2, 3, (g0, g1))
    two_simple = [f for f, _ in rep.chop(nat, 1) if f.dim == 2][0]
    assert len(rep.hom(two_simple, two_simple)) == 1
    assert len(rep.hom(trivial(F2), c)) == 0
    two = rep.Representation(F2, 2, (gfla.FqMatrix.identity(F2, 2),))
    assert len(rep.hom(two, trivial(F2))) == 2


def test_socle_series_examples():
    # semisimple module: one layer
    two = rep.Representation(F2, 2, (gfla.FqMatrix.identity(F2, 2),))
    layers = rep.socle_series(two, [trivial(F2)], 1)
    assert layers == [[(0, 2)]]
    # nonsplit GF(2)[C2] module of dim 2: two layers of trivials
    c2 = rep.Representation(F2, 2, (gfla.FqMatrix(F2, [[1, 0], [1, 1]]),))
    layers = rep.socle_series(c2, [trivial(F2)], 1)
    assert layers == [[(0, 1)], [(0, 1)]]
    # S3 regular over GF(3): three layers, each {trivial, sign}
    reg = grp.regular_rep(s3(), F3)
    factors = rep.chop(reg, 1)
    simples = [f for f, _ in factors]
    layers = rep.socle_series(reg, simples, 1)
    assert len(layers) == 3
    for layer in layers:
        assert sorted(layer) == [(0, 1), (1, 1)]
    # concatenated layers reproduce the chop multiset
    totals = {}
    for layer in layers:
        for si, m in layer:
            totals[si] = totals.get(si, 0) + m
    assert totals == {0: 3, 1: 3}
    # the socle itself: a canonical basis of dimension sum(mult * dim S)
    soc, counts = rep.socle(reg, simples)
    assert soc == gfla.row_space(soc) and soc.rows == sum(m * simples[si].dim for si, m in counts) == 2


def test_radical_chain_oracle():
    """Radical brute force for the S3 regular module: the intersection of the
    maximal submodules from the full lattice has codimension 2 (one copy of
    each simple in the head), matching the top layer of the socle series of
    the dual picture."""
    import sys, os

    sys.path.insert(0, os.path.dirname(__file__))
    import oracles

    reg = grp.regular_rep(s3(), F3)
    simples = [f for f, _ in rep.chop(reg, 1)]
    subs = oracles.all_submodules(reg, simples)
    maximal = [m for m in subs if m.rows == 5]
    inter = maximal[0]
    for m in maximal[1:]:
        inter = _intersect(inter, m)
    assert inter.rows == 4


def _intersect(a, b):
    from modchar.gfla import nullspace, row_space

    # x = u.A = w.B: kernel of [A; -B]^T read off on the A-coefficients
    stacked = np.vstack([a.arr, a.field.neg(b.arr)]).T
    ns = nullspace(gfla.FqMatrix(a.field, stacked.copy()))
    if ns.rows == 0:
        return gfla.FqMatrix.zeros(a.field, 0, a.cols)
    coeff = ns.arr[:, : a.rows]
    return row_space(gfla.FqMatrix(a.field, a.field.matmul(coeff, a.arr)))


def test_check_generation_closure():
    g = s3()
    reg = grp.regular_rep(g, F3)
    series = rep.composition_series(reg, 1)
    prods = [gfla.mat_mul(reg.gens[0], reg.gens[1]), gfla.mat_mul(reg.gens[1], reg.gens[1])]
    assert rep.check_generation(series, prods, 1) == (True, True)
    # manufactured violation: conjugate a strictly upper-triangular block back
    n = reg.dim
    N = np.zeros((n, n), dtype=np.int64)
    N[0, n - 1] = 1
    bad = gfla.mat_mul(
        gfla.mat_mul(series.adapted_inverse, gfla.FqMatrix(F3, N)), series.adapted_basis
    )
    preserved, consistent = rep.check_generation(series, [bad], 1)
    assert preserved is False and consistent is False


def test_check_generation_c3_demo():
    """A proper condensed subalgebra refines the true factor multiset; the
    detector flags it, and the full element set passes."""
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    reg = grp.regular_rep(c3, F2)
    g = reg.gens[0]
    x = gfla.mat_add(g, gfla.mat_mul(g, g))  # g + g^2
    subalg = rep.Representation(F2, 3, (x,), "subalg")
    series = rep.composition_series(subalg, 1)
    assert [f.dim for f in series.factors] == [1, 1, 1]
    preserved, consistent = rep.check_generation(series, [g], 1)
    assert preserved is False and consistent is False
    allm = [grp.element_matrix(c3, reg, e) for e in c3.elements]
    full = rep.composition_series(rep.Representation(F2, 3, tuple(allm), "full"), 1)
    assert sorted(f.dim for f in full.factors) == [1, 2]
    assert rep.check_generation(full, allm, 1) == (True, True)


def _series_cases():
    """(module, extra elements): the S3 regular module over GF(3), the C3
    slices by g + g^2 over GF(2) and GF(4), the S4 natural module over GF(2)."""
    reg = grp.regular_rep(s3(), F3)
    cases = [(reg, [gfla.mat_mul(reg.gens[0], reg.gens[1]), gfla.mat_mul(reg.gens[1], reg.gens[1])])]
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    for F in (F2, F4):
        g = grp.regular_rep(c3, F).gens[0]
        x = gfla.mat_add(g, gfla.mat_mul(g, g))
        cases.append((rep.Representation(F, 3, (x,), "slice"), [g]))
    s4 = grp.enumerate_group([grp.perm_from_cycles(4, [(1, 2)]), grp.perm_from_cycles(4, [(1, 2, 3, 4)])])
    nat = grp.perm_rep(s4, F2)
    cases.append((nat, [grp.element_matrix(s4, nat, e) for e in s4.elements]))
    return cases


@pytest.mark.parametrize("case", range(4))
def test_composition_series_matches_link_oracle(case):
    """The series read off the MeatAxe recursion spans the same chain as the
    earlier link-by-link construction, with isomorphic factors, and its
    adapted basis puts the leaves' generators on the diagonal."""
    m, extra = _series_cases()[case]
    series = rep.composition_series(m, 1)
    old = oracles.composition_series_by_links(m, 1)
    assert len(series.chain) == len(old.chain)
    for term, old_term in zip(series.chain, old.chain):
        assert gfla.row_space(term) == gfla.row_space(old_term)
    assert series.block_sizes == old.block_sizes == tuple(f.dim for f in series.factors)
    for f, old_f in zip(series.factors, old.factors):
        assert rep.iso(f, old_f, 1) is not None
    assert gfla.mat_mul(series.adapted_basis, series.adapted_inverse) == gfla.FqMatrix.identity(m.field, m.dim)
    for gi, g in enumerate(m.gens):
        assert series.is_block_lower(g)
        assert series.diagonal_blocks(g) == [f.gens[gi] for f in series.factors]
    assert rep.check_generation(series, extra, 1) == rep.check_generation(old, extra, 1)


def test_composition_series_of_the_zero_module_is_empty():
    zero = rep.Representation(F2, 0, (gfla.FqMatrix.zeros(F2, 0, 0),))
    series = rep.composition_series(zero, 1)
    assert series.chain == () and series.factors == () and series.block_sizes == ()
    assert series.adapted_basis.arr.shape == series.adapted_inverse.arr.shape == (0, 0)
    assert rep.chop(zero, 1) == []


def _norton(monkeypatch, m):
    """(verdict, witness, whether the transposed module was built)."""
    built = []
    transpose = rep._transpose_rep
    monkeypatch.setattr(rep, "_transpose_rep", lambda r: built.append(r) or transpose(r))
    verdict, witness = rep.is_irreducible(m, 1)
    return verdict, witness, bool(built)


def test_witness_is_canonical_on_the_spin_branch(monkeypatch):
    verdict, witness, transposed = _norton(monkeypatch, grp.regular_rep(s3(), F3))
    assert not verdict and not transposed
    assert gfla.row_space(witness) == witness


def test_witness_is_canonical_on_the_annihilator_branch(monkeypatch):
    """A 3-dim GF(2) module whose first usable kernel vector generates it,
    so the proper submodule is the annihilator of a transposed one."""
    t = gfla.FqMatrix(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    gens = [gfla.FqMatrix(F2, a) for a in ([[1, 1, 0], [0, 1, 0], [1, 0, 0]], [[1, 0, 0], [1, 0, 0], [0, 0, 1]])]
    m = rep.Representation(F2, 3, tuple(gfla.mat_mul(gfla.mat_mul(t, g), gfla.inverse(t)) for g in gens))
    verdict, witness, transposed = _norton(monkeypatch, m)
    assert not verdict and transposed
    assert witness.rows == 2 and gfla.row_space(witness) == witness
    rep.split(m, witness)  # invariant


def test_hom_dim_equals_socle_multiplicity():
    """For a simple over a splitting field, dim hom(S, V) equals the
    multiplicity of S in the socle of V."""
    g = s3()
    reg = grp.regular_rep(g, F3)
    factors = rep.chop(reg, 1)
    simples = [f for f, _ in factors]
    layers = rep.socle_series(reg, simples, 1)
    socle_layer = dict(layers[0])
    for si, s in enumerate(simples):
        assert len(rep.hom(s, reg)) == socle_layer.get(si, 0)


def test_check_generation_gf4_cross_checked():
    """Over GF(4) the slice generated by g + g^2 chops the regular C3 module
    into three one-dimensional factors; the structure-preservation verdict
    for the extra generator g is cross-checked against a brute-force
    invariance test of the chain spaces."""
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    reg = grp.regular_rep(c3, F4)
    g = reg.gens[0]
    x = gfla.mat_add(g, gfla.mat_mul(g, g))
    series = rep.composition_series(rep.Representation(F4, 3, (x,), "slice"), 1)
    assert [f.dim for f in series.factors] == [1, 1, 1]
    preserved, consistent = rep.check_generation(series, [g], 1)
    # brute force: every chain space must be carried into itself by g
    from modchar.gfla import WorkBasis

    brute = True
    for link in series.chain:
        wb = WorkBasis(F4, reg.dim)
        for row in link.arr:
            wb.insert(row.copy())
        img = F4.matmul(link.arr, g.arr)
        if any(not wb.contains(r) for r in img):
            brute = False
            break
    assert preserved == brute
    # whatever the chain happens to be, the slice cannot justify the claim
    # that its factor list is the true factor multiset for the full algebra
    assert (preserved and consistent) is False


def test_dual_singular_generator():
    from modchar.errors import SingularGenerator

    bad = rep.Representation(F2, 2, (gfla.FqMatrix(F2, [[1, 0], [0, 0]]),))
    with pytest.raises(SingularGenerator):
        rep.dual(bad)


def test_socle_multiplicity_non_split_simple():
    """The regular C3 module over GF(2) is semisimple with socle 1 + S where
    S is simple with endomorphism ring GF(4); the socle multiplicity of S is
    1 even though dim Hom(S, V) = 2."""
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    reg = grp.regular_rep(c3, F2)
    factors = rep.chop(reg, 1)
    simples = [f for f, _ in factors]
    layers = rep.socle_series(reg, simples, 1)
    assert len(layers) == 1
    assert sorted(m for _si, m in layers[0]) == [1, 1]


# -- Norton and iso against the eager-factoring and standard-basis oracles ----


@pytest.fixture
def against_eager(monkeypatch):
    """Check every rep.is_irreducible and rep.iso call (chop and socle_series
    reach both through the module, ctab only is_irreducible) against the same
    test run on complete factor lists: the same verdict with the same
    certificate (word, factor, nullity) or witness rows, and the same
    intertwiner.  Each iso answer must also equal the standard-basis oracle's
    (None or the same H)."""
    calls = {"norton": 0, "iso": 0}
    norton, iso = rep.is_irreducible, rep.iso

    def checked_norton(r, seed=1):
        got = norton(r, seed)
        assert got == oracles.is_irreducible_full(r, seed), r.label
        calls["norton"] += 1
        return got

    def checked_iso(a, b, seed=1):
        got = iso(a, b, seed)
        assert got == oracles.iso_full(a, b, seed), (a.label, b.label)
        assert got == oracles.iso_standard_basis(a, b, seed), (a.label, b.label)
        calls["iso"] += 1
        return got

    monkeypatch.setattr(rep, "is_irreducible", checked_norton)
    monkeypatch.setattr(rep, "iso", checked_iso)
    return calls


def _modules_chopped_above():
    a4 = grp.enumerate_group([grp.perm_from_cycles(4, [(1, 2), (3, 4)]), grp.perm_from_cycles(4, [(1, 2, 3)])])
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    c = c3_two_dim()
    cyc = rep.Representation(F2, 3, (grp.perm_matrices([(1, 2, 0)], F2)[0],), "cyc")
    g0, g1 = grp.perm_matrices([(1, 0, 2), (1, 2, 0)], F2)
    return [
        grp.regular_rep(s3(), F3),
        grp.perm_rep(a4, F4),
        c,
        grp.regular_rep(s3(), F4),
        rep.tensor(c, c),
        rep.tensor(c, cyc),
        rep.tensor(cyc, c),
        rep.Representation(F2, 3, (g0, g1)),
        rep.Representation(F2, 2, (gfla.FqMatrix.identity(F2, 2),)),
        rep.Representation(F2, 2, (gfla.FqMatrix(F2, [[1, 0], [1, 1]]),)),
        grp.regular_rep(c3, F2),
        grp.perm_rep(s3(), F3),
    ]


def test_norton_and_iso_match_eager_factoring_on_chopped_modules(against_eager):
    for m in _modules_chopped_above():
        rep.chop(m, 1)
        rep.composition_series(m, 1)
    assert against_eager["norton"] >= 30 and against_eager["iso"] >= 5


def test_iso_pairs_match_eager_factoring(against_eager):
    c = c3_two_dim()
    t = gfla.FqMatrix(F2, [[1, 1], [0, 1]])
    conj = rep.Representation(F2, 2, (gfla.mat_mul(gfla.mat_mul(t, c.gens[0]), gfla.inverse(t)),), "conj")
    sq = rep.Representation(F2, 2, (gfla.mat_mul(c.gens[0], c.gens[0]),), "sq")
    pairs = [(c, c), (c, trivial(F2)), (c, conj), (c, sq), (c, rep.tensor(c, trivial(F2))),
             (c, rep.dual(rep.dual(c)))]
    for a, b in pairs:
        rep.iso(a, b, 1)
    assert against_eager["iso"] == len(pairs)


def s4():
    return grp.enumerate_group([grp.perm_from_cycles(4, [(1, 2)]), grp.perm_from_cycles(4, [(1, 2, 3, 4)])])


def a5():
    return grp.enumerate_group([grp.perm_from_cycles(5, [(1, 2, 3)]), grp.perm_from_cycles(5, [(1, 2, 3, 4, 5)])])


def _tensor_closure(name, p):
    """The simples of S4 or A5 over GF(p^2), one per p-regular class."""
    g = s4() if name == "S4" else a5()
    cls = grp.conjugacy_classes(g, p)
    reps = [x for x, regular in zip(cls.reps, cls.p_regular(p)) if regular]
    simples = ctab._tensor_closure(g, gfla.field_make(p, 2), reps, 1)
    assert len(simples) == len(reps)
    return simples


@pytest.mark.parametrize("name,p", [("S4", 2), ("S4", 3), ("A5", 2), ("A5", 3)])
def test_norton_and_iso_match_eager_factoring_in_tensor_closure(against_eager, name, p):
    """The closure splits by Norton's test alone: no iso call inside it."""
    count = len(_tensor_closure(name, p))
    assert against_eager["norton"] > count and against_eager["iso"] == 0


@pytest.mark.parametrize("name,p", [("S4", 3), ("A5", 2), ("A5", 3)])
def test_norton_spins_each_factor_once(monkeypatch, name, p):
    """Within one is_irreducible call every factor f evaluated as f(w) seeds
    one spin, and at most one more spin is of the transposed module."""
    counts = {"spin": 0, "eval": 0}
    per_call = []
    spin, eval_matrix, norton = rep.spin, gfla.FqPolynomial.eval_matrix, rep.is_irreducible

    def counted(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    def counted_norton(r, seed=1):
        spins, evals = counts["spin"], counts["eval"]
        got = norton(r, seed)
        per_call.append((counts["spin"] - spins, counts["eval"] - evals))
        return got

    monkeypatch.setattr(rep, "spin", counted("spin", spin))
    monkeypatch.setattr(gfla.FqPolynomial, "eval_matrix", counted("eval", eval_matrix))
    monkeypatch.setattr(rep, "is_irreducible", counted_norton)
    _tensor_closure(name, p)
    assert per_call and all(spins <= evals + 1 for spins, evals in per_call)


@pytest.mark.parametrize("copies", [2, 3])
def test_chop_splits_repeated_factors(copies):
    """On S^k, S the 3-dimensional simple of S4 over GF(3), the nullity of
    every factor f is k times its nullity on S, so above deg f: no factor
    certifies, and each split comes from the one kernel vector seeding f."""
    simple = next(f for f, _m in rep.chop(grp.perm_rep(s4(), F3), 1) if f.dim == 3)
    gens = tuple(rep._direct_sum(*[g] * copies) for g in simple.gens)
    total = rep.Representation(F3, 3 * copies, gens, f"S^{copies}")
    for seed in range(1, 9):
        factors = rep.chop(_conjugate(total, seed), 1)
        assert [(f.dim, m) for f, m in factors] == [(3, copies)]
        assert rep.iso(factors[0][0], simple, 1) is not None


@pytest.mark.parametrize("name,p", [("A4", 2), ("S3", 3)])
def test_iso_matches_standard_basis_on_a_condensed_regular_chop(against_eager, name, p):
    """As the condense workload does: chop the regular module over GF(p^2)
    and find each Brauer simple among its factors."""
    if name == "A4":
        g = grp.enumerate_group([grp.perm_from_cycles(4, [(1, 2), (3, 4)]), grp.perm_from_cycles(4, [(1, 2, 3)])])
    else:
        g = s3()
    _tbr, simples = ctab.brauer_data(g, p)
    F = gfla.field_make(p, 2)
    factors = rep.chop(grp.regular_rep(g, F), 1)
    for s in simples:
        assert sum(rep.iso(f, s, 1) is not None for f, _m in factors) == 1
    assert against_eager["iso"] >= len(simples) * len(factors)


def test_iso_moves_on_from_a_seed_that_does_not_generate(monkeypatch):
    """On S (+) T with S, T non-isomorphic simples every usable kernel lies in
    one summand (the nullity of f(w) on each summand is a multiple of deg f),
    so no seed generates: each word is passed over, and both tests end
    Undecided instead of answering None."""
    g = gfla.FqMatrix(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 1]])
    a = rep.Representation(F2, 3, (g,), "1+2")
    spun = []
    spin = rep.spin

    def recording_spin(r, seeds):
        out = spin(r, seeds)
        spun.append(out)
        return out

    monkeypatch.setattr(rep, "spin", recording_spin)
    with pytest.raises(Undecided):
        rep.iso(a, a, 1)
    with pytest.raises(Undecided):
        oracles.iso_standard_basis(a, a, 1)
    # every spin here is rep.iso's, in a (+) a^d: each left block has rank below dim a
    assert spun and all(S.arr[:, : a.dim].any(axis=1).sum() < a.dim for S in spun)


def _path_algebra_modules():
    """Over the algebra of upper triangular 2x2 matrices (generators e2, e1
    and the arrow a): the projective P1 (top S1, socle S2) and S1 (+) S2."""
    e1, e2, a = (gfla.FqMatrix(F2, m) for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]))
    proj = rep.Representation(F2, 2, (e2, e1, a), "P1")
    semi = rep.Representation(F2, 2, (e2, e1, gfla.FqMatrix.zeros(F2, 2, 2)), "S1+S2")
    return proj, semi


def test_iso_refuses_a_singular_homomorphism_from_a_generating_seed(monkeypatch):
    """The first word, e2, has the kernel vector p1 on P1, which generates P1.
    The spin of (p1, s1) in P1 (+) S1 is the graph of P1 -> S1, [I | H] with
    H of rank 1, so the only solution c fails, and the answer is None at
    once: one spin, no further word."""
    proj, semi = _path_algebra_modules()
    spins = []
    spin = rep.spin
    monkeypatch.setattr(rep, "spin", lambda r, seeds: spins.append(r.dim) or spin(r, seeds))
    assert rep.iso(proj, semi, 1) is None
    assert spins == [4]
    assert oracles.iso_standard_basis(proj, semi, 1) is None


def test_iso_needs_the_seed_itself_to_generate():
    """From S1 (+) S2 to P1 the spin of (s1, p1) has dim S1 (+) S2 rows
    but a left block of rank 1: s1 does not generate, so that word is passed
    over, and no later seed generates S1 (+) S2 either."""
    proj, semi = _path_algebra_modules()
    with pytest.raises(Undecided):
        rep.iso(semi, proj, 1)
    with pytest.raises(Undecided):
        oracles.iso_standard_basis(semi, proj, 1)


def _conjugate(r, seed):
    """r with every generator conjugated by one seeded invertible matrix."""
    F = r.field
    rng = np.random.default_rng(seed)
    t = gfla.FqMatrix(F, rng.integers(0, F.q, (r.dim, r.dim)))
    while gfla.rank(t) < r.dim:
        t = gfla.FqMatrix(F, rng.integers(0, F.q, (r.dim, r.dim)))
    tinv = gfla.inverse(t)
    return rep.Representation(F, r.dim, tuple(gfla.mat_mul(gfla.mat_mul(t, g), tinv) for g in r.gens), "conj")


def _s5_four_dim_gf1009():
    F = gfla.field_make(1009, 1)
    cycles = ([(1, 2, 3, 4, 5)], [(1, 2)])
    nat = rep.Representation(F, 5, tuple(grp.perm_matrices([grp.perm_from_cycles(5, c) for c in cycles], F)), "nat")
    return next(f for f, _m in rep.chop(nat, 1) if f.dim == 4)


@pytest.mark.parametrize("simple", [_s5_four_dim_gf1009, c3_two_dim], ids=["S5-4-GF1009", "C3-2-GF2"])
def test_iso_spins_once(monkeypatch, simple):
    """One spin in a (+) b^d decides iso, whatever the size of ker_b: on the
    S5 pair the first usable factor has degree 2, and a walk over the 1010
    projective points of ker_b took 524 graph spins to reach the
    intertwiner; on C3's simple over GF(2) End is GF(4), so every c in the
    plane GF(2)^2 extends and the first RREF row is taken."""
    a = simple()
    b = _conjugate(a, 5)
    spins = []
    spin = rep.spin
    monkeypatch.setattr(rep, "spin", lambda r, seeds: spins.append(r.dim) or spin(r, seeds))
    H = rep.iso(a, b, 1)
    assert len(spins) == 1
    assert H is not None and H == oracles.iso_full(a, b, 1)
    # the point walk's first valid point is the first RREF row of C
    assert H == oracles.iso_standard_basis(a, b, 1)
    assert all(gfla.mat_mul(ga, H) == gfla.mat_mul(H, gb) for ga, gb in zip(a.gens, b.gens))


def test_iso_of_a_generating_non_simple_pair_matches_the_point_walk(monkeypatch):
    """P1 is not simple, but the seed p1 generates it, so End(P1) embeds in
    a field and the one spin gives the point walk's answer: against a
    conjugate of P1 the intertwiner, against S1 (+) S2 None."""
    proj, semi = _path_algebra_modules()
    spins = []
    spin = rep.spin
    monkeypatch.setattr(rep, "spin", lambda r, seeds: spins.append(r.dim) or spin(r, seeds))
    for seed in range(1, 6):
        conj = _conjugate(proj, seed)
        spins.clear()
        H = rep.iso(proj, conj, 1)
        assert len(spins) == 1
        assert H is not None and H == oracles.iso_standard_basis(proj, conj, 1)
        assert all(gfla.mat_mul(ga, H) == gfla.mat_mul(H, gb) for ga, gb in zip(proj.gens, conj.gens))
        assert rep.iso(proj, _conjugate(semi, seed), 1) is None
        assert oracles.iso_standard_basis(proj, _conjugate(semi, seed), 1) is None


def test_word_evaluate_starts_each_term_at_its_first_generator(monkeypatch):
    """One product per generator after the first of each term; an empty term
    is the identity; an index out of range is refused wherever it stands."""
    reg = grp.regular_rep(s3(), F4)
    a, b = (g.arr for g in reg.gens)
    word = rep.AlgebraWord(((2, (0, 1, 1)), (3, ()), (1, (1,))))
    calls = []
    matmul = gfla.FieldSpec.matmul
    monkeypatch.setattr(gfla.FieldSpec, "matmul", lambda self, x, y: calls.append(1) or matmul(self, x, y))
    got = word.evaluate(reg)
    assert len(calls) == 2
    monkeypatch.undo()
    abb = F4.matmul(F4.matmul(a, b), b)
    want = F4.add(F4.add(F4.mul(np.int64(2), abb), F4.mul(np.int64(3), np.eye(6, dtype=np.int64))), b)
    assert got == gfla.FqMatrix(F4, want)
    assert rep.AlgebraWord(((1, ()),)).evaluate(reg) == gfla.FqMatrix.identity(F4, 6)
    for idxs in ((2,), (0, 2), (1, 0, 5)):
        with pytest.raises(GeneratorCountMismatch):
            rep.AlgebraWord(((1, idxs),)).evaluate(reg)
