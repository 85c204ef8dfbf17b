"""Condensation: idempotents, element/permutation/tensor routes, uncondense."""

import numpy as np
import pytest

from modchar import cond, ctab, gfla, grp, rep
from modchar.cyclo import Cyclotomic
from modchar.errors import FusionIncomplete, NotInImage, OrderDivisibleByP

F2 = gfla.field_make(2, 1)
F4 = gfla.field_make(2, 2)


def s4():
    return grp.enumerate_group([grp.perm_from_cycles(4, [(1, 2)]), grp.perm_from_cycles(4, [(1, 2, 3, 4)])])


def setup_s4_c3():
    g = s4()
    nat = grp.perm_rep(g, F2)
    k = grp.perm_from_cycles(4, [(1, 2, 3)])
    km = grp.element_matrix(g, nat, k)
    return g, nat, k, cond.make_idempotent(nat, [km])


def test_make_idempotent_examples():
    g, nat, k, setup = setup_s4_c3()
    assert setup.rank == 2
    assert setup.subgroup_order == 3
    assert gfla.mat_mul(setup.projector, setup.projector) == setup.projector
    # trivial K: e is the identity
    triv = cond.make_idempotent(nat, [])
    assert triv.rank == 4
    # regular module of C3 over GF(4) condensed at the full group: rank 1
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    reg = grp.regular_rep(c3, F4)
    s = cond.make_idempotent(reg, [reg.gens[0]])
    assert s.rank == 1
    # order divisible by p refused
    with pytest.raises(OrderDivisibleByP):
        cond.make_idempotent(nat, [grp.element_matrix(g, nat, grp.perm_from_cycles(4, [(1, 2)]))])


def test_condense_element_examples():
    g, nat, k, setup = setup_s4_c3()
    ident = gfla.FqMatrix.identity(F2, 4)
    assert cond.condense_element(setup, ident) == gfla.FqMatrix.identity(F2, 2)
    km = grp.element_matrix(g, nat, k)
    assert cond.condense_element(setup, km) == gfla.FqMatrix.identity(F2, 2)
    g34 = grp.element_matrix(g, nat, grp.perm_from_cycles(4, [(3, 4)]))
    ce = cond.condense_element(setup, g34)
    # direct projector-sandwich verification
    ege = gfla.mat_mul(gfla.mat_mul(setup.projector, g34), setup.projector)
    img = gfla.mat_mul(setup.image_basis, ege)
    assert np.array_equal(ce.arr, img.arr[:, list(setup.pivots)])


def test_condense_perm_matches_element_route():
    g, nat, k, setup = setup_s4_c3()
    elems = [grp.perm_from_cycles(4, [(3, 4)]), grp.perm_from_cycles(4, [(1, 2, 3, 4)])]
    mats, orbits = cond.condense_perm(F2, 4, [k], elems)
    assert orbits == [[0, 1, 2], [3]]
    for e, m in zip(elems, mats):
        em = grp.element_matrix(g, nat, e)
        assert cond.condense_element(setup, em) == m
    # trivial K gives back permutation matrices
    mats, orbits = cond.condense_perm(F2, 4, [], elems)
    for e, m in zip(elems, mats):
        assert m == grp.perm_matrices([e], F2)[0]
    # cosets of H condensed at K = H: basis indexed by the double cosets
    h = [grp.perm_from_cycles(4, [(1, 2, 3)])]
    act = grp.coset_action(g, h)
    _, orbs = cond.condense_perm(F2, act.degree, _restrict_perms(g, h, act), list(act.perms))
    assert len(orbs) == len(grp.double_cosets(g, h))


def _restrict_perms(g, sub_gens, act):
    """Images of the subgroup generators inside the coset action."""
    idx = {k: i for i, k in enumerate(act.coset_reps)}
    out = []
    h = grp.subgroup_elements(g, sub_gens)
    key_of = {}
    for e in g.elements:
        coset = sorted(grp.perm_mul(x, e) for x in h)
        key_of[e] = coset[0]
    for s in sub_gens:
        out.append(tuple(idx[key_of[grp.perm_mul(k, s)]] for k in act.coset_reps))
    return out


def test_condense_tensor_examples():
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    nat = grp.perm_rep(c3, F4)
    w = rep.AlgebraWord(((1, (0,)),))
    # naive route for comparison
    big = rep.tensor(nat, nat)
    kk = gfla.mat_kron(nat.gens[0], nat.gens[0])
    setup = cond.make_idempotent(big, [kk])
    naive = cond.condense_element(setup, kk)
    fancy = cond.condense_tensor(nat, nat, [w], w)
    assert naive == fancy
    # b trivial: reduces to condense_element on a
    triv = rep.Representation(F4, 1, (gfla.FqMatrix.identity(F4, 1),))
    m1 = cond.condense_tensor(nat, triv, [w], w)
    setup_a = cond.make_idempotent(nat, [nat.gens[0]])
    m2 = cond.condense_element(setup_a, nat.gens[0])
    assert m1 == m2
    # flip symmetry: a(x)b and b(x)a condense to conjugate algebras
    two = rep.Representation(
        F4, 2, (gfla.FqMatrix(F4, [[0, 1], [1, 1]]),)
    )
    ab = cond.condense_tensor(nat, two, [w], w)
    ba = cond.condense_tensor(two, nat, [w], w)
    assert gfla.char_poly(ab) == gfla.char_poly(ba)


def test_uncondense_examples():
    g, nat, k, setup = setup_s4_c3()
    # the orbit-sum of the fixed point {4} spins to the whole natural module
    u = gfla.FqMatrix(F2, [[0, 1]])
    unc = cond.uncondense(setup, u)
    assert unc.rows == 4
    zero = cond.uncondense(setup, gfla.FqMatrix.zeros(F2, 0, 2))
    assert zero.rows == 0
    # trivial module: Ve -> whole module
    triv_rep = rep.Representation(F2, 1, tuple(gfla.FqMatrix.identity(F2, 1) for _ in range(2)))
    s2 = cond.make_idempotent(triv_rep, [])
    out = cond.uncondense(s2, gfla.FqMatrix.identity(F2, 1))
    assert out.rows == 1
    # ambient rows are accepted, with a membership check
    amb = cond.uncondense(setup, setup.image_basis)
    assert amb.rows == 4
    with pytest.raises(NotInImage):
        cond.uncondense(setup, gfla.FqMatrix(F2, [[1, 0, 0, 0]]))


def test_condensed_dim_examples():
    g = s4()
    t = ctab.ordinary_table(g)
    cls = grp.conjugacy_classes(g)
    # natural permutation character
    vals = tuple(
        Cyclotomic.from_rational(sum(1 for i in range(4) if r[i] == i)) for r in cls.reps
    )
    permchar = ctab.Character(vals, "ordinary", "nat")
    k = grp.perm_from_cycles(4, [(1, 2, 3)])
    kgrp = grp.enumerate_group([k])
    kcls = grp.conjugacy_classes(kgrp)
    fusion = tuple(cls.class_of[r] for r in kcls.reps)
    assert cond.condensed_dim(t, permchar, kcls.sizes, fusion) == 2
    # trivial K: chi(1)
    assert cond.condensed_dim(t, permchar, (1,), (0,)) == 4
    # regular character with any K: |G| / |K|
    regvals = tuple(
        Cyclotomic.from_rational(24 if i == 0 else 0) for i in range(t.nclasses)
    )
    regchar = ctab.Character(regvals, "ordinary", "reg")
    assert cond.condensed_dim(t, regchar, kcls.sizes, fusion) == 8


def test_condensed_dim_checks_fusion_against_the_table():
    """Fusion targets must be classes of the table, and chi must have one
    value per class: -1 used to read the last class, 5 an IndexError."""
    c2 = grp.enumerate_group([grp.perm_from_cycles(2, [(1, 2)])])
    t = ctab.ordinary_table(c2)
    two = Cyclotomic.from_rational(2)
    reg = ctab.Character((two, Cyclotomic.zero()), "ordinary", "reg")
    assert cond.condensed_dim(t, reg, (1,), (0,)) == 2
    for fusion in ((-1,), (5,), (0, 2)):
        with pytest.raises(FusionIncomplete):
            cond.condensed_dim(t, reg, (1,) * len(fusion), fusion)
    with pytest.raises(FusionIncomplete):
        cond.condensed_dim(t, ctab.Character((two,), "ordinary", "short"), (1,), (0,))


def test_rank_equals_condensed_dim():
    g, nat, k, setup = setup_s4_c3()
    t = ctab.ordinary_table(g)
    cls = grp.conjugacy_classes(g)
    vals = tuple(
        Cyclotomic.from_rational(sum(1 for i in range(4) if r[i] == i)) for r in cls.reps
    )
    permchar = ctab.Character(vals, "ordinary", "nat")
    kgrp = grp.enumerate_group([k])
    kcls = grp.conjugacy_classes(kgrp)
    fusion = tuple(cls.class_of[r] for r in kcls.reps)
    assert setup.rank == cond.condensed_dim(t, permchar, kcls.sizes, fusion)


def test_condensing_series_termwise():
    """Condensing a composition series termwise gives a chain in Ve whose
    layers are simple or zero."""
    g = s4()
    nat = grp.perm_rep(g, F2)
    k = grp.perm_from_cycles(4, [(1, 2, 3)])
    setup = cond.make_idempotent(nat, [grp.element_matrix(g, nat, k)])
    series = rep.composition_series(nat, 1)
    all_elems = [grp.element_matrix(g, nat, e) for e in g.elements]
    slice_full = cond.condensed_algebra(setup, all_elems, known_full=True)
    ve = rep.Representation(F2, setup.rank, slice_full.matrices, "Ve")
    # image of each chain space inside Ve, in image-basis coordinates
    prev_rank = 0
    prev_basis = gfla.FqMatrix.zeros(F2, 0, setup.rank)
    for link in series.chain:
        image = gfla.mat_mul(gfla.FqMatrix(F2, link.arr), setup.projector)
        coords = gfla.row_space(
            gfla.FqMatrix(F2, image.arr[:, list(setup.pivots)])
        )
        # the chain stays nested and each layer is simple or zero
        layer = coords.rows - prev_rank
        assert layer >= 0
        if layer > 0 and prev_rank > 0:
            sub, quot = rep.split(ve, coords)
            inner = gfla.FqMatrix(F2, prev_basis.arr[:, list(gfla.echelonize(coords).pivots)])
            _s, factor = rep.split(sub, inner)
            assert rep.is_irreducible(factor, 1)[0]
        elif layer > 0:
            sub, _q = rep.split(ve, coords)
            assert rep.is_irreducible(sub, 1)[0]
        prev_rank = coords.rows
        prev_basis = coords
