"""Permutation scaffolding tests."""

import pytest

from modchar import gfla, grp
from modchar.errors import NotAGroup, NotSubgroup


def s3():
    return grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2)]), grp.perm_from_cycles(3, [(1, 2, 3)])])


def test_enumerate_examples():
    c2 = grp.enumerate_group([grp.perm_from_cycles(2, [(1, 2)])])
    assert c2.order == 2
    s5 = grp.enumerate_group(
        [grp.perm_from_cycles(5, [(1, 2, 3, 4, 5)]), grp.perm_from_cycles(5, [(1, 2)])]
    )
    assert s5.order == 120
    triv = grp.enumerate_group([grp.perm_identity(4)])
    assert triv.order == 1


def test_words_evaluate():
    g = s3()
    f = gfla.field_make(5, 1)
    nat = grp.perm_rep(g, f)
    for e in g.elements:
        m = grp.element_matrix(g, nat, e)
        for i, j in enumerate(e):
            assert m.arr[i, j] == 1


def test_classes_s3():
    cls = grp.conjugacy_classes(s3(), 3)
    assert cls.count == 3
    assert sum(cls.sizes) == 6
    regs = cls.p_regular(3)
    assert sum(regs) == 2
    assert sorted(s for s, r in zip(cls.sizes, regs) if r) == [1, 3]
    assert cls.orders[0] == 1  # identity class first


def test_classes_c2_a4():
    c2 = grp.enumerate_group([grp.perm_from_cycles(2, [(1, 2)])])
    cls = grp.conjugacy_classes(c2, 2)
    assert cls.count == 2 and sum(cls.p_regular(2)) == 1
    a4 = grp.enumerate_group(
        [grp.perm_from_cycles(4, [(1, 2), (3, 4)]), grp.perm_from_cycles(4, [(1, 2, 3)])]
    )
    cls = grp.conjugacy_classes(a4, 2)
    assert cls.count == 4
    assert sum(cls.p_regular(2)) == 3


def test_class_count_matches_simple_count():
    # number of p-regular classes = number of simples over the splitting field
    from modchar import ctab

    for gens, n, p in [
        ([[(1, 2)], [(1, 2, 3)]], 3, 3),
        ([[(1, 2), (3, 4)], [(1, 2, 3)]], 4, 2),
        ([[(1, 2, 3, 4, 5)], [(3, 4, 5)]], 5, 2),
    ]:
        g = grp.enumerate_group([grp.perm_from_cycles(n, c) for c in gens])
        cls = grp.conjugacy_classes(g, p)
        table, simples = ctab.brauer_data(g, p)
        assert sum(cls.p_regular(p)) == len(simples)


def test_coset_action():
    g = s3()
    whole = grp.coset_action(g, list(g.gens))
    assert whole.degree == 1
    regular = grp.coset_action(g, [grp.perm_identity(3)])
    assert regular.degree == 6
    s4 = grp.enumerate_group([grp.perm_from_cycles(4, [(1, 2)]), grp.perm_from_cycles(4, [(1, 2, 3, 4)])])
    sub = [grp.perm_from_cycles(4, [(1, 2)]), grp.perm_from_cycles(4, [(1, 2, 3)])]
    act = grp.coset_action(s4, sub)
    assert act.degree == 4
    # the image is a transitive action of S4 on 4 points
    img = grp.enumerate_group(act.perms)
    assert img.order == 24
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    with pytest.raises(NotSubgroup):
        grp.coset_action(c3, [grp.perm_from_cycles(3, [(1, 2)])])


def test_double_cosets():
    g = s3()
    whole = grp.double_cosets(g, list(g.gens))
    assert len(whole) == 1
    triv = grp.double_cosets(g, [grp.perm_identity(3)])
    assert len(triv) == 6
    h = [grp.perm_from_cycles(3, [(1, 2)])]
    dcs = grp.double_cosets(g, h)
    assert sorted(size for _, size in dcs) == [2, 4]
    assert sum(size for _, size in dcs) == g.order


def test_perm_and_regular_rep():
    F2 = gfla.field_make(2, 1)
    c2 = grp.enumerate_group([grp.perm_from_cycles(2, [(1, 2)])])
    reg = grp.regular_rep(c2, F2)
    assert reg.dim == 2
    assert reg.gens[0].arr.tolist() == [[0, 1], [1, 0]]
    F3 = gfla.field_make(3, 1)
    nat = grp.perm_rep(s3(), F3)
    assert nat.dim == 3


def test_non_permutations_are_refused():
    """Cycle points outside 1..n or repeated across cycles, and generators
    that do not permute 0..n-1, raise NotAGroup."""
    assert grp.perm_from_cycles(4, [(1, 2), (3, 4)]) == (1, 0, 3, 2)
    assert grp.perm_from_cycles(3, [(2,), ()]) == (0, 1, 2)
    for cycles in ([(0, 1, 2)], [(1, 2), (2, 3)], [(1, 4)], [(1, 2, 1)]):
        with pytest.raises(NotAGroup):
            grp.perm_from_cycles(3, cycles)
    for gens in ([(1, -1, 0)], [(1, 2, 1)], [(0, 1, 2), (1, 1, 0)], [(0, 3, 1)]):
        with pytest.raises(NotAGroup):
            grp.enumerate_group(gens)
