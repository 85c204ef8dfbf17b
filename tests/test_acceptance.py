"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and enforcing the stated budget and exact tolerances."""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from modchar import cond, ctab, dxm, gfla, grp, rep
from modchar.cli import verify_fixture_matrix
from modchar.fixtures import load

PASS_LINES = []


def report(num, label, t0, budget):
    elapsed = time.time() - t0
    line = f"ACCEPTANCE {num} ({label}): PASS in {elapsed:.2f}s (budget {budget}s)"
    PASS_LINES.append(line)
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def make_group(name):
    cycles = {
        "S3": (3, [[(1, 2)], [(1, 2, 3)]]),
        "A4": (4, [[(1, 2), (3, 4)], [(1, 2, 3)]]),
        "S4": (4, [[(1, 2)], [(1, 2, 3, 4)]]),
        "A5": (5, [[(1, 2, 3, 4, 5)], [(3, 4, 5)]]),
    }
    n, gens = cycles[name]
    return grp.enumerate_group([grp.perm_from_cycles(n, c) for c in gens])


# ---------------------------------------------------------------------------
# 1. Gram-equation uniqueness
# ---------------------------------------------------------------------------


def test_criterion_1_cartan_uniqueness():
    t0 = time.time()
    fx = load("hn_mod3_e_cartan")
    sols = dxm.dtd_solve(dxm.CartanInstance(fx.matrix, fx.meta_int("k")))
    assert len(sols) == 1
    expected = tuple(sorted(load("hn_mod3_e_dec").matrix, reverse=True))
    assert sols[0] == expected
    report(1, "Cartan-equation uniqueness", t0, 5)


# ---------------------------------------------------------------------------
# 2. Semidihedral-16 reproduction
# ---------------------------------------------------------------------------


def test_criterion_2_sd16():
    t0 = time.time()
    fx = load("hn_mod2_b1")
    p = fx.meta_int("p")
    nu_g, n = 0, fx.meta_int("grouporder")
    while n % p == 0:
        n //= p
        nu_g += 1
    base = nu_g - fx.meta_int("defect")

    def height(d):
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        return v - base

    inst = dxm.SD16Instance(
        tuple((lbl, deg, height(deg)) for lbl, deg in zip(fx.row_labels, fx.row_degrees))
    )
    res = dxm.sd16_analyze(inst)
    assert res.deltas == (1, -1, -1, 1)
    assert res.labeling == ("37", "17", "49", "45")
    assert res.matrix == fx.matrix
    report(2, "SD16 reproduction", t0, 1)


# ---------------------------------------------------------------------------
# 3. Fitting pipeline
# ---------------------------------------------------------------------------


def _proj_state(name, ncols=None):
    fx = load(name)
    ncols = ncols if ncols is not None else fx.l
    cols = tuple(
        dxm.ProjectiveColumn(
            lbl,
            dxm._vec([r[j] for r in fx.matrix]),
            bool(fx.indecomposable and fx.indecomposable[j]),
        )
        for j, lbl in enumerate(fx.col_labels[:ncols])
    )
    state = dxm.DecompState(
        fx.name, fx.row_labels, fx.row_degrees, fx.basic_row_indices(), cols
    )
    return fx, state


def test_criterion_3_fitting_pipeline():
    t0 = time.time()
    fxa, state_a = _proj_state("hn_mod3_b1_proj_a", 7)
    e = load("hn_mod3_e_dec")
    reg_mult = tuple(r[7] for r in fxa.matrix)
    problem = dxm.FittingProblem(e.matrix, e.row_degrees, reg_mult, ((0, 0), (6, 7)))
    survivors = dxm.fitting_match(state_a, problem)
    assert len(survivors) == 1, "the Fitting matching must be unique"
    assignment, pim_cols = survivors[0]
    assert {k: fxa.row_labels[v] for k, v in assignment.items()} == {
        0: "8", 1: "10", 2: "32", 3: "33", 4: "37", 5: "43", 6: "49", 7: "50"
    }
    fxb, state_b = _proj_state("hn_mod3_b1_proj_b", 7)
    pim_positions = [j for j, f in enumerate(fxb.indecomposable) if f]
    for col, j in zip(pim_cols, pim_positions):
        assert tuple(int(x) for x in col) == tuple(r[j] for r in fxb.matrix)
    # refinement by the recorded product projective
    psi_prime = dxm._vec([r[7] for r in fxb.matrix])
    refined = dxm.refine_by_relation(state_b, "X", psi_prime)
    fxc, state_c = _proj_state("hn_mod3_b1_proj_c")
    got = [tuple(int(x) for x in c.coeffs) for c in refined.proj_basic]
    want = [tuple(r[j] for r in fxc.matrix) for j in range(7)]
    assert got == want, "refinement must produce the third basic set"
    enumerated = dxm.enumerate_candidates(refined)
    assert len(enumerated.candidates) == 44
    report(3, "Fitting pipeline 44 candidates", t0, 10)


# ---------------------------------------------------------------------------
# 4. Atom elimination endgame
# ---------------------------------------------------------------------------


def test_criterion_4_atom_endgame():
    t0 = time.time()
    _fxc, state = _proj_state("hn_mod3_b1_proj_c")
    state = dxm.enumerate_candidates(state)
    state = dxm.import_known_brauer(
        state, {0: 8910, 1: 16929, 2: 270864, 3: 1159191, 4: 1305072}
    )
    assert len(state.candidates) == 10
    atom_fx = load("hn_mod3_b1_atom")
    degs = [int(t) for t in atom_fx.sections["basicdegrees"][0]]
    bvecs = []
    for payload in atom_fx.sections["bvec"]:
        toks = list(payload)
        sep = toks.index(":")
        bvecs.append(dxm._vec([int(t) for t in toks[sep + 1 :]]))
    ats = dxm.atoms(dxm.AtomProblem(atom_fx.matrix, tuple(bvecs)))
    atom_degree = sum(int(c) * d for c, d in zip(ats[2], degs))
    assert atom_degree == 3362391
    state = dxm.eliminate_by_atom(state, atom_degree, 6)
    assert len(state.candidates) == 1
    final = load("hn_mod3_b1")
    assert state.candidates[0] == final.matrix
    degrees = [int(d) for d in dxm.candidate_brauer_degrees(state, state.candidates[0])]
    assert degrees == [8910, 16929, 270864, 1159191, 1305072, 40338, 3362391]
    # final verification gate with back-substituted Brauer characters
    bold = final.basic_row_indices()
    Db = [[final.matrix[i][j] for j in range(final.l)] for i in bold]
    Dbinv = dxm.invert_rational(Db)
    phis = [tuple(Dbinv[j][i] for i in range(final.l)) for j in range(final.l)]
    chis = []
    for i in range(final.k):
        acc = [Fraction(0)] * final.l
        for j in range(final.l):
            if final.matrix[i][j]:
                acc = [x + final.matrix[i][j] * y for x, y in zip(acc, phis[j])]
        chis.append(tuple(acc))
    assert dxm.verify_matrix(final.matrix, chis, phis)
    report(4, "atom elimination endgame", t0, 5)


# ---------------------------------------------------------------------------
# 5. Clifford construction
# ---------------------------------------------------------------------------


def _clifford_check(src_name, dst_name):
    src = load(src_name)
    dst = load(dst_name)
    block = ctab.BlockDecomposition(
        src.meta.get("block", src.name), src.meta_int("p"),
        src.row_labels, src.row_degrees, src.matrix, src.col_degrees,
    )
    plan = []
    pairs = []
    seen_pairs = set()
    for extra in dst.row_extra:
        srcfield = extra[0]
        if "+" in srcfield:
            a, b = srcfield.split("+")
            pr = (src.row_labels.index(a), src.row_labels.index(b))
            if pr not in seen_pairs:
                seen_pairs.add(pr)
                pairs.append(pr)
            plan.append(("fuse", pr))
        else:
            plan.append(("ext", src.row_labels.index(srcfield)))
    res = ctab.clifford_index2(block, src.col_pairs, tuple(pairs), tuple(plan))
    out = res.blocks[0]
    assert out.matrix == dst.matrix, f"{dst_name}: row-for-row mismatch"
    assert out.row_degrees == dst.row_degrees
    assert out.col_degrees == dst.col_degrees
    return out


def test_criterion_5_clifford():
    t0 = time.time()
    out = _clifford_check("hn_mod2_b0", "hn_mod2_b0_hn2")
    assert out.l == 12 and out.k == 63
    out = _clifford_check("hn_mod2_b1", "hn_mod2_b1_hn2")
    assert out.l == 3 and out.k == 13
    # the defect-0 block of HN gives the defect-1 block of HN.2
    b2 = ctab.BlockDecomposition("B2", 2, ("46",), (3424256,), ((1,),), (3424256,))
    res = ctab.clifford_index2(b2, (), (), (("ext", 0), ("ext", 0)))
    fx2 = load("hn_mod2_b2_hn2")
    assert res.blocks[0].matrix == fx2.matrix
    # covering blocks at p = 3 are Morita equivalent to the covered block
    fx16 = load("hn_mod3_b1")
    m = ctab.BlockDecomposition("B1", 3, fx16.row_labels, fx16.row_degrees, fx16.matrix, fx16.col_degrees)
    res = ctab.clifford_index2(m, (), (), morita_split=True)
    assert len(res.blocks) == 2
    assert all(b.matrix == fx16.matrix for b in res.blocks)
    # the remaining published extension data passes the verification gate
    for name in ("hn_mod2_b1_hn2", "hn_mod2_b2_hn2", "hn_mod3_b0_hn2"):
        assert verify_fixture_matrix(load(name)), name
    report(5, "Clifford construction", t0, 5)


# ---------------------------------------------------------------------------
# 6. Desk-scale end-to-end decomposition
# ---------------------------------------------------------------------------

DESK_CASES = [("S3", 3), ("A4", 2), ("A5", 2), ("S4", 2), ("S4", 3)]


def desk_decomposition(gname, p, seed=1):
    g = make_group(gname)
    tord = ctab.ordinary_table(g, seed)
    tbr, simples = ctab.brauer_data(g, p, seed)
    rt = ctab.restrict_table(tord, p)
    assert rt.nclasses == tbr.nclasses
    D = []
    for ch in rt.characters:
        coeffs = ctab.decompose_basic(list(tbr.characters), ch)
        assert all(c >= 0 for c in coeffs)
        D.append(tuple(coeffs))
    return g, tord, tbr, simples, D


def test_criterion_6_desk_scale():
    t0 = time.time()
    for gname, p in DESK_CASES:
        g, tord, tbr, simples, D = desk_decomposition(gname, p)
        field = gfla.field_make(p, 2)
        # number of simples = number of p-regular classes
        cls = grp.conjugacy_classes(g, p)
        assert len(simples) == sum(cls.p_regular(p))
        # independent oracle: projective covers and hom-dimension Cartan
        covers = oracles.projective_covers(g, field, list(simples))
        C_oracle = oracles.cartan_from_covers(covers)
        k, l = len(D), len(simples)
        DtD = [[sum(D[i][a] * D[i][b] for i in range(k)) for b in range(l)] for a in range(l)]
        assert DtD == C_oracle, f"{gname} p={p}: D^T D differs from the Cartan oracle"
        # column identity: sum of chi(1) d_{chi,j} = dim of the j-th cover
        for j in range(l):
            total = sum(tord.characters[i].degree_int() * D[i][j] for i in range(k))
            assert total == covers[j].dim, f"{gname} p={p}: column {j} mass"
        # multiplicity oracle on the regular module
        reg = grp.regular_rep(g, field)
        mults = oracles.multiplicity_oracle(covers, reg)
        assert mults == [c.dim for c in covers]
    # exhaustive submodule enumeration where the lattice is desk-sized
    for gname, p, expected in [("S3", 3, [3, 3]), ("A4", 2, [4, 4, 4])]:
        g = make_group(gname)
        field = gfla.field_make(p, 2)
        _t, simples = ctab.brauer_data(g, p)
        reg = grp.regular_rep(g, field)
        subs = oracles.all_submodules(reg, list(simples))
        counts = oracles.maximal_chain_factors(reg, subs, list(simples))
        assert counts == expected
        # each simple's multiplicity in chop(reg), its factor found by isomorphism
        factors = rep.chop(reg, 1)
        assert counts == [next(m for f, m in factors if rep.iso(f, s, 1) is not None) for s in simples]
    # permutation and tensor modules feed the same machinery
    a4 = make_group("A4")
    F4 = gfla.field_make(2, 2)
    nat = grp.perm_rep(a4, F4)
    assert sorted((f.dim, m) for f, m in rep.chop(nat, 1)) == [(1, 1), (1, 1), (1, 2)]
    s3 = make_group("S3")
    F9 = gfla.field_make(3, 2)
    nat3 = grp.perm_rep(s3, F9)
    tens = rep.tensor(nat3, nat3)
    total = sum(f.dim * m for f, m in rep.chop(tens, 1))
    assert total == 9
    report(6, "desk-scale end-to-end decomposition", t0, 60)


# ---------------------------------------------------------------------------
# 7. Condensation functor properties
# ---------------------------------------------------------------------------

COND_CASES = [
    ("S3", 3, [(1, 2)]),       # |K| = 2
    ("A4", 2, [(1, 2, 3)]),    # |K| = 3
    ("A5", 2, [(1, 2, 3)]),    # |K| = 3
    ("A5", 2, [(1, 2, 3, 4, 5)]),  # |K| = 5
    ("S4", 2, [(1, 2, 3)]),    # |K| = 3
    ("S4", 3, [(1, 2, 3, 4)]),  # |K| = 4
]


def test_criterion_7_condensation():
    t0 = time.time()
    for gname, p, kcycle in COND_CASES:
        g = make_group(gname)
        field = gfla.field_make(p, 2)
        kperm = grp.perm_from_cycles(g.degree, kcycle)
        kgrp = grp.enumerate_group([kperm])
        assert kgrp.order % p != 0 and kgrp.order <= 12
        tbr, simples = ctab.brauer_data(g, p)
        reg = grp.regular_rep(g, field)
        kmat = grp.element_matrix(g, reg, kperm)
        setup = cond.make_idempotent(reg, [kmat])
        # rank(e) = <1_K, chi restricted to K> for the regular character
        assert setup.rank == g.order // kgrp.order
        # and for every simple's Brauer character
        cls = grp.conjugacy_classes(g, p)
        kcls = grp.conjugacy_classes(kgrp)
        keep = [i for i in range(cls.count) if cls.p_regular(p)[i]]
        fusion = tuple(keep.index(cls.class_of[r]) for r in kcls.reps)
        ranks = {}
        for s, ch in zip(simples, tbr.characters):
            s_k = grp.element_matrix(g, s, kperm)
            s_setup = cond.make_idempotent(s, [s_k])
            expect = cond.condensed_dim(tbr, ch, kcls.sizes, fusion)
            assert s_setup.rank == expect, f"{gname} p={p} simple {s.label}"
            ranks[s.label] = s_setup.rank
        # full condensed algebra: all |G| condensed elements
        all_elems = [grp.element_matrix(g, reg, e) for e in g.elements]
        slice_full = cond.condensed_algebra(setup, all_elems, known_full=True)
        assert slice_full.known_full and slice_full.dim == setup.rank
        ve = rep.Representation(field, setup.rank, slice_full.matrices, "Ve")
        ve_factors = rep.chop(ve, 1)
        # expected multiset: for each simple with nonzero condensed rank, its
        # condensed module with the chop(reg) multiplicity
        reg_factors = rep.chop(reg, 1)
        expected_pairs = []
        for s in simples:
            if ranks[s.label] == 0:
                continue
            s_all = [grp.element_matrix(g, s, e) for e in g.elements]
            s_setup = cond.make_idempotent(s, [grp.element_matrix(g, s, kperm)])
            s_cond = [cond.condense_element(s_setup, m) for m in s_all]
            se = rep.Representation(field, s_setup.rank, tuple(s_cond), f"{s.label}e")
            mult = next(m for f, m in reg_factors if rep.iso(f, s, 1) is not None)
            expected_pairs.append((se, mult))
        assert sum(se.dim * m for se, m in expected_pairs) == setup.rank
        assert len(ve_factors) == len(expected_pairs)
        used = [False] * len(expected_pairs)
        for f, m in ve_factors:
            hit = None
            for idx, (se, mult) in enumerate(expected_pairs):
                if used[idx] or se.dim != f.dim or mult != m:
                    continue
                if rep.iso(f, se, 1) is not None:
                    hit = idx
                    break
            assert hit is not None, f"{gname} p={p}: unmatched condensed factor dim {f.dim}"
            used[hit] = True
        # permutation route agrees with the projector route on the regular action
        act = grp.regular_action(g)
        kreg = tuple(g.index[grp.perm_mul(e, kperm)] for e in g.elements)
        test_elems = list(g.gens)[:2]
        gperms = [tuple(g.index[grp.perm_mul(e, x)] for e in g.elements) for x in test_elems]
        mats, _orb = cond.condense_perm(field, g.order, [kreg], gperms)
        for x, m in zip(test_elems, mats):
            assert cond.condense_element(setup, grp.element_matrix(g, reg, x)) == m
        # uncondense(spin) gives a submodule whose condensation contains the seed
        u = gfla.FqMatrix(field, np.eye(1, setup.rank, dtype=np.int64))
        w = cond.uncondense(setup, u)
        we = gfla.mat_mul(w, setup.projector)
        seed_row = field.matmul(u.arr, setup.image_basis.arr)
        wb = gfla.WorkBasis(field, reg.dim)
        for row in we.arr:
            wb.insert(row.copy())
        assert wb.contains(seed_row[0])
    report(7, "condensation functor properties", t0, 60)


# ---------------------------------------------------------------------------
# 8. Generation-problem detector
# ---------------------------------------------------------------------------


def test_criterion_8_generation_detector():
    t0 = time.time()
    F2 = gfla.field_make(2, 1)
    c3 = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    reg = grp.regular_rep(c3, F2)
    g = reg.gens[0]
    # K trivial: the condensed algebra is the full group algebra; the chosen
    # slice generated by g + g^2 is a proper subalgebra that splits the
    # 2-dimensional simple
    x = gfla.mat_add(g, gfla.mat_mul(g, g))
    subalg = rep.Representation(F2, 3, (x,), "slice")
    series = rep.composition_series(subalg, 1)
    assert sorted(f.dim for f in series.factors) == [1, 1, 1]
    preserved, consistent = rep.check_generation(series, [g], 1)
    assert (preserved, consistent) == (False, False)
    # the double-coset recipe for K trivial yields every group element
    dcs = grp.double_cosets(c3, [grp.perm_identity(3)])
    assert len(dcs) == c3.order
    full_gens = [grp.element_matrix(c3, reg, e) for e, _ in dcs]
    full_series = rep.composition_series(
        rep.Representation(F2, 3, tuple(full_gens), "full"), 1
    )
    assert sorted(f.dim for f in full_series.factors) == [1, 2]
    assert rep.check_generation(full_series, full_gens, 1) == (True, True)
    report(8, "generation-problem detector", t0, 10)


# ---------------------------------------------------------------------------
# 9. Kernel properties
# ---------------------------------------------------------------------------


def test_criterion_9_kernel():
    t0 = time.time()
    # exhaustive Zech vs digit addition for every prime power q <= 256
    qs = []
    for q in range(2, 257):
        try:
            p, k = _prime_power(q)
        except ValueError:
            continue
        qs.append((p, k))
    assert len(qs) == 70  # 54 primes and 16 proper prime powers up to 256
    for p, k in qs:
        F = gfla.field_make(p, k)
        a = np.repeat(np.arange(F.q), F.q)
        b = np.tile(np.arange(F.q), F.q)
        assert np.array_equal(F.add(a, b), F.zech_add(a, b)), f"q={F.q}"
    # 1000 seeded random matrices of dimension <= 20
    rng = random.Random(20260810)
    fields = [gfla.field_make(2, 1), gfla.field_make(3, 1), gfla.field_make(2, 2),
              gfla.field_make(5, 1), gfla.field_make(3, 2)]
    for i in range(1000):
        F = fields[i % len(fields)]
        n = rng.randint(1, 20)
        m = gfla.FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        mp = gfla.min_poly(m)
        assert mp.eval_matrix(m).is_zero(), f"min poly fails at case {i}"
        rect = gfla.FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(rng.randint(1, 20))])
        assert gfla.rank(rect) + gfla.nullspace(rect).rows == rect.cols
    report(9, "kernel properties", t0, 30)


def _prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            t = q
            while t % p == 0:
                t //= p
                k += 1
            if p**k == q and gfla.is_prime(p):
                return p, k
            raise ValueError(q)
    raise ValueError(q)


def test_zz_summary(capsys):
    with capsys.disabled():
        print()
        for line in PASS_LINES:
            print(line)
