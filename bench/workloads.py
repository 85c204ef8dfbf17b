"""The four benchmark workloads.

A workload turns the benchmark seed into inputs (pure Python, before modchar
is imported), builds what it needs through the library (`setup`, the part a
CLI user pays on every invocation), and then hands out its job list.  A job is
``(name, run, check)``: ``run()`` calls the library and returns plain Python
data, ``check(output)`` decides, mostly without the code under test, whether
that output is right.  One pass runs every job once.

The seed relabels the points of every permutation group, draws the random
matrices, and shuffles the rows and non-identity classes of the stored
character tables; the library only ever sees the generated inputs, and every
pass of a run repeats the same ones.  The library's own seed argument stays at
its default of 1.

Each workload lists in ``FIELDS`` the finite fields its jobs use, so that
``setup`` builds them (with their Conway-polynomial searches) and the timed
passes do not.  The lists are data, not a copy of the library's rules for
choosing fields: run.py marks a run incorrect when its timed passes build a
field that set-up did not, so a change of those rules shows up there instead
of quietly moving cost from set-up into the passes.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import math
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

DATA = Path(__file__).resolve().parent / "data"

MODULES = ("gfla", "grp", "rep", "cyclo", "ctab", "cond", "dxm", "cli", "fixtures")


def load_modchar():
    """The library's modules by short name (importing them is part of set-up)."""
    return {name: importlib.import_module(f"modchar.{name}") for name in MODULES}


# ---------------------------------------------------------------------------
# input generation (pure Python)
# ---------------------------------------------------------------------------

GROUPS = {
    "S3": (3, [[(1, 2)], [(1, 2, 3)]]),
    "A4": (4, [[(1, 2), (3, 4)], [(1, 2, 3)]]),
    "S4": (4, [[(1, 2)], [(1, 2, 3, 4)]]),
    "A5": (5, [[(1, 2, 3, 4, 5)], [(3, 4, 5)]]),
    "C7": (7, [[(1, 2, 3, 4, 5, 6, 7)]]),
    "C5": (5, [[(1, 2, 3, 4, 5)]]),
}
ORDERS = {"S3": 6, "A4": 12, "S4": 24, "A5": 60, "C7": 7, "C5": 5}


def perm_from_cycles(n, cycles):
    img = list(range(n))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            img[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


def conjugate(perm, pi):
    """The permutation perm with every point x renamed pi[x]."""
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[pi[x]] = pi[y]
    return tuple(out)


def relabelled(name, rng, extra_cycles=()):
    """Generators of the named group (and any extra elements) on shuffled points."""
    n, gens = GROUPS[name]
    pi = list(range(n))
    rng.shuffle(pi)
    perms = [conjugate(perm_from_cycles(n, c), pi) for c in gens]
    extra = [conjugate(perm_from_cycles(n, c), pi) for c in extra_cycles]
    return perms, extra


def perm_power(perm, e):
    out = tuple(range(len(perm)))
    for _ in range(e):
        out = tuple(perm[i] for i in out)
    return out


def random_mtx(rng, q, rows, cols):
    lines = [f"MTX q={q} r={rows} c={cols}"]
    for _ in range(rows):
        lines.append(" ".join(str(rng.randrange(q)) for _ in range(cols)))
    return "\n".join(lines) + "\n"


def parse_mtx(text):
    """Plain-Python reading of MTX text: (q, rows as lists of ints)."""
    lines = text.splitlines()
    head = dict(t.split("=") for t in lines[0].split()[1:])
    rows = [[int(t) for t in line.split()] for line in lines[1:]]
    if len(rows) != int(head["r"]) or any(len(r) != int(head["c"]) for r in rows):
        raise ValueError("MTX shape does not match its header")
    return int(head["q"]), rows, int(head["c"])


def is_rref(rows, pivots):
    """Whether `rows` is in reduced row echelon form with these pivot columns:
    row i leads with a 1 in column pivots[i], which is zero in every other
    row, the pivots increase, and the rows after the last pivot row are zero."""
    if any(a >= b for a, b in zip(pivots, pivots[1:])) or any(any(r) for r in rows[len(pivots):]):
        return False
    for i, pc in enumerate(pivots):
        if any(rows[i][:pc]) or any(rows[r][pc] != int(r == i) for r in range(len(rows))):
            return False
    return True


# ---------------------------------------------------------------------------
# desk: ordinary table, Brauer table and decomposition matrix from scratch
# ---------------------------------------------------------------------------


class Desk:
    name = "desk"
    why = (
        "paper's headline pipeline: ordinary+Brauer tables and D from scratch for "
        "9 (group,p) cases; bound by scalar field-op dispatch, Norton and Brauer lifts"
    )
    CASES = [("S3", 3), ("A4", 2), ("S4", 2), ("S4", 3), ("A5", 2), ("A5", 3),
             ("A5", 5), ("C7", 2), ("C5", 3)]
    # the prime fields ordinary_table computes in, brauer_data's GF(p^2), and
    # the extensions the Brauer character values are lifted from
    FIELDS = [(7, 1), (11, 1), (13, 1), (29, 1), (31, 1),
              (2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (5, 2)]

    def __init__(self, seed):
        rng = random.Random(f"desk/{seed}")
        self.gens = {name: relabelled(name, rng)[0] for name in GROUPS}

    def setup(self, mc):
        self.mc = mc
        self.groups = {name: mc["grp"].enumerate_group(g) for name, g in self.gens.items()}
        for p, k in self.FIELDS:
            mc["gfla"].field_make(p, k)

    def traffic(self):
        return {
            "cases": [f"{g}/{p}" for g, p in self.CASES],
            "group_orders": ORDERS,
            "fields": [f"GF({p}^{k})" for p, k in self.FIELDS],
            "module_dims": "regular modules, dim |G| (5 to 60)",
            "generators": {name: len(gens) for name, (_n, gens) in GROUPS.items()},
            "jobs_per_pass": len(GROUPS) + len(self.CASES),
        }

    def jobs(self):
        groups, tables = self.groups, {}
        out = []
        for name in GROUPS:
            out.append((f"table:{name}", self._table_job(groups[name], tables, name),
                        self._table_check(name)))
            for gname, p in self.CASES:
                if gname == name:
                    out.append((f"decomp:{name}/{p}", self._decomp_job(groups[name], tables, name, p),
                                self._decomp_check(name, p)))
        return out

    def _table_job(self, g, tables, name):
        def run():
            t = self.mc["ctab"].ordinary_table(g)
            tables[name] = t
            return tuple(ch.degree_int() for ch in t.characters), t.nclasses
        return run

    def _table_check(self, name):
        def check(out):
            degrees, nclasses = out
            return sorted(degrees) == sorted(ref.ORDINARY_DEGREES[name]) and nclasses == len(degrees)
        return check

    def _decomp_job(self, g, tables, name, p):
        def run():
            ctab = self.mc["ctab"]
            tord = tables[name]
            tbr, simples = ctab.brauer_data(g, p)
            rt = ctab.restrict_table(tord, p)
            D = tuple(tuple(ctab.decompose_basic(list(tbr.characters), ch)) for ch in rt.characters)
            return (
                tuple(ch.degree_int() for ch in tord.characters),
                tuple(ch.degree_int() for ch in tbr.characters),
                tuple(s.dim for s in simples),
                D,
            )
        return run

    def _decomp_check(self, name, p):
        def check(out):
            row_degrees, col_degrees, dims, D = out
            if tuple(dims) != tuple(col_degrees):
                return False
            got = ref.canonical_decomposition(row_degrees, col_degrees, D)
            return got == ref.expected_decomposition(name, p)
        return check


# ---------------------------------------------------------------------------
# condense: criterion-7 condensation pipeline
# ---------------------------------------------------------------------------


class Condense:
    name = "condense"
    why = (
        "trace-idempotent condensation of regular modules over GF(p^2), |K| in 2..5: "
        "condensed algebra from all |G| elements, chop Ve, iso; orbit-sum, tensor, uncondense"
    )
    CASES = [("S3", 3, [(1, 2)]), ("A4", 2, [(1, 2, 3)]), ("S4", 3, [(1, 2, 3, 4)]),
             ("A5", 2, [(1, 2, 3, 4, 5)])]
    # the regular modules' GF(p^2) and the extensions of brauer_data's lifts
    FIELDS = [(2, 2), (2, 4), (3, 2)]

    def __init__(self, seed):
        rng = random.Random(f"condense/{seed}")
        self.inputs = {}
        for name, p, kcycle in self.CASES:
            gens, (kperm,) = relabelled(name, rng, [kcycle])
            self.inputs[name] = (p, gens, kperm)

    def setup(self, mc):
        self.mc = mc
        grp, gfla = mc["grp"], mc["gfla"]
        for p, k in self.FIELDS:
            gfla.field_make(p, k)
        self.built = {name: (grp.enumerate_group(gens), grp.enumerate_group([kperm]), gfla.field_make(p, 2))
                      for name, (p, gens, kperm) in self.inputs.items()}

    def traffic(self):
        return {
            "cases": [f"{n}/{p} |K|={math.lcm(*map(len, k))}" for n, p, k in self.CASES],
            "group_orders": {n: ORDERS[n] for n, _, _ in self.CASES},
            "fields": [f"GF({p}^{k})" for p, k in self.FIELDS],
            "module_dims": {n: ORDERS[n] for n, _, _ in self.CASES},
            "generators": {n: len(GROUPS[n][1]) for n, _, _ in self.CASES},
            "condensed_generators": {n: ORDERS[n] for n, _, _ in self.CASES},
            "tensor_dims": {n: GROUPS[n][0] ** 2 for n, _, _ in self.CASES},
            "jobs_per_pass": 4 * len(self.CASES),
        }

    def jobs(self):
        out = []
        for name, p, kcycle in self.CASES:
            korder = math.lcm(*map(len, kcycle))
            _p, _gens, kperm = self.inputs[name]
            g, kgrp, F = self.built[name]
            state = {}
            case = (name, p, g, kgrp, F, kperm, state)
            out += [
                (f"cond:{name}/{p}", self._cond_job(case), self._cond_check(name, korder)),
                (f"perm:{name}/{p}", self._perm_job(case), self._perm_check(name, korder)),
                (f"tensor:{name}/{p}", self._tensor_job(case), self._tensor_check(kperm, korder)),
                (f"uncond:{name}/{p}", self._uncond_job(case), self._uncond_check(name)),
            ]
        return out

    def _cond_job(self, case):
        def run():
            mc = self.mc
            grp, ctab, cond, rep = mc["grp"], mc["ctab"], mc["cond"], mc["rep"]
            _name, p, g, kgrp, F, kperm, state = case
            tbr, simples = ctab.brauer_data(g, p)
            reg = grp.regular_rep(g, F)
            setup = cond.make_idempotent(reg, [grp.element_matrix(g, reg, kperm)])
            state["reg"], state["setup"] = reg, setup
            cls = grp.conjugacy_classes(g, p)
            kcls = grp.conjugacy_classes(kgrp)
            keep = [i for i in range(cls.count) if cls.p_regular(p)[i]]
            fusion = tuple(keep.index(cls.class_of[r]) for r in kcls.reps)
            ranks, predicted, expected = [], [], []
            reg_factors = rep.chop(reg, 1)
            for s, ch in zip(simples, tbr.characters):
                s_setup = cond.make_idempotent(s, [grp.element_matrix(g, s, kperm)])
                ranks.append(s_setup.rank)
                predicted.append(cond.condensed_dim(tbr, ch, kcls.sizes, fusion))
                if s_setup.rank == 0:
                    continue
                s_cond = tuple(cond.condense_element(s_setup, grp.element_matrix(g, s, e))
                               for e in g.elements)
                se = rep.Representation(F, s_setup.rank, s_cond, f"{s.label}e")
                mult = next(m for f, m in reg_factors if rep.iso(f, s, 1) is not None)
                expected.append((se, mult))
            all_elems = [grp.element_matrix(g, reg, e) for e in g.elements]
            algebra = cond.condensed_algebra(setup, all_elems, known_full=True)
            ve = rep.Representation(F, setup.rank, algebra.matrices, "Ve")
            ve_factors = rep.chop(ve, 1)
            used = [False] * len(expected)
            matched = 0
            for f, m in ve_factors:
                for idx, (se, mult) in enumerate(expected):
                    if not used[idx] and se.dim == f.dim and mult == m and rep.iso(f, se, 1) is not None:
                        used[idx] = True
                        matched += 1
                        break
            return (
                setup.rank, tuple(ranks), tuple(predicted),
                tuple(sorted((f.dim, m) for f, m in ve_factors)),
                tuple(sorted((se.dim, m) for se, m in expected)),
                matched,
            )
        return run

    def _cond_check(self, name, korder):
        def check(out):
            rank, ranks, predicted, ve, expected, matched = out
            return (
                rank == ORDERS[name] // korder
                and ranks == predicted
                and sum(d * m for d, m in ve) == rank
                and ve == expected
                and matched == len(ve)
            )
        return check

    def _perm_job(self, case):
        def run():
            grp, cond = self.mc["grp"], self.mc["cond"]
            _name, _p, g, _kgrp, F, kperm, state = case
            kreg = tuple(g.index[grp.perm_mul(e, kperm)] for e in g.elements)
            gperms = [tuple(g.index[grp.perm_mul(e, x)] for e in g.elements) for x in g.gens]
            mats, orbits = cond.condense_perm(F, g.order, [kreg], gperms)
            direct = [cond.condense_element(state["setup"], grp.element_matrix(g, state["reg"], x))
                      for x in g.gens]
            return (
                len(orbits),
                tuple(m.arr.tobytes() for m in mats),
                tuple(m.arr.tobytes() for m in direct),
            )
        return run

    def _perm_check(self, name, korder):
        def check(out):
            norbits, via_orbits, via_projector = out
            return norbits == ORDERS[name] // korder and via_orbits == via_projector
        return check

    def _tensor_job(self, case):
        def run():
            grp, cond, rep = self.mc["grp"], self.mc["cond"], self.mc["rep"]
            _name, _p, g, _kgrp, F, kperm, _state = case
            nat = grp.perm_rep(g, F)
            kword = rep.AlgebraWord(((1, g.word_for(kperm)),))
            tc = cond.TensorCondenser(nat, nat, [kword])
            words = [rep.AlgebraWord(((1, (i,)),)) for i in range(nat.ngens)]
            via_factors = [tc.condense_word(w) for w in words]
            big = rep.tensor(nat, nat)
            setup = cond.make_idempotent(big, [grp.element_matrix(g, big, kperm)])
            direct = [cond.condense_element(setup, x) for x in big.gens]
            return (
                tc.image_basis().rows,
                tuple(m.arr.tobytes() for m in via_factors),
                tuple(m.arr.tobytes() for m in direct),
            )
        return run

    def _tensor_check(self, kperm, korder):
        # dim (V (x) V)e = <1_K, chi_V^2> with chi_V the fixed-point count
        fixed = [sum(1 for i, j in enumerate(perm_power(kperm, e)) if i == j) for e in range(korder)]
        expect = Fraction(sum(f * f for f in fixed), korder)

        def check(out):
            dim, via_factors, direct = out
            return dim == expect and via_factors == direct
        return check

    def _uncond_job(self, case):
        def run():
            gfla, cond = self.mc["gfla"], self.mc["cond"]
            _name, _p, _g, _kgrp, F, _kperm, state = case
            setup = state["setup"]
            u = gfla.FqMatrix(F, [[int(j == 0) for j in range(setup.rank)]])
            w = cond.uncondense(setup, u)
            we = gfla.mat_mul(w, setup.projector)
            seed_row = F.matmul(u.arr, setup.image_basis.arr)
            wb = gfla.WorkBasis(F, setup.rep.dim)
            for row in we.arr:
                wb.insert(row.copy())
            return w.rows, bool(wb.contains(seed_row[0]))
        return run

    def _uncond_check(self, name):
        def check(out):
            rows, contains = out
            return 0 < rows <= ORDERS[name] and contains
        return check


# ---------------------------------------------------------------------------
# matrix: the `modchar mat` pipeline at size
# ---------------------------------------------------------------------------


class Matrix:
    name = "matrix"
    why = (
        "MTX parse, mat_mul, echelonize, nullspace and MTX format of seeded random "
        "matrices over GF(2,3,4,9,251) at n=200-320 and GF(256) at n=100: flops-bound"
    )
    # (p, k, n): A is n x (n + EXTRA), B is (n + EXTRA) x n
    FIELDS = [(2, 1, 320), (3, 1, 240), (2, 2, 240), (3, 2, 200), (251, 1, 200), (2, 8, 100)]
    EXTRA = 16

    def __init__(self, seed):
        self.seed = seed

    @functools.cached_property
    def inputs(self):
        """{q: (p, k, A as MTX text, B as MTX text)}, drawn when first used, so
        a set-up probe (which needs only the fields) does not draw them."""
        rng = random.Random(f"matrix/{self.seed}")
        out = {}
        for p, k, n in self.FIELDS:
            a = random_mtx(rng, p**k, n, n + self.EXTRA)
            b = random_mtx(rng, p**k, n + self.EXTRA, n)
            out[p**k] = (p, k, a, b)
        return out

    def setup(self, mc):
        self.mc = mc
        for p, k, _n in self.FIELDS:
            mc["gfla"].field_make(p, k)

    def traffic(self):
        return {
            "fields": [f"GF({p}^{k})" for p, k, _ in self.FIELDS],
            "shapes": {f"GF({p ** k})": f"A {n}x{n + self.EXTRA}, B {n + self.EXTRA}x{n}"
                       for p, k, n in self.FIELDS},
            "mtx_bytes_per_pass": sum(len(a) + len(b) for _p, _k, a, b in self.inputs.values()),
            "jobs_per_pass": len(self.FIELDS),
        }

    def jobs(self):
        return [(f"mat:GF({q})", self._job(q), self._check(q)) for q in self.inputs]

    def _job(self, q):
        _p, _k, a_text, b_text = self.inputs[q]

        def run():
            cli, gfla = self.mc["cli"], self.mc["gfla"]
            a = cli.parse_matrix(a_text)
            b = cli.parse_matrix(b_text)
            c = gfla.mat_mul(a, b)
            ech = gfla.echelonize(a)
            null = gfla.nullspace(a)
            head = f"rank {ech.rank}\npivots {' '.join(str(p) for p in ech.pivots)}\n"
            return cli.format_matrix(c), head + cli.format_matrix(ech.matrix), cli.format_matrix(null)
        return run

    def _check(self, q):
        p, k, a_text, b_text = self.inputs[q]
        _q, A, cols = parse_mtx(a_text)
        _q, B, _c = parse_mtx(b_text)
        F = ref.RefField(p, k)

        def check(out):
            c_text, e_text, n_text = out
            _q, C, _c = parse_mtx(c_text)
            if (F.matmul(A, B) != C).any():
                return False
            rank_line, pivot_line, e_mtx = e_text.split("\n", 2)
            rank = int(rank_line.split()[1])
            pivots = [int(t) for t in pivot_line.split()[1:]]
            _q, R, _c = parse_mtx(e_mtx)
            _q, N, _c = parse_mtx(n_text)
            # R is reduced echelon with these pivots and spans every row of A;
            # N is reduced echelon (so its rows are independent), has
            # cols - rank rows, and A and R both vanish on it
            if rank != len(pivots) or rank + len(N) != cols or not is_rref(R, pivots):
                return False
            if (F.matmul([[row[pc] for pc in pivots] for row in A], R[:rank]) != A).any():
                return False
            if N:
                if not all(map(any, N)) or not is_rref(N, [next(c for c, x in enumerate(row) if x) for row in N]):
                    return False
                null_t = [list(col) for col in zip(*N)]
                if F.matmul(A, null_t).any() or F.matmul(R, null_t).any():
                    return False
            return True
        return check


# ---------------------------------------------------------------------------
# engine: the decomposition engine on the published HN data
# ---------------------------------------------------------------------------

HN_KNOWN = {0: 8910, 1: 16929, 2: 270864, 3: 1159191, 4: 1305072}
HN_FINAL_DEGREES = (8910, 16929, 270864, 1159191, 1305072, 40338, 3362391)
FIXTURES = ("hn_mod3_e_cartan", "hn_mod3_e_dec", "hn_mod3_b1_proj_a", "hn_mod3_b1_proj_b",
            "hn_mod3_b1_proj_c", "hn_mod3_b1_atom", "hn_mod3_b1", "hn_mod2_b1", "hn_mod2_b0",
            "hn_mod2_b0_hn2", "hn_mod2_b1_hn2", "hn_mod2_b2_hn2", "hn_mod3_b0_hn2")


def shuffled_table(text, rng):
    """CTB text with its characters and non-identity classes in seeded order."""
    lines = text.splitlines()
    nclasses = int(lines[0].split()[2].split("=")[1])
    order = [0] + rng.sample(range(1, nclasses), nclasses - 1)
    classes = [lines[1 + i] for i in order]
    chars = []
    for line in lines[1 + nclasses:]:
        toks = line.split()
        chars.append(" ".join(toks[:2] + [toks[2 + i] for i in order]))
    rng.shuffle(chars)
    return "\n".join([lines[0]] + classes + chars) + "\n"


def cyclotomic_value(token):
    """Complex value of a CTB entry `n` or `cyc(n)[c0,c1,...]`."""
    if not token.startswith("cyc("):
        return complex(Fraction(token))
    n = int(token[4:token.index(")")])
    coeffs = token[token.index("[") + 1:-1].split(",")
    return sum(complex(Fraction(c)) * cmath.exp(2j * cmath.pi * i / n) for i, c in enumerate(coeffs))


class Engine:
    name = "engine"
    why = (
        "decomposition engine on published HN data: Gram equation, Fitting, 44 "
        "candidates, atoms, SD16, Clifford, verify; blocks+projectives of S5/A5 CTB"
    )
    TABLES = [("A5", "a5.ctb"), ("S5", "s5.ctb")]
    PRIMES = (2, 3, 5)
    # the residue fields ctab.blocks reduces the central characters into
    FIELDS = [(2, 1), (3, 1), (5, 1), (2, 4), (3, 4), (5, 2)]

    def __init__(self, seed):
        rng = random.Random(f"engine/{seed}")
        self.tables = {name: shuffled_table((DATA / fname).read_text(), rng)
                       for name, fname in self.TABLES}

    def setup(self, mc):
        self.mc = mc
        self.fx = {name: mc["fixtures"].load(name) for name in FIXTURES}
        for p, k in self.FIELDS:
            mc["gfla"].field_make(p, k)

    def traffic(self):
        return {
            "fixtures": list(FIXTURES),
            "tables": {"A5": "order 60, 5 classes", "S5": "order 120, 7 classes"},
            "primes": list(self.PRIMES),
            "fields": [f"GF({p}^{k})" for p, k in self.FIELDS],
            "candidates": 44,
            "jobs_per_pass": 5 + len(self.TABLES) * len(self.PRIMES),
        }

    def jobs(self):
        out = [
            ("dtd", self._dtd, self._dtd_check),
            ("fitting", self._fitting, self._fitting_check),
            ("sd16", self._sd16, self._sd16_check),
            ("clifford", self._clifford, self._clifford_check),
            ("verify", self._verify, lambda out: out == (True, True, True)),
        ]
        for name, _f in self.TABLES:
            for p in self.PRIMES:
                out.append((f"blocks:{name}/{p}", self._blocks_job(name, p), self._blocks_check(name, p)))
        return out

    def _state(self, name, ncols=None):
        dxm = self.mc["dxm"]
        fx = self.fx[name]
        ncols = fx.l if ncols is None else ncols
        cols = tuple(
            dxm.ProjectiveColumn(lbl, dxm._vec([r[j] for r in fx.matrix]),
                                 bool(fx.indecomposable and fx.indecomposable[j]))
            for j, lbl in enumerate(fx.col_labels[:ncols])
        )
        return dxm.DecompState(fx.name, fx.row_labels, fx.row_degrees, fx.basic_row_indices(), cols)

    def _dtd(self):
        dxm = self.mc["dxm"]
        fx = self.fx["hn_mod3_e_cartan"]
        return tuple(dxm.dtd_solve(dxm.CartanInstance(fx.matrix, fx.meta_int("k"))))

    def _dtd_check(self, out):
        return out == (tuple(sorted(self.fx["hn_mod3_e_dec"].matrix, reverse=True)),)

    def _fitting(self):
        """Fitting match, refinement, the 44 candidates, known degrees, atoms and
        elimination to the survivor: the defect-2 3-block of HN end to end."""
        dxm = self.mc["dxm"]
        fxa, e, fxb = self.fx["hn_mod3_b1_proj_a"], self.fx["hn_mod3_e_dec"], self.fx["hn_mod3_b1_proj_b"]
        problem = dxm.FittingProblem(e.matrix, e.row_degrees, tuple(r[7] for r in fxa.matrix),
                                     ((0, 0), (6, 7)))
        survivors = dxm.fitting_match(self._state("hn_mod3_b1_proj_a", 7), problem)
        assignment, pim_cols = survivors[0]
        psi = dxm._vec([r[7] for r in fxb.matrix])
        refined = dxm.refine_by_relation(self._state("hn_mod3_b1_proj_b", 7), "X", psi)
        state = dxm.enumerate_candidates(refined)
        enumerated = len(state.candidates)
        state = dxm.import_known_brauer(state, HN_KNOWN)
        known = len(state.candidates)
        atom_fx = self.fx["hn_mod3_b1_atom"]
        degs = [int(t) for t in atom_fx.sections["basicdegrees"][0]]
        bvecs = []
        for payload in atom_fx.sections["bvec"]:
            toks = list(payload)
            bvecs.append(dxm._vec([int(t) for t in toks[toks.index(":") + 1:]]))
        ats = dxm.atoms(dxm.AtomProblem(atom_fx.matrix, tuple(bvecs)))
        atom_degree = sum(int(c) * d for c, d in zip(ats[2], degs))
        state = dxm.eliminate_by_atom(state, atom_degree, 6)
        final = state.candidates[0] if len(state.candidates) == 1 else None
        degrees = tuple(int(d) for d in dxm.candidate_brauer_degrees(state, final)) if final else ()
        return (
            len(survivors),
            tuple(sorted((k, fxa.row_labels[v]) for k, v in assignment.items())),
            tuple(tuple(int(x) for x in col) for col in pim_cols),
            tuple(tuple(int(x) for x in c.coeffs) for c in refined.proj_basic),
            enumerated, known, atom_degree, len(state.candidates), final, degrees,
        )

    def _fitting_check(self, out):
        n, assignment, pims, refined, enumerated, known, atom, left, final, degrees = out
        fxb, fxc = self.fx["hn_mod3_b1_proj_b"], self.fx["hn_mod3_b1_proj_c"]
        pim_positions = [j for j, f in enumerate(fxb.indecomposable) if f]
        return (
            n == 1
            and assignment == ((0, "8"), (1, "10"), (2, "32"), (3, "33"), (4, "37"), (5, "43"),
                               (6, "49"), (7, "50"))
            and pims == tuple(tuple(r[j] for r in fxb.matrix) for j in pim_positions)
            and refined == tuple(tuple(r[j] for r in fxc.matrix) for j in range(7))
            and (enumerated, known, atom, left) == (44, 10, 3362391, 1)
            and final == self.fx["hn_mod3_b1"].matrix
            and degrees == HN_FINAL_DEGREES
        )

    def _sd16(self):
        dxm = self.mc["dxm"]
        fx = self.fx["hn_mod2_b1"]
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

        inst = dxm.SD16Instance(tuple((lbl, deg, height(deg))
                                      for lbl, deg in zip(fx.row_labels, fx.row_degrees)))
        res = dxm.sd16_analyze(inst)
        return res.deltas, res.labeling, res.matrix

    def _sd16_check(self, out):
        return out == ((1, -1, -1, 1), ("37", "17", "49", "45"), self.fx["hn_mod2_b1"].matrix)

    def _clifford(self):
        ctab = self.mc["ctab"]
        out = []
        for src_name, dst_name in (("hn_mod2_b0", "hn_mod2_b0_hn2"), ("hn_mod2_b1", "hn_mod2_b1_hn2")):
            src, dst = self.fx[src_name], self.fx[dst_name]
            block = ctab.BlockDecomposition(src.meta.get("block", src.name), src.meta_int("p"),
                                            src.row_labels, src.row_degrees, src.matrix, src.col_degrees)
            plan, pairs = [], []
            for extra in dst.row_extra:
                if "+" in extra[0]:
                    a, b = extra[0].split("+")
                    pr = (src.row_labels.index(a), src.row_labels.index(b))
                    if pr not in pairs:
                        pairs.append(pr)
                    plan.append(("fuse", pr))
                else:
                    plan.append(("ext", src.row_labels.index(extra[0])))
            res = ctab.clifford_index2(block, src.col_pairs, tuple(pairs), tuple(plan)).blocks[0]
            out.append((res.matrix, res.row_degrees, res.col_degrees))
        b2 = ctab.BlockDecomposition("B2", 2, ("46",), (3424256,), ((1,),), (3424256,))
        out.append(ctab.clifford_index2(b2, (), (), (("ext", 0), ("ext", 0))).blocks[0].matrix)
        fx16 = self.fx["hn_mod3_b1"]
        m = ctab.BlockDecomposition("B1", 3, fx16.row_labels, fx16.row_degrees, fx16.matrix, fx16.col_degrees)
        out.append(tuple(b.matrix for b in ctab.clifford_index2(m, (), (), morita_split=True).blocks))
        return tuple(out)

    def _clifford_check(self, out):
        fx = self.fx
        b0, b1, b2, morita = out
        return (
            b0 == (fx["hn_mod2_b0_hn2"].matrix, fx["hn_mod2_b0_hn2"].row_degrees, fx["hn_mod2_b0_hn2"].col_degrees)
            and b1 == (fx["hn_mod2_b1_hn2"].matrix, fx["hn_mod2_b1_hn2"].row_degrees, fx["hn_mod2_b1_hn2"].col_degrees)
            and b2 == fx["hn_mod2_b2_hn2"].matrix
            and morita == (fx["hn_mod3_b1"].matrix, fx["hn_mod3_b1"].matrix)
        )

    def _verify(self):
        cli = self.mc["cli"]
        return tuple(bool(cli.verify_fixture_matrix(self.fx[n]))
                     for n in ("hn_mod2_b1_hn2", "hn_mod2_b2_hn2", "hn_mod3_b0_hn2"))

    def _blocks_job(self, name, p):
        def run():
            cli, ctab, dxm = self.mc["cli"], self.mc["ctab"], self.mc["dxm"]
            t = cli.parse_table(self.tables[name])
            bd = ctab.blocks(t, p)
            trivial = next(i for i, ch in enumerate(t.characters)
                           if all(v == ch.values[0] for v in ch.values))
            principal = bd.block_of(trivial)
            cols = dxm.projectives_from_products(t, bd, principal)
            return (
                bd.blocks, bd.defects, principal,
                tuple(tuple(int(c) for c in col.coeffs) for col in cols),
            )
        return run

    def _blocks_check(self, name, p):
        lines = self.tables[name].splitlines()
        nclasses = int(lines[0].split()[2].split("=")[1])
        class_orders = [int(line.split()[1]) for line in lines[1:1 + nclasses]]
        chars = [line.split() for line in lines[1 + nclasses:]]
        degrees = [int(c[1]) for c in chars]
        values = [[cyclotomic_value(v) for v in c[2:]] for c in chars]
        order = int(lines[0].split()[1].split("=")[1])
        p_part = p ** next(a for a in range(order) if order % p ** (a + 1))
        trivial = next(i for i, c in enumerate(chars) if set(c[2:]) == {"1"})

        def check(out):
            blocks, defects, principal, cols = out
            got = sorted((tuple(sorted(degrees[i] for i in b)), d) for b, d in zip(blocks, defects))
            if got != ref.BLOCKS[(name, p)] or trivial not in blocks[principal]:
                return False
            members = blocks[principal]
            for coeffs in cols:
                if min(coeffs) < 0 or sum(c * degrees[i] for c, i in zip(coeffs, members)) % p_part:
                    return False
                for ci, o in enumerate(class_orders):
                    if o % p == 0 and abs(sum(c * values[i][ci] for c, i in zip(coeffs, members))) > 1e-9:
                        return False
            return True
        return check


WORKLOADS = {w.name: w for w in (Desk, Condense, Matrix, Engine)}
