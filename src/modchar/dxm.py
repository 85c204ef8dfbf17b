"""The decomposition-matrix engine.

Characters here are coefficient vectors over a fixed list of the block's
ordinary characters (or any other consistent exact coordinatization); all
solving is exact rational arithmetic.  The engine covers projective-character
generation, Gram-equation solving (D^T D = C), Fitting matching, basic-set
refinement, candidate enumeration/elimination, virtual atoms, the
semidihedral order-16 sign analysis, and a final verification gate.

Fitting matching eliminates its system once, as [M | I], and reads every
implied column off the result; the semidihedral expansions come from one
table of four relations (SD16_RELATIONS), solved outward from the basic
character; candidates are the refinements t = 0, 1, ... of each open column
by each indecomposable one while they stay nonnegative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm, prod

from . import ctab as _ctab
from .cyclo import rref_rational, solve_rational
from .errors import (
    AllEliminated,
    AmbiguousCase,
    Infeasible,
    NoAdmissibleMatching,
    NoConsistentSigns,
    NoInferencePossible,
    NonIntegral,
    NonIntegralAtoms,
    NotSquare,
    ShapeMismatch,
    SingularA,
    TooLarge,
)

Vec = tuple[Fraction, ...]

CANDIDATE_CAP = 10**6
FITTING_CAP = 10**4  # bound on the bijections fitting_match lists
DTD_CAP = 2**20  # bound on the Cartan diagonal and on the row count of dtd_solve


def _vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def _vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _nonnegative(v: Vec) -> bool:
    return all(x >= 0 for x in v)


def _over_one_denominator(rows) -> tuple[int, list[list[int]]]:
    """(d, N) with rows = N / d, for rows of ints or Fractions and d the lcm
    of every denominator."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def solve_exact(columns: list[Vec], target: Vec):
    """Coefficients expressing target over the columns, or None."""
    mat = [[col[i] for col in columns] for i in range(len(target))]
    return solve_rational(mat, target) if mat else [Fraction(0)] * len(columns)


def invert_rational(matrix: list[list]) -> list[list[Fraction]]:
    """The inverse over Q of a matrix of ints or Fractions, from the reduced
    form of [M | I]; NotSquare unless M is square, SingularA when it is
    singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NotSquare(f"cannot invert {n} rows of widths {sorted({len(row) for row in matrix})}")
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    if len(rref_rational(A, n)) < n:
        raise SingularA("matrix is singular over the rationals")
    return [row[n:] for row in A]


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectiveColumn:
    name: str
    coeffs: Vec  # over the block's ordinary characters
    indecomposable: bool = False


@dataclass(frozen=True)
class DecompState:
    """Evolving knowledge about one block's decomposition matrix."""

    block_label: str
    row_labels: tuple[str, ...]
    row_degrees: tuple[int, ...]
    brauer_basic: tuple[int, ...]  # row indices of the Brauer basic set
    proj_basic: tuple[ProjectiveColumn, ...]
    candidates: tuple[tuple[tuple[int, ...], ...], ...] = ()
    log: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.row_labels)

    @property
    def l(self) -> int:
        return len(self.proj_basic)

    def with_log(self, message: str) -> "DecompState":
        return replace(self, log=self.log + (message,))

    def basic_matrix(self) -> list[Vec]:
        """Columns of the current projective basic set."""
        return [col.coeffs for col in self.proj_basic]


# ---------------------------------------------------------------------------
# Projective characters from products and induction
# ---------------------------------------------------------------------------


def projectives_from_products(table, block_data, block_index, extra_induced=()):
    """Projective characters of the block from (ordinary) x (defect zero)
    products and supplied induced-from-p'-subgroup characters.

    Returns ProjectiveColumn entries whose coefficients run over the block's
    ordinary characters in block order; columns with a common divisor are
    divided down (projectivity survives: the quotient is a character which
    still vanishes on p-singular classes).
    """
    members = list(block_data.blocks[block_index])
    defect_zero = [
        bi for bi, d in enumerate(block_data.defects) if d == 0
    ]
    out = []
    seen = set()

    def push(name, vector):
        reduced = list(vector)
        g = gcd(*reduced)
        if g > 1:
            reduced = [c // g for c in reduced]
            name = f"({name})/{g}"
        key = tuple(reduced)
        if any(key) and key not in seen:
            seen.add(key)
            out.append(ProjectiveColumn(name, _vec(reduced)))

    for dz in defect_zero:
        psi = block_data.table.characters[block_data.blocks[dz][0]]
        for ci, chi in enumerate(table.characters):
            prod = chi * psi
            coeffs = _ctab.expand_in_irreducibles(table, prod)
            vec = [int(coeffs[m]) for m in members]
            if any(vec):
                push(f"{chi.label}*{psi.label}", vec)
    for name, char in extra_induced:
        coeffs = _ctab.expand_in_irreducibles(table, char)
        for c in coeffs:
            if c.denominator != 1:
                raise NonIntegral(f"induced character does not expand integrally")
        vec = [int(coeffs[m]) for m in members]
        if any(vec):
            push(name, vec)
    return out


# ---------------------------------------------------------------------------
# D^T D = C enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanInstance:
    cartan: tuple[tuple[int, ...], ...]
    k: int


def dtd_solve(inst: CartanInstance) -> list[tuple[tuple[int, ...], ...]]:
    """All D >= 0 with k rows and D^T D = C, up to row permutation.

    D is built one column at a time, after Plesken: column j is an integer
    vector x >= 0 with |x|^2 = C_jj and x . d_i = C_ij for every earlier
    column d_i, chosen one row at a time.  Rows that are equal on the columns
    built so far form a group, and within a group the new entries may not
    increase; so the rows of D stay in non-increasing lexicographic order and
    each row multiset is generated exactly once.  After each entry the
    remaining norm and every remaining inner product need_i must stay >= 0,
    and by Cauchy-Schwarz need_i^2 <= rest_norm * sum_{r' > r} D[r'][i]^2
    (the Fincke-Pohst bound).  A solution has at most trace(C) nonzero rows,
    so rows beyond that are zero and are not searched.

    Returns the sorted list of solutions, each a tuple of rows in descending
    order.  Raises NotSquare unless C is l x l, TooLarge when a diagonal
    entry or k exceeds DTD_CAP (entries of D then stay <= 1024), and
    Infeasible when C is not symmetric and nonnegative with a positive
    diagonal, when k < 0 or when no D exists.
    """
    C = inst.cartan
    l = len(C)
    if any(len(row) != l for row in C):
        raise NotSquare(f"Cartan matrix must be square, got {l} rows of widths {sorted({len(r) for r in C})}")
    for i in range(l):
        if C[i][i] < 1:
            raise Infeasible("Cartan diagonal entries must be positive")
        for j in range(l):
            if C[i][j] != C[j][i]:
                raise Infeasible("Cartan matrix must be symmetric")
            if C[i][j] < 0:
                raise Infeasible("Cartan entries must be nonnegative")
    if any(C[j][j] > DTD_CAP for j in range(l)):
        raise TooLarge(f"Cartan diagonal entry above {DTD_CAP}")
    if inst.k > DTD_CAP:
        raise TooLarge(f"row count above {DTD_CAP}")
    if inst.k < 0:
        raise Infeasible("the row count must be nonnegative")
    k = min(inst.k, sum(C[j][j] for j in range(l)))
    pad = ((0,) * l,) * (inst.k - k)
    D = [[0] * l for _ in range(k)]
    # rest[j] and need[j][i] are what column j still owes to C_jj and C_ij
    rest = [C[j][j] for j in range(l)]
    need = [[C[i][j] for i in range(j)] for j in range(l)]
    # tail[i][r] = sum of D[r'][i]^2 over r' >= r, for completed columns i
    tail = [[0] * (k + 1) for _ in range(l)]
    # tied[j][r]: row r equals row r - 1 on the columns before j
    tied = [[r > 0 for r in range(k)] for _ in range(l)]
    solutions = []

    def upper(j, r):
        hi = isqrt(rest[j])
        if tied[j][r]:
            hi = min(hi, D[r - 1][j])
        row, nj = D[r], need[j]
        for i in range(j):
            if row[i]:
                hi = min(hi, nj[i] // row[i])
        return hi

    def place(j, r, v):
        """Set D[r][j] = v; True when the bounds still hold."""
        D[r][j] = v
        rest[j] -= v * v
        row, nj, rj = D[r], need[j], rest[j]
        ok = r + 1 < k or rj == 0
        for i in range(j):
            nj[i] -= v * row[i]
            ok = ok and nj[i] * nj[i] <= rj * tail[i][r + 1]
        return ok

    def unplace(j, r):
        v = D[r][j]
        D[r][j] = 0
        rest[j] += v * v
        row, nj = D[r], need[j]
        for i in range(j):
            nj[i] += v * row[i]
        return v

    def close(j):
        """Column j is complete: record its suffix norms and the row groups."""
        t = tail[j]
        for r in range(k - 1, -1, -1):
            t[r] = t[r + 1] + D[r][j] * D[r][j]
        if j + 1 < l:
            tied[j + 1] = [r > 0 and tied[j][r] and D[r - 1][j] == D[r][j] for r in range(k)]

    if l == 0:
        solutions.append(pad)
    # depth-first over the cells in column-major order, p = j * k + r
    nxt = [0] * (l * k)  # the next value to try in each cell, -1 once exhausted
    p = 0 if nxt else -1
    if nxt:
        nxt[0] = upper(0, 0)
    while p >= 0:
        if nxt[p] < 0:  # cell p is exhausted: back up to the one before
            p -= 1
            if p >= 0:
                nxt[p] = unplace(*divmod(p, k)) - 1
            continue
        j, r = divmod(p, k)
        ok = place(j, r, nxt[p])
        if ok and r + 1 == k:
            close(j)
            if j + 1 == l:
                solutions.append(tuple(tuple(row) for row in D) + pad)
                ok = False
        if ok:
            p += 1
            nxt[p] = upper(*divmod(p, k))
        else:
            nxt[p] = unplace(j, r) - 1
    if not solutions:
        raise Infeasible("no factorization D^T D = C with the required row count")
    return sorted(solutions)


# ---------------------------------------------------------------------------
# Fitting matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FittingProblem:
    """Matching data between the PIMs of a condensed endomorphism algebra and
    ordinary characters of the block."""

    e_decomposition: tuple[tuple[int, ...], ...]  # rows = E-ordinary, cols = E-PIMs
    e_row_degrees: tuple[int, ...]
    regular_multiplicities: tuple[int, ...]  # per block ordinary character; 0 = not met
    pinned: tuple[tuple[int, int], ...] = ()  # (E-row, block row) forced pairs


def fitting_match(state: DecompState, problem: FittingProblem):
    """All degree-multiset-admissible bijections E-rows -> block rows for which
    every implied projective-indecomposable column decomposes integrally (with
    nonnegative entries at the unmet ordinaries) in the projective basic set.

    The basic columns and -e_u for each unmet ordinary u are the columns of a
    k x n matrix M, which must have rank n.  One elimination of [M | I_k]
    gives the RREF [I_n | P] above [0 | Q]: M x = b is solvable exactly when
    Q b = 0, and then x = P b.  Each row of P is kept as integer numerators
    over one denominator and Q's rows are scaled to integers, so every
    (bijection, column) test is integer dot products.

    Returns (assignments, columns) where each assignment maps E-row index to
    block row index and columns are the implied indecomposable projectives.
    Raises TooLarge, before listing any permutation, when there are more than
    FITTING_CAP degree-preserving bijections of the unpinned E-rows.
    """
    k = state.k
    erows = len(problem.e_row_degrees)
    met = [i for i in range(k) if problem.regular_multiplicities[i]]
    unmet = [i for i in range(k) if not problem.regular_multiplicities[i]]
    if len(met) != erows:
        raise NoAdmissibleMatching("row counts disagree with the regular character")
    pinned = dict(problem.pinned)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for er, d in enumerate(problem.e_row_degrees):
        groups.setdefault(d, ([], []))[0].append(er)
    for i in met:
        d = problem.regular_multiplicities[i]
        if d not in groups:
            raise NoAdmissibleMatching(f"no E-row of degree {d}")
        groups[d][1].append(i)
    plans = {}  # per degree: the pinned pairs, the free E-rows and their free targets
    for d, (es, bs) in groups.items():
        if len(es) != len(bs):
            raise NoAdmissibleMatching(f"degree multiset mismatch at {d}")
        fixed = {e: pinned[e] for e in es if e in pinned}
        plans[d] = (fixed, [e for e in es if e not in fixed], [b for b in bs if b not in fixed.values()])
    if prod(factorial(len(free)) for _fixed, free, _bs in plans.values()) > FITTING_CAP:
        raise TooLarge(f"more than {FITTING_CAP} degree-preserving bijections")
    basics = state.basic_matrix()
    full = basics + [tuple(-(i == u) for i in range(k)) for u in unmet]
    n = len(full)
    A = [[col[i] for col in full] + [int(i == j) for j in range(k)] for i in range(k)]
    if len(rref_rational(A, n)) < n:
        raise NoAdmissibleMatching("unmet ordinaries are not determined by the basic set")
    P = [_over_one_denominator([row[n:]]) for row in A[:n]]
    Q = _over_one_denominator([row[n:] for row in A[n:]])[1]
    # free rows take their free targets in every order; pins that repeat a
    # target or leave their group leave it no bijection
    per_group = [
        [tuple(sorted({**fixed, **dict(zip(free, pb))}.items())) for pb in itertools.permutations(bs)]
        if len(free) == len(bs) else [] for _d, (fixed, free, bs) in sorted(plans.items())
    ]
    survivors = []
    for combo in itertools.product(*per_group):
        assignment = dict(itertools.chain.from_iterable(combo))
        cols = []
        for ecol in zip(*problem.e_decomposition):
            column = [0] * k
            for er, i in assignment.items():
                column[i] = ecol[er]
            # the entries at unmet ordinaries are unknowns, solved inside the
            # rational span of the basic set; all must come out integral
            if any(_dot(row, column) for row in Q):
                break
            sol = [(_dot(row, column), d) for d, [row] in P]
            if any(x % d for x, d in sol):
                break
            fills = [x // d for x, d in sol[len(basics):]]
            if any(f < 0 for f in fills):
                break
            for u, f in zip(unmet, fills):
                column[u] = f
            cols.append(column)
        else:
            survivors.append((assignment, [tuple(map(Fraction, col)) for col in cols]))
    if not survivors:
        raise NoAdmissibleMatching("no bijection passes the integrality filter")
    return survivors


# ---------------------------------------------------------------------------
# Refinement, enumeration, elimination
# ---------------------------------------------------------------------------


def refine_by_relation(state: DecompState, name: str, psi_new: Vec) -> DecompState:
    """Use a new projective character to shrink a basic-set column.

    If psi_new = sum of nonnegative multiples of basic columns except for a
    single negative multiple -m on a proven-indecomposable column Phi, and the
    positive support includes a non-indecomposable column Psi, then Psi - m.Phi
    is projective and replaces Psi.
    """
    cols = state.basic_matrix()
    sol = solve_exact(cols, _vec(psi_new))
    if sol is None:
        raise NonIntegral("the new projective is outside the basic-set span")
    if any(c.denominator != 1 for c in sol):
        raise NonIntegral(f"non-integral decomposition {sol}")
    negatives = [(j, int(c)) for j, c in enumerate(sol) if c < 0]
    if not negatives:
        return state.with_log(f"{name}: nonnegative in the basic set; no-op")
    if len(negatives) != 1:
        raise NoInferencePossible("more than one negative coefficient")
    jneg, m = negatives[0]
    m = -m
    if not state.proj_basic[jneg].indecomposable:
        raise NoInferencePossible("negative part is not proven indecomposable")
    positives = [j for j, c in enumerate(sol) if c > 0 and not state.proj_basic[j].indecomposable]
    if not positives:
        raise NoInferencePossible("no replaceable positive column")
    jpos = positives[0]
    old = state.proj_basic[jpos]
    new_coeffs = _vsub(old.coeffs, _vscale(m, state.proj_basic[jneg].coeffs))
    if any(c < 0 for c in new_coeffs):
        raise NoInferencePossible("difference has negative ordinary multiplicities")
    new_col = ProjectiveColumn(f"{old.name}'", new_coeffs, old.indecomposable)
    basic = list(state.proj_basic)
    basic[jpos] = new_col
    msg = (
        f"{name} = {' + '.join(f'{int(c)}*{state.proj_basic[j].name}' for j, c in enumerate(sol) if c)}"
        f" => {new_col.name} := {old.name} - {m}*{state.proj_basic[jneg].name}"
    )
    return replace(state, proj_basic=tuple(basic)).with_log(msg)


def enumerate_candidates(state: DecompState) -> DecompState:
    """All decompositions refining each non-indecomposable basic column by
    subtracting nonnegative multiples of the indecomposable columns, subject
    to nonnegativity of the full implied matrix.  Raises Infeasible when an
    indecomposable column has no positive entry (it could be subtracted
    without end) or when the candidates would exceed CANDIDATE_CAP."""
    indec = [c.coeffs for c in state.proj_basic if c.indecomposable]
    open_cols = [j for j, c in enumerate(state.proj_basic) if not c.indecomposable]
    if open_cols and not all(any(x > 0 for x in col) for col in indec):
        raise Infeasible("an indecomposable column has no positive entry")
    options_per_col = []
    for j in open_cols:
        options = [state.proj_basic[j].coeffs]
        for col in indec:
            options = [
                cand for v in options
                for cand in itertools.takewhile(_nonnegative, (_vsub(v, _vscale(t, col)) for t in itertools.count()))
            ]
        options_per_col.append(options)
    if prod(len(o) for o in options_per_col) > CANDIDATE_CAP:
        raise Infeasible(f"candidate count exceeds the cap {CANDIDATE_CAP}")
    candidates = set()
    for combo in itertools.product(*options_per_col):
        chosen = dict(zip(open_cols, combo))
        cols = [chosen.get(j, c.coeffs) for j, c in enumerate(state.proj_basic)]
        # the rows of D; range(k) keeps k empty rows when there are no columns
        candidates.add(tuple(tuple(int(x) for x in row) for _i, *row in zip(range(state.k), *cols)))
    return replace(state, candidates=tuple(sorted(candidates))).with_log(
        f"enumerated {len(candidates)} candidates"
    )


def candidate_brauer_degrees(state: DecompState, candidate) -> list[Fraction]:
    """Degrees of the irreducible Brauer characters implied by a candidate
    matrix: solve (bold rows of D) . degrees = bold ordinary degrees."""
    idx = state.brauer_basic
    cols = [[candidate[i][j] for i in idx] for j in range(state.l)]
    sol = solve_exact(cols, [state.row_degrees[i] for i in idx])
    if sol is None:
        raise SingularA("candidate's basic rows are singular")
    return sol


def _keep_candidates(state: DecompState, keep, what: str, none_left: str) -> DecompState:
    """The candidates whose implied Brauer degrees pass `keep`; AllEliminated
    when none does."""
    kept = tuple(c for c in state.candidates if keep(candidate_brauer_degrees(state, c)))
    if not kept:
        raise AllEliminated(none_left)
    return replace(state, candidates=kept).with_log(f"{what}: {len(state.candidates)} -> {len(kept)}")


def eliminate_by_atom(state: DecompState, atom_degree: int, position: int) -> DecompState:
    """Keep candidates whose implied Brauer degree at `position` is at least
    the atom degree (the atom is a certified lower bound)."""
    if atom_degree == 0 or not state.candidates:
        return state.with_log("atom degree 0: no elimination")
    return _keep_candidates(state, lambda degs: degs[position] >= atom_degree,
                            f"atom of degree {atom_degree} at column {position}",
                            "every candidate contradicts the atom bound")


def import_known_brauer(state: DecompState, known: dict[int, int]) -> DecompState:
    """Keep candidates whose implied degrees match the known ones exactly."""
    return _keep_candidates(state, lambda degs: all(degs[j] == d for j, d in known.items()),
                            f"imported known degrees {sorted(known.items())}",
                            "no candidate matches the known Brauer degrees")


# ---------------------------------------------------------------------------
# Brauer atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomProblem:
    multiplicities: tuple[tuple[int, ...], ...]  # rows = simples, cols = modules
    characters: tuple[Vec, ...]  # per module, in any consistent coordinates


def atoms(problem: AtomProblem) -> list[Vec]:
    """b . A^-1: virtual characters whose degrees bound Brauer degrees below.

    A^-1 and the characters are each brought to one common denominator, so
    every atom is a sum of integer rows, divided once at the end.  SingularA
    unless A is square with one character per module, ShapeMismatch for
    characters of unequal length."""
    A = problem.multiplicities
    n = len(A)
    if any(len(r) != n for r in A) or len(problem.characters) != n:
        raise SingularA("multiplicity matrix must be square, with one character per module")
    if len({len(ch) for ch in problem.characters}) > 1:
        raise ShapeMismatch(f"characters of lengths {sorted({len(ch) for ch in problem.characters})}")
    d, Ainv = _over_one_denominator(invert_rational(A))
    e, chars = _over_one_denominator(problem.characters)
    den = d * e
    out = []
    for j in range(n):
        acc = [0] * len(chars[0])
        for i in range(n):
            c = Ainv[i][j]
            if c:
                acc = [x + c * y for x, y in zip(acc, chars[i])]
        if any(x % den for x in acc):
            raise NonIntegralAtoms(f"atom {j} is not integral")
        out.append(tuple(Fraction(x // den) for x in acc))
    return out


# ---------------------------------------------------------------------------
# Semidihedral (order 16) analysis
# ---------------------------------------------------------------------------

SD16_SIGN_CASES = (
    (1, 1, -1, -1),
    (1, -1, -1, 1),
    (-1, 1, -1, 1),
    (1, 1, -1, 1),
)
# the degree relations c_a x_a + c_b x_b = rhs, c = sign * delta, rhs over
# (chi_b', chi*', chi^'): (1) + (3) = (2) + (4), so any three imply the fourth
SD16_RELATIONS = (
    ((0, 1), (1, 1), (0, 1, 0)),
    ((1, 1), (3, 1), (0, 0, 1)),
    ((0, -1), (2, -1), (0, 0, 1)),
    ((2, -1), (3, -1), (0, 1, 0)),
)


@dataclass(frozen=True)
class SD16Instance:
    """Eight ordinary characters of a semidihedral-defect-16 block.

    chars: (label, degree, height) with height multiset {0,0,0,0,1,1,1,2}.
    """

    chars: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        hs = sorted(h for _, _, h in self.chars)
        if hs != [0, 0, 0, 0, 1, 1, 1, 2]:
            raise NoConsistentSigns(f"height pattern {hs} is not SD16-shaped")


@dataclass(frozen=True)
class SD16Result:
    deltas: tuple[int, int, int, int]
    labeling: tuple[str, str, str, str]  # labels of chi_1..chi_4
    basic_labels: tuple[str, str, str]
    matrix: tuple[tuple[int, ...], ...]  # rows in instance order over the basic set


def sd16_analyze(inst: SD16Instance) -> SD16Result:
    """Resolve the sign case from the degree relations and emit the matrix.

    Relations (SD16_RELATIONS): d1 x1 + d2 x2 = x* = -d3 x3 - d4 x4 and
               d2 x2 + d4 x4 = x^ = -d1 x1 - d3 x3   (on restrictions).
    Solutions come in pairs under x1 <-> x4, x2 <-> x3 with negated signs;
    the canonical representative is the one inside the four listed cases,
    least (case index, labeling) first.
    """
    h0 = [(lbl, deg) for lbl, deg, h in inst.chars if h == 0]
    h1 = [(lbl, deg) for lbl, deg, h in inst.chars if h == 1]
    h2 = [(lbl, deg) for lbl, deg, h in inst.chars if h == 2]
    star_deg = h1[0][1]
    if any(d != star_deg for _, d in h1):
        raise NoConsistentSigns("height-one characters must share a degree")
    hat_deg = h2[0][1]
    found = []
    for case_idx, deltas in enumerate(SD16_SIGN_CASES):
        for perm in itertools.permutations(range(4)):
            degs = [h0[i][1] for i in perm]
            if all(sa * deltas[a] * degs[a] + sb * deltas[b] * degs[b] == _dot(rhs, (0, star_deg, hat_deg))
                   for (a, sa), (b, sb), rhs in SD16_RELATIONS):
                found.append((case_idx, perm))
    if not found:
        raise NoConsistentSigns("no sign case satisfies the degree relations")
    # quotient by the symmetry (1<->4, 2<->3 with negated deltas)
    classes = []
    seen = set()
    for case_idx, perm in found:
        if (case_idx, perm) in seen:
            continue
        d = SD16_SIGN_CASES[case_idx]
        partner_delta = (-d[3], -d[2], -d[1], -d[0])
        partner_perm = (perm[3], perm[2], perm[1], perm[0])
        seen.add((case_idx, perm))
        if partner_delta in SD16_SIGN_CASES:
            seen.add((SD16_SIGN_CASES.index(partner_delta), partner_perm))
        classes.append((case_idx, perm))
    if len(classes) > 1:
        raise AmbiguousCase(f"{len(classes)} inequivalent sign solutions")
    case_idx, perm = classes[0]
    deltas = SD16_SIGN_CASES[case_idx]
    labeling = tuple(h0[i][0] for i in perm)
    # basic set member: least-degree height-0 character (call it chi_b)
    bpos = min(range(4), key=lambda i: h0[perm[i]][1])
    # expansions over (chi_b', chi*', chi^'), outward from chi_b: a relation
    # with x_s known gives x_t = c_t (rhs - c_s x_s), as c_t = +-1
    vecs = {bpos: (1, 0, 0)}
    solved = [bpos]
    for s in solved:
        for *ends, rhs in SD16_RELATIONS:
            for (i, si), (t, st) in itertools.permutations(ends):
                if i == s and t not in vecs:
                    cs, ct = si * deltas[s], st * deltas[t]
                    vecs[t] = tuple(ct * (r - cs * x) for r, x in zip(rhs, vecs[s]))
                    solved.append(t)
    rows = []
    for lbl, deg, h in inst.chars:
        if h == 1:
            rows.append((0, 1, 0))
        elif h == 2:
            rows.append((0, 0, 1))
        else:
            pos = next(i for i in range(4) if h0[perm[i]][0] == lbl)
            rows.append(vecs[pos])
    basic_labels = (h0[perm[bpos]][0], h1[0][0], h2[0][0])
    return SD16Result(deltas, labeling, basic_labels, tuple(rows))


# ---------------------------------------------------------------------------
# Final verification gate
# ---------------------------------------------------------------------------


def verify_matrix(D, ordinary_vectors, brauer_vectors) -> bool:
    """chi_i = sum_j D[i][j] phi_j exactly, with D >= 0 integral.

    The characters (ints or Fractions) are brought to one common denominator
    once, and each row of the integer product D . B is compared with the
    ordinary row.  ShapeMismatch for a ragged D or for characters of unequal
    length."""
    k = len(D)
    l = len(D[0]) if k else 0
    if any(len(row) != l for row in D):
        raise ShapeMismatch(f"ragged decomposition matrix: row widths {sorted({len(row) for row in D})}")
    vectors = [*ordinary_vectors, *brauer_vectors]
    if len({len(v) for v in vectors}) > 1:
        raise ShapeMismatch(f"characters of lengths {sorted({len(v) for v in vectors})}")
    if len(ordinary_vectors) != k or len(brauer_vectors) != l:
        return False
    if any(x < 0 or int(x) != x for row in D for x in row):
        return False
    _d, vectors = _over_one_denominator(vectors)
    phis = vectors[k:]
    for row, chi in zip(D, vectors):
        acc = [0] * len(chi)
        for x, phi in zip(row, phis):
            if x:
                acc = [a + int(x) * y for a, y in zip(acc, phi)]
        if acc != chi:
            return False
    return True
