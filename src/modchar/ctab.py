"""Ordinary and Brauer character tables, blocks, basic sets, Clifford theory.

Tables for desk-scale groups are computed from first principles.  The simple
modules come from the tensor closure of the natural permutation module: split
it by the MeatAxe, then S (x) T for each new simple S and each non-trivial
factor T of the natural module, until there are as many simples as regular
classes.  Every MeatAxe leaf is lifted once on the regular classes, at their
orders, and is a new simple exactly when its Brauer character is new; those
characters are the rows of the table, so no two modules are ever compared.
The ordinary table is the Brauer table at an auxiliary prime r with
r = 1 mod exp(G) (so reduction mod r is faithful on characters and the lifts
are the ordinary values); the p-modular table is the same closure over
GF(p^m), m the least even number for which every p-regular class is closed
under g -> g^(p^m) (so GF(p^m) splits the group), lifted on the p-regular
classes.  The regular module is never built and no table database is
consulted.

Blocks are the classes of equal central characters under the residue map
zeta_e -> w^((p^m - 1)/e') into GF(p^m), w the Conway generator, which is the
inverse of the Brauer lift (both through `gfla.root_of_unity`; see `blocks`).  The decomposition data of an
index-2 extension are orbit sums of the group's rows and columns (see
`clifford_index2`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from . import grp as _grp
from . import rep as _rep
from .cyclo import Cyclotomic, brauer_char_value, solve_rational, weighted_inner
from .errors import (
    ActionNotInvolution,
    FusionDegreeMismatch,
    FusionIncomplete,
    IdealChoiceFailure,
    NonIntegral,
    NotExpandable,
    NotInSpan,
    SelfCheckFailed,
)
from .gfla import field_make, is_prime, root_of_unity


@dataclass(frozen=True)
class ClassInfo:
    label: str
    size: int
    order: int
    p_regular: bool = True


@dataclass(frozen=True)
class Character:
    values: tuple[Cyclotomic, ...]
    kind: str = "ordinary"  # ordinary | brauer | projective | virtual
    label: str = ""

    @property
    def degree(self) -> Cyclotomic:
        return self.values[0]

    def degree_int(self) -> int:
        return self.degree.as_int()

    def __mul__(self, other: "Character") -> "Character":
        return Character(
            tuple(a * b for a, b in zip(self.values, other.values)),
            kind="virtual" if "virtual" in (self.kind, other.kind) else self.kind,
            label=f"{self.label}*{other.label}",
        )


@dataclass(frozen=True)
class CharTable:
    group_order: int
    classes: tuple[ClassInfo, ...]
    characters: tuple[Character, ...]
    p: int | None = None
    power_maps: dict[int, tuple[int, ...]] = field(default_factory=dict, compare=False)

    @property
    def nclasses(self) -> int:
        return len(self.classes)

    def conductor(self) -> int:
        """The least e with every character value in Q(zeta_e)."""
        e = 1
        for chi in self.characters:
            for v in chi.values:
                e = lcm(e, v.n)
        return e


# ---------------------------------------------------------------------------
# Tables from permutation groups
# ---------------------------------------------------------------------------


def _auxiliary_prime(exponent: int, order: int) -> int:
    r = exponent + 1
    while True:
        if is_prime(r) and order % r:
            return r
        r += exponent


def _is_trivial(m: _rep.Representation) -> bool:
    return m.dim == 1 and all(int(g.arr[0, 0]) == 1 for g in m.gens)


def _tensor_closure(g: _grp.PermGroup, F, reps, seed: int) -> dict:
    """Pairwise non-isomorphic simple FG-modules, from the natural module up,
    keyed by their Brauer characters at the class representatives `reps`.

    The natural permutation module is faithful, so every simple module is a
    composition factor of one of its tensor powers (Burnside-Brauer-Steinberg),
    hence of some S (x) T with S found before and T a non-trivial factor of
    the natural module.  The MeatAxe leaves of each module (`rep._meataxe`),
    stably sorted by dimension, are keyed by their Brauer characters at
    `reps`.  Over a field of characteristic p the Brauer characters of
    pairwise non-isomorphic simple modules are linearly independent, so a
    leaf is new exactly when its character is, and the first such leaf is the
    factor `rep.chop` would keep; the dict keeps the order in which the
    simples were found.  Each new simple is tensored in first-in first-out
    order; the search stops once there are as many simples as `reps` or none
    is left to tensor, and raises SelfCheckFailed when it found fewer.
    """
    orders = [_grp.perm_order(x) for x in reps]
    simples: dict = {}

    def new_leaves(m):
        found = []
        for f in sorted(_rep._meataxe(m, seed)[0], key=lambda leaf: leaf.dim):
            key = tuple(brauer_char_value(_grp.element_matrix(g, f, x), e) for x, e in zip(reps, orders))
            if key not in simples:
                simples[key] = f
                found.append(f)
        return found

    movers = [t for t in new_leaves(_grp.perm_rep(g, F)) if not _is_trivial(t)]
    queue = deque(movers)  # 1 (x) T is T, already a factor of the natural module
    while queue and len(simples) < len(reps):
        s = queue.popleft()
        for t in movers:
            queue.extend(new_leaves(_rep.tensor(s, t)))
            if len(simples) >= len(reps):
                break
    if len(simples) < len(reps):
        raise SelfCheckFailed(f"the tensor closure found {len(simples)} simple modules, not {len(reps)}")
    return simples


def _simple_table(g: _grp.PermGroup, p: int | None, seed: int):
    """(CharTable, simples) at p, aligned index by index, or the ordinary
    table and its simples over GF(r) when p is None.  The rows are the keys of
    the tensor closure, sorted trivial first, then by degree and values; each
    character and its simple are labelled degree plus a letter in that order."""
    if p is None:
        F = field_make(_auxiliary_prime(g.exponent(), g.order), 1)
        cls = _grp.conjugacy_classes(g)
    else:
        field_make(p)  # a p that is not a prime is refused before the degree search
        cls = _grp.conjugacy_classes(g, p)
        F = field_make(p, _splitting_degree(cls, p))
    keep = [i for i, ok in enumerate(cls.p_regular(p)) if ok]
    simples = _tensor_closure(g, F, [cls.reps[i] for i in keep], seed)
    one = Cyclotomic.one()

    def sort_key(values):
        return (any(v != one for v in values), values[0].as_int(), repr([v.coeffs for v in values]))

    rows = sorted(simples, key=sort_key)
    labels = _grp.letter_labels(values[0].as_int() for values in rows)
    chars = tuple(Character(values, "brauer" if p else "ordinary", label) for values, label in zip(rows, labels))
    class_labels = cls.labels()
    classes = tuple(ClassInfo(class_labels[i], cls.sizes[i], cls.orders[i], True) for i in keep)
    table = CharTable(g.order, classes, chars, p, dict(cls.power_maps))
    return table, tuple(simples[values].relabel(label) for values, label in zip(rows, labels))


def ordinary_table(g: _grp.PermGroup, seed: int = 1) -> CharTable:
    """Ordinary character table from the simples over an auxiliary prime r.

    r = 1 mod exp(G) and r does not divide |G|, so GF(r) splits G, every
    class is r-regular and the lifted eigenvalue sums are the ordinary
    characters.  The simples come from the tensor closure of the natural
    module; row orthogonality is checked before the table is returned.
    """
    table = _simple_table(g, None, seed)[0]
    _check_orthogonality(table)
    return table


def _splitting_degree(cls: _grp.ClassData, p: int) -> int:
    """The least even m such that every p-regular class is closed under
    g -> g^(p^m).  GF(p^m) then has as many simple modules as p-regular
    classes (Berman), so it splits the group."""
    regular = [i for i, ok in enumerate(cls.p_regular(p)) if ok]
    m = 2
    while any(cls.class_of[_grp.perm_pow(cls.reps[i], pow(p, m, cls.orders[i]))] != i for i in regular):
        m += 2
    return m


def brauer_data(g: _grp.PermGroup, p: int, seed: int = 1):
    """(CharTable, simple modules) at p, aligned index by index.

    The simples are the tensor closure of the natural module over the
    splitting field GF(p^m) of `_splitting_degree`, stopped at as many simples
    as p-regular classes; the rows are their Brauer characters there.
    """
    return _simple_table(g, p, seed)


def brauer_table(g: _grp.PermGroup, p: int, seed: int = 1) -> CharTable:
    """Irreducible Brauer characters at p, from the tensor closure of the
    natural module over a splitting field (see brauer_data)."""
    return brauer_data(g, p, seed)[0]


def _check_orthogonality(table: CharTable):
    n = len(table.characters)
    for i in range(n):
        for j in range(i, n):
            s = scalar(table, table.characters[i], table.characters[j])
            expected = Fraction(1) if i == j else Fraction(0)
            if s != expected:
                raise SelfCheckFailed(f"orthogonality fails at ({i},{j}): {s}")


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def restrict_table(table: CharTable, p: int) -> CharTable:
    """The table's characters restricted to its p-regular classes."""
    field_make(p)  # a p that is not a prime is refused before the classes are kept
    keep = [i for i, c in enumerate(table.classes) if c.order % p != 0]
    classes = tuple(table.classes[i] for i in keep)
    chars = tuple(
        Character(tuple(ch.values[i] for i in keep), "brauer", ch.label + "'")
        for ch in table.characters
    )
    return CharTable(table.group_order, classes, chars, p, {})


def scalar(table: CharTable, a: Character, b: Character) -> Fraction:
    """(1/|G|) sum over classes of |C| a(C) conj(b(C)); exact rational."""
    total = weighted_inner((c.size for c in table.classes), a.values, b.values)
    if not total.is_rational():
        raise NonIntegral(f"scalar product irrational: {Fraction(1, table.group_order) * total}")
    return total.as_fraction() / table.group_order


def induce(
    sub_table: CharTable,
    chi: Character,
    big_table: CharTable,
    fusion: tuple[int, ...],
) -> Character:
    """Induction along a class fusion map (subgroup class -> ambient class)."""
    if len(fusion) != sub_table.nclasses:
        raise FusionIncomplete("fusion map must cover every subgroup class")
    vals = []
    for gi, gcls in enumerate(big_table.classes):
        acc = Cyclotomic.zero()
        for si, scls in enumerate(sub_table.classes):
            if fusion[si] != gi:
                continue
            acc = acc + Fraction(scls.size) * chi.values[si]
        # Ind(chi)(g) = (|G| / (|H| |g^G|)) * sum over fused classes |c| chi(c)
        acc = Fraction(big_table.group_order, sub_table.group_order * gcls.size) * acc
        vals.append(acc)
    return Character(tuple(vals), "ordinary", f"ind({chi.label})")


def expand_in_irreducibles(table: CharTable, psi: Character) -> list[Fraction]:
    return [scalar(table, psi, chi) for chi in table.characters]


# ---------------------------------------------------------------------------
# Blocks, defects, heights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockData:
    table: CharTable
    p: int
    blocks: tuple[tuple[int, ...], ...]  # character indices per block
    defects: tuple[int, ...]

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def block_of(self, char_index: int) -> int:
        for bi, members in enumerate(self.blocks):
            if char_index in members:
                return bi
        raise KeyError(char_index)


def _nu(p: int, n: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def blocks(table: CharTable, p: int) -> BlockData:
    """Block distribution via central characters reduced modulo a prime over p.

    With e the conductor of the character values, e' its p'-part and m the
    order of p mod e', zeta_e maps to theta = w^((p^m - 1)/e') in GF(p^m), w
    the Conway generator: gfla.root_of_unity, the one choice that
    cyclo.brauer_char_value lifts through.  theta is a primitive e'-th root
    of unity, so a root of Phi_e mod p, and every irreducible factor of Phi_e
    mod p has degree m.  Two such maps differ by zeta -> zeta^k with k a unit
    mod |G|, which sends the central character value of chi at a class K to
    its value at the class of k-th powers, of the same size; so the
    partition does not depend on the map chosen.
    """
    if any(chi.degree.is_zero() for chi in table.characters):
        raise NonIntegral("a character of degree 0 has no central character")
    # not the group exponent: a class of large element order may carry only
    # rational values
    e = table.conductor()
    Fp = field_make(p)  # a p that is not a prime is refused before _nu(p, e)
    E, theta = root_of_unity(Fp, e // p ** _nu(p, e))
    groups: dict[tuple, list[int]] = {}  # in the order of their first members
    for i, chi in enumerate(table.characters):
        deg = chi.degree.as_fraction()
        sig = tuple(
            _reduce_mod_ideal((Fraction(cls.size) / deg) * v, e, theta, E, p)
            for cls, v in zip(table.classes, chi.values)
        )
        groups.setdefault(sig, []).append(i)
    nu_g = _nu(p, table.group_order)
    defects = [nu_g - min(_nu(p, table.characters[i].degree_int()) for i in b) for b in groups.values()]
    return BlockData(table, p, tuple(tuple(b) for b in groups.values()), tuple(defects))


def _reduce_mod_ideal(v: Cyclotomic, e: int, theta: int, E, p: int) -> int:
    """Image of an algebraic integer under zeta_e -> theta in GF(p^m)."""
    if e % v.n:
        raise IdealChoiceFailure("conductor does not divide the exponent")
    tpow = E.pow_el(theta, e // v.n)
    acc = 0
    for i, c in enumerate(v.coeffs):
        if c == 0:
            continue
        if c.denominator % p == 0:
            raise IdealChoiceFailure("denominator not invertible mod p")
        acc = E.add(acc, E.mul(c.numerator * pow(c.denominator, -1, p) % p, E.pow_el(tpow, i)))
    return acc


def heights(block: BlockData, block_index: int) -> dict[int, int]:
    """Character index -> height inside the given block."""
    nu_g = _nu(block.p, block.table.group_order)
    d = block.defects[block_index]
    out = {}
    for i in block.blocks[block_index]:
        out[i] = _nu(block.p, block.table.characters[i].degree_int()) - (nu_g - d)
    return out


def block_project(
    table: CharTable, psi: Character, block: BlockData, block_index: int
) -> Character:
    """Keep only the ordinary-irreducible summands lying in the block."""
    coeffs = expand_in_irreducibles(table, psi)
    for c in coeffs:
        if c.denominator != 1:
            raise NotExpandable("character does not expand integrally")
    members = set(block.blocks[block_index])
    vals = [Cyclotomic.zero() for _ in table.classes]
    for i, c in enumerate(coeffs):
        if i in members and c:
            for ci in range(table.nclasses):
                vals[ci] = vals[ci] + c * table.characters[i].values[ci]
    return Character(tuple(vals), "projective" if psi.kind == "projective" else psi.kind,
                     psi.label + "|B")


# ---------------------------------------------------------------------------
# Basic sets / exact decomposition
# ---------------------------------------------------------------------------


def _values_to_rational_rows(chars: list[Character]) -> list[list[Fraction]]:
    """Flatten cyclotomic values into rational coordinate rows over a common
    conductor, one column group per class."""
    n_common = 1
    for ch in chars:
        for v in ch.values:
            n_common = lcm(n_common, v.n)
    return [[x for v in ch.values for x in v.coords(n_common)] for ch in chars]


def decompose_basic(basic: list[Character], theta: Character):
    """Exact integer coefficients of theta over the basic set; NonIntegral or
    NotInSpan on failure."""
    rows = _values_to_rational_rows(list(basic) + [theta])
    mat = [[rows[j][i] for j in range(len(basic))] for i in range(len(rows[0]))]
    sol = solve_rational(mat, rows[-1])
    if sol is None:
        raise NotInSpan(f"{theta.label} is not in the span of the basic set")
    for c in sol:
        if c.denominator != 1:
            raise NonIntegral(f"non-integral coefficient {c}")
    return [c.numerator for c in sol]


# ---------------------------------------------------------------------------
# Index-2 Clifford theory on decomposition data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """Decomposition-matrix data of one block: rows are ordinary characters,
    columns irreducible Brauer characters."""

    label: str
    p: int
    row_labels: tuple[str, ...]
    row_degrees: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]
    col_degrees: tuple[int, ...] = ()
    basic_rows: tuple[int, ...] = ()

    @property
    def k(self):
        return len(self.row_labels)

    @property
    def l(self):
        return len(self.matrix[0]) if self.matrix else 0

    def row(self, i):
        return self.matrix[i]


def _check_orbits(orbits, n: int, what: str):
    """ActionNotInvolution unless the orbits are disjoint sets of distinct
    indices in 0..n-1."""
    members = [x for orbit in orbits for x in orbit]
    if len(set(members)) < len(members) or not all(0 <= x < n for x in members):
        raise ActionNotInvolution(f"{what} must be disjoint, with distinct members in 0..{n - 1}")


@dataclass(frozen=True)
class CliffordResult:
    blocks: tuple[BlockDecomposition, ...]


def clifford_index2(
    g_block: BlockDecomposition,
    brauer_pairs: tuple[tuple[int, int], ...],
    ordinary_pairs: tuple[tuple[int, int], ...],
    row_plan: tuple[tuple[str, object], ...] | None = None,
    morita_split: bool = False,
) -> CliffordResult:
    """Decomposition data of the index-2 extension from that of the group.

    brauer_pairs: column index pairs swapped by the outer automorphism (the
    rest are invariant).  ordinary_pairs: row index pairs interchanged (the
    rest extend).  At p = 2 both extensions of an invariant character agree on
    the 2-regular classes, so invariant rows appear twice with equal entries
    and invariant columns once; a swapped pair of columns fuses into one
    induced column, a swapped pair of rows into one row equal to the sum.

    The result is built from orbit sums.  Each output column is a tuple of
    source columns, (j,) for an invariant column or (a, b) for a swapped
    pair, placed where its first member was; each output row is a tuple of
    source rows, (i,) for ("ext", i) or (r1, r2) for ("fuse", (r1, r2)).  An
    entry is the sum over the row's source rows of their entry in the
    column's first member (an "ext" row must be equal on a swapped pair);
    labels are the source labels joined by "+", row and column degrees the
    sums of the source degrees.

    row_plan optionally prescribes the output row order as entries
    ("ext", row) twice per invariant row or ("fuse", (r1, r2)); by default all
    invariant rows come first (each doubled), then the fused pairs.

    morita_split handles the odd-p case in which the whole block is invariant
    and the extension splits into two blocks Morita equivalent to the input:
    the result then carries two copies of the input matrix.

    Raises ActionNotInvolution unless the column pairs, the row pairs and the
    rows of each plan entry are disjoint sets of distinct indices inside the
    block.
    """
    _check_orbits(brauer_pairs, g_block.l, "column pairs")
    _check_orbits(ordinary_pairs, g_block.k, "row pairs")
    for a, b in ordinary_pairs:
        if g_block.row_degrees[a] != g_block.row_degrees[b]:
            raise FusionDegreeMismatch("swapped ordinary characters must share a degree")
    if morita_split:
        if brauer_pairs or ordinary_pairs:
            raise FusionDegreeMismatch("a Morita-split cover has no fused pairs")
        return CliffordResult(tuple(replace(g_block, label=f"{g_block.label}{sign}") for sign in "+-"))
    if row_plan is None:
        swapped = {r for pr in ordinary_pairs for r in pr}
        row_plan = tuple(
            ("ext", i) for i in range(g_block.k) if i not in swapped for _ in (0, 1)
        ) + tuple(("fuse", pr) for pr in ordinary_pairs)
    sources = []
    for kind, payload in row_plan:
        if kind == "ext":
            sources.append((payload,))
        elif kind == "fuse":
            r1, r2 = payload
            sources.append((r1, r2))
        else:
            raise ValueError(f"unknown row plan entry {kind!r}")
        _check_orbits(sources[-1:], g_block.k, f"the rows of a {kind!r} entry")

    pair_of = {j: pr for pr in brauer_pairs for j in pr}
    cols = [pair_of.get(j, (j,)) for j in range(g_block.l)]
    cols = [pr for j, pr in enumerate(cols) if pr[0] == j]
    m = g_block.matrix
    rows, labels, degrees = [], [], []
    for src in sources:
        if len(src) == 1:  # an invariant row extends, so it is equal on each swapped pair
            for pr in cols:
                if len(pr) == 2 and m[src[0]][pr[0]] != m[src[0]][pr[1]]:
                    raise FusionDegreeMismatch(
                        f"invariant row {src[0]} differs on the swapped column pair {pr}"
                    )
        rows.append(tuple(sum(m[r][c[0]] for r in src) for c in cols))
        labels.append("+".join(g_block.row_labels[r] for r in src))
        degrees.append(sum(g_block.row_degrees[r] for r in src))
    result = BlockDecomposition(
        label=f"{g_block.label}.2",
        p=g_block.p,
        row_labels=tuple(labels),
        row_degrees=tuple(degrees),
        matrix=tuple(rows),
        col_degrees=tuple(sum(g_block.col_degrees[j] for j in c) for c in cols) if g_block.col_degrees else (),
    )
    return CliffordResult((result,))
