"""Command-line front end and bit-exact file formats.

Formats (LF newlines, no trailing whitespace):
  MTX q=<q> r=<rows> c=<cols>      then r lines of c packed base-10 entries
  PRM n=<degree> k=<count>         then k lines of n 1-based images
  REP q=<q> d=<dim> k=<count>      then k blocks of d lines of d entries
  CTB order=<N> classes=<m> p=<p|0>  then m class lines `size order label
      pregular`, then one line per character `kind degree v1 ... vm` with
      values integers or cyc(n)[a/b,...]
  DECSTATE block=<label> k=<rows> l=<columns>  then k `row <label> <degree>`
      lines, `basic <indices>`, l `col <name> x|. : <k coefficients>` lines,
      `candidates <N>` and N blocks of `cand ...` lines closed by `endcand`,
      and `log <message>` lines

Every command takes --seed (default 1), --out, --log; --log appends a
hash-chained manifest entry, so identical manifests reproduce identical
bytes.  Exit codes: 0 ok, 2 domain error, 3 I/O or format error.

The classic MeatAxe text matrix header `<mode> <q> <rows> <cols>` (mode 1)
is accepted on input wherever an MTX file is expected.

The readers share one tokenizer (textio).  Exit 3: a file that is not UTF-8;
a missing or wrong header word; a header key missing, unknown or repeated; a
header value that is not a non-negative integer (`block` excepted); an MTX
r/c, PRM n/k or REP d/k above the dimension ceiling 4096; an MTX/PRM/REP
entry that is not 1 to 18 ASCII digits, or a separator that is not ASCII
whitespace; more or fewer entries or lines than the header announces;
an MTX/REP entry outside 0..q-1; a PRM line that is not a permutation; a CTB
class line that is not 4 tokens with a 0/1 flag and a size and element order
dividing the group order, or a character line that is not m+2 tokens with
its degree as first value; a q that is not a prime power; for `dxm sd16`, a
fixture whose `meta p` is not a prime below 2^16 or whose `meta grouporder`
or a row degree is below 1; a --log manifest whose last line is not a JSON
object with a string hash.  MTX, PRM and REP bodies may use any line layout.
Exit 2: q above 2^16 (FieldTooLarge, before any other work), a bad
--field/--pins/--known value (usage error), an out-of-range --char, --block
or --blockindex, and `rep chop`/`rep socle`/`rep hom` on modules without
generators (chop above dimension 1, hom on two non-zero modules).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, cond, ctab, dxm, fixtures, gfla, grp, rep
from .cyclo import Cyclotomic, format_cyclotomic, parse_cyclotomic
from .errors import FieldTooLarge, FormatError, ModcharError
from .textio import dim, grid, grid_text, header, ints, read_text, split_head


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_text(path: str, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def format_matrix(m: gfla.FqMatrix) -> str:
    return f"MTX q={m.field.q} r={m.rows} c={m.cols}\n" + grid_text(m.arr)


def parse_matrix(text: str) -> gfla.FqMatrix:
    line, body = split_head(text)
    legacy = line.split()
    if len(legacy) == 4 and all(t.isdecimal() for t in legacy):
        # classic MeatAxe text header: mode q rows cols
        mode, q = ints(legacy[:2], "MeatAxe header")
        if mode != 1:
            raise FormatError(f"unsupported MeatAxe mode {mode}")
        r, c = map(dim, legacy[2:])
    else:
        kv, body = header(text, "MTX", {"q": int, "r": dim, "c": dim})
        q, r, c = kv["q"], kv["r"], kv["c"]
    return gfla.FqMatrix(_field_of(q), grid(body, r, c, q))


def _field_of(q: int) -> gfla.FieldSpec:
    """GF(q); a q above the ceiling is refused before it is factored."""
    if q > gfla.FIELD_CEILING:
        raise FieldTooLarge(f"q={q} exceeds the ceiling {gfla.FIELD_CEILING}")
    factors = gfla.factorize(q)
    if len(factors) != 1:
        raise FormatError(f"q={q} is not a prime power")
    return gfla.field_make(*factors.popitem())


def format_perms(perms: list, degree: int) -> str:
    images = np.array(perms, dtype=np.int64).reshape(len(perms), degree) + 1
    return f"PRM n={degree} k={len(perms)}\n" + grid_text(images)


def parse_perms(text: str):
    kv, body = header(text, "PRM", {"n": dim, "k": dim})
    n = kv["n"]
    arr = grid(body, kv["k"], n, n + 1)
    if (np.sort(arr, axis=1) != np.arange(1, n + 1)).any():
        raise FormatError(f"a PRM line is not a permutation of 1..{n}")
    return [tuple(img) for img in (arr - 1).tolist()]


def format_rep(r: rep.Representation) -> str:
    return f"REP q={r.field.q} d={r.dim} k={r.ngens}\n" + "".join(grid_text(g.arr) for g in r.gens)


def parse_rep(text: str) -> rep.Representation:
    kv, body = header(text, "REP", {"q": int, "d": dim, "k": dim})
    q, d = kv["q"], kv["d"]
    field = _field_of(q)
    arr = grid(body, kv["k"] * d, d, q)
    gens = tuple(gfla.FqMatrix(field, arr[i * d : (i + 1) * d]) for i in range(kv["k"]))
    return rep.Representation(field, d, gens)


def format_table(t: ctab.CharTable) -> str:
    p = t.p if t.p else 0
    lines = [f"CTB order={t.group_order} classes={t.nclasses} p={p}"]
    for c in t.classes:
        lines.append(f"{c.size} {c.order} {c.label} {1 if c.p_regular else 0}")
    for ch in t.characters:
        vals = " ".join(format_cyclotomic(v) for v in ch.values)
        lines.append(f"{ch.kind} {ch.degree_int()} {vals}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> ctab.CharTable:
    kv, text = header(text, "CTB", {"order": int, "classes": int, "p": int})
    body = [line for line in text.splitlines() if line.strip()]
    m = kv["classes"]
    if kv["order"] < 1:
        raise FormatError("CTB: the group order must be positive")
    if len(body) < m:
        raise FormatError(f"CTB: expected {m} class lines, got {len(body)}")
    classes = []
    for line in body[:m]:
        toks = line.split()
        if len(toks) != 4 or toks[3] not in ("0", "1"):
            raise FormatError(f"CTB class line is not `size order label 0|1`: {line[:60]!r}")
        size, order = ints(toks[:2], "CTB class line")
        if min(size, order) < 1 or kv["order"] % size or kv["order"] % order:
            raise FormatError(f"CTB class size and element order must divide the group order: {line[:60]!r}")
        classes.append(ctab.ClassInfo(toks[2], size, order, toks[3] == "1"))
    chars = []
    for line in body[m:]:
        toks = line.split()
        if len(toks) != m + 2:
            raise FormatError(f"CTB character line needs {m + 2} tokens: {line[:60]!r}")
        # a value on class j lies in Q(zeta_e), e its element order, so its
        # conductor divides 2e (Q(zeta_e) = Q(zeta_2e) for odd e)
        vals = tuple(parse_cyclotomic(t, 2 * c.order) for t, c in zip(toks[2:], classes))
        if not vals or vals[0] != Cyclotomic.from_rational(ints(toks[1:2], "CTB degree")[0]):
            raise FormatError("degree check failed for a character line")
        chars.append(ctab.Character(vals, toks[0]))
    return ctab.CharTable(kv["order"], tuple(classes), tuple(chars), kv["p"] or None)


def format_decomp_state(state: dxm.DecompState) -> str:
    """Structured text for resumable decomposition sessions."""
    lines = [f"DECSTATE block={state.block_label} k={state.k} l={state.l}"]
    for lbl, deg in zip(state.row_labels, state.row_degrees):
        lines.append(f"row {lbl} {deg}")
    lines.append("basic " + " ".join(str(i) for i in state.brauer_basic))
    for col in state.proj_basic:
        flag = "x" if col.indecomposable else "."
        lines.append(
            f"col {col.name} {flag} : " + " ".join(str(int(c)) for c in col.coeffs)
        )
    lines.append(f"candidates {len(state.candidates)}")
    for cand in state.candidates:
        for row in cand:
            lines.append("cand " + " ".join(str(x) for x in row))
        lines.append("endcand")
    for msg in state.log:
        lines.append("log " + msg)
    return "\n".join(lines) + "\n"


def parse_decomp_state(text: str) -> dxm.DecompState:
    kv, text = header(text, "DECSTATE", {"block": str, "k": int, "l": int})
    body = [line for line in text.splitlines() if line.strip()]
    rows, degrees, basic, cols, candidates, current, log = [], [], (), [], [], [], []
    ncand = None
    for line in body:
        toks = line.split()
        word = toks[0]
        if word == "row" and len(toks) == 3:
            rows.append(toks[1])
            degrees.extend(ints(toks[2:], "DECSTATE row degree"))
        elif word == "basic":
            basic = tuple(ints(toks[1:], "DECSTATE basic"))
        elif word == "col" and len(toks) == kv["k"] + 4 and toks[2] in ("x", ".") and toks[3] == ":":
            coeffs = dxm._vec(ints(toks[4:], "DECSTATE col"))
            cols.append(dxm.ProjectiveColumn(toks[1], coeffs, toks[2] == "x"))
        elif word == "cand":
            current.append(tuple(ints(toks[1:], "DECSTATE cand")))
        elif word == "endcand":
            candidates.append(tuple(current))
            current = []
        elif word == "candidates" and len(toks) == 2 and ncand is None:
            (ncand,) = ints(toks[1:], "DECSTATE candidates")
        elif word == "log":
            log.append(line[4:])
        else:
            raise FormatError(f"bad DECSTATE line: {line[:60]!r}")
    if (len(rows), len(cols), len(candidates), current) != (kv["k"], kv["l"], ncand or 0, []):
        raise FormatError("DECSTATE: the row, col and closed cand counts must equal k, l and candidates")
    return dxm.DecompState(
        kv["block"], tuple(rows), tuple(degrees), basic, tuple(cols),
        tuple(candidates), tuple(log),
    )


# ---------------------------------------------------------------------------
# workspace manifest
# ---------------------------------------------------------------------------


def _sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def manifest_head(log_path: str) -> str:
    """The hash of the manifest's last entry, "" when there is none; a last
    entry that is not a JSON object with a string `hash` is a FormatError."""
    if not os.path.exists(log_path):
        return ""
    entries = [l for l in read_text(log_path).splitlines() if l.strip()]
    try:
        last = json.loads(entries[-1]) if entries else {"hash": ""}
    except (ValueError, RecursionError):
        last = None
    if not (isinstance(last, dict) and isinstance(last.get("hash"), str)):
        raise FormatError(f"{log_path}: the last manifest entry is not a JSON object with a string hash")
    return last["hash"]


def append_manifest(log_path: str, prev: str, command: str, argv, seed, inputs, outputs):
    entry = {
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "version": __version__,
        "inputs": [{"path": p, "sha256": _sha(p)} for p in inputs if os.path.exists(p)],
        "outputs": [{"path": p, "sha256": _sha(p)} for p in outputs if os.path.exists(p)],
        "prev": prev,
    }
    body = json.dumps(entry, sort_keys=True)
    entry["hash"] = hashlib.sha256(body.encode()).hexdigest()
    with open(log_path, "a", newline="\n") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _field_arg(s: str) -> tuple[int, int]:
    """`p,k` or `p` as (p, k); argparse reports a ValueError as a usage error."""
    p, _, k = s.partition(",")
    return int(p), int(k or 1)


def _label_pairs(s: str) -> tuple[tuple[str, str], ...]:
    """`a:b,c:d` as ((a, b), (c, d))."""
    pairs = tuple(tuple(pair.split(":")) for pair in s.split(","))
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(s)
    return pairs


def _int_pairs(s: str) -> dict[int, int]:
    return {int(a): int(b) for a, b in _label_pairs(s)}


def _index(seq, i: int, option: str) -> int:
    """`i` if it indexes `seq`; otherwise a domain error naming the option."""
    if not 0 <= i < len(seq):
        raise ModcharError(f"{option} {i} is out of range 0..{len(seq) - 1}")
    return i


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--log", default=argparse.SUPPRESS)
    common.add_argument("--field", type=_field_arg, default=argparse.SUPPRESS, help="p,k")

    ap = argparse.ArgumentParser(prog="modchar")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.add_argument("--log", default=None)
    ap.add_argument("--field", type=_field_arg, default=None, help="p,k")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    sp = sub.add_parser("field", help="construct a field and print its data")
    sp.add_argument("spec", type=_field_arg, help="p,k")

    sp = sub.add_parser("mat")
    sp.add_argument("op", choices=["add", "mul", "kron", "echelon", "nullspace", "minpoly", "charpoly"])
    sp.add_argument("-a", required=True)
    sp.add_argument("-b")

    sp = sub.add_parser("rep")
    sp.add_argument("op", choices=["chop", "spin", "iso", "dual", "tensor", "hom", "socle"])
    sp.add_argument("--rep", required=True)
    sp.add_argument("--other")
    sp.add_argument("--seeds")

    sp = sub.add_parser("grp")
    sp.add_argument("op", choices=["enum", "classes", "cosets", "dcosets"])
    sp.add_argument("--gens", required=True)
    sp.add_argument("--sub")
    sp.add_argument("-p", type=int, default=0)

    sp = sub.add_parser("cond")
    sp.add_argument("op", choices=["make", "elem", "perm", "tensor", "uncondense", "dim"])
    sp.add_argument("--rep")
    sp.add_argument("--other")
    sp.add_argument("--sub")
    sp.add_argument("--gens")
    sp.add_argument("--element")
    sp.add_argument("--space")
    sp.add_argument("--table")
    sp.add_argument("--char", type=int, default=0)

    sp = sub.add_parser("ctab")
    sp.add_argument("op", choices=["table", "brauer", "restrict", "blocks", "heights", "project", "decompose", "clifford2"])
    sp.add_argument("--gens")
    sp.add_argument("--table")
    sp.add_argument("-p", type=int, default=0)
    sp.add_argument("--char", type=int, default=0, help="character index")
    sp.add_argument("--block", type=int, default=0)
    sp.add_argument("--fixture")
    sp.add_argument("--target")

    sp = sub.add_parser("dxm")
    sp.add_argument("op", choices=["projs", "dtd", "fitting", "refine", "enumerate", "atoms", "eliminate", "sd16", "verify"])
    sp.add_argument("--cartan")
    sp.add_argument("--rows", type=int, default=None)
    sp.add_argument("--block", default=None)
    sp.add_argument("--fixture")
    sp.add_argument("--endo")
    sp.add_argument("--pins", type=_label_pairs, default=())
    sp.add_argument("--atom")
    sp.add_argument("--position", type=int, default=0)
    sp.add_argument("--known", type=_int_pairs, default=None)
    sp.add_argument("--gens")
    sp.add_argument("-p", type=int, default=0)
    sp.add_argument("--blockindex", type=int, default=0)

    sp = sub.add_parser("fixtures")
    sp.add_argument("op", choices=["list", "load"])
    sp.add_argument("name", nargs="?")

    return ap


def _emit(args, text: str, outputs: list):
    if args.out:
        write_text(args.out, text)
        outputs.append(args.out)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_field(args, outputs):
    F = gfla.field_make(*args.spec)
    lines = [
        f"field p={F.p} k={F.k} q={F.q}",
        "conway " + " ".join(str(c) for c in F.conway),
        f"omega {F.omega}",
    ]
    _emit(args, "\n".join(lines) + "\n", outputs)


def cmd_mat(args, outputs):
    a = parse_matrix(read_text(args.a))
    if args.op in ("add", "mul", "kron"):
        b = parse_matrix(read_text(args.b))
        out = gfla.mat_arith(a, b, args.op)
        _emit(args, format_matrix(out), outputs)
    elif args.op == "echelon":
        ech = gfla.echelonize(a)
        text = f"rank {ech.rank}\npivots {' '.join(str(p) for p in ech.pivots)}\n"
        text += format_matrix(ech.matrix)
        _emit(args, text, outputs)
    elif args.op == "nullspace":
        _emit(args, format_matrix(gfla.nullspace(a)), outputs)
    elif args.op == "minpoly":
        _emit(args, "minpoly " + gfla.min_poly(a).format() + "\n", outputs)
    elif args.op == "charpoly":
        _emit(args, "charpoly " + gfla.char_poly(a).format() + "\n", outputs)


def cmd_rep(args, outputs):
    r = parse_rep(read_text(args.rep))
    if args.op == "chop":
        factors = rep.chop(r, args.seed)
        text = " ".join(f"{f.label}:{m}" for f, m in factors) + "\n"
        _emit(args, text, outputs)
    elif args.op == "spin":
        seeds = parse_matrix(read_text(args.seeds))
        _emit(args, format_matrix(rep.spin(r, seeds)), outputs)
    elif args.op == "iso":
        other = parse_rep(read_text(args.other))
        h = rep.iso(r, other, args.seed)
        _emit(args, ("none\n" if h is None else format_matrix(h)), outputs)
    elif args.op == "dual":
        _emit(args, format_rep(rep.dual(r)), outputs)
    elif args.op == "tensor":
        other = parse_rep(read_text(args.other))
        _emit(args, format_rep(rep.tensor(r, other)), outputs)
    elif args.op == "hom":
        other = parse_rep(read_text(args.other))
        maps = rep.hom(r, other)
        text = f"dim {len(maps)}\n" + "".join(format_matrix(h) for h in maps)
        _emit(args, text, outputs)
    elif args.op == "socle":
        factors = rep.chop(r, args.seed)
        simples = [f for f, _ in factors]
        layers = rep.socle_series(r, simples, args.seed)
        lines = []
        for li, layer in enumerate(layers):
            part = " ".join(f"{simples[si].label}:{m}" for si, m in layer)
            lines.append(f"layer {li + 1}: {part}")
        _emit(args, "\n".join(lines) + "\n", outputs)


def cmd_grp(args, outputs):
    gens = parse_perms(read_text(args.gens))
    g = grp.enumerate_group(gens)
    if args.op == "enum":
        _emit(args, f"order {g.order}\n", outputs)
    elif args.op == "classes":
        cls = grp.conjugacy_classes(g, args.p or None)
        lines = [f"classes {cls.count}"]
        flags = cls.p_regular(args.p or None)
        for i, lbl in enumerate(cls.labels()):
            lines.append(f"{lbl} size {cls.sizes[i]} order {cls.orders[i]} regular {1 if flags[i] else 0}")
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "cosets":
        sub = parse_perms(read_text(args.sub))
        act = grp.coset_action(g, sub)
        _emit(args, format_perms(list(act.perms), act.degree), outputs)
    elif args.op == "dcosets":
        sub = parse_perms(read_text(args.sub))
        dcs = grp.double_cosets(g, sub)
        lines = [f"count {len(dcs)}"]
        for rep_, size in dcs:
            lines.append(" ".join(str(i + 1) for i in rep_) + f" size {size}")
        _emit(args, "\n".join(lines) + "\n", outputs)


def cmd_cond(args, outputs):
    if args.op == "dim":
        cmd_cond_dim(args, outputs)
        return
    if args.op == "perm":
        gperms = parse_perms(read_text(args.rep))
        ksub = parse_perms(read_text(args.sub))
        field = gfla.field_make(*(args.field or (2, 1)))
        mats, orbits = cond.condense_perm(field, len(gperms[0]), ksub, gperms)
        text = f"orbits {len(orbits)}\n" + "".join(format_matrix(m) for m in mats)
        _emit(args, text, outputs)
        return
    r = parse_rep(read_text(args.rep))
    kgens = parse_rep(read_text(args.sub)) if args.sub else None
    setup = cond.make_idempotent(r, list(kgens.gens) if kgens else [])
    if args.op == "make":
        text = f"rank {setup.rank}\n" + format_matrix(setup.image_basis)
        _emit(args, text, outputs)
    elif args.op == "elem":
        g = parse_matrix(read_text(args.element))
        _emit(args, format_matrix(cond.condense_element(setup, g)), outputs)
    elif args.op == "uncondense":
        u = parse_matrix(read_text(args.space))
        _emit(args, format_matrix(cond.uncondense(setup, u)), outputs)
    elif args.op == "tensor":
        other = parse_rep(read_text(args.other))
        word = rep.AlgebraWord(((1, (0,)),))
        m = cond.condense_tensor(r, other, [word], word)
        _emit(args, format_matrix(m), outputs)


def cmd_cond_dim(args, outputs):
    """Expects the table file to carry the group's full canonical class list
    (as produced by `ctab table --gens`), so class indices line up."""
    gens = parse_perms(read_text(args.gens))
    g = grp.enumerate_group(gens)
    sub = parse_perms(read_text(args.sub))
    t = parse_table(read_text(args.table))
    cls = grp.conjugacy_classes(g)
    if t.nclasses != cls.count:
        raise FormatError("table classes do not match the group's class list")
    kgrp = grp.enumerate_group(sub)
    kcls = grp.conjugacy_classes(kgrp)
    fusion = tuple(cls.class_of[krep] for krep in kcls.reps)
    chi = t.characters[_index(t.characters, args.char, "--char")]
    d = cond.condensed_dim(t, chi, kcls.sizes, fusion)
    _emit(args, f"dim {d}\n", outputs)


def cmd_ctab(args, outputs):
    if args.op in ("table", "brauer"):
        gens = parse_perms(read_text(args.gens))
        g = grp.enumerate_group(gens)
        t = ctab.ordinary_table(g, args.seed) if args.op == "table" else ctab.brauer_table(g, args.p, args.seed)
        _emit(args, format_table(t), outputs)
        return
    if args.op == "clifford2":
        fx = _load_fixture_arg(args.fixture)
        block = ctab.BlockDecomposition(
            fx.meta.get("block", fx.name), fx.meta_int("p"), fx.row_labels,
            fx.row_degrees, fx.matrix, fx.col_degrees,
        )
        pairs, plan = (), None
        if args.target:
            dst = _load_fixture_arg(args.target)
            pairs, plan = _clifford_plan(fx, dst)
        res = ctab.clifford_index2(block, fx.col_pairs, pairs, plan)
        out = res.blocks[0]
        lines = [f"k {out.k}", f"l {out.l}"]
        for lbl, deg, row in zip(out.row_labels, out.row_degrees, out.matrix):
            lines.append(f"{lbl} {deg} " + " ".join(str(x) for x in row))
        _emit(args, "\n".join(lines) + "\n", outputs)
        return
    t = parse_table(read_text(args.table))
    if args.op == "restrict":
        rt = ctab.restrict_table(t, args.p)
        _emit(args, format_table(rt), outputs)
    elif args.op == "blocks":
        b = ctab.blocks(t, args.p)
        lines = [f"blocks {b.nblocks}"]
        for bi in range(b.nblocks):
            mem = " ".join(str(i) for i in b.blocks[bi])
            lines.append(f"block {bi} defect {b.defects[bi]} chars {mem}")
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "heights":
        b = ctab.blocks(t, args.p)
        h = ctab.heights(b, _index(b.blocks, args.block, "--block"))
        lines = [f"{i} {v}" for i, v in sorted(h.items())]
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "project":
        b = ctab.blocks(t, args.p)
        psi = t.characters[_index(t.characters, args.char, "--char")]
        proj = ctab.block_project(t, psi, b, _index(b.blocks, args.block, "--block"))
        _emit(args, " ".join(format_cyclotomic(v) for v in proj.values) + "\n", outputs)
    elif args.op == "decompose":
        rt = ctab.restrict_table(t, args.p) if args.p else t
        theta = rt.characters[_index(rt.characters, args.char, "--char")]
        basic = [c for i, c in enumerate(rt.characters) if i != args.char]
        coeffs = ctab.decompose_basic(basic, theta)
        _emit(args, " ".join(str(c) for c in coeffs) + "\n", outputs)
def _clifford_plan(src, dst):
    """Row plan and fused pairs read off a target fixture's source column."""
    plan = []
    pairs = []
    for extra in dst.row_extra:
        token = extra[0] if extra else ""
        labels = token.split("+")
        if len(labels) > 2 or not set(labels) <= set(src.row_labels):
            raise FormatError(f"target row source {token!r} is not one or two source row labels joined by '+'")
        rows = tuple(src.row_labels.index(lbl) for lbl in labels)
        if len(rows) == 2:
            if rows not in pairs:
                pairs.append(rows)
            plan.append(("fuse", rows))
        else:
            plan.append(("ext", rows[0]))
    return tuple(pairs), tuple(plan)


def cmd_dxm(args, outputs):
    if args.op == "dtd":
        fx = _load_fixture_arg(args.cartan)
        k = fx.meta_int("k") if args.rows is None else args.rows
        sols = dxm.dtd_solve(dxm.CartanInstance(fx.matrix, k))
        lines = [f"solutions {len(sols)}"]
        for sol in sols:
            for row in sol:
                lines.append(" ".join(str(x) for x in row))
            lines.append("--")
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "sd16":
        fx = _load_fixture_arg(args.block or args.fixture)
        bd = ctab_blockdata_from_fixture(fx)
        res = dxm.sd16_analyze(bd)
        lines = [
            "deltas " + " ".join(str(d) for d in res.deltas),
            "labeling " + " ".join(res.labeling),
            "basic " + " ".join(res.basic_labels),
        ]
        for (lbl, deg, h), row in zip(bd.chars, res.matrix):
            lines.append(f"{lbl} {deg} " + " ".join(str(x) for x in row))
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "verify":
        fx = _load_fixture_arg(args.fixture)
        ok = verify_fixture_matrix(fx)
        _emit(args, ("ok\n" if ok else "FAIL\n"), outputs)
        if not ok:
            raise ModcharError("matrix verification failed")
    elif args.op == "atoms":
        fx = _load_fixture_arg(args.fixture)
        prob, degs, _basic = atom_problem_from_fixture(fx)
        ats = dxm.atoms(prob)
        lines = []
        for i, a in enumerate(ats):
            deg = sum(int(c) * d for c, d in zip(a, degs))
            lines.append(f"atom {i} degree {deg} : " + " ".join(str(int(c)) for c in a))
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "projs":
        gens = parse_perms(read_text(args.gens))
        g = grp.enumerate_group(gens)
        table = ctab.ordinary_table(g, args.seed)
        bd = ctab.blocks(table, args.p)
        cols = dxm.projectives_from_products(table, bd, _index(bd.blocks, args.blockindex, "--blockindex"))
        lines = [f"projectives {len(cols)}"]
        for c in cols:
            lines.append(f"{c.name} : " + " ".join(str(int(x)) for x in c.coeffs))
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "fitting":
        fxa = _load_fixture_arg(args.fixture)
        state = _state_from_projbasis(fxa)
        e = _load_fixture_arg(args.endo)
        reg_mult = tuple(r[-1] for r in fxa.matrix)
        pins = []
        for a, b in args.pins:
            if a not in e.row_labels or b not in fxa.row_labels:
                raise ModcharError(f"--pins {a}:{b} names a row label that is not in the fixtures")
            pins.append((e.row_labels.index(a), fxa.row_labels.index(b)))
        prob = dxm.FittingProblem(e.matrix, e.row_degrees, reg_mult, tuple(pins))
        survivors = dxm.fitting_match(state, prob)
        lines = [f"matchings {len(survivors)}"]
        for assignment, cols in survivors:
            pairs = " ".join(
                f"{e.row_labels[k]}:{fxa.row_labels[v]}" for k, v in sorted(assignment.items())
            )
            lines.append("assignment " + pairs)
            for j, c in enumerate(cols):
                lines.append(f"pim {j + 1} : " + " ".join(str(int(x)) for x in c))
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "refine":
        fx = _load_fixture_arg(args.fixture)
        state = _state_from_projbasis(fx, ncols=fx.l - 1)
        psi = dxm._vec([r[fx.l - 1] for r in fx.matrix])
        state = dxm.refine_by_relation(state, fx.col_labels[fx.l - 1], psi)
        lines = [state.log[-1]]
        for c in state.proj_basic:
            lines.append(f"{c.name} : " + " ".join(str(int(x)) for x in c.coeffs))
        _emit(args, "\n".join(lines) + "\n", outputs)
    elif args.op == "enumerate":
        state = _state_from_projbasis(_load_fixture_arg(args.fixture))
        state = dxm.enumerate_candidates(state)
        _emit(args, f"candidates {len(state.candidates)}\n", outputs)
    elif args.op == "eliminate":
        state = _state_from_projbasis(_load_fixture_arg(args.fixture))
        state = dxm.enumerate_candidates(state)
        if args.known:
            state = dxm.import_known_brauer(state, args.known)
        if args.atom:
            fxa = _load_fixture_arg(args.atom)
            prob, degs, _b = atom_problem_from_fixture(fxa)
            ats = dxm.atoms(prob)
            atom_degree = sum(int(c) * d for c, d in zip(ats[-1], degs))
            state = dxm.eliminate_by_atom(state, atom_degree, args.position)
        lines = [f"candidates {len(state.candidates)}"]
        if len(state.candidates) == 1:
            for lbl, deg, row in zip(state.row_labels, state.row_degrees, state.candidates[0]):
                lines.append(f"{lbl} {deg} " + " ".join(str(x) for x in row))
            degs_out = dxm.candidate_brauer_degrees(state, state.candidates[0])
            lines.append("brauer degrees " + " ".join(str(int(d)) for d in degs_out))
        _emit(args, "\n".join(lines) + "\n", outputs)


def _state_from_projbasis(fx, ncols=None):
    ncols = ncols if ncols is not None else fx.l
    if 0 < len(fx.indecomposable) < ncols:
        raise FormatError(f"fixture {fx.name}: indecomposable flags {len(fx.indecomposable)} of {ncols} columns")
    flags = fx.indecomposable or (False,) * ncols
    # an explicit regular/product column (flag '-') is data, not basic set
    keep = [j for j in range(ncols) if j < len(fx.col_labels)]
    cols = tuple(
        dxm.ProjectiveColumn(
            fx.col_labels[j], dxm._vec([r[j] for r in fx.matrix]), flags[j]
        )
        for j in keep
        if fx.col_labels[j] not in ("R", "X")
    )
    return dxm.DecompState(
        fx.name, fx.row_labels, fx.row_degrees, fx.basic_row_indices(), cols
    )


def _load_fixture_arg(name_or_path):
    if name_or_path and os.path.exists(name_or_path):
        return fixtures.parse_fixture(read_text(name_or_path))
    return fixtures.load(name_or_path)


def ctab_blockdata_from_fixture(fx) -> dxm.SD16Instance:
    """Each row's height nu_p(degree) - (nu_p(|G|) - defect).  A `meta p` that
    is not a prime below the field ceiling (which also bounds the primality
    test), or a `meta grouporder` or row degree below 1, is a FormatError."""
    g_order = fx.meta_int("grouporder")
    d = fx.meta_int("defect")
    p = fx.meta_int("p")
    if not (p <= gfla.FIELD_CEILING and gfla.is_prime(p)) or g_order < 1 or min(fx.row_degrees, default=1) < 1:
        raise FormatError(f"fixture {fx.name}: p must be a prime below 2^16, the group order and degrees at least 1")
    base = ctab._nu(p, g_order) - d
    chars = tuple((lbl, deg, ctab._nu(p, deg) - base) for lbl, deg in zip(fx.row_labels, fx.row_degrees))
    return dxm.SD16Instance(chars)


def atom_problem_from_fixture(fx):
    """The fixture's matrix with one `sline bvec <label> : <entries>` per row,
    each as long as its `sline basicdegrees`; anything else is a FormatError."""
    what = f"fixture {fx.name}"
    degs = ints(list(fx.sections.get("basicdegrees", [()])[0]), f"{what} basicdegrees")
    bvecs = [b[b.index(":") + 1 :] if ":" in b else () for b in fx.sections.get("bvec", ())]
    chars = tuple(dxm._vec(ints(list(b), f"{what} bvec")) for b in bvecs)
    if not chars or len(chars) != fx.k or any(len(c) != len(degs) for c in chars):
        raise FormatError(f"{what} needs `sline basicdegrees` and one `sline bvec <label> : <entries>` per row")
    return dxm.AtomProblem(fx.matrix, chars), degs, fx.basic_rows


def verify_fixture_matrix(fx) -> bool:
    """Degree-augmented verification: phi_j = (deg_j, e_j), chi rows likewise."""
    D = fx.matrix
    phis = [(fx.col_degrees[j], *(int(j == t) for t in range(fx.l))) for j in range(fx.l)]
    chis = [(fx.row_degrees[i], *D[i]) for i in range(fx.k)]
    return dxm.verify_matrix(D, chis, phis)


def cmd_fixtures(args, outputs):
    if args.op == "list":
        _emit(args, "\n".join(fixtures.list_fixtures()) + "\n", outputs)
    else:
        text = fixtures.fixture_text(args.name)
        _emit(args, text, outputs)


HANDLERS = {
    "field": cmd_field,
    "mat": cmd_mat,
    "rep": cmd_rep,
    "grp": cmd_grp,
    "cond": cmd_cond,
    "ctab": cmd_ctab,
    "dxm": cmd_dxm,
    "fixtures": cmd_fixtures,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    outputs: list[str] = []
    # the manifest and the output file are never inputs, even once they exist
    inputs = [v for key, v in vars(args).items()
              if key not in ("log", "out") and isinstance(v, str) and os.path.exists(v)]
    try:
        prev = manifest_head(args.log) if args.log else ""
        HANDLERS[args.command](args, outputs)
        if args.log:
            append_manifest(args.log, prev, args.command, argv, args.seed, inputs, outputs)
    except ModcharError as exc:
        if isinstance(exc, FormatError):
            print(f"format error: {exc}", file=sys.stderr)
            return 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
