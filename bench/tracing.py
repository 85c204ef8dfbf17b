"""Per-layer tracing of modchar from outside the library.

`Tracer.install` wraps the library's public functions in place: every module
binding that holds a wrapped function (``rep``, ``cond`` and ``cyclo`` import
``echelonize``, ``mat_mul``, ``char_poly`` and others by name from ``gfla``) is
rebound, and methods are replaced on their class, so no call path escapes.
Each call records a span (name, start, end, parent span, pass id) into flat
in-memory arrays; counters that need a call's arguments or result are bumped
by small hooks.  `uninstall` puts every original back.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array

import numpy as np

# (span name, module, attribute path) for every wrapped public function.
TARGETS = [
    ("gfla.field_ops", "gfla", "FieldSpec.add"),
    ("gfla.field_ops", "gfla", "FieldSpec.neg"),
    ("gfla.field_ops", "gfla", "FieldSpec.mul"),
    ("gfla.field_ops", "gfla", "FieldSpec.inv"),
    ("gfla.matmul", "gfla", "FieldSpec.matmul"),
    ("gfla.echelonize", "gfla", "echelonize"),
    ("gfla.workbasis.insert", "gfla", "WorkBasis.insert"),
    ("gfla.workbasis.reduce", "gfla", "WorkBasis.reduce"),
    ("gfla.char_poly", "gfla", "char_poly"),
    ("gfla.irreducible_factors", "gfla", "irreducible_factors"),
    ("gfla.field_make", "gfla", "field_make"),
    ("grp.element_matrix", "grp", "element_matrix"),
    ("grp.regular_rep", "grp", "regular_rep"),
    ("grp.conjugacy_classes", "grp", "conjugacy_classes"),
    ("rep.spin", "rep", "spin"),
    ("rep.is_irreducible", "rep", "is_irreducible"),
    ("rep.word_eval", "rep", "AlgebraWord.evaluate"),
    ("rep.iso", "rep", "iso"),
    ("rep.chop", "rep", "chop"),
    ("rep.split", "rep", "split"),
    ("cyclo.brauer_char_value", "cyclo", "brauer_char_value"),
    ("ctab.ordinary_table", "ctab", "ordinary_table"),
    ("ctab.brauer_data", "ctab", "brauer_data"),
    ("ctab.decompose_basic", "ctab", "decompose_basic"),
    ("ctab.blocks", "ctab", "blocks"),
    ("ctab.clifford_index2", "ctab", "clifford_index2"),
    ("ctab.scalar", "ctab", "scalar"),
    ("cond.make_idempotent", "cond", "make_idempotent"),
    ("cond.condense_perm", "cond", "condense_perm"),
    ("cond.tensor", "cond", "TensorCondenser.__init__"),
    ("cond.tensor", "cond", "TensorCondenser.image_basis"),
    ("cond.tensor", "cond", "TensorCondenser.condense_word"),
    ("cond.uncondense", "cond", "uncondense"),
    ("cond.condense_element", "cond", "condense_element"),
    ("dxm.dtd_solve", "dxm", "dtd_solve"),
    ("dxm.fitting_match", "dxm", "fitting_match"),
    ("dxm.enumerate_candidates", "dxm", "enumerate_candidates"),
    ("dxm.atoms", "dxm", "atoms"),
    ("dxm.eliminate_by_atom", "dxm", "eliminate_by_atom"),
    ("cli.parse", "cli", "parse_matrix"),
    ("cli.parse", "cli", "parse_perms"),
    ("cli.parse", "cli", "parse_rep"),
    ("cli.parse", "cli", "parse_table"),
    ("cli.parse", "cli", "parse_decomp_state"),
    ("cli.format", "cli", "format_matrix"),
    ("cli.format", "cli", "format_perms"),
    ("cli.format", "cli", "format_rep"),
    ("cli.format", "cli", "format_table"),
    ("cli.format", "cli", "format_decomp_state"),
    ("fixtures.load", "fixtures", "load"),
]

# Per-layer metrics: (name, unit, better, workloads on which it must be
# nonzero, the end-to-end metric it should move).  Set-up metrics come from
# traced set-up probes, the rest from traced passes.
ALL = ("desk", "condense", "matrix", "engine")
LAYER_METRICS = [
    ("gfla.field_ops.calls", "count", "lower", ALL, "cpu_s, wall_s on desk, condense"),
    ("gfla.field_ops.self_s", "s", "lower", ALL, "cpu_s, wall_s on desk, condense"),
    ("gfla.field_ops.scalar_frac", "ratio", "lower", ("desk", "condense", "matrix"), "cpu_s, wall_s on desk"),
    ("gfla.matmul.calls", "count", "lower", ("desk", "condense", "matrix"), "cpu_s, wall_s on condense, matrix"),
    ("gfla.matmul.self_s", "s", "lower", ("desk", "condense", "matrix"), "cpu_s, wall_s on condense, matrix"),
    ("gfla.matmul.vec_frac", "ratio", "lower", ("desk", "condense"), "cpu_s, wall_s on condense"),
    ("gfla.matmul.gmac", "GMAC", "lower", ("desk", "condense", "matrix"), "cpu_s, wall_s on matrix"),
    ("gfla.matmul.gmac_per_s", "GMAC/s", "higher", ("desk", "condense", "matrix"), "cpu_s, wall_s on matrix"),
    ("gfla.echelonize.calls", "count", "lower", ("desk", "condense", "matrix"), "cpu_s, wall_s on matrix"),
    ("gfla.echelonize.self_s", "s", "lower", ("desk", "condense", "matrix"), "cpu_s, wall_s on matrix"),
    ("gfla.workbasis.insert.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("gfla.workbasis.insert.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("gfla.workbasis.reduce.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("gfla.workbasis.reduce.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("gfla.workbasis.grew_ratio", "ratio", "higher", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("gfla.char_poly.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on desk"),
    ("gfla.char_poly.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk"),
    ("gfla.irreducible_factors.calls", "count", "lower", ("desk", "condense", "engine"), "cpu_s, wall_s on desk"),
    ("gfla.irreducible_factors.self_s", "s", "lower", ("desk", "condense", "engine"), "cpu_s, wall_s on desk"),
    ("gfla.field_make.self_s", "s", "lower", ALL, "setup_s"),
    ("grp.element_matrix.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("grp.element_matrix.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("grp.regular_rep.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("grp.conjugacy_classes.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on condense, desk"),
    ("rep.spin.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.spin.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.is_irreducible.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.is_irreducible.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.word_eval.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.word_eval.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.iso.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.iso.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.chop.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.split.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.norton.words_per_verdict", "ratio", "lower", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("rep.iso.hit_ratio", "ratio", "higher", ("desk", "condense"), "cpu_s, wall_s on desk, condense"),
    ("cyclo.brauer_char_value.calls", "count", "lower", ("desk", "condense"), "cpu_s, wall_s on desk"),
    ("cyclo.brauer_char_value.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk"),
    ("ctab.ordinary_table.self_s", "s", "lower", ("desk",), "cpu_s, wall_s on desk"),
    ("ctab.brauer_data.self_s", "s", "lower", ("desk", "condense"), "cpu_s, wall_s on desk"),
    ("ctab.decompose_basic.self_s", "s", "lower", ("desk",), "cpu_s, wall_s on desk"),
    ("ctab.blocks.self_s", "s", "lower", ("engine",), "cpu_s, wall_s on engine"),
    ("ctab.clifford_index2.self_s", "s", "lower", ("engine",), "cpu_s, wall_s on engine"),
    ("ctab.scalar.calls", "count", "lower", ("desk", "engine"), "cpu_s, wall_s on desk, engine"),
    ("ctab.scalar.self_s", "s", "lower", ("desk", "engine"), "cpu_s, wall_s on desk, engine"),
    ("cond.make_idempotent.self_s", "s", "lower", ("condense",), "cpu_s, wall_s on condense"),
    ("cond.condense_perm.self_s", "s", "lower", ("condense",), "cpu_s, wall_s on condense"),
    ("cond.tensor.self_s", "s", "lower", ("condense",), "cpu_s, wall_s on condense"),
    ("cond.uncondense.self_s", "s", "lower", ("condense",), "cpu_s, wall_s on condense"),
    ("cond.condense_element.calls", "count", "lower", ("condense",), "cpu_s, wall_s on condense"),
    ("cond.condense_element.self_s", "s", "lower", ("condense",), "cpu_s, wall_s on condense"),
    ("dxm.dtd_solve.self_s", "s", "lower", ("engine",), "cpu_s, wall_s on engine"),
    ("dxm.fitting_match.self_s", "s", "lower", ("engine",), "cpu_s, wall_s on engine"),
    ("dxm.enumerate_candidates.self_s", "s", "lower", ("engine",), "cpu_s, wall_s on engine"),
    ("dxm.atoms.self_s", "s", "lower", ("engine",), "cpu_s, wall_s on engine"),
    ("dxm.candidates.enumerated", "count", "lower", ("engine",), "cpu_s, wall_s on engine"),
    ("dxm.candidates.survivor_ratio", "ratio", "higher", ("engine",), "cpu_s, wall_s on engine"),
    ("cli.parse.self_s", "s", "lower", ("matrix", "engine"), "cpu_s, wall_s on matrix"),
    ("cli.parse.mb_per_s", "MB/s", "higher", ("matrix", "engine"), "cpu_s, wall_s on matrix"),
    ("cli.format.self_s", "s", "lower", ("matrix",), "cpu_s, wall_s on matrix"),
    ("fixtures.load.self_s", "s", "lower", ("engine",), "setup_s on engine"),
    ("wall_s", "s", "lower", ALL, "none: median untraced wall seconds per pass"),
    ("trace.overhead_s", "s", "lower", ALL, "none: traced minus untraced wall_s per pass"),
]
SETUP_METRICS = ("gfla.field_make.self_s", "fixtures.load.self_s")


def _resolve(mc, module, path):
    owner = mc[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for one process, kept in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active: list[int] = []
        self.pass_index = -1
        self.counters: dict[int, dict[str, float]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.ids[name]

    def count(self, key, value=1):
        bucket = self.counters.setdefault(self.pass_index, {})
        bucket[key] = bucket.get(key, 0) + value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack, active = self.stack, self.active
        name_id, parent, pass_id, start, end = self.name_id, self.parent, self.pass_id, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(self.pass_index)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self):
        irreducible = self._id("rep.is_irreducible")

        def field_op(args, _result):
            if all(np.size(a) <= 1 for a in args[1:]):
                self.count("gfla.field_ops.scalar")

        def matmul(args, _result):
            a, b = args[1], args[2]
            if a.ndim == 1 or a.shape[0] == 1:
                self.count("gfla.matmul.vec")
            self.count("gfla.matmul.mac", a.size * (b.shape[-1] if b.ndim == 2 else 1))

        def insert(_args, grew):
            if grew:
                self.count("gfla.workbasis.grew")

        def word(_args, _result):
            if self.active[irreducible]:
                self.count("rep.norton.words")

        def verdict(_args, _result):
            self.count("rep.norton.verdicts")

        def iso(_args, result):
            if result is not None:
                self.count("rep.iso.hits")

        def enumerated(_args, state):
            self.count("dxm.candidates.enumerated", len(state.candidates))

        def eliminated(_args, state):
            self.count("dxm.candidates.survived", len(state.candidates))

        def parsed(args, _result):
            self.count("cli.parse.bytes", len(args[0]))

        return {
            "FieldSpec.add": field_op, "FieldSpec.neg": field_op, "FieldSpec.mul": field_op,
            "FieldSpec.inv": field_op, "FieldSpec.matmul": matmul, "WorkBasis.insert": insert,
            "AlgebraWord.evaluate": word, "is_irreducible": verdict, "iso": iso,
            "enumerate_candidates": enumerated, "eliminate_by_atom": eliminated,
            "parse_matrix": parsed, "parse_perms": parsed, "parse_rep": parsed,
            "parse_table": parsed, "parse_decomp_state": parsed,
        }

    def install(self, mc):
        """Wrap every target, rebinding it in every modchar module that holds it."""
        hooks = self._hooks()
        for name, module, path in TARGETS:
            owner, attr = _resolve(mc, module, path)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, hooks.get(path))
            if "." in path:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in mc.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def per_pass(self):
        """{pass id: {span name: (calls, self seconds)}} for every recorded pass."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        pid = np.frombuffer(self.pass_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        out = {}
        for p in np.unique(pid):
            sel = pid == p
            calls = np.bincount(nid[sel], minlength=len(self.names))
            secs = np.bincount(nid[sel], weights=self_time[sel], minlength=len(self.names))
            out[int(p)] = {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}
        return out

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes, setup_samples, wall_s, overhead_s):
    """Per-layer values: counts and ratios from the first traced pass (they
    repeat exactly), self times as medians over the traced passes; wall_s and
    overhead_s come from the caller's untraced and traced passes."""
    table = tracer.per_pass()
    first = table.get(passes[0], {})
    counters = tracer.counters.get(passes[0], {})

    def calls(name):
        return first.get(name, (0, 0.0))[0]

    def self_s(name):
        return statistics.median(table.get(p, {}).get(name, (0, 0.0))[1] for p in passes)

    values = {}
    for metric, *_rest in LAYER_METRICS:
        if metric in SETUP_METRICS:
            values[metric] = statistics.median(s[metric] for s in setup_samples)
        elif metric.endswith(".calls"):
            values[metric] = calls(metric[: -len(".calls")])
        elif metric.endswith(".self_s"):
            values[metric] = self_s(metric[: -len(".self_s")])
    values["gfla.field_ops.scalar_frac"] = _ratio(counters.get("gfla.field_ops.scalar", 0), calls("gfla.field_ops"))
    values["gfla.matmul.vec_frac"] = _ratio(counters.get("gfla.matmul.vec", 0), calls("gfla.matmul"))
    values["gfla.matmul.gmac"] = counters.get("gfla.matmul.mac", 0) / 1e9
    values["gfla.matmul.gmac_per_s"] = _ratio(values["gfla.matmul.gmac"], values["gfla.matmul.self_s"])
    values["gfla.workbasis.grew_ratio"] = _ratio(counters.get("gfla.workbasis.grew", 0), calls("gfla.workbasis.insert"))
    values["rep.norton.words_per_verdict"] = _ratio(counters.get("rep.norton.words", 0), counters.get("rep.norton.verdicts", 0))
    values["rep.iso.hit_ratio"] = _ratio(counters.get("rep.iso.hits", 0), calls("rep.iso"))
    enumerated = counters.get("dxm.candidates.enumerated", 0)
    values["dxm.candidates.enumerated"] = enumerated
    values["dxm.candidates.survivor_ratio"] = _ratio(counters.get("dxm.candidates.survived", 0), enumerated)
    values["cli.parse.mb_per_s"] = _ratio(counters.get("cli.parse.bytes", 0) / 1e6, values["cli.parse.self_s"])
    values["wall_s"] = wall_s
    values["trace.overhead_s"] = overhead_s
    return {m: {"value": values[m], "unit": unit} for m, unit, *_rest in LAYER_METRICS}
