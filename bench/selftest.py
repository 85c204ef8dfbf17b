"""Self-test of the benchmark itself (not of modchar).

    python3 bench/selftest.py [--seed 1] [--workload desk ...]

For every workload, in one process:
  * two traced runs (fresh tracers) at one seed give identical call counts,
    counters and count-based ratios;
  * traced outputs are byte-identical to untraced ones;
  * every per-layer metric is nonzero on each workload its wiring names;
  * every job's check rejects a corrupted copy of that job's real output, so
    the failed count rises by one per corrupted job; the matrix checks also
    reject a nullspace basis with a repeated row and one with a zero row;
  * a pass builds no finite field that the workload's set-up did not.
Exits 1 and lists the problems when any of these does not hold.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_METRICS, SETUP_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, load_modchar  # noqa: E402


def corrupt(value):
    """The value with its last scalar leaf changed (int +1, bool negated, last
    digit of a string bumped, last byte of bytes flipped)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        i = max(i for i, ch in enumerate(value) if ch.isdigit())
        return value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    if isinstance(value, bytes):
        return value[:-1] + bytes([value[-1] ^ 1])
    if isinstance(value, tuple):
        for i in range(len(value) - 1, -1, -1):
            if _has_leaf(value[i]):
                return value[:i] + (corrupt(value[i]),) + value[i + 1:]
    raise ValueError(f"nothing to corrupt in {value!r}")


def _has_leaf(value):
    if isinstance(value, (bool, int, bytes)):
        return True
    if isinstance(value, str):
        return any(ch.isdigit() for ch in value)
    return isinstance(value, tuple) and any(_has_leaf(v) for v in value)


def dependent_nullspaces(out):
    """Matrix-job outputs whose nullspace basis has its last row replaced by a
    copy of its first row, or by zeros: as many rows, no longer independent."""
    c_text, e_text, n_text = out
    head, *rows = n_text.splitlines()
    zero = " ".join("0" for _ in rows[0].split())
    return [(c_text, e_text, "\n".join([head, *rows[:-1], last]) + "\n") for last in (rows[0], zero)]


def traced_run(mc, jobs):
    tracer = Tracer()
    tracer.install(mc)
    try:
        tracer.pass_index = 0
        result = run.run_pass(jobs, {})
        tracer.pass_index = -1
    finally:
        tracer.uninstall()
    return tracer, result


def counts(tracer):
    calls = {name: c for name, (c, _s) in tracer.per_pass()[0].items()}
    return calls, dict(tracer.counters.get(0, {}))


def check_workload(name, seed):
    problems = []
    workload = WORKLOADS[name](seed)
    mc = load_modchar()
    setup_tracer = Tracer()
    setup_tracer.install(mc)
    try:
        workload.setup(mc)
    finally:
        setup_tracer.uninstall()
    fields = set(mc["gfla"]._field_mem)
    jobs = workload.jobs()
    plain = run.run_pass(jobs, {})
    late = set(mc["gfla"]._field_mem) - fields
    if late:
        problems.append(f"{name}: a pass built fields that set-up did not: {sorted(late)}")
    first, traced_a = traced_run(mc, jobs)
    second, traced_b = traced_run(mc, jobs)

    if counts(first) != counts(second):
        problems.append(f"{name}: call counts differ between two traced runs")
    for label, traced in (("first", traced_a), ("second", traced_b)):
        changed = run.inconsistent([plain, traced])
        if changed:
            problems.append(f"{name}: {label} traced run changed outputs of {changed}")

    spans = setup_tracer.per_pass().get(-1, {})
    setup = [{m: spans.get(m[: -len(".self_s")], (0, 0.0))[1] for m in SETUP_METRICS}]
    metrics = layer_metrics(first, [0], setup, plain.wall, traced_a.wall - plain.wall)
    metrics_b = layer_metrics(second, [0], setup, plain.wall, traced_b.wall - plain.wall)
    for metric, _unit, _better, wired, _moves in LAYER_METRICS:
        if name in wired and not metrics[metric]["value"]:
            problems.append(f"{name}: per-layer metric {metric} is zero")
        if not metric.endswith("_s") and not metric.endswith("_per_s") \
                and metrics[metric]["value"] != metrics_b[metric]["value"]:
            problems.append(f"{name}: count metric {metric} differs between traced runs")

    outputs = {}
    for job_name, run_job, _check in jobs:
        try:
            outputs[job_name] = run_job()
        except Exception:  # jobs that fail already are not corrupted again
            pass
    corrupted = [(n, (lambda v=corrupt(outputs[n]): v), check) for n, _r, check in jobs if n in outputs]
    if name == "matrix":
        corrupted += [(f"{n}#{i}", (lambda v=v: v), check) for n, _r, check in jobs
                      for i, v in enumerate(dependent_nullspaces(outputs[n]))]
    result = run.run_pass(corrupted, {})
    for n, _r, _c in corrupted:
        if n not in result.failures:
            problems.append(f"{name}: check of job {n} accepted a corrupted output")
    print(f"{name}: {len(jobs)} jobs, {len(plain.failures)} failed plainly, "
          f"{len(result.failures)}/{len(corrupted)} corrupted outputs rejected, "
          f"{sum(c for c, _s in first.per_pass()[0].values())} traced calls")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        os.environ["MODCHAR_CONWAY_CACHE"] = str(Path(tmp) / "conway.json")
        sys.path.insert(0, str(run.SRC))
        problems = []
        for name in args.workload:
            problems += check_workload(name, args.seed)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
