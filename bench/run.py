"""modchar benchmark: one workload per invocation, outputs checked, metrics printed.

    python3 bench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): desk, condense, matrix, engine.  The library is
imported from ``src/`` next to this directory and timed from outside through
its public functions; nothing in ``src/`` is changed.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  cpu_s        median process CPU seconds of one pass over the workload's
               job list (the library is single-threaded, so this is its time
               to solution without the time the host steals)
  peak_rss_mb  peak resident memory of this process
  setup_s      median over fresh processes of the CPU seconds spent importing
               modchar and building the workload's fields, groups and
               fixtures, each process with an empty Conway-polynomial cache
               of its own (probe.py)
--trace 1 reports the per-layer metrics (tracing.LAYER_METRICS): untraced
passes, then the same passes traced; the spans are written to
``.bench_out/spans-<workload>.npz``.  Among them is wall_s, the median wall
seconds of an untraced pass.  It is reported there, without a bound, and not
as an end-to-end metric: on a shared two-vCPU virtual machine the host took
up to a fifth of the CPU time for minutes at a time, which moved wall_s of one
workload by 22 % (quartile spread over ten runs) while cpu_s moved by 4 %.

Every pass runs the same inputs, drawn from the seed.  Every job's output
goes through a check after the pass (never inside the timed region).  A job
that raises or fails its check counts in ``failed``; jobs attempted are passes
times jobs.  ``correct`` is false when the numbers cannot be trusted: a job's
output changed between passes, tracing changed an output, or the timed passes
built a finite field that set-up did not (so set-up work moved into cpu_s).
The last stdout line is the JSON result.

Each run points MODCHAR_CONWAY_CACHE at a fresh file under ``.bench_out/``,
so no run reads or writes the user's cache under $HOME.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, load_modchar  # noqa: E402

MIN_PASSES = 3  # timed passes per run, so cpu_s is a median
MIN_TRACED_PASSES = 2  # untraced and traced passes each, in a --trace 1 run
SETUP_PROBES = 15  # fresh processes per run for setup_s


@dataclass
class Pass:
    wall: float
    cpu: float
    digests: dict[str, str]
    failures: dict[str, str]


def run_pass(jobs, verdicts) -> Pass:
    """Run every job once (timed), then check every output (untimed).

    `verdicts` maps (job, output digest) to the check's verdict, so an output
    seen before in this run is not checked again."""
    outputs = []
    w0, c0 = time.perf_counter(), time.process_time()
    for name, run, _check in jobs:
        try:
            outputs.append((name, run(), None))
        except Exception as exc:  # a job that raises is a failed job, not a crash
            outputs.append((name, None, f"{type(exc).__name__}: {exc}"))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    digests, failures = {}, {}
    for (name, out, error), (_n, _run, check) in zip(outputs, jobs):
        digest = hashlib.sha256(repr((out, error)).encode()).hexdigest()
        digests[name] = digest
        if (name, digest) not in verdicts:
            verdicts[(name, digest)] = error if error is not None else verify(check, out)
        if verdicts[(name, digest)] is not None:
            failures[name] = verdicts[(name, digest)]
    return Pass(wall, cpu, digests, failures)


def verify(check, out):
    """None when the output passes its check, else the reason."""
    try:
        return None if check(out) else "output check failed"
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def run_passes(workload, seconds, min_passes, tracer=None) -> list[Pass]:
    """Passes until `seconds` would be exceeded by one more, at least
    min_passes; each pass gets a fresh job list over the same inputs."""
    passes: list[Pass] = []
    verdicts: dict[tuple[str, str], str | None] = {}
    t0 = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - t0 + statistics.median(p.wall for p in passes) <= seconds
    ):
        if tracer is not None:
            tracer.pass_index = len(passes)
        passes.append(run_pass(workload.jobs(), verdicts))
    if tracer is not None:
        tracer.pass_index = -1
    return passes


def setup_probes(workload, seed, tmp, trace) -> list[dict]:
    """One sample per fresh process.  Bytecode caching is on whatever the
    caller's environment says, as for an installed CLI, so set-up time does not
    depend on PYTHONDONTWRITEBYTECODE (the first probe of a fresh checkout
    writes src/modchar/__pycache__)."""
    samples = []
    for i in range(SETUP_PROBES):
        env = dict(os.environ, MODCHAR_CONWAY_CACHE=str(tmp / f"probe-{i}" / "conway.json"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)]
        res = subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        samples.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return samples


def inconsistent(passes: list[Pass]) -> list[str]:
    """Jobs whose output differs between two passes."""
    first = passes[0].digests
    return sorted({job for p in passes[1:] for job, d in p.digests.items() if first.get(job) != d})


def measure(workload_name, seed, seconds, trace, tmp):
    """(result dict, summary lines) for one run; modchar is imported here."""
    workload = WORKLOADS[workload_name](seed)
    # probes before this process imports modchar: it is still small while they
    # run, and the bytecode they write is what this process then loads
    probes = None if trace else setup_probes(workload_name, seed, tmp, False)
    mc = load_modchar()
    if not Path(mc["gfla"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"modchar was imported from {mc['gfla'].__file__}, not {SRC}")
    workload.setup(mc)
    fields = set(mc["gfla"]._field_mem)
    jobs = workload.jobs()
    lines = []
    if not trace:
        passes = run_passes(workload, seconds, MIN_PASSES)
        bad = inconsistent(passes)
        metrics = {
            "cpu_s": {"value": statistics.median(p.cpu for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in probes), "unit": "s"},
        }
        counted = passes
    else:
        from tracing import Tracer, layer_metrics

        untraced = run_passes(workload, seconds / 2, MIN_TRACED_PASSES)
        tracer = Tracer()
        tracer.install(mc)
        try:
            traced = run_passes(workload, seconds / 2, MIN_TRACED_PASSES, tracer)
        finally:
            tracer.uninstall()
        bad = inconsistent(untraced + traced)
        setup = setup_probes(workload_name, seed, tmp, True)
        wall = statistics.median(p.wall for p in untraced)
        overhead = statistics.median(p.wall for p in traced) - wall
        metrics = layer_metrics(tracer, list(range(len(traced))), setup, wall, overhead)
        tracer.write(OUT / f"spans-{workload_name}.npz")
        counted = untraced + traced
        lines.append(f"traced passes {len(traced)}, untraced passes {len(untraced)}, "
                     f"tracing overhead {overhead:.3f} s per pass")
    late_fields = sorted(set(mc["gfla"]._field_mem) - fields)
    attempted = len(counted) * len(jobs)
    failed = sum(len(p.failures) for p in counted)
    lines.insert(0, f"{workload_name}: seed {seed}, {len(counted)} passes x {len(jobs)} jobs")
    for job, error in counted[0].failures.items():
        lines.append(f"failed job {job}: {error}")
    for job in bad:
        lines.append(f"output of job {job} changed between passes")
    if late_fields:
        lines.append("timed passes built fields that set-up did not: "
                     + ", ".join(f"GF({p}^{k})" for p, k in late_fields))
    result = {"correct": not bad and not late_fields, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "modchar" / "__init__.py").is_file():
        print(f"modchar sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    os.environ["MODCHAR_CONWAY_CACHE"] = str(tmp / "conway.json")
    sys.path.insert(0, str(SRC))
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
