"""Record one point of the bench trajectory.

    python3 bench/record.py --label seed [--seeds 1-10] [--workload desk ...]

Runs bench/run.py as BENCHMARK.json says (its run_seconds) on every seed for
every workload with tracing off, then once per workload with tracing on (first
seed), and writes bench/trajectory/<label>.json: the machine, each workload's
traffic, every run's result, per metric the median, the quartiles and the
quartile spread as a share of the median (to compare with the metric's bound),
the traced per-layer values, and the largest self times per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import SETUP_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine():
    import numpy as np

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": {k: v for k, v in np.show_config(mode="dicts").get("Build Dependencies", {})
                       .get("blas", {}).items() if k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"label": args.label, "machine": machine(), "run_seconds": seconds, "workloads": {}}
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            res = run(name, seed, seconds, 0)
            runs.append({"seed": seed, **res})
            print(name, seed, json.dumps(res), flush=True)
        end_to_end = {}
        for metric in bounds:
            end_to_end[metric] = summary([r["metrics"][metric]["value"] for r in runs])
            end_to_end[metric]["bound"] = bounds[metric]
            print(f"  {metric}: median {end_to_end[metric]['median']:.4f} "
                  f"spread {end_to_end[metric]['spread']:.4f} (bound {bounds[metric]})", flush=True)
        traced = run(name, args.seeds[0], seconds, 1)
        layers = {m: v["value"] for m, v in traced["metrics"].items()}
        traced_wall = layers["wall_s"] + layers["trace.overhead_s"]
        self_times = sorted(((v, m) for m, v in layers.items()
                             if m.endswith(".self_s") and m not in SETUP_METRICS), reverse=True)
        out["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "traffic": WORKLOADS[name](args.seeds[0]).traffic(),
            "end_to_end": end_to_end,
            "runs": runs,
            "per_layer": layers,
            "per_layer_run": {k: traced[k] for k in ("correct", "attempted", "failed")},
            "top_self_time": [{"layer": m, "self_s": v, "share_of_traced_pass": v / traced_wall}
                              for v, m in self_times[:5]],
        }
        print("  top self time:", ", ".join(f"{m} {v:.3f}s" for v, m in self_times[:3]), flush=True)
    path = HERE / "trajectory" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote", path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
