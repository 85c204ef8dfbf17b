"""Set-up probe: time one workload's set-up in this fresh process.

Run by run.py with MODCHAR_CONWAY_CACHE pointing at a file that does not
exist yet, so every Conway polynomial is searched for again.  Prints one JSON
object: ``setup_s``, the CPU seconds this process spends importing modchar and
building the workload's fields, groups and fixtures, and, with --trace, the
self time of the traced set-up layers.  CPU time rather than wall time, so the
seconds in which the host runs something else (steal) do not count: on a
shared two-vCPU virtual machine the wall time of this short cold start moved
by up to half between two sets of runs, while the timed passes moved by a few
percent.

    python3 bench/probe.py --workload desk --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, load_modchar  # noqa: E402  (no numpy, no modchar yet)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.process_time()
    mc = load_modchar()
    tracer = None
    if args.trace:
        from tracing import SETUP_METRICS, Tracer

        tracer = Tracer()
        tracer.install(mc)
    workload.setup(mc)
    out = {"setup_s": time.process_time() - t0}
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.per_pass().get(-1, {})
        for metric in SETUP_METRICS:
            out[metric] = spans.get(metric[: -len(".self_s")], (0, 0.0))[1]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
