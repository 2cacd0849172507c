"""One ladder repeat: one workload, one seed, in a process of its own.

``run.py`` starts a fresh child per repeat so that ``repro``'s
module-level caches (plan memo, compiled observables attached to a
``PauliSum``, estimator pools) start equal on every repeat and on both
sides of a comparison.  The clock starts at the first line below,
before ``repro`` is imported (a CLI user pays the import), and stops
before the correctness checks run.  The result is one JSON object on
the last line of standard output.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))


class Run:
    """What a workload's timed region reports back while it runs."""

    def __init__(self, tracer, state_dir):
        self.tracer = tracer
        self.state_dir = state_dir
        self.solve_s = 0.0
        self.latencies = []

    @contextmanager
    def solve(self):
        """Bracket the optimizer loop (or the submits and ticks)."""
        start = time.perf_counter()
        with self.tracer.span("run.solve"):
            try:
                yield
            finally:
                self.solve_s += time.perf_counter() - start

    @contextmanager
    def operation(self):
        """Time one operation as its caller sees it."""
        start = time.perf_counter()
        yield
        self.latencies.append(time.perf_counter() - start)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--obs", action="store_true", help="run with repro.obs enabled")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import repro
    from trace import Tracer
    from workloads import SIZES, STATE_ROOT, WORKLOADS, generate_inputs

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.add_root("run.import", T0, time.perf_counter())
    if args.obs:
        from repro import obs

        obs.configure(enabled=True)

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    inputs = generate_inputs(args.workload, args.seed, args.size)
    state_dir = os.path.join(STATE_ROOT, str(os.getpid()))
    run = Run(tracer, state_dir)
    try:
        with tracer.span("run.setup"):
            state = workload.timed(inputs, size, run)
        wall_s = time.perf_counter() - T0
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # folded now, so that spans the checks open are not in the table
        trace = tracer.aggregate() if args.trace else None
        attempted, failures, counts = workload.check(state, inputs, size)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": wall_s,
        "setup_s": wall_s - run.solve_s,
        "solve_s": run.solve_s,
        "peak_rss_mib": peak_rss_mib,
        "latencies_s": run.latencies,
        "attempted": attempted,
        # one operation can break several checks; it still failed once
        "failed": min(len(failures), attempted),
        "failures": failures,
        "counts": counts,
    }
    if trace is not None:
        result["trace"] = trace
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
