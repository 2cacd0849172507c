"""The benchmark ladder: six workloads, end to end and layer by layer.

    python benchmarks/ladder/run.py --seed 0            # every workload, every metric
    python benchmarks/ladder/run.py --seed 0 --record   # ... and append results/<utc>-<sha>.json
    python benchmarks/ladder/run.py compare A.json B.json
    python benchmarks/ladder/run.py --workload adapt_h2o --seed 3 --seconds 20 --trace 0

The last form is the one BENCHMARK.json names: one workload, measured
for about ``--seconds``, one JSON object on the last line.  Metric
names, units and regression bounds are read from BENCHMARK.json at the
repository root; README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

from stats import percentile, spread, summarize, verdict  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# Children run one at a time and single-threaded (the box has 2 cores;
# the only multi-threaded workloads are the server's own lock-stepped
# workers), with a fixed hash seed so set/dict order cannot differ.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# failed operations / attempted: the seventh end-to-end metric.  The
# contract's result line carries it as ``failed`` and ``attempted``, and
# it is always 0 on a healthy tree, so BENCHMARK.json cannot list it
# (a bound is a share of the parent's median).  Any increase is worse.
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}
# below this many seconds a set-up time difference is noise, whatever its share
SETUP_FLOOR_S = 0.2
# workloads that get one more repeat with repro.obs enabled
OBS_WORKLOADS = ("adapt_h2o", "serve_scan_h2")
# counts that repeat exactly between two runs of one commit and one seed
EXACT_COUNTS = (
    "opt.evaluations", "core.adapt_iterations", "sim.plan_ops", "hpc.exchanges",
    "hpc.p2p_bytes", "serve.journal_records", "serve.dedup_hits",
)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- running children ---------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def warm_page_cache() -> None:
    """One untimed child imports what every repeat imports, so that the
    first timed repeat does not pay for a cold page cache.  Also where
    a checkout without ``src/`` fails, before anything is measured."""
    env = _child_env()
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    done = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy, repro"],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"cannot import numpy, scipy and repro:\n{done.stderr.strip()}")


def run_child(workload: str, seed: int, size: str, *flags: str) -> Dict[str, Any]:
    """One repeat in a fresh process; returns the worker's result object."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload,
               "--seed", str(seed), "--size", size, *flags]
    start = time.perf_counter()
    done = subprocess.run(command, env=_child_env(), capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - start
    return result


def run_repeats(
    workload: str, seed: int, size: str,
    repeats: Optional[int] = None, seconds: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """``repeats`` timed children, or as many as fit in ``seconds``: a
    further repeat starts only while one as long as the last would
    still end inside the window (the first always runs)."""
    start = time.perf_counter()
    children: List[Dict[str, Any]] = []
    while True:
        children.append(run_child(workload, seed, size))
        if repeats is not None:
            if len(children) >= repeats:
                return children
        elif time.perf_counter() - start + children[-1]["process_s"] > seconds:
            return children


# -- metrics from children ----------------------------------------------------


def end_to_end_values(child: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one repeat.  A "job" is the workload's
    operation (run, scan point, sweep evaluation or server job) and its
    latency is what the caller of that operation waits."""
    values = {k: child[k] for k in ("wall_s", "setup_s", "solve_s", "peak_rss_mib")}
    values["failed_share"] = child["failed"] / child["attempted"]
    if child["latencies_s"]:
        values["job_latency_p50_s"] = percentile(child["latencies_s"], 50)
        values["job_latency_p95_s"] = percentile(child["latencies_s"], 95)
    return values


def summarize_repeats(children: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    per_child = [end_to_end_values(c) for c in children]
    names = [n for n in per_child[0] if all(n in v for v in per_child)]
    return {n: summarize([v[n] for v in per_child]) for n in names}


def per_layer_values(
    traced: Dict[str, Any],
    untraced_wall_s: float,
    obs_wall_s: Optional[float] = None,
) -> Dict[str, float]:
    """Flatten one traced repeat into ``name -> value``."""
    trace = traced["trace"]
    values: Dict[str, float] = {}
    for name, layer in trace["layers"].items():
        if name in trace["waiting"]:
            # happens off the driving thread: a waiting total, no self time
            values[f"{name}_s"] = trace["waiting"][name]
            continue
        values[f"{name}.self_s"] = layer["self_s"]
        if not name.startswith("run."):
            values[f"{name}.calls"] = layer["calls"]
    values.update(traced["counts"])
    values["trace.unattributed_s"] = values.get("run.setup.self_s", 0.0) + values.get(
        "run.solve.self_s", 0.0
    )
    values["trace.overhead_frac"] = traced["wall_s"] / untraced_wall_s - 1.0
    values["trace.missing_targets"] = len(trace["missing_targets"])
    if obs_wall_s is not None:
        values["obs.enabled_overhead_frac"] = obs_wall_s / untraced_wall_s - 1.0
    return values


def measure_layers(workload: str, seed: int, size: str, untraced_wall_s: float) -> Dict[str, Any]:
    """The traced repeat (and, where it applies, the obs-enabled one)."""
    traced = run_child(workload, seed, size, "--trace")
    obs_wall_s = None
    if workload in OBS_WORKLOADS:
        obs_wall_s = run_child(workload, seed, size, "--obs")["wall_s"]
    return {
        "values": per_layer_values(traced, untraced_wall_s, obs_wall_s),
        "missing_targets": traced["trace"]["missing_targets"],
        "dropped_spans": traced["trace"]["dropped_spans"],
        "traced_wall_s": traced["wall_s"],
        "failures": traced["failures"],
    }


# -- the contract form: one workload, one JSON line ---------------------------


def run_contract(args, spec) -> int:
    warm_page_cache()
    if args.trace:
        baseline = run_child(args.workload, args.seed, "full")
        layers = measure_layers(args.workload, args.seed, "full", baseline["wall_s"])
        children = [baseline]
        failures = baseline["failures"] + layers["failures"]
        metrics = {
            m["name"]: {"value": layers["values"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        children = run_repeats(args.workload, args.seed, "full", seconds=args.seconds)
        failures = [f for c in children for f in c["failures"]]
        summary = summarize_repeats(children)
        metrics = {
            m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": metrics,
    }))
    return 0


# -- the ladder form: every workload, every metric ----------------------------


def machine_block() -> Dict[str, Any]:
    import numpy
    import scipy

    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *argv], cwd=REPO, capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
    }


def measure_all(seed: int, size: str, repeats: int, report=None) -> Dict[str, Any]:
    """Every workload: ``repeats`` timed repeats, then the traced one.
    ``report(workload, entry)`` is called as each workload finishes."""
    warm_page_cache()
    record: Dict[str, Any] = {
        "schema": 1,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ"),
        "machine": machine_block(),
        "seed": seed,
        "size": size,
        "sizes": SIZES[size],
        "repeats": repeats,
        "workloads": {},
    }
    for workload in WORKLOADS:
        children = run_repeats(workload, seed, size, repeats=repeats)
        summary = summarize_repeats(children)
        layers = measure_layers(workload, seed, size, summary["wall_s"]["median"])
        entry = {
            "end_to_end": summary,
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "failures": [f for c in children for f in c["failures"]] + layers["failures"],
            "per_layer": layers["values"],
            "missing_targets": layers["missing_targets"],
            "dropped_spans": layers["dropped_spans"],
            "traced_wall_s": layers["traced_wall_s"],
        }
        record["workloads"][workload] = entry
        if report is not None:
            report(workload, entry)
    return record


def run_ladder(args, spec) -> int:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units[FAILED_SHARE["name"]] = FAILED_SHARE["unit"]
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 5)
    record = measure_all(
        args.seed, "quick" if args.quick else "full", repeats,
        report=lambda workload, entry: print_workload(workload, entry, units),
    )
    failures = [f for entry in record["workloads"].values() for f in entry["failures"]]
    for failure in failures:
        print(f"FAILED {failure}")
    if args.record:
        print(f"recorded {write_record(record)}")
    return 1 if failures else 0


def print_workload(workload: str, entry: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"\n== {workload}  ({entry['failed']} of {entry['attempted']} operations failed)")
    print(f"  {'end-to-end metric':<28}{'median':>12}{'q1':>12}{'q3':>12}  n  unit")
    for name, s in entry["end_to_end"].items():
        print(f"  {name:<28}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
              f"  {s['n']}  {units.get(name, '')}")
    print(f"  {'per-layer metric (traced repeat)':<44}{'value':>14}  unit")
    for name, value in sorted(entry["per_layer"].items()):
        if value:
            print(f"  {name:<44}{value:>14.6g}  {units.get(name, '')}")
    wall = entry["traced_wall_s"]
    attributed = sum(v for k, v in entry["per_layer"].items() if k.endswith(".self_s"))
    print(f"  driving-thread self times sum to {attributed:.3f} s of the traced {wall:.3f} s")
    for key in ("missing_targets", "dropped_spans"):
        if entry[key]:
            print(f"  trace.{key}: {', '.join(entry[key])}")


def write_record(record: Dict[str, Any]) -> str:
    """Append-only: a new file per run, never an overwrite."""
    machine = record["machine"]
    stem = f"{record['utc']}-{machine['git_sha'][:10]}{'-dirty' if machine['dirty'] else ''}"
    directory = os.path.join(HERE, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{stem}.json")
    n = 1
    while os.path.exists(path):
        n += 1
        path = os.path.join(directory, f"{stem}.{n}.json")
    with open(path, "x") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return os.path.relpath(path, REPO)


# -- compare ------------------------------------------------------------------


def compare(path_a: str, path_b: str, spec) -> int:
    """Per (metric, workload) verdicts of B against parent A, one row
    per workload; non-zero exit when any pairing is ``worse``."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    metrics = spec["end_to_end"] + [FAILED_SHARE]
    print(f"{'workload':<20}" + "".join(f"{m['name']:>19}" for m in metrics))
    worse, notes = 0, []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        row = f"{workload:<20}"
        for m in metrics:
            sa, sb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if sa is None or sb is None:
                row += f"{'-':>19}"
                continue
            floor = SETUP_FLOOR_S if m["name"] == "setup_s" else 0.0
            v = verdict(sa, sb, m["bound"], m["better"], floor)
            worse += v == "worse"
            row += f"{v:>19}"
            if v in ("worse", "unresolved"):
                notes.append(
                    f"{v}: {m['name']} on {workload}: median {sa['median']:.4f} -> "
                    f"{sb['median']:.4f} {m['unit']} (bound {m['bound']:.0%}, quartile "
                    f"spread {spread(sa):.1%} -> {spread(sb):.1%})"
                )
        print(row)
        for name in EXACT_COUNTS:
            ca, cb = wa["per_layer"].get(name), wb["per_layer"].get(name)
            if ca != cb:
                notes.append(f"count differs: {name} on {workload}: {ca} -> {cb}")
    for note in notes:
        print(note)
    return 1 if worse else 0


# -- entry point --------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change, spec)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload and print one JSON line")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="with --workload: how long to keep starting repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--repeats", type=int, help="timed repeats per workload (default 5)")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one repeat: drives every path and check")
    parser.add_argument("--record", action="store_true",
                        help="append the run to benchmarks/ladder/results/")
    args = parser.parse_args(argv)
    if args.workload:
        return run_contract(args, spec)
    return run_ladder(args, spec)


if __name__ == "__main__":
    sys.exit(main())
