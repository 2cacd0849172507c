"""Tests of the ladder harness itself (not collected by the tier-1 suite):

    PYTHONPATH=src python -m pytest benchmarks/ladder -q
"""

import json
import os
import sys
import threading
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from trace import MAX_CALLS_PER_SPAN, Tracer  # noqa: E402

# -- tracer -------------------------------------------------------------------

MAIN, WORKER = 1, 2


def _tracer_with(threads):
    tracer = Tracer(targets={})
    tracer._threads = threads
    return tracer


def test_self_time_is_duration_minus_direct_children():
    # outer [0, 10] > mid [1, 7] > leaf [2, 3], leaf [4, 6]; then outer [10, 12]
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["mid", 1.0, 7.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["leaf", 4.0, 6.0, 1],
        ["outer", 10.0, 12.0, -1],
    ]
    table = _tracer_with([(MAIN, spans)]).aggregate(driving_thread=MAIN)["layers"]
    assert table["outer"] == {"self_s": 4.0 + 2.0, "calls": 2}
    assert table["mid"] == {"self_s": 3.0, "calls": 1}
    assert table["leaf"] == {"self_s": 3.0, "calls": 2}
    # self times tile the driving thread's wall time
    assert sum(v["self_s"] for v in table.values()) == 12.0


def test_worker_thread_spans_wait_and_count_but_are_not_summed():
    main = [["serve.tick", 0.0, 10.0, -1], ["serve.broker_pump", 1.0, 9.0, 0]]
    worker = [
        ["core.vqe_run", 1.0, 9.0, -1],
        ["serve.batch_wait", 2.0, 5.0, 0],
        ["serve.batch_wait", 6.0, 8.0, 0],
    ]
    out = _tracer_with([(MAIN, main), (WORKER, worker)]).aggregate(driving_thread=MAIN)
    assert out["waiting"] == {"serve.batch_wait": 5.0}
    assert out["layers"]["serve.batch_wait"] == {"self_s": 0.0, "calls": 2}
    assert out["layers"]["core.vqe_run"] == {"self_s": 0.0, "calls": 1}
    assert out["layers"]["serve.tick"]["self_s"] == 2.0
    assert sum(v["self_s"] for v in out["layers"].values()) == 10.0


def test_span_with_too_many_calls_is_folded_into_its_parent():
    spans = [["outer", 0.0, 100.0, -1], ["mid", 0.0, 50.0, 0]]
    for k in range(MAX_CALLS_PER_SPAN + 1):
        spans.append(["hot", 0.0, 0.0, 1])
    spans.append(["leaf", 10.0, 20.0, len(spans) - 1])  # child of a hot span
    out = _tracer_with([(MAIN, spans)]).aggregate(driving_thread=MAIN)
    assert out["dropped_spans"] == ["hot"]
    assert "hot" not in out["layers"]
    # leaf is charged to mid, the nearest ancestor that is in the table
    assert out["layers"]["mid"]["self_s"] == 40.0
    assert out["layers"]["outer"]["self_s"] == 50.0


@pytest.fixture
def fixture_package():
    """A two-module package shaped like repro: ``b`` holds an alias of
    ``a.work`` made by ``from a import work`` before the tracer ran."""
    a = types.ModuleType("ladderfix.a")
    exec(
        "import time\n"
        "def work(n):\n    time.sleep(0.002)\n    return n + 1\n"
        "class Base:\n    def minimize(self):\n        raise NotImplementedError\n"
        "class Impl(Base):\n    def minimize(self):\n        return work(1)\n",
        a.__dict__,
    )
    b = types.ModuleType("ladderfix.b")
    b.work = a.work
    exec("def call(n):\n    return work(n)\n", b.__dict__)
    pkg = types.ModuleType("ladderfix")
    mods = {"ladderfix": pkg, "ladderfix.a": a, "ladderfix.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


def test_install_rebinds_aliases_and_lists_unresolved_targets(fixture_package):
    a, b = fixture_package
    tracer = Tracer(targets={
        "fix.work": ("ladderfix.a:work",),
        "fix.minimize": ("ladderfix.a:Base.*minimize",),
        "fix.gone": ("ladderfix.a:renamed_away", "ladderfix.nowhere:f", "ladderfix.a:Impl.nope"),
    })
    tracer.install()
    try:
        assert b.call(1) == 2  # through the alias in another module
        assert a.Impl().minimize() == 2  # subclass override, nested work()
        done = threading.Thread(target=b.call, args=(5,))
        done.start()
        done.join(timeout=10)
        assert not done.is_alive()
    finally:
        tracer.uninstall()
    out = tracer.aggregate()
    assert out["missing_targets"] == [
        "ladderfix.a:renamed_away", "ladderfix.nowhere:f", "ladderfix.a:Impl.nope",
    ]
    assert out["layers"]["fix.work"]["calls"] == 3
    assert out["layers"]["fix.minimize"]["calls"] == 1
    assert "fix.gone" not in out["layers"]
    # the worker thread's call is counted but not summed
    assert 0.004 <= out["layers"]["fix.work"]["self_s"] < 0.05
    assert out["layers"]["fix.minimize"]["self_s"] < 0.002
    assert b.work is a.work and "traced" not in repr(a.work)  # uninstalled


# -- order statistics and verdicts --------------------------------------------


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 95) == 5.0
    assert stats.percentile(values, 20) == 1.0
    assert stats.percentile(list(range(1, 601)), 95) == 570  # 30 samples beyond
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summarize_matches_statistics_quantiles():
    s = stats.summarize([10.0, 12.0, 11.0, 13.0, 9.0])
    assert (s["median"], s["n"]) == (11.0, 5)
    assert (s["q1"], s["q3"]) == (9.5, 12.5)
    assert stats.spread(s) == pytest.approx(3.0 / 11.0)
    one = stats.summarize([4.0])
    assert (one["q1"], one["median"], one["q3"], stats.spread(one)) == (4.0, 4.0, 4.0, 0.0)


def _summary(*values):
    return stats.summarize(values)


def test_verdicts():
    tight = _summary(10.0, 10.1, 9.9, 10.0, 10.05)
    assert stats.verdict(tight, _summary(10.2, 10.3, 10.1, 10.2, 10.25), 0.10) == "unchanged"
    assert stats.verdict(tight, _summary(11.5, 11.6, 11.4, 11.5, 11.5), 0.10) == "worse"
    assert stats.verdict(tight, _summary(8.0, 8.1, 7.9, 8.0, 8.0), 0.10) == "better"
    # spread wider than the bound: the medians cannot call it unchanged
    noisy = _summary(8.0, 10.4, 12.5, 9.0, 11.0)
    assert stats.verdict(tight, noisy, 0.10) == "unresolved"
    # ... unless every run of the change beats every run of the parent
    assert stats.verdict(noisy, _summary(5.0, 7.0, 6.0, 5.5, 7.5), 0.10) == "better"
    # higher-is-better metrics flip the sign
    assert stats.verdict(tight, _summary(8.0, 8.1, 7.9, 8.0, 8.0), 0.10, "higher") == "worse"
    # a floor keeps a small absolute difference from counting
    small = _summary(0.50, 0.51, 0.49, 0.50, 0.50)
    slower = _summary(0.60, 0.61, 0.59, 0.60, 0.60)
    assert stats.verdict(small, slower, 0.15) == "worse"
    assert stats.verdict(small, slower, 0.15, floor=0.2) == "unchanged"
    # failed_share: bound 0, any increase is worse
    clean = _summary(0.0, 0.0, 0.0)
    assert stats.verdict(clean, clean, 0.0) == "unchanged"
    assert stats.verdict(clean, _summary(0.0, 0.125, 0.125), 0.0) == "worse"


def _record(wall, setup, latency, failed_share=(0.0, 0.0, 0.0), evaluations=12):
    return {"workloads": {"uccsd_circuit_h4": {
        "end_to_end": {
            "wall_s": stats.summarize(wall),
            "setup_s": stats.summarize(setup),
            "job_latency_p50_s": stats.summarize(latency),
            "failed_share": stats.summarize(failed_share),
        },
        "per_layer": {"opt.evaluations": evaluations},
    }}}


def test_compare_reports_one_row_per_workload_and_fails_on_worse(tmp_path, capsys):
    spec = run.load_spec()
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["wall_s"]
    slow_wall = [w * (1 + 2 * bound) for w in (6.0, 6.1, 5.9)]
    noisy_wall = [6.0, 6.0 * (1 + 2 * bound), 6.0 * (1 - 2 * bound)]
    parent = _record([6.0, 6.1, 5.9], [0.60, 0.62, 0.61], [5.2, 5.3, 5.1])
    paths = {}
    for name, rec in {
        "parent": parent,
        "same": _record([6.1, 6.0, 6.2], [0.78, 0.79, 0.77], [5.2, 5.2, 5.3]),
        "slow": _record(slow_wall, [0.60, 0.62, 0.61], [5.2, 5.3, 5.1], evaluations=14),
        "noisy": _record(noisy_wall, [0.60, 0.62, 0.61], [5.2, 5.3, 5.1]),
        "failing": _record([6.0, 6.1, 5.9], [0.60, 0.62, 0.61], [5.2, 5.3, 5.1], (0.0, 1.0, 1.0)),
    }.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(rec, fh)

    # setup_s is 28 % up but by less than the 0.2 s floor: not worse
    assert run.compare(paths["parent"], paths["same"], spec) == 0
    out = capsys.readouterr().out
    assert out.count("uccsd_circuit_h4") == 1 and "worse" not in out

    assert run.compare(paths["parent"], paths["slow"], spec) == 1
    out = capsys.readouterr().out
    assert "worse: wall_s on uccsd_circuit_h4" in out
    assert "count differs: opt.evaluations on uccsd_circuit_h4: 12 -> 14" in out

    assert run.compare(paths["parent"], paths["noisy"], spec) == 0
    assert "unresolved: wall_s on uccsd_circuit_h4" in capsys.readouterr().out

    assert run.compare(paths["parent"], paths["failing"], spec) == 1
    assert "worse: failed_share on uccsd_circuit_h4" in capsys.readouterr().out


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_alone(workload):
    def blob(seed):
        return json.dumps(workloads.generate_inputs(workload, seed), sort_keys=True)

    assert blob(3) == blob(3)
    assert blob(3) != blob(4)
    assert blob(0) != blob(3)


def test_seed_zero_is_the_paper_configuration():
    assert workloads.generate_inputs("adapt_h2o", 0) == {
        "oh_angstrom": 0.9572, "angle_deg": 104.52,
    }
    circuit = workloads.generate_inputs("uccsd_circuit_h4", 0)
    assert circuit["geometry"] == 0.9 and not any(circuit["x0"])
    fleet = workloads.generate_inputs("serve_fleet_h4", 0)
    assert [j["seed"] for j in fleet["jobs"]] == list(range(8))


# -- the whole ladder at quick size -------------------------------------------


def test_quick_ladder_runs_every_workload_and_check_in_under_a_minute(tmp_path):
    spec = run.load_spec()
    start = time.perf_counter()
    record = run.measure_all(seed=1, size="quick", repeats=1)
    assert time.perf_counter() - start < 60
    assert list(record["workloads"]) == [w["name"] for w in spec["workloads"]]
    declared = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {"failed_share"}
    for name, entry in record["workloads"].items():
        assert entry["failures"] == [] and entry["failed"] == 0, name
        assert entry["attempted"] >= 1
        assert set(entry["end_to_end"]) == end_to_end, name
        assert entry["missing_targets"] == [] and entry["dropped_spans"] == []
        # BENCHMARK.json declares every per-layer metric the harness emits
        assert set(entry["per_layer"]) <= declared, set(entry["per_layer"]) - declared
        # driving-thread self times tile the traced run's wall time
        self_s = sum(v for k, v in entry["per_layer"].items() if k.endswith(".self_s"))
        assert self_s == pytest.approx(entry["traced_wall_s"], abs=0.01), name
    assert record["machine"]["nproc"] == os.cpu_count()
    assert not os.path.exists(workloads.STATE_ROOT) or not os.listdir(workloads.STATE_ROOT)
