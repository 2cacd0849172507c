"""Tests for the live-operations layer (PR 7).

Covers the structured event bus (durability, rotation, torn tails,
seq continuation, subscribers, schema versioning), the per-tenant SLO
engine (quantile math, multi-window burn alerts, simulated-clock
determinism), the convergence flight recorder (synthetic stall /
divergence / barren-plateau traces), the `repro top` dashboard, and
the end-to-end acceptance path: injected stall + deadline-miss burst
-> events -> SLO burn alert -> flight verdict, all visible through
``repro top --json`` purely from on-disk artifacts.
"""

import json
import os
import re

import pytest

from repro import obs
from repro.cli import main
from repro.obs import events as obs_events
from repro.obs.dashboard import Dashboard
from repro.obs.events import Event, EventBus, read_events
from repro.obs.flight import (
    VERDICT_BARREN,
    VERDICT_DIVERGING,
    VERDICT_OK,
    VERDICT_STALLED,
    FlightConfig,
    FlightRecorder,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import FLEET, SLOConfig, SLOEngine
from repro.serve import CampaignServer, JobSpec, JobState, ServerConfig


@pytest.fixture(autouse=True)
def _clean_obs():
    """Isolate the process-global observability state per test: off,
    with an empty registry and no event bus, before and after."""
    obs.disable()
    obs.reset()
    obs_events.set_bus(None)
    yield
    obs.disable()
    obs.reset()
    obs_events.set_bus(None)


# -- event bus ----------------------------------------------------------------


class TestEventBus:
    def test_roundtrip_and_none_attr_dropping(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus(path=path)
        bus.emit("job.admitted", tenant="t", job_id="j1", reason=None)
        bus.emit("job.completed", tenant="t", job_id="j1", energy=-1.5)
        bus.close()
        events = read_events(path)
        assert [e.type for e in events] == ["job.admitted", "job.completed"]
        assert [e.seq for e in events] == [1, 2]
        assert "reason" not in events[0].attrs  # None attrs are dropped
        assert events[1].attrs["energy"] == -1.5
        assert all(e.version == obs_events.EVENT_SCHEMA_VERSION for e in events)

    def test_seq_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus(path=path)
        bus.emit("a")
        bus.emit("b")
        bus.close()
        bus2 = EventBus(path=path)
        ev = bus2.emit("c")
        bus2.close()
        assert ev.seq == 3
        assert [e.seq for e in read_events(path)] == [1, 2, 3]

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus(path=path)
        bus.emit("a")
        bus.emit("b")
        bus.close()
        with open(path, "a") as fh:
            fh.write('{"v": 1, "seq": 3, "type": "torn')  # kill -9 mid-write
        bus2 = EventBus(path=path)  # truncates the torn tail
        ev = bus2.emit("c")
        bus2.close()
        events = read_events(path)
        assert [e.type for e in events] == ["a", "b", "c"]
        # the torn record never merged with the new one
        assert ev.seq == 3

    def test_rotation_bounds_live_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus(path=path, max_bytes=1024)
        for i in range(40):
            bus.emit("tick", filler="x" * 64, i=i)
        bus.close()
        assert os.path.getsize(path) < 2048  # live file stays bounded
        assert os.path.isfile(path + ".1")
        events = read_events(path)  # rotated generation still read
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(events) > 10

    def test_subscribers_fan_out_live(self, tmp_path):
        bus = EventBus(path=None)  # in-memory: subscribers only
        seen = []
        fn = bus.subscribe(lambda e: seen.append(e.type))
        bus.emit("x")
        bus.unsubscribe(fn)
        bus.emit("y")
        assert seen == ["x"]

    def test_future_schema_version_rejected_not_misparsed(self, tmp_path):
        with pytest.raises(ValueError, match="schema version"):
            Event.from_dict({"v": 99, "seq": 1, "type": "x", "t_wall": 0.0})
        path = str(tmp_path / "events.jsonl")
        bus = EventBus(path=path)
        bus.emit("ok")
        bus.close()
        with open(path, "a") as fh:
            fh.write('{"v": 99, "seq": 2, "type": "future", "t_wall": 0.0}\n')
        events = read_events(path)  # skipped, not crashed on
        assert [e.type for e in events] == ["ok"]

    def test_global_emit_is_noop_without_bus(self):
        assert obs_events.get_bus() is None
        assert obs_events.emit("anything", x=1) is None

    def test_close_uninstalls_global_bus(self, tmp_path):
        bus = EventBus(path=str(tmp_path / "e.jsonl"))
        obs_events.set_bus(bus)
        assert obs_events.get_bus() is bus
        bus.close()
        assert obs_events.get_bus() is None

    def test_sim_clock_stamps(self, tmp_path):
        class Clock:
            now = 42.0

        bus = EventBus(path=str(tmp_path / "e.jsonl"), sim_clock=Clock())
        ev = bus.emit("x")
        bus.close()
        assert ev.t_sim == 42.0
        assert ev.time("sim") == 42.0
        assert ev.time("wall") == ev.t_wall


# -- SLO engine ---------------------------------------------------------------


def _ev(seq, type, t, **attrs):
    """Synthetic event with a deterministic sim stamp."""
    return Event(seq=seq, type=type, t_wall=t, t_sim=t, attrs=attrs)


class TestSLOEngine:
    def test_healthy_stream_no_alerts(self):
        eng = SLOEngine(SLOConfig(), time_source="sim")
        for i in range(10):
            t = float(i)
            eng.ingest(_ev(2 * i + 1, "job.admitted", t, tenant="t"))
            eng.ingest(
                _ev(
                    2 * i + 2,
                    "job.dispatched",
                    t + 0.5,
                    tenant="t",
                    queue_latency_s=0.5,
                )
            )
            eng.ingest(_ev(100 + i, "job.completed", t + 1.0, tenant="t"))
        report = eng.report()
        assert report.alerts == []
        slis = report.tenants["t"]
        assert slis["deadline_hit_ratio"]["ratio"] == 1.0
        assert slis["shed_rate"]["rate"] == 0.0
        assert slis["queue_latency_s"]["p95"] == pytest.approx(0.5)

    def test_deadline_miss_burst_fires_multiwindow_burn(self):
        eng = SLOEngine(SLOConfig(), time_source="sim")
        for i in range(4):
            eng.ingest(_ev(i + 1, "job.timed_out", 10.0 + i, tenant="burst"))
        report = eng.report()
        fired = [a for a in report.alerts if a.tenant == "burst"]
        assert any(a.sli == "deadline_hit_ratio" for a in fired)
        alert = next(a for a in fired if a.sli == "deadline_hit_ratio")
        # 100% misses against a 5% budget: burn = 20x on both windows
        assert alert.burn_short == pytest.approx(20.0)
        assert alert.burn_long == pytest.approx(20.0)
        assert "missed their deadline" in alert.detail
        # the fleet pseudo-tenant mirrors per-tenant series
        assert report.tenants[FLEET]["deadline_hit_ratio"]["n"] == 4

    def test_min_events_suppresses_blips(self):
        eng = SLOEngine(SLOConfig(min_events=3), time_source="sim")
        eng.ingest(_ev(1, "job.timed_out", 1.0, tenant="t"))
        eng.ingest(_ev(2, "job.timed_out", 2.0, tenant="t"))
        assert eng.report().alerts == []  # 2 < min_events
        eng.ingest(_ev(3, "job.timed_out", 3.0, tenant="t"))
        assert eng.report().alerting("t")  # third sample crosses it

    def test_short_window_recovery_silences_alert(self):
        # a long-ago burst with a clean short window must not alert
        cfg = SLOConfig(short_window_s=10.0, long_window_s=100.0)
        eng = SLOEngine(cfg, time_source="sim")
        for i in range(5):
            eng.ingest(_ev(i + 1, "job.timed_out", float(i), tenant="t"))
        for i in range(20):
            eng.ingest(
                _ev(10 + i, "job.completed", 50.0 + i, tenant="t")
            )
        report = eng.report(now=70.0)
        assert report.alerting("t") == []

    def test_sim_time_source_is_deterministic(self):
        def build():
            eng = SLOEngine(SLOConfig(), time_source="sim")
            for i in range(6):
                eng.ingest(
                    _ev(
                        i + 1,
                        "job.dispatched",
                        float(i),
                        tenant="t",
                        queue_latency_s=float(i),
                    )
                )
            return eng.report()  # now defaults to the last event's time

        r1, r2 = build(), build()
        assert r1.at == r2.at == 5.0
        assert r1.to_dict() == r2.to_dict()

    def test_shed_rate_alert(self):
        eng = SLOEngine(SLOConfig(shed_rate_max=0.05), time_source="sim")
        for i in range(6):
            eng.ingest(_ev(i + 1, "job.admitted", float(i), tenant="t"))
        for i in range(4):
            eng.ingest(_ev(10 + i, "job.shed", 6.0 + i, tenant="t"))
        report = eng.report()
        alert = next(a for a in report.alerting("t") if a.sli == "shed_rate")
        assert "submissions shed" in alert.detail
        assert report.tenants["t"]["shed_rate"]["rate"] == pytest.approx(0.4)

    def test_tick_duration_is_fleet_scoped(self):
        eng = SLOEngine(SLOConfig(), time_source="sim")
        eng.ingest(_ev(1, "server.tick", 1.0, duration_s=0.1))
        eng.ingest(_ev(2, "server.tick", 2.0, duration_s=0.3))
        report = eng.report()
        assert list(report.tenants) == [FLEET]
        td = report.tenants[FLEET]["tick_duration_s"]
        assert td["n"] == 2
        assert td["p50"] == pytest.approx(0.2)

    def test_evals_per_s_from_metric_deltas(self):
        eng = SLOEngine(SLOConfig(min_evals_per_s=100.0), time_source="sim")
        eng.ingest(_ev(1, "server.tick", 0.0, duration_s=0.1))
        row = {"name": "repro_vqe_energy_evaluations_total", "value": 10.0}
        eng.observe_metrics([row], now=0.0)
        eng.observe_metrics([dict(row, value=30.0)], now=10.0)
        report = eng.report(now=10.0)
        ev = report.tenants[FLEET]["evals_per_s"]
        assert ev["rate"] == pytest.approx(2.0)
        assert any(a.sli == "evals_per_s" for a in report.alerting(FLEET))

    def test_config_validation_and_loading(self, tmp_path):
        with pytest.raises(ValueError):
            SLOConfig(queue_latency_quantile=1.5)
        with pytest.raises(ValueError):
            SLOConfig(short_window_s=100.0, long_window_s=10.0)
        with pytest.raises(ValueError, match="unknown"):
            SLOConfig.from_dict({"not_a_field": 1})
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"deadline_hit_target": 0.5}))
        cfg = SLOConfig.load(str(path))
        assert cfg.deadline_hit_target == 0.5
        assert SLOConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError):
            SLOEngine(time_source="lunar")


# -- flight recorder ----------------------------------------------------------


class TestFlightRecorder:
    def test_descending_trace_is_ok(self):
        rec = FlightRecorder(kind="vqe")
        for i in range(20):
            rec.record(-1.0 - 0.1 * i, index=i)
        assert rec.verdict == VERDICT_OK

    def test_flat_trace_stalls(self):
        rec = FlightRecorder(kind="vqe", config=FlightConfig(stall_window=4))
        for i in range(10):
            rec.record(-1.0, index=i)
        assert rec.verdict == VERDICT_STALLED
        assert "improved" in rec.verdict_detail
        assert rec.verdict_at is not None

    def test_rising_trace_diverges(self):
        cfg = FlightConfig(divergence_window=3, divergence_margin=1e-6)
        rec = FlightRecorder(kind="vqe", config=cfg)
        rec.record(-2.0, index=0)
        for i in range(1, 6):
            rec.record(-2.0 + 0.5 * i, index=i)
        assert rec.verdict == VERDICT_DIVERGING

    def test_tiny_gradients_flag_barren_plateau(self):
        cfg = FlightConfig(barren_window=4, barren_grad_threshold=1e-7)
        rec = FlightRecorder(kind="adapt", config=cfg)
        for i in range(4):
            rec.record(-1.0 - 0.1 * i, grad_norm=1e-9, index=i)
        assert rec.verdict == VERDICT_BARREN

    def test_detector_priority_divergence_over_stall(self):
        # a parked-above-best trace satisfies both stall and divergence;
        # divergence (the more alarming diagnosis) must win
        rec = FlightRecorder(config=FlightConfig())
        rec.record(-5.0, index=0)
        for i in range(1, 10):
            rec.record(-1.0, index=i)
        assert rec.verdict == VERDICT_DIVERGING

    def test_recovery_emits_verdict_change_back_to_ok(self):
        bus = EventBus(path=None)
        obs_events.set_bus(bus)
        verdicts = []
        bus.subscribe(
            lambda e: verdicts.append(e.attrs["verdict"])
            if e.type == "flight.verdict"
            else None
        )
        rec = FlightRecorder(
            kind="vqe",
            config=FlightConfig(stall_window=4),
            context={"job_id": "j1", "tenant": "t"},
        )
        for i in range(8):
            rec.record(-1.0, index=i)  # stall...
        for i in range(8, 12):
            rec.record(-1.0 - 0.5 * (i - 7), index=i)  # ...then descend
        assert verdicts == [VERDICT_STALLED, VERDICT_OK]
        assert rec.verdict == VERDICT_OK
        bus.close()

    def test_verdict_event_carries_context(self):
        bus = EventBus(path=None)
        obs_events.set_bus(bus)
        seen = []
        bus.subscribe(seen.append)
        rec = FlightRecorder(context={"job_id": "j9", "tenant": "acme"})
        for i in range(10):
            rec.record(-1.0, index=i)
        bus.close()
        ev = next(e for e in seen if e.type == "flight.verdict")
        assert ev.attrs["job_id"] == "j9"
        assert ev.attrs["tenant"] == "acme"
        assert ev.attrs["verdict"] == VERDICT_STALLED

    def test_step_norm_and_drift_track_adapt_growth(self):
        rec = FlightRecorder(kind="adapt")
        rec.record(-1.0, params=[0.1], index=1)
        s = rec.record(-1.1, params=[0.1, 0.2], index=2)  # grew by one
        # shared prefix unchanged; the new parameter moved 0.2 from its
        # zero warm start
        assert s.step_norm == pytest.approx(0.2)
        assert s.drift == pytest.approx(0.2)

    def test_ring_bound_and_export(self):
        cfg = FlightConfig(max_samples=16)
        rec = FlightRecorder(config=cfg)
        for i in range(50):
            rec.record(-1.0 - i, index=i)
        assert len(rec.samples) == 16
        assert rec.num_samples == 50
        d = rec.to_dict(max_samples=5)
        assert len(d["samples"]) == 5
        assert d["num_samples"] == 50
        assert d["best_energy"] == pytest.approx(-50.0)
        assert d["verdict"] == VERDICT_OK
        json.dumps(d)  # JSON-able

    def test_windows_validated(self):
        with pytest.raises(ValueError):
            FlightConfig(stall_window=1)
        with pytest.raises(ValueError):
            FlightConfig(max_samples=4)


# -- satellites: metrics atomicity, quantiles, tenant gauges ------------------


class TestMetricsSatellites:
    def test_write_jsonl_is_atomic_and_leaves_no_tmp(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc(3)
        path = str(tmp_path / "metrics.jsonl")
        reg.write_jsonl(path)
        reg.write_prometheus(str(tmp_path / "metrics.prom"))
        leftovers = [f for f in os.listdir(tmp_path) if "tmp" in f]
        assert leftovers == []
        rows = [json.loads(line) for line in open(path)]
        assert any(r["name"] == "repro_x_total" for r in rows)

    def test_histogram_quantiles_in_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds")
        for v in [0.1, 0.2, 0.3, 0.4, 1.0]:
            h.observe(v)
        q = h.quantiles()
        assert q["p50"] == pytest.approx(0.3)
        assert q["p95"] >= q["p50"]
        row = next(
            r for r in reg.snapshot() if r["name"] == "repro_lat_seconds"
        )
        assert "quantiles" in row
        empty = reg.histogram("repro_empty_seconds")
        assert empty.quantiles()["p50"] is None  # NaN -> None, JSON-safe

    def test_report_summary_renders_quantiles_and_flight(self):
        obs.enable()
        h = obs.get_registry().histogram("repro_step_seconds")
        for v in (0.01, 0.02, 0.03):
            h.observe(v)
        report = obs.collect_report(
            meta={"kind": "vqe"},
            flight={
                "verdict": "stalled",
                "verdict_detail": "no improvement",
                "num_samples": 7,
                "best_energy": -1.25,
                "verdict_at": 5,
            },
        )
        text = report.summary()
        assert "flight recorder" in text
        assert "stalled" in text
        assert "histogram quantiles" in text
        assert "p50" in text
        # round-trips through serialization with the flight section
        clone = type(report).from_dict(report.to_dict())
        assert clone.flight["verdict"] == "stalled"

    def test_stale_tenant_gauges_zeroed_after_drain(self, tmp_path):
        obs.enable()
        srv = CampaignServer(
            str(tmp_path / "srv"), ServerConfig(num_ranks=1)
        )
        # one rank, two jobs: after the first tick one job is terminal
        # and the other is still queued, so the queued gauge goes live
        srv.submit(JobSpec(tenant="acme", molecule="h2", max_iterations=2))
        srv.submit(
            JobSpec(tenant="acme", molecule="h2", geometry=0.9, max_iterations=2)
        )
        srv.tick()

        def gauge(state):
            g = obs.get_registry().gauge(
                "repro_serve_tenant_jobs",
                labels={"tenant": "acme", "state": state},
            )
            return g.value

        assert gauge(JobState.QUEUED) + gauge(JobState.RUNNING) > 0
        for _ in range(60):
            srv.tick()
            if srv.state.jobs and all(
                j.state == JobState.SUCCEEDED
                for j in srv.state.jobs.values()
            ):
                break
        # terminal everywhere: both live-state gauges must read 0, not
        # their last nonzero value forever
        assert gauge(JobState.QUEUED) == 0.0
        assert gauge(JobState.RUNNING) == 0.0
        srv.close()

    def test_tenant_label_is_escaped_in_exposition(self, tmp_path):
        tenant = 'a"b\\c\nd'
        obs.enable()
        srv = CampaignServer(str(tmp_path / "srv"), ServerConfig(num_ranks=1))
        for geometry in (None, 0.9):
            srv.submit(
                JobSpec(tenant=tenant, molecule="h2", geometry=geometry, max_iterations=2)
            )
        srv.tick()
        srv.close()
        path = str(tmp_path / "metrics.prom")
        obs.get_registry().write_prometheus(path)
        lines = [
            line for line in open(path).read().splitlines()
            if line.startswith("repro_serve_tenant_jobs")
        ]
        assert lines  # the queued job's gauge is live
        sample = re.compile(
            r'^repro_serve_tenant_jobs\{state="\w+",tenant="((?:[^"\\\n]|\\.)*)"\} \d+$'
        )
        for line in lines:  # one line per sample, each well formed
            match = sample.match(line)
            assert match, line
            unescaped = re.sub(
                r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), match.group(1)
            )
            assert unescaped == tenant


# -- dashboard ----------------------------------------------------------------


class TestDashboard:
    def test_renders_from_disk_only(self, tmp_path):
        d = str(tmp_path)
        bus = EventBus(path=os.path.join(d, "events.jsonl"))
        bus.emit("job.admitted", tenant="t", job_id="j1")
        bus.emit(
            "job.dispatched", tenant="t", job_id="j1", queue_latency_s=0.2
        )
        bus.emit("job.completed", tenant="t", job_id="j1", energy=-1.0)
        bus.close()
        with open(os.path.join(d, "status.json"), "w") as fh:
            json.dump(
                {
                    "health": {
                        "status": "ready",
                        "alive_ranks": [0, 1],
                        "lost_ranks": [],
                        "ticks": 3,
                        "queue_depth": 0,
                        "running": 0,
                        "jobs": {"succeeded": 1},
                    },
                    "jobs": [
                        {"job_id": "j1", "tenant": "t", "state": "succeeded"}
                    ],
                },
                fh,
            )
        dash = Dashboard(d)
        snap = dash.snapshot()
        assert snap["events_total"] == 3
        assert snap["tenants"]["t"]["succeeded"] == 1
        assert "t" in snap["slo"]["tenants"]
        text = dash.render(snap)
        assert "repro top" in text
        assert "[ready]" in text
        assert "recent events" in text

    def test_empty_state_dir_degrades_gracefully(self, tmp_path):
        dash = Dashboard(str(tmp_path))
        snap = dash.snapshot()
        assert snap["events_total"] == 0
        assert snap["alerts"] == []
        dash.render(snap)  # must not raise

    def test_no_server_internals_imported(self):
        import repro.obs.dashboard as mod

        source = open(mod.__file__).read()
        assert "repro.serve" not in source
        assert "repro.core" not in source


# -- end-to-end acceptance ----------------------------------------------------


class TestEndToEnd:
    def test_stall_and_deadline_burst_reach_repro_top(self, tmp_path, capsys):
        """The acceptance path: an injected optimizer stall plus a
        deadline-miss burst flow from fault injection through the event
        log into an SLO burn alert and a flight-recorder verdict, all
        visible in ``repro top --json`` — read purely from disk."""
        state_dir = str(tmp_path / "srv")
        clock = {"t": 0.0}
        srv = CampaignServer(
            state_dir,
            ServerConfig(
                num_ranks=2,
                clock=lambda: clock["t"],
                # never converge by gradient: ADAPT plateaus until
                # max_iterations — the injected stall
                adapt_gradient_tolerance=0.0,
            ),
        )
        stall = srv.submit(
            JobSpec(
                tenant="acme", kind="adapt", molecule="h2", max_iterations=10
            )
        )
        for _ in range(80):
            srv.tick()
            if srv.state.jobs[stall.job_id].state in (
                JobState.SUCCEEDED,
                JobState.FAILED,
            ):
                break
        assert srv.state.jobs[stall.job_id].state == JobState.SUCCEEDED
        # the plateau was detected and recorded on the job itself
        assert srv.state.jobs[stall.job_id].flight_verdict in (
            VERDICT_STALLED,
            VERDICT_BARREN,
        )

        # deadline-miss burst: submissions whose deadline passes in queue
        for i in range(4):
            srv.submit(
                JobSpec(tenant="burst", molecule="h2", deadline_s=1.0)
            )
        clock["t"] += 100.0
        for _ in range(10):
            srv.tick()
        timed_out = [
            j
            for j in srv.state.jobs.values()
            if j.state == JobState.TIMED_OUT
        ]
        assert len(timed_out) == 4
        srv.close()

        # every hop is on disk: events, status, verdicts
        events = read_events(os.path.join(state_dir, "events.jsonl"))
        types = {e.type for e in events}
        assert {
            "job.admitted",
            "job.dispatched",
            "job.completed",
            "job.timed_out",
            "server.tick",
            "flight.verdict",
        } <= types
        verdict_events = [e for e in events if e.type == "flight.verdict"]
        assert any(
            e.attrs.get("job_id") == stall.job_id
            and e.attrs["verdict"] != VERDICT_OK
            for e in verdict_events
        )

        # `repro top --json` sees it all out-of-process
        rc = main(["top", "--state-dir", state_dir, "--json"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["command"] == "top"
        burn = [
            a
            for a in snap["alerts"]
            if a["tenant"] == "burst" and a["sli"] == "deadline_hit_ratio"
        ]
        assert burn, f"expected a burn alert, got {snap['alerts']}"
        assert burn[0]["burn_short"] >= 2.0
        flight = snap["flight"].get(stall.job_id)
        assert flight is not None
        assert flight["verdict"] in (VERDICT_STALLED, VERDICT_BARREN)
        # healthy tenant stays quiet
        assert not [
            a for a in snap["alerts"] if a["tenant"] == "acme"
        ]

    def test_top_once_renders_text(self, tmp_path, capsys):
        state_dir = str(tmp_path / "srv")
        srv = CampaignServer(state_dir, ServerConfig(num_ranks=2))
        srv.submit(JobSpec(tenant="t", molecule="h2", max_iterations=2))
        for _ in range(40):
            srv.tick()
        srv.close()
        rc = main(["top", "--state-dir", state_dir, "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "tenant" in out

    def test_top_missing_dir_errors(self, tmp_path, capsys):
        rc = main(["top", "--state-dir", str(tmp_path / "nope")])
        assert rc == 1
