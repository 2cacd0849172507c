"""Tests for repro.obs — tracing, metrics, run reports."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.ir.pauli import PauliSum
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.report import RunReport, as_plain_dict
from repro.obs.trace import NULL_SPAN, Tracer


@pytest.fixture(autouse=True)
def _clean_global_obs():
    """Each test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_span_records_name_and_duration(self):
        tr = Tracer()
        with tr.span("work"):
            pass
        assert len(tr.spans) == 1
        rec = tr.spans[0]
        assert rec.name == "work"
        assert rec.duration_us >= 0.0
        assert rec.parent_id is None
        assert rec.depth == 0

    def test_nesting_parent_ids_and_depth(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("middle"):
                with tr.span("inner"):
                    pass
            with tr.span("sibling"):
                pass
        by_name = {s.name: s for s in tr.spans}
        # children close before parents
        assert [s.name for s in tr.spans] == [
            "inner", "middle", "sibling", "outer",
        ]
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        assert by_name["sibling"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].depth == 2
        assert by_name["outer"].depth == 0

    def test_attributes_and_post_close_set_attribute(self):
        tr = Tracer()
        with tr.span("s", gates=5) as sp:
            sp.set_attribute("during", 1)
        sp.set_attribute("after", 2)  # same dict object as the record's
        rec = tr.spans[0]
        assert rec.attributes == {"gates": 5, "during": 1, "after": 2}

    def test_totals_aggregates_by_name(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("loop"):
                pass
        totals = tr.totals()
        assert totals["loop"][1] == 3
        assert totals["loop"][0] >= 0.0

    def test_disabled_tracer_is_noop(self):
        tr = Tracer(enabled=False)
        sp = tr.span("ignored", k=1)
        assert sp is NULL_SPAN
        with sp:
            sp.set_attribute("x", 1)
        assert tr.spans == []

    def test_max_spans_drops_not_grows(self):
        tr = Tracer(max_spans=2)
        for _ in range(5):
            with tr.span("s"):
                pass
        assert len(tr.spans) == 2
        assert tr.dropped_spans == 3

    def test_chrome_trace_schema(self, tmp_path):
        tr = Tracer()
        with tr.span("outer", qubits=4):
            with tr.span("inner"):
                pass
        payload = tr.to_chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == 2
        # sorted by start timestamp: outer opened first
        assert [e["name"] for e in events] == ["outer", "inner"]
        for e in events:
            assert e["ph"] == "X"
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert events[0]["args"] == {"qubits": 4}
        path = tmp_path / "trace.json"
        tr.write_chrome_trace(str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(payload))

    def test_simulated_clock_attributes(self):
        class FakeClock:
            now = 0.0

        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("sim"):
            clock.now += 2.5
        rec = tr.spans[0]
        assert rec.sim_start_s == 0.0
        assert rec.sim_duration_s == pytest.approx(2.5)

    def test_reset(self):
        tr = Tracer()
        with tr.span("s"):
            pass
        tr.reset()
        assert tr.spans == []
        with tr.span("t"):
            pass
        assert tr.spans[0].span_id == 0


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_inc_and_negative_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", help="h")
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert len(reg) == 1
        # distinct label sets are distinct series
        reg.counter("a_total", labels={"mode": "x"})
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(TypeError):
            reg.gauge("thing")

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == 4.0

    def test_histogram_bucket_boundaries_le_semantics(self):
        h = Histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        # exactly on a bound lands in that bucket (v <= bound)
        for v in (0.5, 1.0, 1.5, 2.0, 4.0, 9.0):
            h.observe(v)
        assert h.counts == [2, 2, 1, 1]  # (<=1, <=2, <=4, +Inf raw)
        assert h.cumulative_counts() == [2, 4, 5, 6]
        assert h.count == 6
        assert h.sum == pytest.approx(18.0)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, math.inf))

    def test_quantile_golden_values(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
            h.observe(v)
        # cumulative = [2, 4, 8]; median rank=4 -> upper edge of (1,2]
        assert h.quantile(0.5) == pytest.approx(2.0)
        # q=0.25 -> rank 2, first bucket [0,1], interpolate to its top
        assert h.quantile(0.25) == pytest.approx(1.0)
        # q=0.75 -> rank 6, bucket (2,4], 2 of 4 in-bucket -> 3.0
        assert h.quantile(0.75) == pytest.approx(3.0)
        assert math.isnan(Histogram("e", buckets=(1.0,)).quantile(0.5))

    def test_quantile_inf_bucket_clamps(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(1.0)

    def test_prometheus_exposition_golden(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", help="Total runs").inc(3)
        reg.gauge("repro_energy", labels={"mol": "h2"}).set(-1.5)
        h = reg.histogram("repro_step_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert reg.expose() == (
            "# TYPE repro_energy gauge\n"
            "repro_energy{mol=\"h2\"} -1.5\n"
            "# HELP repro_runs_total Total runs\n"
            "# TYPE repro_runs_total counter\n"
            "repro_runs_total 3\n"
            "# TYPE repro_step_seconds histogram\n"
            "repro_step_seconds_bucket{le=\"0.1\"} 1\n"
            "repro_step_seconds_bucket{le=\"1\"} 2\n"
            "repro_step_seconds_bucket{le=\"+Inf\"} 3\n"
            "repro_step_seconds_sum 5.55\n"
            "repro_step_seconds_count 3\n"
        )

    def test_gauge_has_type_line(self):
        reg = MetricsRegistry()
        reg.gauge("repro_energy").set(2.0)
        assert "# TYPE repro_energy gauge" in reg.expose()

    def test_label_variants_share_one_family_header(self):
        reg = MetricsRegistry()
        reg.counter("c_total", help="c", labels={"m": "a"}).inc()
        reg.counter("c_total", help="c", labels={"m": "b"}).inc(2)
        text = reg.expose()
        assert text.count("# TYPE c_total counter") == 1
        assert 'c_total{m="a"} 1' in text
        assert 'c_total{m="b"} 2' in text

    def test_jsonl_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(2)
        reg.histogram("b_seconds", buckets=(1.0,)).observe(0.5)
        path = tmp_path / "m.jsonl"
        reg.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in rows] == ["a_total", "b_seconds"]
        assert rows[0] == {
            "name": "a_total", "type": "counter", "labels": {}, "value": 2.0,
        }
        assert rows[1]["counts"] == [1, 0]
        assert rows[1]["count"] == 1

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        path = tmp_path / "m.prom"
        reg.write_prometheus(str(path))
        assert path.read_text() == reg.expose()


# -- global helpers -----------------------------------------------------------


class TestGlobalObs:
    def test_disabled_helpers_are_noops(self):
        assert not obs.enabled()
        assert obs.span("s") is NULL_SPAN
        obs.inc("repro_x_total")
        obs.observe("repro_x_seconds", 1.0)
        obs.gauge_set("repro_x", 2.0)
        assert len(obs.get_registry()) == 0
        assert obs.get_tracer().spans == []

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.enabled()
        with obs.span("s"):
            obs.inc("repro_y_total")
        assert len(obs.get_tracer().spans) == 1
        assert obs.get_registry().counter("repro_y_total").value == 1.0
        obs.disable()
        assert obs.span("s") is NULL_SPAN


# -- run reports --------------------------------------------------------------


class CommLike:
    """Duck-typed stats object (public scalar attrs)."""

    retries = 3
    p2p_bytes = 1024

    def method(self):  # callables must be ignored
        return None


class TestRunReport:
    def test_collect_embeds_ledger_sections(self):
        obs.enable()
        with obs.span("phase"):
            obs.inc("repro_z_total")
        report = obs.collect_report(
            meta={"kind": "test"},
            comm_stats=CommLike(),
            fault_ledger=None,
            convergence={"energy": [1.0, 0.5]},
            wall_time_s=0.1,
        )
        assert report.meta["kind"] == "test"
        assert report.comm["retries"] == 3
        assert report.faults == {}  # key always present, empty ok
        assert report.convergence == {"energy": [1.0, 0.5]}
        assert [s["name"] for s in report.spans] == ["phase"]
        assert report.metrics[0]["name"] == "repro_z_total"

    def test_fault_ledger_duck_typing(self):
        from repro.hpc.faults import FaultLedger

        ledger = FaultLedger()
        d = as_plain_dict(ledger)
        assert d["events"] == 0
        assert d["by_kind"] == {}

    def test_save_load_roundtrip(self, tmp_path):
        report = RunReport.collect(
            meta={"kind": "rt"},
            tracer=Tracer(),
            registry=MetricsRegistry(),
            convergence={"energy": [1.0]},
            wall_time_s=2.0,
        )
        path = tmp_path / "r.json"
        report.save(str(path))
        loaded = RunReport.load(str(path))
        assert loaded.meta == {"kind": "rt"}
        assert loaded.convergence == {"energy": [1.0]}
        assert loaded.wall_time_s == 2.0
        assert loaded.version == report.version

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_payload_with_cache_section_loads(self, version):
        loaded = RunReport.from_dict(
            {"version": version, "meta": {"kind": "old"}, "cache": {"hits": 5}}
        )
        assert loaded.meta == {"kind": "old"}
        assert "cache" not in loaded.to_dict()

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            RunReport.from_dict({"version": 99})

    def test_summary_mentions_sections(self):
        report = RunReport(meta={"command": "repro test"})
        text = report.summary()
        assert "repro test" in text
        assert "-- comm --" in text
        assert "-- cache --" not in text
        assert "-- faults --" in text


# -- driver integration -------------------------------------------------------


def _toy_problem():
    h = PauliSum.from_label_dict({"ZZ": 0.5, "XX": 0.3, "IZ": -0.2})
    gen = PauliSum.from_label_dict({"XY": 1.0j, "YX": -1.0j})
    ref = np.zeros(4, dtype=complex)
    ref[1] = 1.0
    return h, gen, ref


class TestDriverReports:
    def test_vqe_report_attached_when_enabled(self):
        from repro.core.vqe import VQE

        h, gen, ref = _toy_problem()
        obs.enable()
        result = VQE(h, generators=[gen], reference_state=ref).run()
        assert result.report is not None
        span_names = {s["name"] for s in result.report.spans}
        assert "vqe.run" in span_names
        assert "vqe.energy_eval" in span_names
        assert result.report.convergence["energy"] == list(result.history)
        # comm/cache/faults sections exist even for a single-node run
        assert result.report.comm == {}
        assert result.report.faults == {}

    def test_vqe_report_none_when_disabled(self):
        from repro.core.vqe import VQE

        h, gen, ref = _toy_problem()
        result = VQE(h, generators=[gen], reference_state=ref).run()
        assert result.report is None
        assert obs.get_tracer().spans == []
