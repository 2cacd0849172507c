"""Tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.obs.report import RunReport


class TestCLI:
    def test_vqe_h2(self, capsys):
        rc = main(["vqe", "h2", "--no-downfold"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-1.137270" in out  # FCI-quality VQE energy

    def test_vqe_with_active_space(self, capsys):
        rc = main(
            ["vqe", "lih", "--core", "0", "--active", "1,2,3,4,5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sigma_ext" in out  # downfolding engaged
        assert "qubits:          10" in out

    def test_counts(self, capsys):
        rc = main(["counts", "--min-qubits", "12", "--max-qubits", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1,819" in out  # the exact 12-qubit term census

    def test_qpe_h2(self, capsys):
        rc = main(["qpe", "h2", "--ancillas", "9"])
        assert rc == 0
        assert "success prob" in capsys.readouterr().out

    def test_faults_h2(self, capsys):
        rc = main(["faults", "h2", "--crash-iteration", "1", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "state identical to fault-free run" in out
        assert "restarts" in out
        assert "PASS" in out

    def test_unknown_molecule(self):
        with pytest.raises(SystemExit):
            main(["vqe", "benzene"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("given, missing", [("--core", "--active"), ("--active", "--core")])
    def test_adapt_downfolding_needs_core_and_active(self, given, missing, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["adapt", "h2", given, "0", "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{given} needs {missing}" in captured.err and captured.out == ""

    def test_tolerance_failure_exit_code(self, capsys):
        rc = main(["vqe", "h2", "--no-downfold", "--tol", "1e-12"])
        # the optimizer converges below 1e-6 but not to 1e-12
        assert rc in (0, 1)  # deterministic result; just exercise the path


class TestCLIJson:
    def test_vqe_json(self, capsys):
        rc = main(["vqe", "h2", "--no-downfold", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "vqe"
        assert payload["vqe_energy"] == pytest.approx(-1.137270, abs=1e-5)
        assert payload["passed"] is True

    def test_counts_json(self, capsys):
        rc = main(["counts", "--min-qubits", "12", "--max-qubits", "16", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["qubits"] for r in payload["rows"]] == [12, 14, 16]
        assert payload["rows"][0]["pauli_terms"] == 1819

    def test_adapt_json(self, capsys):
        rc = main(["adapt", "h2", "--max-iterations", "4", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["command"] == "adapt"
        assert payload["iterations"]  # grew at least one operator
        assert (rc == 0) == payload["passed"]

    def test_faults_json(self, capsys):
        rc = main(["faults", "h2", "--crash-iteration", "1", "--seed", "7", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distributed"]["state_identical"] is True
        assert payload["campaign"]["restarts"] >= 1
        assert payload["passed"] is True


class TestCLIObservability:
    @pytest.fixture(autouse=True)
    def _clean_global_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_vqe_profile_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        report = tmp_path / "r.json"
        rc = main(
            [
                "vqe", "h2", "--no-downfold",
                "--profile",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
                "--report-out", str(report),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "-1.137270" in out  # plain output unchanged
        assert "-- spans (slowest first) --" in out  # --profile summary
        # Chrome trace-event file
        payload = json.loads(trace.read_text())
        assert payload["displayTimeUnit"] == "ms"
        names = {e["name"] for e in payload["traceEvents"]}
        assert "vqe.run" in names
        assert "workflow.scf" in names
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        # Prometheus metrics dump
        text = metrics.read_text()
        assert "# TYPE repro_vqe_energy_evaluations_total counter" in text
        # run report embeds comm/fault sections and convergence
        loaded = RunReport.load(str(report))
        assert loaded.meta["command"] == "repro vqe"
        assert loaded.convergence["energy"]
        assert "comm" in loaded.to_dict()
        assert "faults" in loaded.to_dict()
        # profiling is torn down after the command
        assert not obs.enabled()

    def test_metrics_out_jsonl(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        rc = main(["vqe", "h2", "--no-downfold", "--metrics-out", str(metrics)])
        assert rc == 0
        rows = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert any(r["name"] == "repro_vqe_energy_evaluations_total" for r in rows)

    def test_faults_profile_report_embeds_ledgers(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        rc = main(
            [
                "faults", "h2", "--crash-iteration", "1", "--seed", "7",
                "--report-out", str(report),
            ]
        )
        assert rc == 0
        loaded = RunReport.load(str(report))
        assert loaded.comm  # cross-check communicator stats
        assert loaded.faults["events"] >= 1
        assert loaded.faults["by_kind"].get("rank_crash") == 1

    def test_report_command(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        main(["vqe", "h2", "--no-downfold", "--report-out", str(report)])
        capsys.readouterr()
        rc = main(["report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro vqe" in out
        assert "-- spans (slowest first) --" in out
        rc = main(["report", str(report), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["meta"]["command"] == "repro vqe"

    def test_json_mode_keeps_stdout_machine_readable(self, tmp_path, capsys):
        rc = main(
            ["vqe", "h2", "--no-downfold", "--json", "--profile"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is pure JSON
        assert "-- spans (slowest first) --" in captured.err


class TestCLIAnalyze:
    """The observatory CLI over a 4-rank distributed ADAPT campaign."""

    @pytest.fixture(autouse=True)
    def _clean_global_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    @pytest.fixture()
    def adapt_artifacts(self, tmp_path, capsys):
        """Trace + report from `repro faults` (distributed run + 4-rank
        checkpointed ADAPT campaign)."""
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        rc = main(
            [
                "faults", "h2", "--ranks", "4", "--seed", "7",
                "--max-iterations", "2",
                "--trace-out", str(trace),
                "--report-out", str(report),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        return trace, report

    def test_analyze_trace_shows_observatory_sections(
        self, adapt_artifacts, capsys
    ):
        trace, _ = adapt_artifacts
        rc = main(["analyze", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "performance analysis (chrome trace" in out
        assert "-- per-rank timeline (wall seconds) --" in out
        assert "-- critical path (root -> leaf) --" in out
        for rank in range(4):
            assert f"  {rank} " in out or f" {rank} " in out

    def test_analyze_report_matches_commstats(self, adapt_artifacts, capsys):
        """Acceptance: the comm matrix must agree with the CommStats
        totals embedded in the same report, and the critical path must
        fit inside its root span."""
        _, report = adapt_artifacts
        rc = main(["analyze", str(report), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        saved = RunReport.load(str(report))
        matrix = payload["comm_matrix"]
        total_msgs = sum(sum(row) for row in matrix["messages"])
        total_bytes = sum(sum(row) for row in matrix["bytes"])
        assert total_msgs == saved.comm["point_to_point_messages"]
        assert total_bytes == saved.comm["point_to_point_bytes"]
        assert total_msgs > 0
        entries = payload["critical_path"]["entries"]
        assert entries
        root_duration = entries[0]["duration_us"]
        for entry in entries:
            assert entry["duration_us"] <= root_duration + 1e-6
            assert 0.0 <= entry["self_us"] <= entry["duration_us"] + 1e-6

    def test_analyze_report_without_perf_fails_cleanly(
        self, tmp_path, capsys
    ):
        report = tmp_path / "r.json"
        main(["counts", "--min-qubits", "12", "--max-qubits", "12",
              "--report-out", str(report)])
        capsys.readouterr()
        rc = main(["analyze", str(report)])
        assert rc == 1
        assert "no performance data" in capsys.readouterr().err

    def test_report_command_renders_rank_sections(
        self, adapt_artifacts, capsys
    ):
        _, report = adapt_artifacts
        rc = main(["report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- per-rank timeline (wall seconds) --" in out
        assert "-- communication matrix" in out
