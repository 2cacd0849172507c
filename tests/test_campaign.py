"""Tests for the checkpointed campaign layer: stepwise ADAPT, the
CampaignRunner's crash/rollback/resume semantics, the acceptance
scenario (deterministic recovery to the fault-free energy), and the
checkpoint-period performance model."""

import json
import math
import os

import numpy as np
import pytest

from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2, h4_chain
from repro.chem.pools import uccsd_pool
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.core.adapt import AdaptVQE
from repro.core.campaign import (
    AdaptCampaign,
    CampaignFailedError,
    CampaignResult,
    CampaignRunner,
    CheckpointLog,
)
from repro.core.vqe import VQE
from repro.hpc.faults import FaultInjector, FaultSpec, RankFailure
from repro.serve.broker import EvaluationBroker
from repro.hpc.perfmodel import (
    campaign_runtime_with_failures,
    checkpoint_write_time,
    optimal_checkpoint_period,
)
from repro.utils.retry import RetryPolicy


@pytest.fixture(scope="module")
def h2_problem():
    scf = run_rhf(h2())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
    return hq, e_fci


@pytest.fixture(scope="module")
def h4_problem():
    scf = run_rhf(h4_chain())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    e_fci = exact_ground_energy(hq, num_particles=4, sz=0)
    return hq, e_fci


def _fold(path, kinds=("adapt",)):
    """A standalone runner's checkpoint state in ``path``, as loaded."""
    log = CheckpointLog(str(path / "checkpoints.jsonl"))
    try:
        return log.load(None, kinds)
    finally:
        log.close()


def _write_line(path, state, kind="adapt"):
    line = {"key": None, "kind": kind, "state": state}
    (path / "checkpoints.jsonl").write_text(json.dumps(line) + "\n")


def _make_adapt(hq, e_ref, n, n_elec, max_iterations=8):
    return AdaptVQE(
        hq,
        uccsd_pool(n, n_elec),
        hartree_fock_state(n, n_elec),
        max_iterations=max_iterations,
        reference_energy=e_ref,
        energy_tolerance=1e-6,
    )


class TestStepwiseAdapt:
    def test_run_equals_manual_stepping(self, h2_problem):
        hq, e_ref = h2_problem
        result = _make_adapt(hq, e_ref, 4, 2).run()
        adapt = _make_adapt(hq, e_ref, 4, 2)
        st = adapt.initial_state()
        while not st.converged and st.iteration < adapt.max_iterations:
            adapt.step(st)
        stepped = adapt.result(st)
        assert stepped.energy == result.energy
        assert stepped.operator_labels == result.operator_labels
        assert len(stepped.iterations) == len(result.iterations)

    def test_statevector_recomputable_from_parameters(self, h2_problem):
        hq, e_ref = h2_problem
        adapt = _make_adapt(hq, e_ref, 4, 2)
        st = adapt.step(adapt.initial_state())
        recomputed = adapt.prepare_statevector(st)
        assert np.allclose(recomputed, st.statevector, atol=1e-12)

    def test_step_on_converged_state_is_noop(self, h2_problem):
        hq, e_ref = h2_problem
        adapt = _make_adapt(hq, e_ref, 4, 2)
        st = adapt.initial_state()
        while not st.converged and st.iteration < adapt.max_iterations:
            adapt.step(st)
        before = (st.iteration, list(st.chosen_indices))
        adapt.step(st)
        assert (st.iteration, list(st.chosen_indices)) == before


class TestAdaptCampaign:
    def test_pumped_campaign_equals_run_adapt(self, h4_problem, tmp_path):
        """The ask/tell ADAPT campaign, pumped by the broker, grows one
        iteration per pump and reaches run_adapt's answer and final
        checkpoint bit for bit."""
        hq, e_ref = h4_problem
        ref = CampaignRunner(str(tmp_path / "ref")).run_adapt(
            _make_adapt(hq, e_ref, 8, 4, max_iterations=3)
        )
        campaign = AdaptCampaign(
            CampaignRunner(str(tmp_path / "ask")),
            _make_adapt(hq, e_ref, 8, 4, max_iterations=3),
        )
        broker = EvaluationBroker()
        grown = []
        while campaign.result is None:
            assert broker.pump([("adapt", campaign)])[0] == [None]
            grown.append(campaign.state.iteration)
        assert grown == [1, 2, 3]
        got, want = campaign.result.result, ref.result
        assert got.energy == want.energy
        assert np.array_equal(got.parameters, want.parameters)
        assert got.operator_labels == want.operator_labels
        assert [r.energy for r in got.iterations] == [r.energy for r in want.iterations]
        saved = [_fold(tmp_path / name) for name in ("ref", "ask")]
        assert saved[0] == saved[1]

    def test_gradient_convergence_ends_on_the_next_ask(self, h2_problem, tmp_path):
        """A run whose screen finds every gradient below tolerance ends
        in ask(): no row, a result, and the final save."""
        hq, e_ref = h2_problem
        adapt = _make_adapt(hq, e_ref, 4, 2)
        adapt.energy_tolerance = None
        campaign = AdaptCampaign(CampaignRunner(str(tmp_path)), adapt)
        broker = EvaluationBroker()
        while campaign.result is None:
            broker.pump([("adapt", campaign)])
        result = campaign.result.result
        assert result.converged
        assert result.energy == adapt.run().energy
        assert campaign.ask() is None
        assert _fold(tmp_path)["converged"]


class TestCampaignResume:
    def test_walltime_kill_resume(self, h2_problem, tmp_path):
        """Stop a campaign midway (walltime kill), then re-run over the
        same checkpoint directory: it must resume, not start over, and
        finish at the uninterrupted energy."""
        hq, e_ref = h2_problem
        baseline = _make_adapt(hq, e_ref, 4, 2).run()

        adapt = _make_adapt(hq, e_ref, 4, 2)
        runner = CampaignRunner(str(tmp_path), checkpoint_period=1)
        st = adapt.initial_state()
        adapt.step(st)
        runner._save_adapt_state(st)  # the state the kill left behind

        resumed = CampaignRunner(str(tmp_path), checkpoint_period=1).run_adapt(
            _make_adapt(hq, e_ref, 4, 2)
        )
        assert resumed.resumed_from == 1
        assert resumed.energy == pytest.approx(baseline.energy, abs=1e-12)

    def test_rerun_of_finished_campaign_is_idempotent(self, h2_problem, tmp_path):
        hq, e_ref = h2_problem
        first = CampaignRunner(str(tmp_path)).run_adapt(
            _make_adapt(hq, e_ref, 4, 2)
        )
        second = CampaignRunner(str(tmp_path)).run_adapt(
            _make_adapt(hq, e_ref, 4, 2)
        )
        assert second.energy == first.energy
        assert second.restarts == 0

    def test_corrupt_campaign_checkpoint_rejected(self, h2_problem, tmp_path):
        hq, e_ref = h2_problem
        (tmp_path / "checkpoints.jsonl").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt campaign checkpoint"):
            CampaignRunner(str(tmp_path)).run_adapt(_make_adapt(hq, e_ref, 4, 2))

    def test_checkpoint_from_wrong_pool_rejected(self, h2_problem, tmp_path):
        hq, e_ref = h2_problem
        payload = {
            "version": 1,
            "iteration": 1,
            "chosen_indices": [999],
            "parameters": [0.1],
            "energy": -1.0,
            "converged": False,
            "records": [],
        }
        _write_line(tmp_path, payload)
        with pytest.raises(ValueError, match="outside the pool"):
            CampaignRunner(str(tmp_path)).run_adapt(_make_adapt(hq, e_ref, 4, 2))


class TestCrashRecovery:
    def test_acceptance_scenario_deterministic_recovery(self, h4_problem, tmp_path):
        """The ISSUE acceptance criterion: a seeded rank crash
        mid-ADAPT plus transient exchange faults; the campaign resumes
        from the last checkpoint, converges to the fault-free energy
        within 1e-8 Ha, and the fault ledger + retry counters report
        every injected event."""
        hq, e_ref = h4_problem
        n = hq.num_qubits
        baseline = _make_adapt(hq, e_ref, n, 4, max_iterations=4).run()

        def run_once(subdir):
            injector = FaultInjector(
                [
                    FaultSpec("rank_crash", scope="campaign", at_step=3),
                    FaultSpec("transient_exchange", probability=0.3),
                ],
                seed=17,
            )
            runner = CampaignRunner(
                str(tmp_path / subdir),
                checkpoint_period=2,
                fault_injector=injector,
                retry_policy=RetryPolicy(max_attempts=10, seed=5),
                distributed_ranks=2,
            )
            result = runner.run_adapt(_make_adapt(hq, e_ref, n, 4, max_iterations=4))
            return result, runner

        result, runner = run_once("a")
        # crash fired at iteration 3, checkpoint was at 2: one restart,
        # iterations recomputed < checkpoint period
        assert result.restarts == 1
        assert result.iterations_recomputed == 0  # crash hit before step 3 ran
        assert result.fault_ledger.count("rank_crash") == 1
        # transient faults were injected into the distributed
        # cross-check and every one was retried
        transients = result.fault_ledger.count("transient_exchange")
        assert transients > 0
        assert runner.comm_stats.retries == transients
        assert runner.comm_stats.transient_errors == transients
        # converged to the fault-free energy
        assert abs(result.energy - baseline.energy) < 1e-8
        assert result.simulated_backoff_s > 0.0

        # the whole faulty campaign replays identically
        replay, _ = run_once("b")
        assert replay.energy == result.energy
        assert replay.restarts == result.restarts
        assert [
            (e.kind, e.scope, e.step) for e in replay.fault_ledger.events
        ] == [(e.kind, e.scope, e.step) for e in result.fault_ledger.events]

    def test_lost_work_scales_with_checkpoint_period(self, h4_problem, tmp_path):
        """With the checkpoint at iteration 1 and a crash while running
        iteration 3, one completed iteration must be recomputed."""
        hq, e_ref = h4_problem
        n = hq.num_qubits
        injector = FaultInjector(
            [FaultSpec("rank_crash", scope="campaign", at_step=3)], seed=0
        )
        runner = CampaignRunner(
            str(tmp_path),
            checkpoint_period=4,  # only the post-convergence save lands
            fault_injector=injector,
        )
        result = runner.run_adapt(_make_adapt(hq, e_ref, n, 4, max_iterations=4))
        assert result.restarts == 1
        assert result.iterations_recomputed == 2  # iterations 1-2 redone
        assert result.fault_ledger.count("rank_crash") == 1

    def test_gives_up_after_max_restarts(self, h2_problem, tmp_path):
        hq, e_ref = h2_problem
        injector = FaultInjector(
            [
                FaultSpec(
                    "rank_crash", scope="campaign", at_step=1, max_triggers=10
                )
            ],
            seed=0,
        )
        runner = CampaignRunner(
            str(tmp_path), fault_injector=injector, max_restarts=2
        )
        with pytest.raises(CampaignFailedError):
            runner.run_adapt(_make_adapt(hq, e_ref, 4, 2))


class TestVQECampaign:
    def test_vqe_campaign_recovers_from_crash(self, h2_problem, tmp_path):
        hq, _ = h2_problem
        n_qubits = hq.num_qubits
        pool = uccsd_pool(n_qubits, 2)
        gens = [op.generator for op in pool]
        ref = hartree_fock_state(n_qubits, 2)

        baseline = VQE(hq, generators=gens, reference_state=ref).run()

        injector = FaultInjector(
            [FaultSpec("rank_crash", scope="campaign", at_step=6)], seed=0
        )
        vqe = VQE(hq, generators=gens, reference_state=ref)
        runner = CampaignRunner(
            str(tmp_path), checkpoint_period=2, fault_injector=injector
        )
        result = runner.run_vqe(vqe)
        assert result.restarts == 1
        assert result.fault_ledger.count("rank_crash") == 1
        assert result.energy == pytest.approx(baseline.energy, abs=1e-8)
        # callback restored after the campaign
        assert vqe.evaluation_callback is None

    def test_vqe_checkpoint_file_roundtrip(self, h2_problem, tmp_path):
        hq, _ = h2_problem
        pool = uccsd_pool(4, 2)
        gens = [op.generator for op in pool]
        ref = hartree_fock_state(4, 2)
        runner = CampaignRunner(str(tmp_path), checkpoint_period=1)
        result = runner.run_vqe(VQE(hq, generators=gens, reference_state=ref))
        saved = runner._load_vqe_params()
        assert saved is not None
        assert np.allclose(
            saved["parameters"], result.result.optimal_parameters, atol=0.0
        )
        assert runner.checkpoints_written > 0


class _Killed(Exception):
    """Stands in for the process dying inside an evaluation."""


def _h2_vqe(hq, callback=None):
    pool = uccsd_pool(4, 2)
    vqe = VQE(
        hq,
        generators=[op.generator for op in pool],
        reference_state=hartree_fock_state(4, 2),
    )
    vqe.evaluation_callback = callback
    return vqe


class TestVQECheckpointLog:
    """A VQE campaign's checkpoints are lines of the runner's
    ``checkpoints.jsonl``: one ``vqe`` line per checkpoint, the last
    parseable line is the resume point, and the final save appends one
    ``vqe_final`` line."""

    KILL_AT = 4

    def _interrupted(self, hq, path):
        def die(idx, params, energy):
            if idx == self.KILL_AT:
                raise _Killed(idx)

        runner = CampaignRunner(str(path), checkpoint_period=1)
        with pytest.raises(_Killed):
            runner.run_vqe(_h2_vqe(hq, die))
        assert runner.checkpoints_written == self.KILL_AT
        return path / "checkpoints.jsonl"

    def test_resume_after_kill_at_evaluation_k(self, h2_problem, tmp_path):
        hq, _ = h2_problem
        baseline = _h2_vqe(hq).run()
        log = self._interrupted(hq, tmp_path)
        lines = log.read_text().splitlines()
        assert [json.loads(line)["state"]["eval"] for line in lines] == list(
            range(1, self.KILL_AT + 1)
        )
        resumed = CampaignRunner(str(tmp_path)).run_vqe(_h2_vqe(hq))
        assert resumed.resumed_from == self.KILL_AT
        assert resumed.energy == pytest.approx(baseline.energy, abs=1e-8)

    def test_torn_tail_resumes_from_the_line_before(self, h2_problem, tmp_path):
        hq, _ = h2_problem
        log = self._interrupted(hq, tmp_path)
        data = log.read_bytes()
        log.write_bytes(data[: len(data) - 12])  # killed mid-append of line k
        resumed = CampaignRunner(str(tmp_path)).run_vqe(_h2_vqe(hq))
        assert resumed.resumed_from == self.KILL_AT - 1

    def test_file_with_no_valid_line_is_corrupt(self, h2_problem, tmp_path):
        hq, _ = h2_problem
        (tmp_path / "checkpoints.jsonl").write_text('{"key": null, "ki\nnot json\n')
        with pytest.raises(ValueError, match="corrupt campaign checkpoint"):
            CampaignRunner(str(tmp_path)).run_vqe(_h2_vqe(hq))

    def test_finished_log_is_one_json_line(self, h2_problem, tmp_path):
        hq, _ = h2_problem
        self._interrupted(hq, tmp_path)
        runner = CampaignRunner(str(tmp_path))
        result = runner.run_vqe(_h2_vqe(hq))
        last = (tmp_path / "checkpoints.jsonl").read_text().splitlines()[-1]
        line = json.loads(last)  # the final save is one JSON line
        assert (line["key"], line["kind"]) == (None, "vqe_final")
        final = line["state"]
        assert _fold(tmp_path, ("vqe", "vqe_final")) == final
        assert final["eval"] == result.result.num_function_evaluations
        assert final["parameters"] == [
            float(x) for x in result.result.optimal_parameters
        ]


class TestRecoveryPerfModel:
    def test_checkpoint_write_time_scales_with_slice(self):
        t_small = checkpoint_write_time(20, 4)
        t_big = checkpoint_write_time(24, 4)
        assert t_big > t_small
        # doubling ranks halves the per-rank slice
        assert checkpoint_write_time(24, 8) < checkpoint_write_time(24, 4)

    def test_young_optimum(self):
        assert optimal_checkpoint_period(10.0, 2000.0) == pytest.approx(
            math.sqrt(2 * 10.0 * 2000.0)
        )
        with pytest.raises(ValueError):
            optimal_checkpoint_period(1.0, 0.0)

    def test_daly_runtime_minimized_near_young_period(self):
        work, cost, mtbf = 3600.0, 5.0, 1800.0
        tau_star = optimal_checkpoint_period(cost, mtbf)
        t_star = campaign_runtime_with_failures(work, tau_star, cost, mtbf)
        for tau in (tau_star / 8, tau_star * 8):
            assert campaign_runtime_with_failures(work, tau, cost, mtbf) > t_star

    def test_hopeless_failure_rate_is_infinite(self):
        assert campaign_runtime_with_failures(100.0, 50.0, 10.0, 20.0) == math.inf

    def test_no_failures_limit(self):
        # MTBF -> huge: runtime approaches work + checkpoint overhead
        t = campaign_runtime_with_failures(100.0, 10.0, 1.0, 1e12)
        assert t == pytest.approx(110.0, rel=1e-6)
