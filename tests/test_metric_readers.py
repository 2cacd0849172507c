"""Every metric series the stack emits has a reader.

A series that no dashboard, SLO, CLI command, perf analysis or test
reads repeats a fact its object already holds, and costs enabled-mode
work on a hot path.  This test drives the emitting paths with
observability on and checks that every name in the registry is in
``READERS``, which names the consumer of each series.  A new series
needs a reader here before it lands.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs

_PERF = "repro.obs.perf (per-rank timelines; repro analyze, repro report)"
_PLAN_STATS = "repro vqe/adapt --plan-stats (cli._plan_stats_lines)"

READERS = {
    "repro_rank_compute_seconds_total": _PERF,
    "repro_rank_comm_seconds_total": _PERF,
    "repro_sched_rank_busy_sim_seconds_total": _PERF,
    "repro_rank_memory_peak_bytes": _PERF,
    "repro_vqe_energy_evaluations_total": "repro.obs.slo throughput SLI (repro top)",
    "repro_plan_compile_total": _PLAN_STATS,
    "repro_plan_ops_total": _PLAN_STATS,
    "repro_plan_frame_gates_absorbed_total": _PLAN_STATS,
    "repro_plan_rotation_steps_total": _PLAN_STATS,
    "repro_plan_rotations_merged_total": _PLAN_STATS,
    "repro_plan_fused_gates_removed_total": _PLAN_STATS,
    "repro_plan_diag_gates_folded_total": _PLAN_STATS,
    "repro_plan_cache_total": _PLAN_STATS,
    "repro_comm_faults_total": "tests/test_serve.py::TestCommFaultKindMetrics",
    "repro_comm_retries_by_kind_total": "tests/test_serve.py::TestCommFaultKindMetrics",
    "repro_serve_batch_occupancy": "tests/test_broker.py occupancy metrics",
    "repro_serve_batched_evals_total": "tests/test_broker.py occupancy metrics",
    "repro_serve_solo_evals_total": "tests/test_broker.py occupancy metrics",
    "repro_serve_tenant_jobs": "tests/test_live_ops.py tenant gauges",
}


@pytest.fixture(autouse=True)
def _obs_on():
    obs.reset()
    obs.configure(enabled=True)
    yield
    obs.disable()
    obs.reset()


def _h2_problem(kind: str = "vqe"):
    from repro.serve.spec import JobSpec
    from repro.serve.store import ProblemCache

    return ProblemCache().get(JobSpec(tenant="t", molecule="h2", kind=kind))


def _circuit_vqe():
    from repro.core.vqe import VQE
    from repro.opt.lbfgs import LBFGSB

    problem = _h2_problem()
    VQE(problem["hamiltonian"], ansatz=problem["ansatz"], optimizer=LBFGSB(max_iterations=3)).run()


def _adapt_step():
    # the ladder's quick adapt_h2o size: H2O downfolded to 8 qubits
    from repro.chem.downfolding import hermitian_downfold
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.molecule import h2o
    from repro.chem.pools import uccsd_pool
    from repro.chem.reference import hartree_fock_state
    from repro.chem.scf import run_rhf
    from repro.core.adapt import AdaptVQE

    scf = run_rhf(h2o())
    downfolded = hermitian_downfold(
        build_molecular_hamiltonian(scf), scf.mo_energies,
        core_orbitals=[0, 1], active_orbitals=[2, 3, 4, 5],
    )
    heff = downfolded.effective_hamiltonian.chop(1e-8)
    n_q, n_e = heff.num_qubits, downfolded.num_electrons
    adapt = AdaptVQE(heff, uccsd_pool(n_q, n_e), hartree_fock_state(n_q, n_e))
    adapt.step(adapt.initial_state())


def _served_job(state_dir: str):
    from repro.serve import CampaignServer, JobSpec, JobState, ServerConfig

    server = CampaignServer(state_dir, ServerConfig(num_ranks=2))
    job_id = server.submit(JobSpec(tenant="acme", molecule="h2", max_iterations=3)).job_id
    for _ in range(50):
        server.tick()
        if server.jobs[job_id].state == JobState.SUCCEEDED:
            break
    server.close()
    assert server.jobs[job_id].state == JobState.SUCCEEDED


def _faulty_distributed_run():
    from repro.hpc.distributed import DistributedStatevector
    from repro.hpc.faults import FaultInjector, FaultSpec
    from repro.sim.plan import compile_circuit
    from repro.utils.retry import RetryPolicy

    problem = _h2_problem()
    plan = compile_circuit(problem["ansatz"], fold_full_diag=False)
    dsv = DistributedStatevector(
        plan.num_qubits,
        2,
        fault_injector=FaultInjector([FaultSpec("transient_exchange", at_step=0)], seed=0),
        retry_policy=RetryPolicy(max_attempts=4, seed=1),
    )
    dsv.run_plan(plan, np.full(plan.num_parameters, 0.1))
    dsv.expectation(problem["hamiltonian"])
    assert dsv.comm.stats.retries >= 1


def test_every_emitted_series_has_a_reader(tmp_path):
    _circuit_vqe()
    _adapt_step()
    _served_job(str(tmp_path / "srv"))
    _faulty_distributed_run()
    emitted = {row["name"] for row in obs.get_registry().snapshot()}
    assert "repro_comm_faults_total" in emitted  # the fault path ran
    unread = sorted(emitted - set(READERS))
    assert not unread, f"metric series with no reader: {unread}"
