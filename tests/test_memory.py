"""The memory observatory: allocation ledger, capacity model, and
memory-aware admission.

Four layers under test:

* ledger invariants (Hypothesis): allocated - freed == live, peak >=
  live, per-category totals sum to the fleet total — over arbitrary
  interleavings of alloc/free/resize;
* honesty (tracemalloc): the ledger's statevector bytes line up with
  what NumPy actually allocated;
* the capacity model: ``estimate_job_memory`` within ±10% of the
  measured ledger peak for 8–14 qubit serve-path jobs;
* the service: oversized jobs rejected at admission with a reason
  starting ``memory``, visible through ``repro top``'s snapshot, and
  (time, bytes)-aware LPT respecting rank byte budgets.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.obs.memory import (
    MemoryLedger,
    estimate_statevector_job_bytes,
    observable_bytes,
)
from repro.obs.report import RunReport, format_bytes


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


# -- ledger invariants (Hypothesis) -------------------------------------------

# an op is (kind, category_idx, nbytes); "free" frees the oldest live
# handle, "resize" resizes it
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "free", "resize"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=1 << 20),
    ),
    max_size=60,
)


def _replay(ops):
    ledger = MemoryLedger()
    live_handles = []
    for kind, cat_idx, nbytes in ops:
        category = f"cat{cat_idx}"
        if kind == "alloc":
            live_handles.append(
                ledger.alloc(category, nbytes, rank=cat_idx % 2)
            )
        elif kind == "free" and live_handles:
            ledger.free(live_handles.pop(0))
        elif kind == "resize" and live_handles:
            ledger.resize(live_handles[0], nbytes)
    return ledger


@given(_OPS)
def test_ledger_allocated_minus_freed_is_live(ops):
    ledger = _replay(ops)
    assert (
        ledger.allocated_bytes_total - ledger.freed_bytes_total
        == ledger.live_bytes
    )


@given(_OPS)
def test_ledger_peak_bounds_live(ops):
    ledger = _replay(ops)
    assert ledger.peak_bytes >= ledger.live_bytes
    for category, peak in ledger.peak_by_category.items():
        assert peak >= ledger.live_by_category.get(category, 0)


@given(_OPS)
def test_ledger_category_totals_sum_to_fleet_total(ops):
    ledger = _replay(ops)
    assert sum(ledger.live_by_category.values()) == ledger.live_bytes
    assert sum(ledger.live_by_rank.values()) == ledger.live_bytes


@given(_OPS)
def test_ledger_reset_rebases_and_keeps_invariants(ops):
    ledger = _replay(ops)
    survivors = ledger.live_bytes
    ledger.reset()
    assert ledger.live_bytes == survivors
    assert ledger.peak_bytes == survivors
    assert ledger.allocated_bytes_total == survivors
    assert ledger.freed_bytes_total == 0
    assert sum(ledger.live_by_category.values()) == survivors


def test_ledger_free_is_idempotent_and_handle_zero_is_noop():
    ledger = MemoryLedger()
    assert ledger.free(0) == 0
    handle = ledger.alloc("x", 100)
    assert ledger.free(handle) == 100
    assert ledger.free(handle) == 0  # double free tolerated
    assert ledger.free(9999) == 0  # unknown handle tolerated
    assert ledger.live_bytes == 0


# -- honesty: ledger vs tracemalloc -------------------------------------------


def test_ledger_statevector_bytes_match_tracemalloc():
    """The ledger's statevector accounting is within a few percent of
    what NumPy actually allocated (tracemalloc is ground truth)."""
    from repro.sim.statevector import StatevectorSimulator

    obs.configure(enabled=True)
    gc.collect()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    ledger_before = obs.get_memory_ledger().live_by_category.get(
        "statevector", 0
    )
    sims = [StatevectorSimulator(n) for n in (8, 10, 12)]
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ledger_bytes = (
        obs.get_memory_ledger().live_by_category.get("statevector", 0)
        - ledger_before
    )
    expected = sum(16 * (1 << n) for n in (8, 10, 12))
    assert ledger_bytes == expected
    actual = current - base
    # tracemalloc sees the amplitude buffers plus python-object noise
    assert actual >= expected
    assert actual <= expected * 1.10 + 64 * 1024
    del sims


def test_mem_track_frees_on_garbage_collection():
    obs.configure(enabled=True)
    ledger = obs.get_memory_ledger()

    class _Owner:
        pass

    owner = _Owner()
    obs.mem_track(owner, "gc_test", 4096)
    assert ledger.live_by_category.get("gc_test", 0) == 4096
    del owner
    gc.collect()
    assert ledger.live_by_category.get("gc_test", 0) == 0


def test_disabled_ledger_is_noop():
    obs.disable()
    handle = obs.mem_alloc("anything", 1 << 20)
    assert handle == 0
    assert obs.get_memory_ledger().live_bytes == 0


# -- capacity model vs measured reality ---------------------------------------


def _measured_job_peak(molecule: str, campaigns: int = 1) -> int:
    """Run the serve-path workload of a VQE job and return the ledger
    peak it produced: the problem build, a chemistry-mode VQE on the
    problem's shared sector plan, and one broker wave of ``campaigns``
    same-physics rows through the block reverse-mode sweep (the
    optimizer loop reuses these buffers)."""
    from repro.core.vqe import VQE
    from repro.serve.broker import EvaluationBroker
    from repro.serve.spec import JobSpec
    from repro.serve.store import ProblemCache
    from tests.row_campaign import RowCampaign

    gc.collect()  # flush prior tests' buffers before rebasing
    obs.configure(enabled=True)
    obs.get_memory_ledger().reset()
    spec = JobSpec(tenant="t", molecule=molecule)
    problem = ProblemCache().get(spec)
    vqe = VQE(
        problem["hamiltonian"],
        generators=problem["generators"],
        reference_state=problem["reference"],
        plan=problem["plan"],
    )
    plan = vqe.objective.plan
    assert plan is problem["plan"]
    broker = EvaluationBroker()
    rows = 0.02 * np.random.default_rng(0).standard_normal((campaigns, plan.num_parameters))
    group = [RowCampaign(plan, vqe.hamiltonian, row) for row in rows]
    assert broker.pump([("phys", c) for c in group])[0] == [None] * campaigns
    assert all(c.gradients[0].shape == (plan.num_parameters,) for c in group)
    assert broker.stats()["max_occupancy"] == campaigns
    return obs.get_memory_ledger().peak_bytes


@pytest.mark.parametrize("molecule", ["h4", "lih"])
def test_estimate_job_memory_within_ten_percent(molecule):
    from repro.serve.spec import JobSpec, estimate_job_memory

    measured = _measured_job_peak(molecule)
    predicted = estimate_job_memory(JobSpec(tenant="t", molecule=molecule))
    assert measured > 0
    ratio = predicted / measured
    assert 0.9 <= ratio <= 1.1, (
        f"{molecule}: predicted {predicted} vs measured {measured} "
        f"({ratio:.3f}x) — capacity model out of calibration"
    )


def test_estimate_group_memory_within_ten_percent():
    """An 8-campaign H4 group: the block sweep's (16, D) block and
    8-row H psi on the 36-amplitude sector are what the group model
    adds to one job."""
    from repro.serve.spec import JobSpec, estimate_group_memory

    measured = _measured_job_peak("h4", campaigns=8)
    predicted = estimate_group_memory([JobSpec(tenant="t", molecule="h4")] * 8)
    ratio = predicted / measured
    assert 0.9 <= ratio <= 1.1, (
        f"h4 x8: predicted {predicted} vs measured {measured} ({ratio:.3f}x)"
    )


def test_estimate_sector_adapt_job_within_ten_percent():
    """A 12-qubit LiH ADAPT job on the serve path screens the 34 pool
    operators that keep H's Z2 parities and re-optimizes on the
    69-amplitude parity set of the (N = 4, S_z = 0) sector: the model
    priced at that set and pool meets the ledger peak."""
    from repro.core.adapt import AdaptVQE
    from repro.serve.spec import JobSpec, estimate_job_memory, sector_dim_for_molecule
    from repro.serve.store import ProblemCache

    spec = JobSpec(tenant="t", molecule="lih", kind="adapt")
    assert sector_dim_for_molecule("lih") == 225
    gc.collect()
    obs.configure(enabled=True)
    obs.get_memory_ledger().reset()
    problem = ProblemCache().get(spec)
    adapt = AdaptVQE(problem["hamiltonian"], problem["pool"], problem["reference"])
    assert adapt.index.size == 69 and len(adapt._screened) == 34
    adapt.step(adapt.initial_state())
    measured = obs.get_memory_ledger().peak_bytes
    ratio = estimate_job_memory(spec) / measured
    assert 0.9 <= ratio <= 1.1, f"lih adapt: {ratio:.3f}x of the measured {measured}"


def test_estimate_scales_exponentially():
    small = estimate_statevector_job_bytes(8)["total"]
    big = estimate_statevector_job_bytes(20)["total"]
    assert big > small * 1000
    assert observable_bytes(4, 2) == 2 * 16 * 16 + 1 * 8 * 16


def test_qubits_for_molecule_prices_hydrogen_chains():
    from repro.serve.spec import qubits_for_molecule

    assert qubits_for_molecule("h2") == 4
    assert qubits_for_molecule("h2o") == 14  # table beats the h<N> rule
    assert qubits_for_molecule("h17") == 34
    assert qubits_for_molecule("unobtainium") == 8


# -- memory-aware admission / the service -------------------------------------


def test_oversized_job_rejected_at_admission(tmp_path):
    from repro.serve.server import CampaignServer, ServerConfig
    from repro.serve.spec import JobSpec

    server = CampaignServer(str(tmp_path), ServerConfig(num_ranks=2))
    try:
        job = server.submit(JobSpec(tenant="acme", molecule="h17"))
        assert job.state == "rejected"
        assert job.detail.startswith("memory")
        ok = server.submit(JobSpec(tenant="acme", molecule="h2"))
        assert ok.state == "queued"
        assert ok.est_bytes > 0
        server.tick()
    finally:
        server.close()


def test_rejection_visible_in_top_snapshot(tmp_path):
    from repro.obs.dashboard import Dashboard
    from repro.serve.server import CampaignServer, ServerConfig
    from repro.serve.spec import JobSpec

    server = CampaignServer(str(tmp_path), ServerConfig(num_ranks=2))
    try:
        server.submit(JobSpec(tenant="acme", molecule="h17"))
        server.tick()
    finally:
        server.close()
    snap = Dashboard(str(tmp_path)).snapshot()
    rejected = [
        e
        for e in snap["recent_events"]
        if e["type"] == "job.rejected"
        and str(e["attrs"].get("reason", "")).startswith("memory")
    ]
    assert rejected, "job.rejected reason=memory... must reach repro top"
    assert snap["memory"]["rank_memory_bytes"] > 0
    rendered = Dashboard(str(tmp_path)).render(snap)
    assert "memory:" in rendered


def test_health_reports_memory_section(tmp_path):
    from repro.serve.server import CampaignServer, ServerConfig
    from repro.serve.spec import JobSpec, estimate_job_memory

    spec = JobSpec(tenant="t", molecule="h4", priority=1)
    server = CampaignServer(
        str(tmp_path), ServerConfig(num_ranks=1, rank_memory_bytes=1 << 20)
    )
    try:
        job = server.submit(spec)
        assert job.state == "queued"
        health = server.health()
        assert health["memory"]["queued_est_bytes"] == estimate_job_memory(spec)
        assert health["memory"]["fleet_capacity_bytes"] == 1 << 20
    finally:
        server.close()


def test_rank_loss_sheds_by_memory_pressure(tmp_path):
    from repro.serve.server import CampaignServer, ServerConfig
    from repro.serve.spec import JobSpec, JobState, estimate_job_memory

    per_job = estimate_job_memory(JobSpec(tenant="t", molecule="h4"))
    # two ranks, byte pool sized so ~3 h4 jobs fit per alive rank; the
    # count-based limit alone would keep all jobs
    config = ServerConfig(
        num_ranks=2,
        global_queue_limit=64,
        rank_memory_bytes=3 * per_job,
        memory_queue_factor=1,
    )
    server = CampaignServer(str(tmp_path), config)
    try:
        for i in range(8):
            job = server.submit(
                JobSpec(tenant="t", molecule="h4", seed=i, priority=i)
            )
            assert job.state == "queued", job.detail
        server.inject_rank_loss(1)
        server._shed_overload()
        jobs = list(server.jobs.values())
        shed = [j for j in jobs if j.state == JobState.SHED]
        queued = [j for j in jobs if j.state == JobState.QUEUED]
        # 8 jobs queued, pool shrinks to 1 rank * 3 jobs worth of bytes
        assert sum(j.est_bytes for j in queued) <= 3 * per_job
        assert shed, "rank loss must shed by memory pressure"
        # lowest priorities shed first
        assert max(j.spec.priority for j in shed) < min(
            j.spec.priority for j in queued
        )
        assert any("memory pressure" in j.detail for j in shed)
    finally:
        server.close()


def test_scheduler_respects_rank_byte_budget():
    from repro.hpc.scheduler import BatchScheduler, Job

    scheduler = BatchScheduler(2)
    jobs = [Job(f"j{i}", 8, 100, mem_bytes=600) for i in range(4)]
    schedule = scheduler.schedule(jobs, rank_capacity_bytes=1200)
    assert sum(schedule.rank_bytes.values()) == 4 * 600
    assert all(b <= 1200 for b in schedule.rank_bytes.values())
    # capacity smaller than any pair: overcommit rather than starve
    tight = scheduler.schedule(jobs, rank_capacity_bytes=700)
    assert sum(len(js) for js in tight.assignments.values()) == 4


# -- report v4 / rendering ----------------------------------------------------


def test_run_report_v4_memory_roundtrip():
    obs.configure(enabled=True)
    obs.mem_alloc("statevector", 4096)
    report = obs.collect_report(meta={"run": "mem-test"})
    assert report.memory["peak_bytes"] >= 4096
    clone = RunReport.from_dict(report.to_dict())
    assert clone.memory == report.memory
    assert "-- memory --" in clone.summary()


def test_format_bytes():
    assert format_bytes(0) == "0B"
    assert format_bytes(2048) == "2.0KiB"
    assert format_bytes(16 << 30) == "16.0GiB"
