"""The multi-tenant campaign server (``repro serve``).

``CampaignServer`` turns the single-run recovery machinery of
``repro.core.campaign`` into a long-running, crash-safe service:

* **Submission** arrives through :meth:`CampaignServer.submit` (in
  process) or a spool-directory inbox (``<state_dir>/inbox/*.json``,
  written atomically by ``repro submit``) — file-based ingestion is
  itself crash-safe: a submission survives either fully journaled or
  still in the inbox, never half-admitted.
* **Admission control** (:mod:`repro.serve.admission`) bounds every
  queue per tenant and globally, rejects with explicit backpressure,
  and fails fast on job classes whose circuit breaker is open.
* **Execution** interleaves all running campaigns on the server
  thread.  Every job is an ask/tell campaign
  (``repro.core.campaign.VQECampaign`` with evaluation-level
  checkpoints, ``AdaptCampaign`` with iteration-level ones), and each
  tick the evaluation broker's batched waves (:mod:`repro.serve.broker`)
  advance every running VQE campaign to its end and every running
  ADAPT campaign by one growth iteration, so N campaigns are genuinely
  in flight at once and a kill can land mid-anything.
* **Crash safety**: every transition is written to the write-ahead
  journal first; restart replays the journal (idempotently — records
  are sequence-numbered), reloads terminal results from the
  content-addressed store, and requeues in-flight jobs, which resume
  from their checkpoints with no completed work redone.  Every job
  checkpoints into one shared log (``<state_dir>/checkpoints.jsonl``,
  :class:`repro.core.campaign.CheckpointLog`, keyed by job id), which
  the restart rewrites to the last line of each job still in flight;
  no file or directory is created per job.
* **Deadlines, retries, degradation**: per-job deadlines/timeouts are
  enforced between steps; failures retry under a shared
  ``RetryPolicy`` guarded by a global ``RetryBudget`` and per-class
  ``CircuitBreaker``s; simulated rank loss shrinks the worker pool and
  the queued work is re-LPT'd over survivors via ``BatchScheduler``;
  overload sheds the lowest-priority queued jobs; drain mode finishes
  in-flight work while rejecting new submissions.
* **Observability**: health/readiness is written atomically to
  ``status.json`` for out-of-process ``repro status``, and live
  per-tenant job gauges are published through ``repro.obs``; every
  state transition additionally lands on the durable structured event
  bus (``<state_dir>/events.jsonl``, :mod:`repro.obs.events`), which
  feeds the SLO engine and the ``repro top`` dashboard, and periodic
  metrics snapshots (``metrics.jsonl``) give out-of-process pollers
  counter/histogram state without scraping the process.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.obs import events as obs_events
from repro.core.adapt import AdaptVQE
from repro.core.campaign import (
    CHECKPOINT_LOG,
    AdaptCampaign,
    CampaignRunner,
    CheckpointLog,
    VQECampaign,
    refuse_old_layout,
)
from repro.core.counting import uccsd_gate_count
from repro.core.vqe import VQE
from repro.hpc.faults import FaultInjector, FaultSpec
from repro.hpc.scheduler import BatchScheduler, Job
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.broker import EvaluationBroker
from repro.serve.journal import Journal, JournalRecord
from repro.serve.spec import (
    TERMINAL_STATES,
    JobSpec,
    JobState,
    SpecError,
    estimate_group_memory,
    estimate_job_memory,
    qubits_for_molecule,
)
from repro.serve.store import ContentStore, ProblemCache
from repro.utils.files import atomic_write
from repro.utils.retry import CircuitBreaker, RetryBudget, RetryPolicy

__all__ = ["ServerConfig", "JobRecord", "CampaignServer", "load_state_view"]


@dataclass
class ServerConfig:
    """Tuning knobs of one server instance."""

    num_ranks: int = 4
    machine: str = "perlmutter"
    checkpoint_period: int = 1
    max_job_attempts: int = 3
    global_queue_limit: int = 64
    default_tenant_policy: TenantPolicy = field(default_factory=TenantPolicy)
    tenant_policies: Dict[str, TenantPolicy] = field(default_factory=dict)
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 60.0
    retry_budget_capacity: float = 32.0
    retry_budget_refill_per_s: float = 1.0
    retry_seed: int = 0
    default_timeout_s: Optional[float] = None
    warm_start: bool = True
    adapt_gradient_tolerance: float = 1e-4
    fault_specs: List[FaultSpec] = field(default_factory=list)
    fault_seed: int = 0
    fsync: bool = False
    clock: Any = None  # Callable[[], float]; default time.monotonic
    event_log_max_bytes: int = 4_000_000
    metrics_snapshot_period: int = 5  # ticks between metrics.jsonl writes
    # memory budget of one worker rank; jobs whose predicted peak
    # (repro.serve.spec.estimate_job_memory) exceeds it are rejected at
    # admission — they could never run anywhere in the fleet
    rank_memory_bytes: int = 16 << 30
    # overload bound on *queued* predicted bytes: the queue may hold up
    # to this many fleets' worth of resident memory before the server
    # sheds by memory pressure (rank loss shrinks the pool, so losing
    # ranks sheds memory-hungry queues even when the count bound holds)
    memory_queue_factor: int = 4
    # cross-campaign batched execution (the evaluation broker): VQE
    # campaigns on one plan (same kind, molecule and basis, any
    # geometry) stack their evaluations into one reverse-mode sweep
    # over a (2B, D) block per wave, D the plan's sector amplitudes (B
    # energies and B exact gradients).  ``batch_size`` caps the rows
    # per sweep and the jobs a rank starts per tick; 1 is sequential
    # serving (one job per rank per tick, one row per sweep).
    batch_size: int = 32

    def __post_init__(self) -> None:
        for name in (
            "num_ranks",
            "checkpoint_period",
            "batch_size",
            "global_queue_limit",
            "max_job_attempts",
            "memory_queue_factor",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"ServerConfig.{name} must be >= 1, got {value!r}")
        for name in ("metrics_snapshot_period", "adapt_gradient_tolerance"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                raise ValueError(f"ServerConfig.{name} must be >= 0, got {value!r}")


# the JobRecord fields its status.json row (to_dict) is made of
_ROW_FIELDS = frozenset(
    {
        "job_id", "spec", "state", "rank", "attempts", "energy", "detail",
        "dedup_hit", "warm_started", "resumed", "flight_verdict", "est_bytes",
    }
)


@dataclass
class JobRecord:
    """Server-side view of one job's lifecycle.

    Assigning any field its ``status.json`` row shows, inside the
    journal fold or not, marks that row for re-encoding (``_row_stale``).
    """

    job_id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    submitted_seq: int = 0
    submission_id: Optional[str] = None
    rank: Optional[int] = None
    attempts: int = 0
    energy: Optional[float] = None
    detail: str = ""
    dedup_hit: bool = False
    warm_started: bool = False
    resumed: bool = False
    admitted_at: float = 0.0
    exec_s: float = 0.0
    next_eligible: float = 0.0
    flight_verdict: Optional[str] = None
    est_bytes: int = 0  # capacity model's predicted peak for this job

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        if name in _ROW_FIELDS:
            object.__setattr__(self, "_row_stale", True)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "kind": self.spec.kind,
            "molecule": self.spec.molecule,
            "geometry": self.spec.geometry,
            "priority": self.spec.priority,
            "state": self.state,
            "rank": self.rank,
            "attempts": self.attempts,
            "energy": self.energy,
            "detail": self.detail,
            "dedup_hit": self.dedup_hit,
            "warm_started": self.warm_started,
            "resumed": self.resumed,
            "flight_verdict": self.flight_verdict,
            "est_bytes": self.est_bytes,
        }


# admission seq: the order of ``_ServerState.order`` among live jobs
_submission_order = operator.attrgetter("submitted_seq")

# journal record type -> the terminal state it folds to (besides "completed")
_END_STATES = {
    "failed": JobState.FAILED,
    "timed_out": JobState.TIMED_OUT,
    "shed": JobState.SHED,
}


class _ServerState:
    """The journal fold: jobs + fleet facts rebuilt from records.

    ``apply`` ignores any record whose ``seq`` has already been
    applied, which makes replay idempotent for overlapping prefixes —
    the property ``tests/test_serve.py`` verifies with Hypothesis.

    ``apply`` is the only place a job's state changes, and it keeps
    the live index (``live``: the QUEUED and RUNNING jobs by id) and
    the per-state and per-(tenant, state) counts current, so the tick
    reads live jobs without scanning every job it has seen.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, JobRecord] = {}
        self.order: List[str] = []
        self.lost_ranks: set = set()
        self.draining = False
        self.dispatches = 0
        self.submission_ids: Dict[str, str] = {}  # submission id -> job id
        self.last_seq = 0
        self.live: Dict[str, Dict[str, JobRecord]] = {
            JobState.QUEUED: {},
            JobState.RUNNING: {},
        }
        self.counts: Dict[str, int] = {}
        self.tenant_counts: Dict[str, Dict[str, int]] = {}

    def _count(self, job: JobRecord, delta: int) -> None:
        """Add ``delta`` (±1) to the counts of the job's current state
        and put it in (or take it out of) the live index."""
        state, tenant = job.state, job.spec.tenant
        per_tenant = self.tenant_counts.setdefault(tenant, {})
        for counts in (self.counts, per_tenant):
            n = counts.get(state, 0) + delta
            if n:
                counts[state] = n
            else:
                del counts[state]
        if not per_tenant:
            del self.tenant_counts[tenant]
        bucket = self.live.get(state)
        if bucket is not None:
            if delta > 0:
                bucket[job.job_id] = job
            else:
                del bucket[job.job_id]

    def _move(self, job: JobRecord, state: str) -> None:
        self._count(job, -1)
        job.state = state
        self._count(job, +1)

    def apply(self, rec: JournalRecord) -> None:
        if rec.seq <= self.last_seq:
            return  # already applied — idempotent replay
        self.last_seq = rec.seq
        p = rec.payload
        if rec.type in ("admitted", "rejected"):
            spec = JobSpec.from_dict(p["spec"])
            try:
                est_bytes = estimate_job_memory(spec)
            except Exception:  # noqa: BLE001 — estimate is advisory
                est_bytes = 0
            job = JobRecord(
                job_id=p["job_id"],
                spec=spec,
                state=(
                    JobState.QUEUED if rec.type == "admitted" else JobState.REJECTED
                ),
                submitted_seq=rec.seq,
                submission_id=p.get("submission_id"),
                detail=p.get("reason", ""),
                est_bytes=est_bytes,
            )
            replaced = self.jobs.get(job.job_id)
            if replaced is not None:
                self._count(replaced, -1)
            self.jobs[job.job_id] = job
            self._count(job, +1)
            self.order.append(job.job_id)
            if job.submission_id:
                self.submission_ids[job.submission_id] = job.job_id
            return
        if rec.type == "rank_lost":
            self.lost_ranks.add(int(p["rank"]))
            return
        if rec.type == "drain":
            self.draining = True
            return
        if rec.type == "recovered":
            return
        job = self.jobs.get(p.get("job_id", ""))
        if job is None:
            return  # record about a job we never saw admitted; ignore
        if rec.type == "started":
            self._move(job, JobState.RUNNING)
            job.rank = p.get("rank")
            job.attempts = int(p.get("attempt", job.attempts))
            self.dispatches += 1
        elif rec.type in ("retry", "requeued"):
            self._move(job, JobState.QUEUED)
            job.rank = None
            job.attempts = int(p.get("attempt", job.attempts))
            job.detail = p.get("reason", job.detail)
        elif rec.type == "completed":
            self._move(job, JobState.SUCCEEDED)
            job.rank = None
            job.energy = p.get("energy")
            job.dedup_hit = bool(p.get("dedup", False))
            job.warm_started = bool(p.get("warm_started", False))
            job.resumed = bool(p.get("resumed", False))
        elif rec.type in _END_STATES:
            self._move(job, _END_STATES[rec.type])
            job.rank = None
            job.detail = p.get("reason", "")


@functools.lru_cache(maxsize=None)
def _uccsd_gates(num_qubits: int) -> int:
    """UCCSD gate count of one register width: the LPT estimate asks for
    it per queued job per tick, and it only depends on the width."""
    return uccsd_gate_count(num_qubits)


class _JobExecution:
    """Volatile driver of one running job (checkpoints persist): opens
    its ADAPT or VQE campaign for the broker to pump, and reads the
    result."""

    def __init__(
        self,
        job: JobRecord,
        problem: Dict[str, Any],
        checkpoints: CheckpointLog,
        config: ServerConfig,
        warm_x0: Optional[np.ndarray],
    ):
        self.job = job
        runner = CampaignRunner(
            log=checkpoints, key=job.job_id, checkpoint_period=config.checkpoint_period
        )
        flight_context = {"job_id": job.job_id, "tenant": job.spec.tenant}
        if job.spec.kind == "adapt":
            adapt = AdaptVQE(
                problem["hamiltonian"],
                problem["pool"],
                problem["reference"],
                max_iterations=job.spec.max_iterations,
                gradient_tolerance=config.adapt_gradient_tolerance,
                flight_context=flight_context,
            )
            self.campaign: Union[AdaptCampaign, VQECampaign] = AdaptCampaign(runner, adapt)
        else:
            # chemistry mode on the shared UCCSD sector plan: every job
            # of one molecule, at any geometry, runs the SAME plan
            # object, which is what lets the broker stack their
            # evaluations; each optimizer iterate is one row that comes
            # back with its energy and exact reverse-mode gradient, and
            # the sweep is row-wise, so any batch_size gives the same
            # trajectory.
            vqe = VQE(problem["hamiltonian"], generators=problem["generators"],
                      reference_state=problem["reference"], plan=problem["plan"],
                      flight_context=flight_context)
            x0 = warm_x0
            if x0 is not None:
                job.warm_started = True
            elif vqe.num_parameters:
                # seeded multi-start jitter: distinct seeds explore
                # distinct basins deterministically, so same-molecule
                # campaigns submitted with different seeds are genuinely
                # independent optimizations (not one trajectory replayed
                # N times) — the honest workload for batched serving
                rng = np.random.default_rng(job.spec.seed)
                x0 = 0.02 * rng.standard_normal(vqe.num_parameters)
            self.campaign = VQECampaign(runner, vqe, initial_parameters=x0)
        job.resumed = self.campaign.resumed_from is not None

    def result(self) -> Dict[str, Any]:
        """The result of a campaign that has one."""
        result, kind = self.campaign.result.result, self.job.spec.kind
        if kind == "adapt":
            parameters, flight = result.parameters, self.campaign.adapt.flight
            count = {"iterations": int(self.campaign.state.iteration)}
        else:
            parameters, flight = result.optimal_parameters, self.campaign.vqe.flight
            count = {"evaluations": int(result.num_function_evaluations)}
        return {
            "energy": float(result.energy),
            "parameters": [float(x) for x in parameters],
            **count,
            "kind": kind,
            "flight_verdict": flight.verdict if flight is not None else None,
        }


class CampaignServer:
    """Crash-safe multi-tenant VQE/ADAPT campaign server."""

    def __init__(self, state_dir: str, config: Optional[ServerConfig] = None):
        self.state_dir = state_dir
        self.config = config or ServerConfig()
        os.makedirs(state_dir, exist_ok=True)
        refuse_old_layout(
            os.path.join(state_dir, "jobs"), os.path.join(state_dir, "store", "results")
        )
        self.inbox_dir = os.path.join(state_dir, "inbox")
        os.makedirs(self.inbox_dir, exist_ok=True)
        self._now = self.config.clock or time.monotonic
        # the durable event bus comes up first so every transition —
        # including recovery itself — lands in the log; installing it
        # as the process-global bus routes library-level emissions
        # (flight recorder, fault injector, campaign runner) here too
        self.events = obs_events.EventBus(
            path=os.path.join(state_dir, "events.jsonl"),
            max_bytes=self.config.event_log_max_bytes,
        )
        obs_events.set_bus(self.events)
        self.journal = Journal(
            os.path.join(state_dir, "journal.jsonl"), fsync=self.config.fsync
        )
        self.store = ContentStore(os.path.join(state_dir, "store"))
        self.problems = ProblemCache()
        self.admission = AdmissionController(
            global_queue_limit=self.config.global_queue_limit,
            default_policy=self.config.default_tenant_policy,
            tenant_policies=dict(self.config.tenant_policies),
        )
        self.retry_policy = RetryPolicy(
            max_attempts=max(2, self.config.max_job_attempts),
            seed=self.config.retry_seed,
        )
        self.retry_budget = RetryBudget(
            capacity=self.config.retry_budget_capacity,
            refill_per_s=self.config.retry_budget_refill_per_s,
        )
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.fault_injector = (
            FaultInjector(self.config.fault_specs, seed=self.config.fault_seed)
            if self.config.fault_specs
            else None
        )
        self.broker = EvaluationBroker(batch_size=self.config.batch_size)
        self.executions: Dict[str, _JobExecution] = {}
        # (tenant, state) gauge label pairs published last round, so
        # pairs that disappear (drained/idle tenants) are zeroed rather
        # than frozen at their last value
        self._published_tenant_states: set = set()
        # job id -> its status.json row as last encoded; re-encoded only
        # when a field of the job was assigned since (JobRecord._row_stale)
        self._status_rows: Dict[str, str] = {}
        # placement inputs fixed at admission: one LPT Job per job id,
        # one scheduler (it memoizes the per-job cost model)
        self._placement_jobs: Dict[str, Job] = {}
        self._scheduler = BatchScheduler(self.config.num_ranks, self.config.machine)
        self.ticks = 0
        self.shed_count = 0
        self.dedup_hits = 0
        # content key -> result of every job that succeeded this tick;
        # their queued duplicates complete before the tick ends
        self._landed: Dict[str, Dict[str, Any]] = {}
        self.state = _ServerState()
        self._job_counter = 0
        self._recover()
        # every campaign's checkpoints, keyed by job id: rewritten once
        # here to the last line of each job still in flight (recovery
        # has requeued every RUNNING job)
        ckpt_path = os.path.join(state_dir, CHECKPOINT_LOG)
        CheckpointLog.compact(ckpt_path, self.state.live[JobState.QUEUED])
        self.checkpoints = CheckpointLog(ckpt_path)

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal and requeue whatever was in flight."""
        records = self.journal.replay()
        for rec in records:
            self.state.apply(rec)
        # counter only backs jNNNNN ids allocated by submit(); synthetic
        # ids (malformed-submission "bad-<id>" rejections) don't count
        self._job_counter = sum(
            1 for jid in self.state.jobs if jid.startswith("j")
        )
        # deadlines run on this process's clock (time.monotonic by
        # default — an arbitrary since-boot epoch, incomparable across
        # processes), so replayed jobs' admission times are meaningless
        # here.  Re-base every non-terminal job to recovery time so a
        # restart never spuriously times out resumed work; the deadline
        # window restarts from recovery, which is the lenient choice.
        now = self._now()
        for job in self._jobs_in(JobState.QUEUED) + self._jobs_in(JobState.RUNNING):
            job.admitted_at = now
        in_flight = self._jobs_in(JobState.RUNNING)
        for job in in_flight:
            # the journal said RUNNING but this is a fresh process: the
            # old run died.  Its checkpoints are on disk; requeue.
            rec = self.journal.append(
                "requeued",
                job_id=job.job_id,
                attempt=job.attempts,
                reason="server restart",
            )
            self.state.apply(rec)
        if records:
            rec = self.journal.append(
                "recovered",
                jobs=len(self.state.jobs),
                requeued=len(in_flight),
                lost_ranks=sorted(self.state.lost_ranks),
            )
            self.state.apply(rec)
            self.events.emit(
                "server.recovered",
                jobs=len(self.state.jobs),
                requeued=len(in_flight),
                lost_ranks=sorted(self.state.lost_ranks) or None,
            )

    # -- derived views --------------------------------------------------------

    @property
    def jobs(self) -> Dict[str, JobRecord]:
        return self.state.jobs

    @property
    def alive_ranks(self) -> List[int]:
        return [
            k
            for k in range(self.config.num_ranks)
            if k not in self.state.lost_ranks
        ]

    @property
    def draining(self) -> bool:
        return self.state.draining

    def _jobs_in(self, state: str) -> List[JobRecord]:
        """The QUEUED or RUNNING jobs, in submission order."""
        return sorted(self.state.live[state].values(), key=_submission_order)

    @property
    def idle(self) -> bool:
        counts = self.state.counts
        return not counts.get(JobState.QUEUED) and not counts.get(JobState.RUNNING)

    def _tenant_counts(self, tenant: str) -> Tuple[int, int]:
        counts = self.state.tenant_counts.get(tenant, {})
        return counts.get(JobState.QUEUED, 0), counts.get(JobState.RUNNING, 0)

    def _breaker(self, class_key: str) -> CircuitBreaker:
        br = self.breakers.get(class_key)
        if br is None:
            br = CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
            self.breakers[class_key] = br
        return br

    # -- submission -----------------------------------------------------------

    def submit(
        self, spec: JobSpec, submission_id: Optional[str] = None
    ) -> JobRecord:
        """Admit or reject one submission; always returns a JobRecord
        (state ``queued`` or ``rejected``)."""
        now = self._now()
        if submission_id and submission_id in self.state.submission_ids:
            # duplicate delivery (inbox re-scan after a crash): return
            # the already-journaled job instead of double-admitting
            return self.state.jobs[self.state.submission_ids[submission_id]]
        self._job_counter += 1
        job_id = f"j{self._job_counter:05d}-{spec.content_key()[:8]}"
        tenant_queued, _ = self._tenant_counts(spec.tenant)
        total_queued = self.state.counts.get(JobState.QUEUED, 0)
        breaker = self._breaker(spec.class_key())
        try:
            job_bytes: Optional[int] = estimate_job_memory(spec)
        except Exception:  # noqa: BLE001 — unpriceable spec: skip the check
            job_bytes = None
        decision = self.admission.decide(
            spec.tenant,
            tenant_queued=tenant_queued,
            total_queued=total_queued,
            draining=self.draining,
            # read-only check: admission is not an execution, so it
            # must not flip open->half_open or consume the probe —
            # the state-transitioning allow() runs at dispatch time
            breaker_open=breaker.is_open(now),
            job_bytes=job_bytes,
            rank_capacity_bytes=self.config.rank_memory_bytes,
        )
        if decision.admitted:
            rec = self.journal.append(
                "admitted",
                job_id=job_id,
                spec=spec.to_dict(),
                submission_id=submission_id,
            )
        else:
            rec = self.journal.append(
                "rejected",
                job_id=job_id,
                spec=spec.to_dict(),
                submission_id=submission_id,
                reason=decision.reason,
            )
        self.state.apply(rec)
        job = self.state.jobs[job_id]
        job.admitted_at = now
        self.events.emit(
            "job.admitted" if decision.admitted else "job.rejected",
            job_id=job_id,
            tenant=spec.tenant,
            kind=spec.kind,
            molecule=spec.molecule,
            priority=spec.priority,
            reason=decision.reason or None,
        )
        return job

    def _poll_inbox(self) -> int:
        """Ingest spooled submissions (atomic files from ``repro
        submit``).  Journal-then-delete: a crash between the two means
        the file is re-scanned and recognized as a duplicate."""
        ingested = 0
        try:
            names = sorted(os.listdir(self.inbox_dir))
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.inbox_dir, name)
            submission_id = name[: -len(".json")]
            if submission_id in self.state.submission_ids:
                os.remove(path)
                continue
            try:
                with open(path) as fh:
                    spec = JobSpec.from_dict(json.load(fh))
            except (json.JSONDecodeError, OSError, SpecError) as err:
                # malformed submission: journal the rejection under a
                # synthetic spec so the submitter sees *why*
                rec = self.journal.append(
                    "rejected",
                    job_id=f"bad-{submission_id}",
                    spec=JobSpec(tenant="unknown").to_dict(),
                    submission_id=submission_id,
                    reason=f"malformed submission: {err}",
                )
                self.state.apply(rec)
                os.remove(path)
                continue
            self.submit(spec, submission_id=submission_id)
            os.remove(path)
            ingested += 1
        return ingested

    # -- degradation ----------------------------------------------------------

    def inject_rank_loss(self, rank: int) -> None:
        """Kill one simulated rank (tests / demos call this directly;
        configured ``FaultSpec``s arrive through the same path)."""
        if rank in self.state.lost_ranks or rank >= self.config.num_ranks:
            return
        rec = self.journal.append("rank_lost", rank=rank)
        self.state.apply(rec)
        requeued = 0
        # jobs running on the dead rank: requeue (their checkpoints
        # survive, so only the since-last-checkpoint slice is redone)
        for job in self._jobs_in(JobState.RUNNING):
            if job.rank == rank:
                self.executions.pop(job.job_id, None)
                r = self.journal.append(
                    "requeued",
                    job_id=job.job_id,
                    attempt=job.attempts,
                    reason=f"rank {rank} lost",
                )
                self.state.apply(r)
                requeued += 1
        self.events.emit(
            "rank.lost",
            rank=rank,
            alive=len(self.alive_ranks),
            requeued=requeued or None,
        )

    def _check_rank_faults(self, rank: int) -> None:
        """Consult the fault injector at dispatch time.  Any rank it
        kills (the dispatch target or another) lands in
        ``state.lost_ranks``, which the dispatch loop re-checks before
        every start."""
        if self.fault_injector is None:
            return
        dead = self.fault_injector.check_batch_faults(self.state.dispatches, rank)
        if dead is not None:
            self.inject_rank_loss(dead)

    def _shed_overload(self) -> None:
        """Degraded fleet => shrunken effective queue bound; shed the
        lowest-priority queued jobs beyond it.  Two pressure axes:
        *count* (the classic shrunken queue limit) and *memory* (the
        queue's predicted resident bytes must fit
        ``memory_queue_factor`` fleets of surviving ranks) — losing a
        rank therefore sheds memory-hungry queues even when the job
        count is fine."""
        alive = len(self.alive_ranks)
        if alive >= self.config.num_ranks:
            return
        effective = max(
            1,
            (self.config.global_queue_limit * alive) // self.config.num_ranks,
        )
        queued = self._jobs_in(JobState.QUEUED)
        # full shed ranking (lowest priority first, newest first within
        # a priority); count victims are a prefix, memory pressure then
        # extends the prefix until the survivors' bytes fit the pool
        ranked = self.admission.shed_victims(
            queued,
            len(queued),
            priority_of=lambda j: j.spec.priority,
            age_of=lambda j: j.submitted_seq,
        )
        n_count = max(0, len(queued) - effective)
        byte_pool = (
            alive * self.config.rank_memory_bytes * self.config.memory_queue_factor
        )
        survivor_bytes = sum(j.est_bytes for j in ranked[n_count:])
        n_victims = n_count
        while survivor_bytes > byte_pool and n_victims < len(ranked):
            survivor_bytes -= ranked[n_victims].est_bytes
            n_victims += 1
        for i, job in enumerate(ranked[:n_victims]):
            if i < n_count:
                reason = (
                    f"overload: {len(queued)} queued > effective limit "
                    f"{effective} with {alive}/{self.config.num_ranks} ranks"
                )
                short = f"overload with {alive}/{self.config.num_ranks} ranks"
            else:
                reason = short = (
                    f"memory pressure: queued jobs predicted over "
                    f"{byte_pool} bytes with {alive}/"
                    f"{self.config.num_ranks} ranks"
                )
            rec = self.journal.append("shed", job_id=job.job_id, reason=reason)
            self.state.apply(rec)
            self.shed_count += 1
            self.events.emit(
                "job.shed",
                job_id=job.job_id,
                tenant=job.spec.tenant,
                priority=job.spec.priority,
                reason=short,
            )
            self._job_terminal(job)

    # -- scheduling + dispatch ------------------------------------------------

    def _estimate_job(self, job: JobRecord) -> Job:
        """The job's LPT placement input, built once per job: it depends
        only on the spec and the admission-time byte estimate."""
        est = self._placement_jobs.get(job.job_id)
        if est is None:
            n = qubits_for_molecule(job.spec.molecule)
            gates = _uccsd_gates(n) * max(1, job.spec.max_iterations)
            est = Job(job.job_id, n, gates, mem_bytes=job.est_bytes)
            self._placement_jobs[job.job_id] = est
        return est

    def _plan_placements(
        self, queued: List[JobRecord], running: List[JobRecord]
    ) -> Dict[str, int]:
        """LPT-place dispatchable queued jobs over the surviving ranks
        (the re-LPT on rank loss falls out of re-planning here every
        tick with the current alive set)."""
        alive = self.alive_ranks
        if not alive:
            return {}
        now = self._now()
        running_ranks = {j.rank for j in running if j.rank is not None}
        dispatchable = [j for j in queued if now >= j.next_eligible]
        if not dispatchable:
            return {}
        # highest priority first, then submission order
        dispatchable.sort(key=lambda j: (-j.spec.priority, j.submitted_seq))
        # LPT over *batch groups*: same-plan VQE jobs (any geometry)
        # share one sweep, and a group is priced as a batch (one shared
        # plan, one Hamiltonian per geometry, B amplitude rows), far
        # below the sum of standalone estimates.  Each plan group is cut
        # into chunks of at most batch_size that spread over the alive
        # ranks.
        groups: Dict[str, List[JobRecord]] = {}
        singles: List[JobRecord] = []
        for j in dispatchable:
            if j.spec.kind == "vqe":
                groups.setdefault(j.spec.plan_key(), []).append(j)
            else:
                singles.append(j)
        group_list: List[Tuple[List[Job], int]] = []
        for pkey in sorted(groups):
            members = groups[pkey]
            size = min(self.config.batch_size, -(-len(members) // len(alive)))
            for start in range(0, len(members), size):
                chunk = members[start : start + size]
                group_list.append(
                    (
                        [self._estimate_job(j) for j in chunk],
                        estimate_group_memory([j.spec for j in chunk]),
                    )
                )
        for j in singles:
            est = self._estimate_job(j)
            group_list.append(([est], est.mem_bytes))
        schedule = self._scheduler.schedule_groups(
            group_list,
            available_ranks=alive,
            rank_capacity_bytes=self.config.rank_memory_bytes,
        )
        placements: Dict[str, int] = {}
        for rank, jobs in schedule.assignments.items():
            if rank in running_ranks:
                continue  # rank is busy this tick; its queue waits
            for j in jobs:
                placements.setdefault(j.name, rank)
        return placements

    def _dispatch(self) -> None:
        now = self._now()
        queued = self._jobs_in(JobState.QUEUED)
        running = self._jobs_in(JobState.RUNNING)
        running_content = {j.spec.content_key() for j in running}
        # VQE families with a job in flight: until one of their
        # geometries has converged, the rest wait for its parameters
        # (a warm start) instead of all starting cold in one wave
        in_flight = {j.spec.family_key() for j in running if j.spec.kind == "vqe"}
        placements = self._plan_placements(queued, running)
        # rank -> plan key of the batch group started there this tick
        # (None marks a rank occupied by non-joinable work: a
        # carried-over running job or an ADAPT campaign), and how many jobs
        # it took; a rank takes at most batch_size
        busy: Dict[int, Optional[str]] = {
            j.rank: None for j in running if j.rank is not None
        }
        started: Dict[int, int] = {}
        for job in queued:
            if now < job.next_eligible:
                continue
            key = job.spec.content_key()
            # dedup: an identical problem already finished -> instant hit
            # (the store's key set answers the common case, a miss,
            # without touching the result tier's file I/O)
            stored = self.store.get_result(key) if self.store.has_result(key) else None
            if stored is not None:
                self._complete(job, stored, dedup=True)
                continue
            # an identical problem is running right now: wait for it
            # rather than computing it twice
            if key in running_content:
                continue
            family = job.spec.family_key() if job.spec.kind == "vqe" else None
            if (
                family in in_flight
                and self.config.warm_start
                and not self.store.has_warm_start(family)
            ):
                continue
            joinable = job.spec.kind == "vqe"
            rank = placements.get(job.job_id)
            if rank is None:
                continue
            if rank in busy and not (
                joinable
                and busy[rank] == job.spec.plan_key()
                and started[rank] < self.config.batch_size
            ):
                continue
            # execution gate on the class breaker: an open class holds
            # its queued jobs; past the cooldown this allow() is the
            # half-open probe (success/failure below closes/re-opens)
            if not self._breaker(job.spec.class_key()).allow(now):
                continue
            self._check_rank_faults(rank)
            if rank in self.state.lost_ranks:
                # the injector killed a rank mid-loop — possibly this
                # one, possibly earlier in the tick; placements are
                # stale, so never start on a dead rank.  Replan next
                # tick.
                continue
            self._start(job, rank)
            busy[rank] = job.spec.plan_key() if joinable else None
            started[rank] = started.get(rank, 0) + 1
            running_content.add(key)
            if family is not None:
                in_flight.add(family)

    def _start(self, job: JobRecord, rank: int) -> None:
        rec = self.journal.append(
            "started", job_id=job.job_id, rank=rank, attempt=job.attempts + 1
        )
        self.state.apply(rec)
        self.events.emit(
            "job.dispatched",
            job_id=job.job_id,
            tenant=job.spec.tenant,
            rank=rank,
            attempt=job.attempts,
            queue_latency_s=max(0.0, self._now() - job.admitted_at),
        )
        self._open(job, warm=True)

    def _open(self, job: JobRecord, warm: bool) -> Optional[_JobExecution]:
        """Build a running job's problem and execution object.  A build
        that raises (say, generators no plan can lower) is a
        failed attempt, not a failed tick; returns ``None`` then."""
        try:
            problem = self.problems.get(job.spec)
            warm_x0 = None
            if (
                warm
                and self.config.warm_start
                and job.spec.kind == "vqe"
                and problem.get("generators")
                and not self.checkpoints.has(job.job_id)
            ):
                warm_x0 = self.store.warm_start(
                    job.spec.family_key(),
                    job.spec.geometry,
                    len(problem["generators"]),
                )
            execution = _JobExecution(job, problem, self.checkpoints, self.config, warm_x0)
        except Exception as err:  # noqa: BLE001 — fails the job, not the server
            self._handle_failure(job, err)
            return None
        self.executions[job.job_id] = execution
        return execution

    # -- stepping + completion ------------------------------------------------

    def _step_running(self) -> None:
        """Advance every running campaign on the server thread: the
        broker pumps them, in dispatch order, a VQE campaign to its end
        and an ADAPT campaign by one growth iteration; then completions
        and failures are journalled in dispatch order, and a campaign
        with no result yet stays RUNNING."""
        running: List[Tuple[JobRecord, _JobExecution]] = []
        for job in list(self._jobs_in(JobState.RUNNING)):
            now = self._now()
            reason = self._deadline_violation(job, now)
            if reason is not None:
                self.executions.pop(job.job_id, None)
                rec = self.journal.append(
                    "timed_out", job_id=job.job_id, reason=reason
                )
                self.state.apply(rec)
                self.events.emit(
                    "job.timed_out",
                    job_id=job.job_id,
                    tenant=job.spec.tenant,
                    reason=reason,
                )
                self._job_terminal(job)
                continue
            # a RUNNING job without an execution object is reopened
            # from its checkpoints (restarts requeue RUNNING jobs, so
            # this is a safety net)
            execution = self.executions.get(job.job_id) or self._open(job, warm=False)
            if execution is not None:
                running.append((job, execution))
        if not running:
            return
        with obs.span("serve.batch_tick", campaigns=len(running)):
            errors, charged_s = self.broker.pump(
                [(job.spec.plan_key(), execution.campaign) for job, execution in running]
            )
        for (job, execution), err, spent in zip(running, errors, charged_s):
            # each job is charged its own asks, tells and group sweeps
            job.exec_s += spent
            if err is not None:
                execution.campaign.close()
                self._handle_failure(job, err)
            elif execution.campaign.result is not None:
                self._finish_success(job, execution.result())

    def _deadline_violation(self, job: JobRecord, now: float) -> Optional[str]:
        if (
            job.spec.deadline_s is not None
            and now - job.admitted_at > job.spec.deadline_s
        ):
            return (
                f"deadline exceeded ({now - job.admitted_at:.3f}s > "
                f"{job.spec.deadline_s}s since admission)"
            )
        timeout = (
            job.spec.timeout_s
            if job.spec.timeout_s is not None
            else self.config.default_timeout_s
        )
        if timeout is not None and job.exec_s > timeout:
            return f"execution budget exceeded ({job.exec_s:.3f}s > {timeout}s)"
        return None

    def _finish_success(self, job: JobRecord, result: Dict[str, Any]) -> None:
        key = job.spec.content_key()
        self.store.put_result(key, result)
        self._landed[key] = result
        if job.spec.kind == "vqe" and result.get("parameters"):
            self.store.add_warm_start(
                job.spec.family_key(),
                job.spec.geometry,
                np.asarray(result["parameters"], dtype=float),
            )
        self.executions.pop(job.job_id, None)
        self._complete(job, result, dedup=False)
        breaker = self._breaker(job.spec.class_key())
        before = breaker.state
        breaker.record_success()
        self._emit_breaker_transition(job.spec.class_key(), before, breaker.state)

    def _complete(
        self, job: JobRecord, result: Dict[str, Any], dedup: bool
    ) -> None:
        rec = self.journal.append(
            "completed",
            job_id=job.job_id,
            energy=result.get("energy"),
            content_key=job.spec.content_key(),
            dedup=dedup,
            warm_started=job.warm_started,
            resumed=job.resumed,
        )
        self.state.apply(rec)
        job.flight_verdict = result.get("flight_verdict")
        self.events.emit(
            "job.completed",
            job_id=job.job_id,
            tenant=job.spec.tenant,
            energy=result.get("energy"),
            dedup=dedup or None,
            flight_verdict=job.flight_verdict,
        )
        if dedup:
            self.dedup_hits += 1
        self._job_terminal(job)

    def _complete_duplicates(self) -> None:
        """Complete the queued duplicates (same content key) of results
        that landed this tick, so that they do not wait a tick more."""
        if not self._landed:
            return
        landed, self._landed = self._landed, {}
        for job in self._jobs_in(JobState.QUEUED):
            result = landed.get(job.spec.content_key())
            if result is not None:
                self._complete(job, result, dedup=True)

    def _handle_failure(self, job: JobRecord, err: Exception) -> None:
        # job.attempts already counts this attempt (set by the
        # "started" record's fold)
        now = self._now()
        self.executions.pop(job.job_id, None)
        breaker = self._breaker(job.spec.class_key())
        breaker_before = breaker.state
        breaker.record_failure(now)
        self._emit_breaker_transition(
            job.spec.class_key(), breaker_before, breaker.state
        )
        retryable = (
            job.attempts < self.config.max_job_attempts
            and breaker.state != "open"
            and self.retry_budget.spend(now)
        )
        if retryable:
            delay = self.retry_policy.backoff_delay(job.attempts)
            job.next_eligible = now + delay
            rec = self.journal.append(
                "retry",
                job_id=job.job_id,
                attempt=job.attempts,
                delay_s=delay,
                reason=f"{type(err).__name__}: {err}",
            )
            self.state.apply(rec)
            self.events.emit(
                "job.retry",
                job_id=job.job_id,
                tenant=job.spec.tenant,
                attempt=job.attempts,
                delay_s=delay,
                reason=f"{type(err).__name__}: {err}",
            )
        else:
            rec = self.journal.append(
                "failed",
                job_id=job.job_id,
                reason=f"{type(err).__name__}: {err} (attempt {job.attempts})",
            )
            self.state.apply(rec)
            self.events.emit(
                "job.failed",
                job_id=job.job_id,
                tenant=job.spec.tenant,
                attempt=job.attempts,
                reason=f"{type(err).__name__}: {err}",
            )
            self._job_terminal(job)

    def _emit_breaker_transition(
        self, class_key: str, before: str, after: str
    ) -> None:
        if after != before:
            self.events.emit(
                "breaker.transition",
                class_key=class_key,
                **{"from": before, "to": after},
            )

    def _job_terminal(self, job: JobRecord) -> None:
        """Bookkeeping for a job that just reached a terminal state."""
        self._placement_jobs.pop(job.job_id, None)
        self.checkpoints.forget_campaign(job.job_id)

    # -- drain / lifecycle ----------------------------------------------------

    def drain(self) -> None:
        """Stop accepting work; in-flight jobs run to completion."""
        if not self.draining:
            rec = self.journal.append("drain")
            self.state.apply(rec)
            self.events.emit(
                "server.drain",
                queued=self.state.counts.get(JobState.QUEUED, 0),
                running=self.state.counts.get(JobState.RUNNING, 0),
            )

    def tick(self) -> None:
        """One scheduling round: ingest, shed, dispatch, advance."""
        t0 = time.perf_counter()
        if os.path.isfile(os.path.join(self.state_dir, "DRAIN")):
            self.drain()
        self._poll_inbox()
        self._shed_overload()
        self._dispatch()
        self._step_running()
        self._complete_duplicates()
        self.ticks += 1
        self.events.emit(
            "server.tick",
            tick=self.ticks,
            duration_s=time.perf_counter() - t0,
        )
        self._publish_health()
        if (
            obs.enabled()
            and self.config.metrics_snapshot_period > 0
            and self.ticks % self.config.metrics_snapshot_period == 0
        ):
            obs.get_registry().write_jsonl(
                os.path.join(self.state_dir, "metrics.jsonl")
            )

    def run(
        self,
        max_ticks: Optional[int] = None,
        stop_when_idle: bool = False,
        tick_sleep_s: float = 0.0,
    ) -> None:
        """Serve until drained, idle (if requested), or out of ticks."""
        while True:
            self.tick()
            if self.draining and self.idle:
                break
            if stop_when_idle and self.idle:
                break
            if max_ticks is not None and self.ticks >= max_ticks:
                break
            if tick_sleep_s:
                time.sleep(tick_sleep_s)
        self._publish_health()

    def close(self) -> None:
        self.journal.close()
        self.checkpoints.close()
        self.store.close()
        self.events.close()  # also un-installs the global bus

    # -- health / status ------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Readiness + fleet + per-tenant view (the ``/healthz`` body)."""
        by_state = dict(self.state.counts)
        tenants = {t: dict(c) for t, c in self.state.tenant_counts.items()}
        alive = self.alive_ranks
        if self.draining:
            status = "draining"
        elif not alive:
            status = "unavailable"
        elif len(alive) < self.config.num_ranks:
            status = "degraded"
        else:
            status = "ready"
        ledger = obs.get_memory_ledger()
        memory = {
            "rank_memory_bytes": self.config.rank_memory_bytes,
            "fleet_capacity_bytes": len(alive) * self.config.rank_memory_bytes,
            "queued_est_bytes": sum(
                j.est_bytes for j in self.state.live[JobState.QUEUED].values()
            ),
            "running_est_bytes": sum(
                j.est_bytes for j in self.state.live[JobState.RUNNING].values()
            ),
            "ledger_live_bytes": ledger.live_bytes,
            "ledger_peak_bytes": ledger.peak_bytes,
        }
        return {
            "status": status,
            "ready": bool(alive) and not self.draining,
            "ticks": self.ticks,
            "alive_ranks": alive,
            "lost_ranks": sorted(self.state.lost_ranks),
            "jobs": by_state,
            "tenants": tenants,
            "queue_depth": by_state.get(JobState.QUEUED, 0),
            "running": by_state.get(JobState.RUNNING, 0),
            "dedup_hits": self.dedup_hits,
            "shed": self.shed_count,
            "breakers": {k: b.state for k, b in self.breakers.items()},
            "retry_budget_tokens": self.retry_budget.tokens,
            "journal_seq": self.state.last_seq,
            "stored_results": self.store.num_results(),
            "memory": memory,
            "batch": self.broker.stats(),
        }

    def _publish_health(self) -> None:
        health = self.health()
        # {"health": ..., "jobs": [row, ...]} assembled from per-job
        # encoded rows; a row is re-encoded only when one of its fields
        # was assigned since it was last encoded
        rows = []
        for jid in self.state.order:
            job = self.state.jobs[jid]
            if job._row_stale or jid not in self._status_rows:
                self._status_rows[jid] = json.dumps(job.to_dict())
                object.__setattr__(job, "_row_stale", False)
            rows.append(self._status_rows[jid])
        atomic_write(
            os.path.join(self.state_dir, "status.json"),
            '{"health": %s, "jobs": [%s]}' % (json.dumps(health), ", ".join(rows)),
        )
        if obs.enabled():
            # per-tenant live-state gauges; only non-terminal states are
            # interesting live, and pairs that vanished since the last
            # publish are explicitly zeroed (a drained tenant's queue
            # gauge must read 0, not its last value forever)
            current: set = set()
            for tenant, states in health["tenants"].items():
                for state in (JobState.QUEUED, JobState.RUNNING):
                    count = states.get(state, 0)
                    if count:
                        current.add((tenant, state))
                        obs.gauge_set(
                            "repro_serve_tenant_jobs",
                            float(count),
                            help="Live (non-terminal) jobs by tenant and state",
                            labels={"tenant": tenant, "state": state},
                        )
            for tenant, state in self._published_tenant_states - current:
                obs.gauge_set(
                    "repro_serve_tenant_jobs",
                    0.0,
                    labels={"tenant": tenant, "state": state},
                )
            self._published_tenant_states = current


def load_state_view(state_dir: str) -> Dict[str, Any]:
    """Read-only snapshot for ``repro status``: journal fold + the last
    published health, without constructing a server."""
    journal = Journal(os.path.join(state_dir, "journal.jsonl"))
    state = _ServerState()
    for rec in journal.replay():
        state.apply(rec)
    health: Optional[Dict[str, Any]] = None
    status_path = os.path.join(state_dir, "status.json")
    if os.path.isfile(status_path):
        try:
            with open(status_path) as fh:
                health = json.load(fh).get("health")
        except (json.JSONDecodeError, OSError):
            health = None
    return {
        "jobs": [state.jobs[jid].to_dict() for jid in state.order],
        "by_state": dict(state.counts),
        "draining": state.draining,
        "lost_ranks": sorted(state.lost_ranks),
        "journal_seq": state.last_seq,
        "health": health,
    }
