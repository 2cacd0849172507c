"""Batch scheduling of independent circuits across ranks (paper §6.2).

The paper lists batch execution — distributing independent circuits
(Pauli-term evaluations, parameter-sweep VQE instances) over GPUs — as
future work.  We implement it: ``BatchScheduler`` assigns jobs to
ranks with the Longest-Processing-Time (LPT) greedy rule (4/3-optimal
for makespan) using per-job cost estimates from the performance model,
and reports the resulting makespan, per-rank utilization, and speedup
over serial execution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.obs.perf import RANK_SCHED_BUSY_COUNTER
from repro.hpc.cluster import Machine, get_machine
from repro.hpc.perfmodel import estimate_circuit_time

__all__ = ["Job", "Schedule", "BatchScheduler"]


@dataclass
class Job:
    """One independent simulation job.

    ``mem_bytes`` is the capacity model's predicted peak resident
    bytes; 0 (the default) means unknown, and byte-aware placement
    treats the job as free.
    """

    name: str
    num_qubits: int
    num_gates: int
    mem_bytes: int = 0


@dataclass
class Schedule:
    """Assignment of jobs to ranks with simulated timing.

    ``failed_ranks`` lists ranks that died and were degraded out; the
    makespan/speedup then describe the surviving ranks (including
    any work redone on survivors).
    """

    assignments: Dict[int, List[Job]]
    rank_times: Dict[int, float]
    makespan: float
    serial_time: float
    failed_ranks: List[int] = field(default_factory=list)
    rank_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def num_survivors(self) -> int:
        return len(self.rank_times)

    @property
    def speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan > 0 else 1.0

    @property
    def utilization(self) -> float:
        """Mean busy fraction across ranks."""
        if not self.rank_times or self.makespan == 0:
            return 1.0
        return sum(self.rank_times.values()) / (
            len(self.rank_times) * self.makespan
        )


class BatchScheduler:
    """LPT greedy scheduler over a homogeneous rank pool.

    Each job runs single-rank (each circuit fits one device; that is
    the batching regime of §6.2 — many small circuits, not one giant
    partitioned state).
    """

    def __init__(self, num_ranks: int, machine: Union[Machine, str] = "perlmutter"):
        if num_ranks < 1:
            raise ValueError("need at least one rank")
        self.num_ranks = num_ranks
        self.machine = get_machine(machine) if isinstance(machine, str) else machine
        # (gates, qubits) -> cost: a long-lived scheduler (the campaign
        # server's) prices the same job shapes tick after tick
        self._costs: Dict[Tuple[int, int], float] = {}

    def job_cost(self, job: Job) -> float:
        key = (job.num_gates, job.num_qubits)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = estimate_circuit_time(
                job.num_gates, job.num_qubits, 1, self.machine
            ).total
        return cost

    def schedule(
        self,
        jobs: Sequence[Job],
        available_ranks: Optional[Sequence[int]] = None,
        rank_capacity_bytes: Optional[int] = None,
    ) -> Schedule:
        """LPT-schedule ``jobs`` over ``available_ranks`` (all ranks by
        default — pass the survivors to plan around known-dead ranks).

        With ``rank_capacity_bytes`` the fill is (time, bytes)-aware:
        byte load breaks time ties, and a rank whose accumulated
        predicted bytes would exceed the capacity is skipped while any
        other rank has headroom (overcommitting the least-loaded rank
        only when none does — jobs run one at a time, so overcommit
        costs queueing, not correctness)."""
        ranks = (
            list(range(self.num_ranks))
            if available_ranks is None
            else sorted(set(available_ranks))
        )
        if not ranks:
            raise ValueError("no surviving ranks to schedule on")
        if any(k < 0 or k >= self.num_ranks for k in ranks):
            raise ValueError("available_ranks outside the rank pool")
        with obs.span(
            "sched.schedule", jobs=len(jobs), ranks=len(ranks)
        ) as sp:
            costs = [(self.job_cost(j), j) for j in jobs]
            serial = sum(c for c, _ in costs)
            assignments: Dict[int, List[Job]] = {k: [] for k in ranks}
            rank_times: Dict[int, float] = {k: 0.0 for k in ranks}
            rank_bytes: Dict[int, int] = {k: 0 for k in ranks}
            self._lpt_fill(
                costs, assignments, rank_times, rank_bytes, rank_capacity_bytes
            )
        makespan = max(rank_times.values()) if rank_times else 0.0
        sp.set_attribute("makespan_s", makespan)
        if obs.enabled():
            self._emit_rank_metrics(rank_times)
        failed = [
            k for k in range(self.num_ranks) if k not in set(ranks)
        ]
        return Schedule(
            assignments=assignments,
            rank_times=rank_times,
            makespan=makespan,
            serial_time=serial,
            failed_ranks=failed,
            rank_bytes=rank_bytes,
        )

    def schedule_groups(
        self,
        groups: Sequence[Tuple[Sequence[Job], int]],
        available_ranks: Optional[Sequence[int]] = None,
        rank_capacity_bytes: Optional[int] = None,
    ) -> Schedule:
        """LPT over *batch groups* instead of individual jobs.

        ``groups`` is a sequence of ``(jobs, group_bytes)`` pairs; all
        jobs of one group land on ONE rank (they must, to share a
        batched (B, 2^n) amplitude block), and the group is priced as a
        whole: time = sum of member costs (the batch still executes
        every row's gates), bytes = ``group_bytes`` (the capacity
        model's batched estimate, far below the sum of per-job
        estimates because plan/observable/Hamiltonian are shared).

        Implemented by wrapping each group in a meta-:class:`Job` fed
        through the ordinary (time, bytes)-aware LPT fill, then
        expanding the placed meta-jobs back into their members.
        """
        metas: List[Job] = []
        members: Dict[str, List[Job]] = {}
        for i, (jobs, group_bytes) in enumerate(groups):
            jobs = list(jobs)
            if not jobs:
                continue
            meta = Job(
                name=f"group:{i}",
                num_qubits=max(j.num_qubits for j in jobs),
                num_gates=sum(j.num_gates for j in jobs),
                mem_bytes=max(0, int(group_bytes)),
            )
            metas.append(meta)
            members[meta.name] = jobs
        placed = self.schedule(
            metas,
            available_ranks=available_ranks,
            rank_capacity_bytes=rank_capacity_bytes,
        )
        assignments = {
            k: [job for meta in metas_on_rank for job in members[meta.name]]
            for k, metas_on_rank in placed.assignments.items()
        }
        return Schedule(
            assignments=assignments,
            rank_times=placed.rank_times,
            makespan=placed.makespan,
            serial_time=placed.serial_time,
            failed_ranks=placed.failed_ranks,
            rank_bytes=placed.rank_bytes,
        )

    @staticmethod
    def _emit_rank_metrics(
        rank_times: Dict[int, float],
        previous: Optional[Dict[int, float]] = None,
    ) -> None:
        """Per-rank simulated busy seconds, tagged with the rank id.
        ``previous`` subtracts loads already emitted (rescheduling adds
        on top of an existing schedule's counters)."""
        for k, busy in rank_times.items():
            delta = busy - (previous or {}).get(k, 0.0)
            if delta > 0.0:
                obs.inc(
                    RANK_SCHED_BUSY_COUNTER,
                    delta,
                    help="Simulated seconds of scheduled work per rank",
                    labels={"rank": str(k)},
                )

    @staticmethod
    def _lpt_fill(
        costs: Sequence[Tuple[float, Job]],
        assignments: Dict[int, List[Job]],
        rank_times: Dict[int, float],
        rank_bytes: Optional[Dict[int, int]] = None,
        rank_capacity_bytes: Optional[int] = None,
    ) -> None:
        """(time, bytes)-aware LPT: longest job first onto the
        least-loaded rank (min-heap over (time, bytes, rank)), starting
        from the loads already in ``rank_times``/``rank_bytes``.  With
        a byte capacity, ranks past it are skipped while another has
        headroom; when none does, the least-loaded rank overcommits."""
        if rank_bytes is None:
            rank_bytes = {k: 0 for k in assignments}
        heap: List[Tuple[float, int, int]] = [
            (rank_times[k], rank_bytes.get(k, 0), k) for k in sorted(assignments)
        ]
        heapq.heapify(heap)
        for cost, job in sorted(costs, key=lambda cj: -cj[0]):
            need = max(0, job.mem_bytes)
            skipped: List[Tuple[float, int, int]] = []
            chosen: Optional[Tuple[float, int, int]] = None
            while heap:
                load, nbytes, k = heapq.heappop(heap)
                if (
                    rank_capacity_bytes is None
                    or need == 0
                    or nbytes + need <= rank_capacity_bytes
                ):
                    chosen = (load, nbytes, k)
                    break
                skipped.append((load, nbytes, k))
            if chosen is None:
                chosen = skipped.pop(0)  # pops in heap order: least loaded
            for entry in skipped:
                heapq.heappush(heap, entry)
            load, nbytes, k = chosen
            assignments[k].append(job)
            load += cost
            nbytes += need
            rank_times[k] = load
            rank_bytes[k] = nbytes
            heapq.heappush(heap, (load, nbytes, k))

    def reschedule_after_failure(
        self,
        schedule: Schedule,
        dead_rank: int,
        completed: Sequence[str] = (),
    ) -> Schedule:
        """Degrade a schedule after ``dead_rank`` fails mid-batch.

        Jobs already ``completed`` (by name) on the dead rank keep
        their cost sunk into the makespan baseline; its unfinished jobs
        are re-LPT'd onto the survivors *on top of* their existing
        loads.  The returned schedule's speedup therefore reflects
        both the lost rank and the redone work.
        """
        if dead_rank not in schedule.assignments:
            raise ValueError(f"rank {dead_rank} is not part of this schedule")
        done = set(completed)
        orphans = [j for j in schedule.assignments[dead_rank] if j.name not in done]
        assignments = {
            k: list(js)
            for k, js in schedule.assignments.items()
            if k != dead_rank
        }
        rank_times = {
            k: t for k, t in schedule.rank_times.items() if k != dead_rank
        }
        rank_bytes = {
            k: b for k, b in schedule.rank_bytes.items() if k != dead_rank
        }
        if not assignments:
            raise ValueError("no surviving ranks to reschedule on")
        previous = dict(rank_times)
        with obs.span(
            "sched.reschedule_after_failure",
            dead_rank=dead_rank,
            orphans=len(orphans),
        ):
            self._lpt_fill(
                [(self.job_cost(j), j) for j in orphans],
                assignments,
                rank_times,
                rank_bytes,
            )
        if obs.enabled():
            self._emit_rank_metrics(rank_times, previous)
        makespan = max(rank_times.values()) if rank_times else 0.0
        # work finished on the dead rank before it died still bounds the
        # makespan from below
        sunk = sum(
            self.job_cost(j)
            for j in schedule.assignments[dead_rank]
            if j.name in done
        )
        makespan = max(makespan, sunk)
        return Schedule(
            assignments=assignments,
            rank_times=rank_times,
            makespan=makespan,
            serial_time=schedule.serial_time,
            failed_ranks=sorted(set(schedule.failed_ranks) | {dead_rank}),
            rank_bytes=rank_bytes,
        )
