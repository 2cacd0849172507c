"""Simulated MPI-style communicator with traffic accounting.

The real NWQ-Sim distributes the state vector over GPUs with
MPI/NVSHMEM.  Here every rank's data lives in one process, but all
inter-rank data movement is *routed through* ``SimComm`` using an
mpi4py-like buffer interface (pairwise ``exchange``, ``allreduce``,
``gather``), so

* the distributed algorithm is expressed exactly as it would be with
  mpi4py (ranks only touch their own slice + explicitly received
  buffers), and
* every message and byte is tallied, which the performance model
  (``repro.hpc.perfmodel``) converts into simulated wall-clock for the
  scaling studies.

Fault tolerance: a :class:`repro.hpc.faults.FaultInjector` can be
attached to inject rank crashes, transient message drops, payload
corruption (caught by a receiver-side checksum), and stragglers into
the exchange/allreduce paths.  Transient faults are survived by an
optional :class:`repro.utils.retry.RetryPolicy` whose backoff advances
a simulated clock; retry traffic and recovery latency are surfaced in
``CommStats`` next to the byte counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.obs.perf import RANK_COMM_COUNTER
from repro.hpc.faults import FaultInjector, RankFailure, TransientCommError
from repro.hpc.perfmodel import SimulatedClock
from repro.utils.retry import RetryPolicy

__all__ = ["CommStats", "SimComm"]


@dataclass
class CommStats:
    """Aggregate communication counters.

    Next to the aggregates, a per-pair ledger (``"src->dst"`` string
    keys, JSON-friendly) records every point-to-point message so the
    performance observatory can reconstruct the rank x rank
    communication matrix; ``pair_*`` totals always equal the
    ``point_to_point_*`` aggregates.
    """

    point_to_point_messages: int = 0
    point_to_point_bytes: int = 0
    allreduce_calls: int = 0
    allreduce_bytes: int = 0
    gather_calls: int = 0
    gather_bytes: int = 0
    # fault/recovery counters
    transient_errors: int = 0
    corrupted_messages: int = 0
    straggler_ops: int = 0
    retries: int = 0
    retry_backoff_s: float = 0.0
    # per-fault-kind breakdowns (kind -> count), mirrored as labelled
    # ``repro.obs`` counters so a health view can tell transient
    # exchange faults from corruption from stragglers at a glance
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    retries_by_kind: Dict[str, int] = field(default_factory=dict)
    # rank x rank point-to-point ledger ("src->dst" -> count)
    pair_messages: Dict[str, int] = field(default_factory=dict)
    pair_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.point_to_point_bytes + self.allreduce_bytes + self.gather_bytes

    def record_message(self, src: int, dst: int, nbytes: int) -> None:
        """Tally one point-to-point message in both the aggregate and
        the per-pair ledger."""
        self.point_to_point_messages += 1
        self.point_to_point_bytes += nbytes
        key = f"{src}->{dst}"
        self.pair_messages[key] = self.pair_messages.get(key, 0) + 1
        self.pair_bytes[key] = self.pair_bytes.get(key, 0) + nbytes

    def reset(self) -> None:
        self.point_to_point_messages = 0
        self.point_to_point_bytes = 0
        self.allreduce_calls = 0
        self.allreduce_bytes = 0
        self.gather_calls = 0
        self.gather_bytes = 0
        self.transient_errors = 0
        self.corrupted_messages = 0
        self.straggler_ops = 0
        self.retries = 0
        self.retry_backoff_s = 0.0
        self.faults_by_kind.clear()
        self.retries_by_kind.clear()
        self.pair_messages.clear()
        self.pair_bytes.clear()

    def record_fault(self, kind: str) -> None:
        """Tally one observed fault of ``kind`` in the per-kind ledger."""
        self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1


class SimComm:
    """A communicator over ``num_ranks`` simulated ranks.

    ``fault_injector`` and ``retry_policy`` are both optional; without
    them the communicator is the original happy-path implementation.
    With an injector but no retry policy, transient faults propagate
    to the caller; with both, transients are retried (retransmitted
    bytes are re-counted — retry traffic is real traffic) and only
    exhaustion or a rank crash escalates.
    """

    def __init__(
        self,
        num_ranks: int,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        clock: Optional[SimulatedClock] = None,
    ):
        if num_ranks < 1 or (num_ranks & (num_ranks - 1)) != 0:
            raise ValueError("num_ranks must be a power of two")
        self.num_ranks = num_ranks
        self.stats = CommStats()
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.clock = clock if clock is not None else SimulatedClock()

    # -- fault/retry plumbing ---------------------------------------------------

    def _with_retry(self, attempt: Callable[[], object]) -> object:
        """Run one comm operation, retrying transient faults when a
        policy is attached.  ``RetryExhaustedError`` (policy attached)
        or ``TransientCommError`` (no policy) escalates to the caller."""
        if self.fault_injector is None:
            return attempt()

        def counted() -> object:
            try:
                return attempt()
            except TransientCommError as err:
                self.stats.transient_errors += 1
                self._note_fault(getattr(err, "kind", "transient_exchange"))
                raise
            except RankFailure as err:
                self._note_fault("rank_crash")
                raise err

        if self.retry_policy is None:
            return counted()
        return self.retry_policy.call(
            counted,
            retry_on=(TransientCommError,),
            clock=self.clock,
            on_retry=self._on_retry,
        )

    def _note_fault(self, kind: str) -> None:
        """Per-kind fault bookkeeping: CommStats ledger + labelled
        obs counter (``repro_comm_faults_total{kind=...}``)."""
        self.stats.record_fault(kind)
        if obs.enabled():
            obs.inc(
                "repro_comm_faults_total",
                help="Comm-layer faults observed, by fault kind",
                labels={"kind": kind},
            )

    def _on_retry(self, attempt: int, delay: float, error: BaseException) -> None:
        self.stats.retries += 1
        self.stats.retry_backoff_s += delay
        kind = getattr(error, "kind", "transient_exchange")
        self.stats.retries_by_kind[kind] = (
            self.stats.retries_by_kind.get(kind, 0) + 1
        )
        if obs.enabled():
            obs.inc(
                "repro_comm_retries_by_kind_total",
                help="Comm-op retries, by the fault kind that forced them",
                labels={"kind": kind},
            )

    def _attribute_rank_time(
        self, seconds: float, participants: Optional[Sequence[int]] = None
    ) -> "List[float]":
        """Charge one collective's wall time to every participating
        rank (all ranks block in the operation) via the rank-labelled
        comm-seconds counter; returns the per-rank second vector for
        span attribution.  Only called with observability enabled."""
        ranks = range(self.num_ranks) if participants is None else participants
        per_rank = [0.0] * self.num_ranks
        for k in ranks:
            per_rank[k] = seconds
            obs.inc(
                RANK_COMM_COUNTER,
                seconds,
                help="Wall seconds each rank spent inside comm collectives",
                labels={"rank": str(k)},
            )
        return per_rank

    # -- point to point ---------------------------------------------------------

    def exchange(
        self, buffers: Sequence[Optional[np.ndarray]], partners: Sequence[int]
    ) -> List[Optional[np.ndarray]]:
        """Pairwise sendrecv: rank k sends ``buffers[k]`` to
        ``partners[k]`` and receives what its partner sent.

        Partnerships must be symmetric (partners[partners[k]] == k).
        ``None`` buffers mean the rank sits out this round.
        """
        if len(buffers) != self.num_ranks or len(partners) != self.num_ranks:
            raise ValueError("one buffer and partner per rank required")
        if not obs.enabled():
            return self._with_retry(lambda: self._exchange_attempt(buffers, partners))
        bytes_before = self.stats.point_to_point_bytes
        with obs.span("comm.exchange", category="comm", ranks=self.num_ranks) as sp:
            t0 = time.perf_counter()
            out = self._with_retry(lambda: self._exchange_attempt(buffers, partners))
            dt = time.perf_counter() - t0
        participants = [k for k, b in enumerate(buffers) if b is not None]
        sp.set_attribute("rank_comm_s", self._attribute_rank_time(dt, participants))
        moved = self.stats.point_to_point_bytes - bytes_before
        sp.set_attribute("bytes", moved)
        sp.set_attribute("sim_time_s", self.clock.now)
        return out

    def _exchange_attempt(
        self, buffers: Sequence[Optional[np.ndarray]], partners: Sequence[int]
    ) -> List[Optional[np.ndarray]]:
        payloads: Sequence[Optional[np.ndarray]] = buffers
        if self.fault_injector is not None:
            op = self.fault_injector.next_comm_op()
            multiplier = self.fault_injector.check_comm_faults(op, "exchange")
            if multiplier > 1.0:
                self.stats.straggler_ops += 1
                self._note_fault("straggler")
            payloads, detectable = self.fault_injector.corrupt_payloads(op, buffers)
            if detectable:
                # the garbled message still crossed the wire before the
                # checksum rejected it
                self.stats.corrupted_messages += 1
                for k, (buf, p) in enumerate(zip(payloads, partners)):
                    if buf is not None and p != k:
                        self.stats.record_message(k, p, buf.nbytes)
                raise TransientCommError(
                    "checksum mismatch on exchanged slice", kind="corruption"
                )
        received: List[Optional[np.ndarray]] = [None] * self.num_ranks
        for k, (buf, p) in enumerate(zip(payloads, partners)):
            if buf is None:
                continue
            if p == k:
                received[k] = buf
                continue
            if partners[p] != k:
                raise ValueError(f"asymmetric partnership: {k}->{p}, {p}->{partners[p]}")
            received[p] = buf
            self.stats.record_message(k, p, buf.nbytes)
        return received

    # -- collectives ----------------------------------------------------------------

    def allreduce(self, values: Sequence[complex]) -> complex:
        """Sum a per-rank scalar across ranks (tree allreduce model)."""
        if len(values) != self.num_ranks:
            raise ValueError("one value per rank required")
        if not obs.enabled():
            return self._with_retry(lambda: self._allreduce_attempt(values))
        bytes_before = self.stats.allreduce_bytes
        with obs.span("comm.allreduce", category="comm", ranks=self.num_ranks) as sp:
            t0 = time.perf_counter()
            out = self._with_retry(lambda: self._allreduce_attempt(values))
            dt = time.perf_counter() - t0
        sp.set_attribute("rank_comm_s", self._attribute_rank_time(dt))
        self._annotate_allreduce(sp, bytes_before)
        return out

    def _allreduce_attempt(self, values: Sequence[complex]) -> complex:
        if self.fault_injector is not None:
            op = self.fault_injector.next_comm_op()
            if self.fault_injector.check_comm_faults(op, "allreduce") > 1.0:
                self.stats.straggler_ops += 1
                self._note_fault("straggler")
        total = complex(np.sum(np.asarray(values, dtype=np.complex128)))
        self.stats.allreduce_calls += 1
        # tree: 2 * log2(R) scalar messages of 16 bytes
        rounds = max(1, int(np.log2(self.num_ranks))) if self.num_ranks > 1 else 0
        self.stats.allreduce_bytes += 16 * 2 * rounds * max(1, self.num_ranks // 2)
        return total

    def allreduce_array(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Elementwise-sum arrays across ranks."""
        if len(arrays) != self.num_ranks:
            raise ValueError("one array per rank required")
        if not obs.enabled():
            return self._with_retry(lambda: self._allreduce_array_attempt(arrays))
        bytes_before = self.stats.allreduce_bytes
        with obs.span("comm.allreduce_array", category="comm", ranks=self.num_ranks) as sp:
            t0 = time.perf_counter()
            out = self._with_retry(lambda: self._allreduce_array_attempt(arrays))
            dt = time.perf_counter() - t0
        sp.set_attribute("rank_comm_s", self._attribute_rank_time(dt))
        self._annotate_allreduce(sp, bytes_before)
        return out

    def _allreduce_array_attempt(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        if self.fault_injector is not None:
            op = self.fault_injector.next_comm_op()
            if self.fault_injector.check_comm_faults(op, "allreduce") > 1.0:
                self.stats.straggler_ops += 1
                self._note_fault("straggler")
        out = np.sum(np.stack(arrays), axis=0)
        self.stats.allreduce_calls += 1
        rounds = max(1, int(np.log2(self.num_ranks))) if self.num_ranks > 1 else 0
        self.stats.allreduce_bytes += out.nbytes * 2 * rounds
        return out

    def _annotate_allreduce(self, sp, bytes_before: int) -> None:
        moved = self.stats.allreduce_bytes - bytes_before
        sp.set_attribute("bytes", moved)
        sp.set_attribute("sim_time_s", self.clock.now)

    def gather(self, slices: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank slices on a (virtual) root."""
        if len(slices) != self.num_ranks:
            raise ValueError("one slice per rank required")
        with obs.span("comm.gather", category="comm", ranks=self.num_ranks) as sp:
            t0 = time.perf_counter()
            out = np.concatenate(list(slices))
            dt = time.perf_counter() - t0
        if obs.enabled():
            sp.set_attribute("rank_comm_s", self._attribute_rank_time(dt))
        self.stats.gather_calls += 1
        self.stats.gather_bytes += sum(s.nbytes for s in slices[1:])
        return out
