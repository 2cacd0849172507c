"""Deterministic fault injection for the simulated HPC substrate.

Multi-hour distributed VQE campaigns on shared machines meet rank
crashes, dropped/corrupted messages, stragglers, and walltime kills as
a matter of course.  This module makes those events *injectable* so
the recovery machinery (``repro.utils.retry``, ``repro.core.campaign``,
scheduler degradation) is testable and benchmarkable:

* ``FaultSpec`` declares one fault source — a rank crash at a given
  step or with a per-operation probability, a transient exchange
  failure, message corruption via bit flips, or a straggler latency
  multiplier.
* ``FaultInjector`` owns a seeded RNG and evaluates every spec in
  declaration order at each hook point, so a given (specs, seed) pair
  replays the exact same fault sequence on every run.
* Every injected event lands in a ``FaultLedger`` — the fault-side
  sibling of the ``CommStats`` byte ledger — so tests can assert that
  each fault was seen, survived, or escalated.

Hook points: ``SimComm.exchange`` / ``SimComm.allreduce`` (comm scope),
``DistributedStatevector.apply_gate`` (gate scope), the
``CampaignRunner`` iteration loop (campaign scope), and
``CampaignServer`` job dispatch (batch scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs import events as obs_events

__all__ = [
    "FaultError",
    "RankFailure",
    "TransientCommError",
    "FaultSpec",
    "FaultEvent",
    "FaultLedger",
    "FaultInjector",
]

KINDS = ("rank_crash", "transient_exchange", "corruption", "straggler")
SCOPES = ("comm", "gate", "campaign", "batch")


class FaultError(RuntimeError):
    """Base class for injected faults."""


class RankFailure(FaultError):
    """A rank died.  Not retryable at the comm layer — recovery means
    rolling back to a checkpoint (campaign scope) or rescheduling the
    rank's jobs onto survivors (batch scope)."""

    def __init__(self, rank: int, step: int, scope: str):
        super().__init__(f"rank {rank} crashed at {scope} step {step}")
        self.rank = rank
        self.step = step
        self.scope = scope


class TransientCommError(FaultError):
    """A recoverable communication fault (dropped or corrupted
    message).  The exchange path retries these under a
    :class:`repro.utils.retry.RetryPolicy`.

    ``kind`` tags the underlying fault (``transient_exchange`` for a
    dropped message, ``corruption`` for a checksum-rejected payload)
    so retry metrics can be attributed per fault kind.
    """

    def __init__(self, message: str, kind: str = "transient_exchange"):
        super().__init__(message)
        self.kind = kind


@dataclass
class FaultSpec:
    """One declarative fault source.

    Parameters
    ----------
    kind:
        ``rank_crash`` | ``transient_exchange`` | ``corruption`` |
        ``straggler``.
    rank:
        Affected rank (``None`` = rank 0 for crashes, all ranks for
        corruption/stragglers).
    at_step:
        Deterministic trigger: fire when the scope's step counter
        equals this value (comm-op index, gate index, campaign
        iteration, or batch job index depending on ``scope``).
    probability:
        Stochastic trigger: fire on each step with this probability
        (seeded draw; mutually composable with ``at_step``).
    scope:
        Where the spec is evaluated: ``comm`` (default), ``gate``,
        ``campaign``, or ``batch``.
    bit_flips:
        Corruption only — number of bits flipped in the payload.
    detectable:
        Corruption only — if True (default) the receiver's checksum
        catches it and the exchange raises ``TransientCommError``
        (i.e. retransmission recovers); if False the corrupted payload
        is silently delivered.
    latency_multiplier:
        Straggler only — multiplier on the op's modeled latency.
    max_triggers:
        Stop firing after this many events (default 1 for crashes —
        a dead rank only dies once — unlimited otherwise).
    """

    kind: str
    rank: Optional[int] = None
    at_step: Optional[int] = None
    probability: float = 0.0
    scope: str = "comm"
    bit_flips: int = 1
    detectable: bool = True
    latency_multiplier: float = 4.0
    max_triggers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}; one of {SCOPES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.at_step is None and self.probability == 0.0:
            raise ValueError("spec needs at_step and/or probability > 0")
        if self.max_triggers is None and self.kind == "rank_crash":
            self.max_triggers = 1


@dataclass
class FaultEvent:
    """One injected fault occurrence."""

    kind: str
    scope: str
    step: int
    rank: Optional[int]
    detail: str = ""

    def __repr__(self) -> str:
        where = f"rank={self.rank}" if self.rank is not None else "rank=*"
        tail = f" {self.detail}" if self.detail else ""
        return f"[{self.kind} {self.scope}:{self.step} {where}{tail}]"


@dataclass
class FaultLedger:
    """Append-only record of every injected event."""

    events: List[FaultEvent] = field(default_factory=list)

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def summary(self) -> str:
        if not self.events:
            return "fault ledger: empty"
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.by_kind().items()))
        return f"fault ledger: {len(self.events)} events ({parts})"


class FaultInjector:
    """Evaluates :class:`FaultSpec` s at each substrate hook point.

    The injector is deterministic: specs are checked in declaration
    order, every probabilistic spec consumes exactly one RNG draw per
    step it is live, and trigger exhaustion (``max_triggers``) follows
    from the event sequence alone.  Replaying the same (specs, seed)
    therefore replays the same faults — the property the acceptance
    scenario (crash + recovery reproducibility) rests on.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.ledger = FaultLedger()
        self.crashed_ranks: set = set()
        self.comm_ops = 0
        self._trigger_counts = [0] * len(self.specs)

    # -- spec evaluation -------------------------------------------------------

    def _live(self, i: int, spec: FaultSpec) -> bool:
        return (
            spec.max_triggers is None
            or self._trigger_counts[i] < spec.max_triggers
        )

    def _fires(self, i: int, spec: FaultSpec, step: int) -> bool:
        """One deterministic trigger evaluation (consumes at most one
        RNG draw)."""
        if not self._live(i, spec):
            return False
        if spec.at_step is not None and spec.at_step == step:
            return True
        if spec.probability > 0.0:
            return bool(self.rng.random() < spec.probability)
        return False

    def _record(
        self, i: int, spec: FaultSpec, step: int, rank: Optional[int], detail: str
    ) -> FaultEvent:
        self._trigger_counts[i] += 1
        event = FaultEvent(
            kind=spec.kind, scope=spec.scope, step=step, rank=rank, detail=detail
        )
        self.ledger.record(event)
        # every injected fault also lands on the structured event bus
        # (constant-time no-op when none is installed)
        obs_events.emit(
            "fault.injected",
            kind=spec.kind,
            scope=spec.scope,
            step=step,
            rank=rank,
            detail=detail,
        )
        return event

    # -- comm-scope hooks (called by SimComm) -----------------------------------

    def next_comm_op(self) -> int:
        """Allocate the next comm-op index (each retry attempt is a new
        op — retransmissions redraw their fault dice)."""
        op = self.comm_ops
        self.comm_ops += 1
        return op

    def check_comm_faults(self, op: int, op_name: str) -> float:
        """Evaluate crash / transient / straggler specs for one comm
        op.  Returns the straggler latency multiplier (1.0 if none);
        raises :class:`RankFailure` or :class:`TransientCommError`."""
        multiplier = 1.0
        for i, spec in enumerate(self.specs):
            if spec.scope != "comm":
                continue
            if spec.kind == "rank_crash" and self._fires(i, spec, op):
                rank = spec.rank if spec.rank is not None else 0
                self._record(i, spec, op, rank, f"during {op_name}")
                self.crashed_ranks.add(rank)
                raise RankFailure(rank, op, "comm")
            if spec.kind == "transient_exchange" and self._fires(i, spec, op):
                self._record(i, spec, op, spec.rank, f"{op_name} dropped")
                raise TransientCommError(
                    f"transient fault: {op_name} (comm op {op}) dropped"
                )
            if spec.kind == "straggler" and self._fires(i, spec, op):
                self._record(
                    i, spec, op, spec.rank, f"x{spec.latency_multiplier:g} latency"
                )
                multiplier = max(multiplier, spec.latency_multiplier)
        return multiplier

    def corrupt_payloads(
        self, op: int, buffers: Sequence[Optional[np.ndarray]]
    ) -> "tuple[List[Optional[np.ndarray]], bool]":
        """Apply comm-scope corruption specs to a *copy* of the
        payloads.  Returns (possibly corrupted buffers, detectable)
        where ``detectable`` is True when at least one fired spec is
        checksum-detectable (the caller then raises and retries)."""
        fired = False
        detectable = False
        out: List[Optional[np.ndarray]] = list(buffers)
        for i, spec in enumerate(self.specs):
            if spec.scope != "comm" or spec.kind != "corruption":
                continue
            if not self._fires(i, spec, op):
                continue
            targets = (
                [spec.rank]
                if spec.rank is not None
                else [k for k, b in enumerate(out) if b is not None]
            )
            for rank in targets:
                if rank is None or rank >= len(out) or out[rank] is None:
                    continue
                buf = np.array(out[rank], copy=True)
                raw = buf.view(np.uint8)
                if raw.size:
                    for _ in range(max(1, spec.bit_flips)):
                        pos = int(self.rng.integers(raw.size))
                        bit = int(self.rng.integers(8))
                        raw[pos] ^= np.uint8(1 << bit)
                out[rank] = buf
                self._record(
                    i,
                    spec,
                    op,
                    rank,
                    f"{spec.bit_flips} bit(s) flipped"
                    + ("" if spec.detectable else " [undetected]"),
                )
                fired = True
                detectable = detectable or spec.detectable
        return (out, detectable) if fired else (list(buffers), False)

    # -- gate-scope hook (called by DistributedStatevector) -----------------------

    def check_gate_faults(self, gate_index: int) -> None:
        """Crash specs evaluated per applied gate."""
        for i, spec in enumerate(self.specs):
            if spec.scope != "gate" or spec.kind != "rank_crash":
                continue
            if self._fires(i, spec, gate_index):
                rank = spec.rank if spec.rank is not None else 0
                self._record(i, spec, gate_index, rank, "during gate")
                self.crashed_ranks.add(rank)
                raise RankFailure(rank, gate_index, "gate")

    # -- campaign-scope hook (called by CampaignRunner) ----------------------------

    def check_campaign_faults(self, iteration: int) -> None:
        """Crash specs evaluated per campaign iteration / evaluation."""
        for i, spec in enumerate(self.specs):
            if spec.scope != "campaign" or spec.kind != "rank_crash":
                continue
            if self._fires(i, spec, iteration):
                rank = spec.rank if spec.rank is not None else 0
                self._record(i, spec, iteration, rank, "mid-iteration")
                self.crashed_ranks.add(rank)
                raise RankFailure(rank, iteration, "campaign")

    # -- batch-scope hook (called by CampaignServer) ------------------------------

    def check_batch_faults(self, job_index: int, rank: int) -> Optional[int]:
        """Evaluate batch-scope crash specs as job ``job_index`` runs
        on ``rank``.  Returns the rank that died (to be degraded out of
        the schedule) or ``None``; never raises — batch recovery is
        rescheduling, not rollback."""
        for i, spec in enumerate(self.specs):
            if spec.scope != "batch" or spec.kind != "rank_crash":
                continue
            if spec.rank is not None and spec.rank != rank:
                continue
            if self._fires(i, spec, job_index):
                self._record(i, spec, job_index, rank, "job host died")
                self.crashed_ranks.add(rank)
                return rank
        return None
