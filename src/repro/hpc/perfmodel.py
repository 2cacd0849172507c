"""Analytic performance model for distributed statevector simulation.

Statevector gate kernels are memory-bandwidth bound: one gate streams
the full slice (read + write), so

    t_gate_local = 2 * slice_bytes / mem_bandwidth + gate_overhead.

A gate on a global qubit additionally exchanges half the slice with a
partner rank:

    t_exchange = net_latency + (slice_bytes / 2) / net_bandwidth.

From these two costs, published machine parameters (``cluster``), and
the gate/exchange counts of an actual circuit (or an analytic circuit
profile), the model produces simulated wall-clock times whose
*scaling shape* — strong-scaling knees where exchange cost overtakes
kernel cost, weak-scaling plateaus, machine-to-machine ratios — is
what the paper's "scalable on leading HPC systems" claim rests on.
The tests cross-check the model's exchange counts against the real
``DistributedStatevector`` execution engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.hpc.cluster import Machine, get_machine
from repro.ir.circuit import Circuit

__all__ = [
    "SimulatedTime",
    "SimulatedClock",
    "estimate_circuit_time",
    "count_exchanges",
    "count_expectation_exchanges",
    "strong_scaling_curve",
    "weak_scaling_curve",
    "max_qubits_for_memory",
    "checkpoint_write_time",
    "optimal_checkpoint_period",
    "campaign_runtime_with_failures",
]


@dataclass
class SimulatedClock:
    """Monotone simulated wall-clock (seconds).

    The substrate never sleeps: communication costs, retry backoff
    (``repro.utils.retry.RetryPolicy``), straggler penalties, and
    checkpoint writes all *advance* a shared clock instead, so
    recovery latency shows up in the same simulated-seconds currency
    as the scaling model's kernel and exchange times.
    """

    now: float = 0.0

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += seconds

    def reset(self) -> None:
        self.now = 0.0


@dataclass
class SimulatedTime:
    """Decomposed simulated execution time (seconds)."""

    compute: float
    communication: float
    num_local_gate_applications: int
    num_exchanges: int
    num_ranks: int

    @property
    def total(self) -> float:
        return self.compute + self.communication

    @property
    def communication_fraction(self) -> float:
        return self.communication / self.total if self.total > 0 else 0.0


def count_exchanges(circuit: Circuit, num_qubits: int, num_ranks: int) -> int:
    """Exchanges the relocation strategy performs for this circuit.

    Replays the layout bookkeeping of ``DistributedStatevector``
    (without touching amplitudes): a gate on a qubit whose current
    physical position is global costs one exchange per such qubit.
    """
    r = int(math.log2(num_ranks))
    local = num_qubits - r
    layout = list(range(num_qubits))
    cursor = 0
    exchanges = 0
    for gate in circuit.gates:
        involved = set(gate.qubits)
        for q in gate.qubits:
            if layout[q] >= local:
                inv = {p: ql for ql, p in enumerate(layout)}
                victim = None
                for _ in range(local):
                    cand = cursor % local
                    cursor += 1
                    if inv[cand] not in involved:
                        victim = cand
                        break
                assert victim is not None
                ql = inv[victim]  # logical qubit currently in the victim slot
                layout[ql], layout[q] = layout[q], victim
                exchanges += 1
    return exchanges


def count_expectation_exchanges(observable, num_qubits: int, num_ranks: int) -> int:
    """Full-slice exchanges one ``DistributedStatevector.expectation``
    of ``observable`` performs under the identity layout: the distinct
    nonzero global parts ``x >> L`` of its x-masks (every evaluation
    also pays one scalar allreduce).  Pricing the exchanges a *plan*
    performs, and a relocated layout, stay with ROADMAP item 7."""
    local = num_qubits - int(math.log2(num_ranks))
    return len({x >> local for x, _ in observable.terms} - {0})


def estimate_circuit_time(
    circuit_or_gates,
    num_qubits: int,
    num_ranks: int,
    machine: "Machine | str" = "perlmutter",
    exchanges: Optional[int] = None,
) -> SimulatedTime:
    """Simulated wall-clock for one circuit execution.

    ``circuit_or_gates`` is either a :class:`Circuit` (exchanges are
    counted by replaying the layout) or an integer gate count (then
    ``exchanges`` must be given or is estimated as gates * r / n —
    the fraction of gate targets that land on global qubits under a
    uniform-target model).
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    r = int(math.log2(num_ranks))
    if num_ranks != 1 << r:
        raise ValueError("num_ranks must be a power of two")
    if isinstance(circuit_or_gates, Circuit):
        num_gates = len(circuit_or_gates)
        if exchanges is None:
            exchanges = (
                count_exchanges(circuit_or_gates, num_qubits, num_ranks)
                if num_ranks > 1
                else 0
            )
    else:
        num_gates = int(circuit_or_gates)
        if exchanges is None:
            exchanges = int(num_gates * r / max(num_qubits, 1)) if r else 0

    slice_bytes = (1 << (num_qubits - r)) * 16
    t_gate = 2.0 * slice_bytes / machine.mem_bandwidth + machine.gate_overhead
    t_exch = machine.net_latency + (slice_bytes / 2.0) / machine.net_bandwidth
    return SimulatedTime(
        compute=num_gates * t_gate,
        communication=exchanges * t_exch,
        num_local_gate_applications=num_gates,
        num_exchanges=exchanges,
        num_ranks=num_ranks,
    )


def max_qubits_for_memory(machine: "Machine | str", num_ranks: int = 1) -> int:
    """Largest register a machine partition can hold (Fig. 1c logic)."""
    if isinstance(machine, str):
        machine = get_machine(machine)
    total = machine.device_memory * num_ranks
    n = 0
    while (1 << (n + 1)) * 16 <= total:
        n += 1
    return n


def checkpoint_write_time(
    num_qubits: int,
    num_ranks: int,
    machine: "Machine | str" = "perlmutter",
    fs_bandwidth: float = 5e9,
) -> float:
    """Seconds to write one distributed checkpoint.

    Each rank streams its slice to the parallel filesystem
    concurrently (``fs_bandwidth`` is the sustained per-writer
    bandwidth), so the cost is one slice, not the full state — the
    reason per-rank sharded checkpoints are viable at all.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    r = int(math.log2(num_ranks))
    if num_ranks != 1 << r:
        raise ValueError("num_ranks must be a power of two")
    slice_bytes = (1 << (num_qubits - r)) * 16
    return slice_bytes / fs_bandwidth + machine.net_latency


def optimal_checkpoint_period(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Young's first-order optimum tau* = sqrt(2 * C * MTBF).

    Checkpointing more often than this wastes time writing state;
    less often wastes time recomputing lost work after failures.
    """
    if checkpoint_cost_s < 0 or mtbf_s <= 0:
        raise ValueError("need checkpoint_cost_s >= 0 and mtbf_s > 0")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


def campaign_runtime_with_failures(
    work_s: float,
    period_s: float,
    checkpoint_cost_s: float,
    mtbf_s: float,
    restart_cost_s: float = 0.0,
) -> float:
    """Expected campaign wall-clock under random failures (Daly's
    first-order model).

    Useful work ``work_s`` is cut into segments of ``period_s``, each
    followed by a checkpoint of cost ``checkpoint_cost_s``.  Failures
    arrive Poisson with mean interval ``mtbf_s``; each one costs the
    restart plus on average half a period of lost work.  Solving

        T = base + (T / MTBF) * (restart + period/2 + checkpoint/2)

    for T gives the closed form returned here (infinite when the
    failure rate is too high for the chosen period to make progress).
    """
    if work_s <= 0:
        return 0.0
    if period_s <= 0 or mtbf_s <= 0:
        raise ValueError("need period_s > 0 and mtbf_s > 0")
    base = work_s * (1.0 + checkpoint_cost_s / period_s)
    loss_per_failure = restart_cost_s + 0.5 * (period_s + checkpoint_cost_s)
    denom = 1.0 - loss_per_failure / mtbf_s
    if denom <= 0:
        return math.inf
    return base / denom


def strong_scaling_curve(
    num_qubits: int,
    num_gates: int,
    ranks: Sequence[int],
    machine: "Machine | str" = "perlmutter",
) -> Dict[int, SimulatedTime]:
    """Fixed problem, growing partition: the strong-scaling sweep."""
    return {
        R: estimate_circuit_time(num_gates, num_qubits, R, machine) for R in ranks
    }


def weak_scaling_curve(
    base_qubits: int,
    num_gates: int,
    ranks: Sequence[int],
    machine: "Machine | str" = "perlmutter",
) -> Dict[int, SimulatedTime]:
    """Problem grows with the partition (one extra qubit per rank
    doubling): the weak-scaling sweep — the regime that motivates
    distributed simulation in the first place (each rank's slice stays
    constant while total capacity doubles)."""
    out = {}
    for R in ranks:
        n = base_qubits + int(math.log2(R))
        out[R] = estimate_circuit_time(num_gates, n, R, machine)
    return out
