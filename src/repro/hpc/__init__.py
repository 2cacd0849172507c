"""HPC execution substrate: simulated communicator, distributed
partitioned statevector, machine performance models, batch scheduler."""

from repro.hpc.cluster import MACHINES, Machine, get_machine
from repro.hpc.comm import CommStats, SimComm
from repro.hpc.distributed import DistributedStatevector
from repro.hpc.faults import (
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultLedger,
    FaultSpec,
    RankFailure,
    TransientCommError,
)
from repro.hpc.perfmodel import (
    SimulatedClock,
    SimulatedTime,
    campaign_runtime_with_failures,
    checkpoint_write_time,
    count_exchanges,
    count_expectation_exchanges,
    estimate_circuit_time,
    max_qubits_for_memory,
    optimal_checkpoint_period,
    strong_scaling_curve,
    weak_scaling_curve,
)
from repro.hpc.ensemble import EnsembleExecutor, EnsembleResult
from repro.hpc.scheduler import BatchScheduler, Job, Schedule

__all__ = [
    "SimComm",
    "CommStats",
    "DistributedStatevector",
    "Machine",
    "MACHINES",
    "get_machine",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultLedger",
    "FaultSpec",
    "RankFailure",
    "TransientCommError",
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
    "BatchScheduler",
    "Job",
    "Schedule",
    "EnsembleExecutor",
    "EnsembleResult",
]
