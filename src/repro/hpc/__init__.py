"""HPC execution substrate: simulated communicator, distributed
partitioned statevector, machine performance models, batch scheduler."""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "comm": ["SimComm", "CommStats"],
        "distributed": ["DistributedStatevector"],
        "cluster": ["Machine", "MACHINES", "get_machine"],
        "faults": [
            "FaultError",
            "FaultEvent",
            "FaultInjector",
            "FaultLedger",
            "FaultSpec",
            "RankFailure",
            "TransientCommError",
        ],
        "perfmodel": [
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
        ],
        "scheduler": ["BatchScheduler", "Job", "Schedule"],
    },
)
