"""The NWQ-Sim substrate: the statevector simulators, execution plans,
gate fusion, and expectation-value evaluation strategies."""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "statevector": ["StatevectorSimulator"],
        "plan": ["ExecutionPlan", "PlanOp", "compile_circuit"],
        "batched": ["BatchedStatevectorSimulator"],
        "evolution": ["GeneratorEvolution", "apply_pauli_rotation", "terms_commute"],
        "fusion": ["fuse_circuit", "FusionResult"],
        "expectation": [
            "expectation_direct",
            "expectation_basis_rotated",
            "expectation_sampled",
            "basis_change_circuit",
        ],
    },
)
