"""Circuit IR, gate library, Pauli algebra, compiled observables.

This subpackage plays the role the XACC framework plays in the paper:
the hardware-agnostic program representation sitting between algorithm
generators (ansatz builders, observable construction) and execution
backends (the simulators in ``repro.sim`` / ``repro.hpc``).
"""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "circuit": ["Circuit"],
        "gates": ["Gate", "Parameter", "GATE_SET", "gate_matrix"],
        "pauli": ["PauliString", "PauliSum"],
        "compiled": ["CompiledPauliSum", "compile_observable"],
        "library": [
            "qft",
            "inverse_qft",
            "ghz",
            "hardware_efficient_ansatz",
            "trotter_evolution",
            "controlled_evolution",
            "controlled_pauli_exponential",
        ],
    },
)
