"""The single-device statevector simulator (the NWQ-Sim core).

``StatevectorSimulator`` owns one contiguous 2^n complex128 state
vector ("device memory") and executes circuit IR gate-by-gate with the
vectorized kernels of ``repro.sim.kernels``.  Diagonal gates and
permutation gates take fast paths that avoid the full gather/scatter of
a dense-matrix kernel — the same special-casing NWQ-Sim does on GPU.

The simulator exposes exactly the three capabilities the paper's VQE
mode builds on:

* run a circuit to obtain the post-ansatz state (cached upstream by
  ``repro.core.cache``),
* apply *basis-change* suffixes to a copy of a cached state,
* compute direct expectation values of Pauli observables from the
  amplitudes (``repro.sim.expectation``) without sampling.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.sim import kernels

__all__ = ["StatevectorSimulator"]


class StatevectorSimulator:
    """Dense statevector simulator for up to ~28 qubits on one node.

    Parameters
    ----------
    num_qubits:
        Register width; allocates 2^n complex128 amplitudes.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if num_qubits > 30:
            raise ValueError(
                "refusing to allocate > 16 GiB on one node; use the "
                "distributed backend (repro.hpc) for wider registers"
            )
        self.num_qubits = num_qubits
        self.dim = 1 << num_qubits
        self.state = np.zeros(self.dim, dtype=np.complex128)
        self.state[0] = 1.0
        self.gates_applied = 0
        obs.mem_track(self, "statevector", self.state.nbytes)

    # -- state management ----------------------------------------------------

    def reset(self) -> None:
        """Return to |0...0>."""
        self.state.fill(0)
        self.state[0] = 1.0
        self.gates_applied = 0

    def set_state(self, state: np.ndarray, copy: bool = True) -> None:
        """Load an externally prepared state (e.g. a cached post-ansatz
        state being restored, §4.1.4)."""
        state = np.asarray(state, dtype=np.complex128)
        if state.shape != (self.dim,):
            raise ValueError(
                f"state dimension mismatch: expected shape ({self.dim},), got {state.shape}"
            )
        self.state = state.copy() if copy else state

    def statevector(self, copy: bool = True) -> np.ndarray:
        """The current amplitudes; pass ``copy=False`` to get the live
        buffer (used by the caching layer to avoid duplication)."""
        return self.state.copy() if copy else self.state

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 over all basis states."""
        return np.abs(self.state) ** 2

    # -- execution -------------------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        """Apply one gate instruction in place."""
        self.gates_applied += 1
        kind, payload = kernels.lower_gate(gate.name, gate.params, gate.matrix)
        kernels.apply_op(self.state, kind, payload, gate.qubits, self.num_qubits)

    def run(self, circuit: Circuit, reset: bool = True) -> np.ndarray:
        """Execute a circuit; returns the live statevector (no copy)."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit width {circuit.num_qubits} != register {self.num_qubits}"
            )
        if circuit.num_parameters:
            from repro.sim.plan import unbound_parameter_message

            raise ValueError(unbound_parameter_message(circuit))
        if reset:
            self.reset()
        with obs.span(
            "sim.run_circuit", gates=len(circuit.gates), qubits=self.num_qubits
        ):
            for g in circuit.gates:
                self.apply_gate(g)
        return self.state

    def apply_circuit(self, circuit: Circuit) -> np.ndarray:
        """Apply a circuit to the *current* state (suffix execution —
        basis rotations on top of a cached state)."""
        return self.run(circuit, reset=False)

    def run_plan(self, plan, params: Sequence[float] = ()) -> np.ndarray:
        """Execute a compiled :class:`repro.sim.plan.ExecutionPlan` with
        the given parameter vector from the plan's start state; returns
        the live statevector.

        The bind-free fast path of :meth:`run`: no ``Gate`` objects, no
        circuit copies — the plan's ops run directly on the simulator's
        buffer.
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError(
                f"plan width {plan.num_qubits} != register {self.num_qubits}"
            )
        plan.require_full_register(self.dim)
        with obs.span(
            "sim.run_plan", ops=plan.num_ops, qubits=self.num_qubits
        ):
            plan.execute(self.state, params)
        self.gates_applied += plan.num_ops
        return self.state

    # -- measurement --------------------------------------------------------------

    def sample(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Sample ``shots`` basis-state indices from |psi|^2."""
        rng = rng or np.random.default_rng()
        probs = self.probabilities()
        probs = probs / probs.sum()
        return rng.choice(self.dim, size=shots, p=probs)

    def sample_counts(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Dict[int, int]:
        """Histogram of sampled basis states."""
        outcomes, counts = np.unique(self.sample(shots, rng), return_counts=True)
        return {int(o): int(c) for o, c in zip(outcomes, counts)}

    def measure_qubit(
        self, qubit: int, rng: Optional[np.random.Generator] = None
    ) -> int:
        """Projectively measure one qubit, collapsing the state."""
        rng = rng or np.random.default_rng()
        idx = np.arange(self.dim, dtype=np.int64)
        mask1 = (idx >> qubit) & 1 == 1
        p1 = float(np.sum(np.abs(self.state[mask1]) ** 2))
        outcome = int(rng.random() < p1)
        keep = mask1 if outcome else ~mask1
        self.state[~keep] = 0.0
        norm = math.sqrt(p1 if outcome else 1.0 - p1)
        if norm > 0:
            self.state /= norm
        return outcome

    def memory_bytes(self) -> int:
        """Bytes held by the state vector (the Fig. 1c quantity)."""
        return self.state.nbytes
