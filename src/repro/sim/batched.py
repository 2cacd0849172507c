"""Batched statevector simulation (paper §6.2, implemented).

The paper lists batch execution — simulating multiple VQE circuits
simultaneously to raise device utilization — as future work.  This
module implements the single-device half of it: ``B`` instances of the
*same* parameterized circuit with *different* parameter values evolve
together as a ``(B, 2^n)`` amplitude matrix, so every gate application
is one vectorized operation across the whole batch (the NumPy analogue
of launching concurrent GPU kernels [cCUDA, paper ref 13]).

This is exactly the workload VQE generates: parameter-shift gradients
need ``2 m`` evaluations of one circuit at shifted angles, optimizer
line searches need several, and parameter sweeps need hundreds.  The
companion ``repro.opt.parameter_shift.batched_parameter_shift_gradient``
and the batching benchmark quantify the win over one-at-a-time
execution.

Execution is always through a compiled plan
(:mod:`repro.sim.plan`) and the one kernel set
(:func:`repro.sim.kernels.apply_op`), which acts along the last axis of
the ``(B, 2^n)`` block: rotation steps and the phase gates receive a
per-row angle vector, static ops broadcast one payload over the batch.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.compiled import CompiledPauliSum, compile_observable
from repro.ir.pauli import PauliSum
from repro.sim.kernels import apply_op
from repro.sim.plan import compile_circuit

__all__ = ["BatchedStatevectorSimulator"]


class BatchedStatevectorSimulator:
    """B copies of an n-qubit register evolving under one circuit
    template with per-copy parameters."""

    def __init__(
        self,
        num_qubits: int,
        batch_size: int,
        mem_category: str = "batched_statevector",
    ):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if num_qubits > 26:
            raise ValueError("batched mode limited to 26 qubits per instance")
        self.num_qubits = num_qubits
        self.batch_size = batch_size
        self.dim = 1 << num_qubits
        self.states = np.zeros((batch_size, self.dim), dtype=np.complex128)
        self.states[:, 0] = 1.0
        obs.mem_track(self, mem_category, self.states.nbytes)

    def reset(self) -> None:
        self.states.fill(0)
        self.states[:, 0] = 1.0

    # -- execution ------------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        parameter_table: Mapping[str, np.ndarray],
        reset: bool = True,
    ) -> np.ndarray:
        """Execute the circuit template with per-row parameters.

        ``parameter_table[name]`` is a length-B vector of values for
        the named circuit parameter.  The circuit is compiled (memoized
        on the circuit) and executed by :meth:`run_plan`.  Returns the
        (B, 2^n) amplitude matrix (live buffer).
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width mismatch")
        missing = set(circuit.parameters) - set(parameter_table)
        if missing:
            raise ValueError(f"missing parameter vectors: {sorted(missing)}")
        table = {
            k: np.asarray(v, dtype=float) for k, v in parameter_table.items()
        }
        for k, v in table.items():
            if v.shape != (self.batch_size,):
                raise ValueError(
                    f"parameter {k!r}: expected shape ({self.batch_size},)"
                )
        plan = compile_circuit(circuit)
        rows = np.empty((self.batch_size, plan.num_parameters))
        for k, name in enumerate(plan.parameters):
            rows[:, k] = table[name]
        return self.run_plan(plan, rows, reset=reset)

    def run_plan(
        self,
        plan,
        param_rows: np.ndarray,
        reset: bool = True,
    ) -> np.ndarray:
        """Execute a compiled :class:`repro.sim.plan.ExecutionPlan` with
        per-row parameter vectors.

        ``param_rows`` has shape (B, P), row b holding the flat
        parameter vector (ordered like ``plan.parameters``) for batch
        instance b.  Every op the scalar executor takes runs here through
        the same kernel: rotation steps and the parametric phase gates
        (``p``/``cp``/``crz``) with one angle per row, static ops with one
        payload over the batch.  A parametric gate that would need a
        dense matrix per row (``u3``) raises a ``ValueError`` naming it.
        Returns the (B, 2^n) buffer.
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError("plan width mismatch")
        param_rows = np.asarray(param_rows, dtype=float)
        if param_rows.shape != (self.batch_size, plan.num_parameters):
            raise ValueError(
                f"expected param_rows of shape "
                f"({self.batch_size}, {plan.num_parameters})"
            )
        if reset:
            self.reset()
        for op in plan.ops:
            kind, payload = op.resolve(param_rows)
            apply_op(self.states, kind, payload, op.qubits, self.num_qubits)
        return self.states

    # -- observation ---------------------------------------------------------------

    def expectations(
        self, observable: "PauliSum | CompiledPauliSum"
    ) -> np.ndarray:
        """<psi_b|H|psi_b> for every batch row.

        The observable is compiled to its x-mask-batched form (cached
        on the ``PauliSum``), so the whole batch pays one gather +
        multiply + reduction per distinct x-mask rather than per term.
        """
        if observable.num_qubits != self.num_qubits:
            raise ValueError("observable width mismatch")
        out = compile_observable(observable).expectations(self.states)
        if np.any(np.abs(out.imag) > 1e-8 * np.maximum(1.0, np.abs(out.real))):
            raise ValueError("non-Hermitian observable")
        return out.real
