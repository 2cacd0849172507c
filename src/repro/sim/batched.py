"""Batched statevector simulation (paper §6.2, implemented).

The paper lists batch execution — simulating multiple VQE circuits
simultaneously to raise device utilization — as future work.  This
module implements the single-device half of it: ``B`` instances of the
*same* parameterized circuit with *different* parameter values evolve
together as a ``(B, 2^n)`` amplitude matrix, so every gate application
is one vectorized operation across the whole batch (the NumPy analogue
of launching concurrent GPU kernels [cCUDA, paper ref 13]).

:func:`reverse_value_and_gradient` is the gradient half: B energies and
B exact gradients from one reverse-mode sweep over a ``(2B, 2^n)``
block, what the serve tier's evaluation broker runs on each
``batch_size`` chunk of a wave's rows, one row per campaign.  The rows
may carry different Hamiltonians (one per geometry of a scan that
shares the plan); :func:`observable_rows` splits a block by observable.

Execution is always through a compiled plan
(:mod:`repro.sim.plan`) and the one kernel set
(:func:`repro.sim.kernels.apply_op`), which acts along the last axis of
the ``(B, 2^n)`` block: rotation steps and the phase gates receive a
per-row angle vector, static ops broadcast one payload over the batch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.compiled import CompiledPauliSum, compile_observable
from repro.ir.pauli import PauliSum
from repro.sim.kernels import apply_op, phase_bracket, rotation_bracket, row_dot
from repro.sim.plan import ExecutionPlan, PlanOp, compile_circuit

__all__ = [
    "BatchedStatevectorSimulator",
    "observable_rows",
    "reverse_mode_blocker",
    "reverse_value_and_gradient",
]

RowIndex = Union[slice, np.ndarray]


def observable_rows(observable, num_rows: int) -> List[Tuple[Any, RowIndex]]:
    """``(observable, rows)`` pairs that split an R-row block by
    observable: ``observable`` is one operator for every row or a
    sequence of R, one per row.  Rows are an index array per distinct
    operator (by identity, in first-use order), or ``slice(None)`` when
    one operator covers the whole block."""
    if not isinstance(observable, (list, tuple)):
        return [(observable, slice(None))]
    if len(observable) != num_rows:
        raise ValueError(f"expected {num_rows} per-row observables, got {len(observable)}")
    parts: Dict[int, Tuple[Any, List[int]]] = {}
    for k, op in enumerate(observable):
        parts.setdefault(id(op), (op, []))[1].append(k)
    if len(parts) == 1:
        return [(observable[0], slice(None))]
    return [(op, np.asarray(rows)) for op, rows in parts.values()]


def reverse_mode_blocker(plan: ExecutionPlan) -> Optional[PlanOp]:
    """The first parametric op the reverse-mode sweep cannot
    differentiate, or ``None`` when it can do the whole plan: every
    parametric op must be a rotation step or a ``p`` gate (the two ops
    whose generator the sweep brackets)."""
    for op in plan.ops:
        if op.is_parametric and op.kind != "rot" and op.gate_name != "p":
            return op
    return None


def reverse_value_and_gradient(
    plan: ExecutionPlan, observable, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Energies ``<psi_r|H_r|psi_r>`` and their exact gradients for the R
    parameter rows of ``rows`` (shape ``(R, P)``), as ``((R,), (R, P))``.

    ``observable`` is a ``PauliSum`` — compiled on the plan's index set
    — or any Hermitian operator with ``apply`` over ``(…, plan.dim)``
    blocks; or a sequence of R of them, one per row, each applied once
    to the rows that carry it.

    One sweep, whatever P: the plan runs forward on the R rows of
    ``psi``, ``H`` is applied to the block, and the ops are walked
    backwards, each undone once on ``phi`` (= ``psi``) and ``lam`` (=
    ``H psi``) stacked as one ``(2R, 2^n)`` block.  Before an op
    ``exp(theta A)`` is undone it contributes ``2 Re <lam|A|phi>`` to its
    parameter's derivative.  Every step is row-wise, so a row's result
    is the same bits whatever else shares the block.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != plan.num_parameters:
        raise ValueError(
            f"expected parameter rows of shape (R, {plan.num_parameters}), "
            f"got {rows.shape}"
        )
    blocker = reverse_mode_blocker(plan)
    if blocker is not None:
        names = ", ".join(repr(plan.parameters[k]) for k in sorted(blocker.param_deps))
        raise ValueError(
            f"reverse mode cannot differentiate gate {blocker.gate_name!r} on qubits "
            f"{blocker.qubits} (parameter {names}); it takes rotations and p gates only"
        )
    n, r = plan.num_qubits, rows.shape[0]
    block = np.zeros((2 * r, plan.dim), dtype=np.complex128)
    phi, lam = block[:r], block[r:]
    phi[:, plan.origin] = 1.0
    for op in plan.ops:
        kind, payload = op.resolve(rows)
        apply_op(phi, kind, payload, op.qubits, n)
    for op, part in observable_rows(observable, r):
        if isinstance(op, PauliSum):
            op = compile_observable(op, plan.index)
        lam[part] = op.apply(phi[part])
    values = row_dot(phi, lam).real
    grads = np.zeros_like(rows)
    doubled = np.concatenate([rows, rows])
    for op in reversed(plan.ops):
        if op.kind == "rot" and op.param_refs:
            # exp(theta A): dU/dtheta = A U
            grads[:, op.param_refs[0][2]] += 2.0 * rotation_bracket(lam, phi, op.data).real
        elif op.is_parametric:
            # p(coeff * theta + offset): dU/dtheta = coeff i |1><1| U
            _, coeff, k, _ = op.param_refs[0]
            grads[:, k] += 2.0 * coeff * phase_bracket(lam, phi, op.qubits[0]).real
        kind, payload = op.resolve(doubled)
        apply_op(block, kind, payload, op.qubits, n, adjoint=True)
    return values, grads


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
    ) -> np.ndarray:
        """Execute the circuit template with per-row parameters.

        ``parameter_table[name]`` is a length-B vector of values for
        the named circuit parameter.  The circuit is compiled (memoized
        on the circuit) and executed by :meth:`run_plan`.  Returns the
        (B, 2^n) amplitude matrix (live buffer).
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit width mismatch: expected {self.num_qubits} qubits, "
                f"got {circuit.num_qubits}"
            )
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
        return self.run_plan(plan, rows)

    def run_plan(self, plan, param_rows: np.ndarray) -> np.ndarray:
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
            raise ValueError(
                f"plan width mismatch: expected {self.num_qubits} qubits, got {plan.num_qubits}"
            )
        plan.require_full_register(self.dim)
        param_rows = np.asarray(param_rows, dtype=float)
        if param_rows.shape != (self.batch_size, plan.num_parameters):
            raise ValueError(
                f"expected param_rows of shape "
                f"({self.batch_size}, {plan.num_parameters})"
            )
        self.reset()
        for op in plan.ops:
            kind, payload = op.resolve(param_rows)
            apply_op(self.states, kind, payload, op.qubits, self.num_qubits)
        return self.states

    # -- observation ---------------------------------------------------------------

    def expectations(
        self, observable: "PauliSum | CompiledPauliSum", rows: RowIndex = slice(None)
    ) -> np.ndarray:
        """<psi_b|H|psi_b> for every batch row, or for the batch rows
        ``rows`` selects.

        The observable is compiled to its x-mask-batched form (cached
        on the ``PauliSum``), so the whole batch pays one gather +
        multiply + reduction per distinct x-mask rather than per term.
        """
        if observable.num_qubits != self.num_qubits:
            raise ValueError(
                f"observable width mismatch: expected {self.num_qubits} qubits, "
                f"got {observable.num_qubits}"
            )
        out = compile_observable(observable).expectations(self.states[rows])
        if np.any(np.abs(out.imag) > 1e-8 * np.maximum(1.0, np.abs(out.real))):
            raise ValueError("non-Hermitian observable")
        return out.real
