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
(:mod:`repro.sim.plan`): rotation steps receive a per-batch-row angle
vector, fixed ops broadcast one matrix over the batch.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.compiled import CompiledPauliSum, compile_observable
from repro.ir.pauli import PauliSum
from repro.sim.kernels import apply_rotation
from repro.sim.plan import compile_circuit
from repro.utils.bitops import indices_1q, indices_2q

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

    # -- gate application ---------------------------------------------------

    def _apply_1q_fixed(self, m: np.ndarray, q: int) -> None:
        i0, i1 = indices_1q(self.num_qubits, q)
        a0 = self.states[:, i0]
        a1 = self.states[:, i1]
        self.states[:, i0] = m[0, 0] * a0 + m[0, 1] * a1
        self.states[:, i1] = m[1, 0] * a0 + m[1, 1] * a1

    def _apply_2q_fixed(self, m: np.ndarray, q0: int, q1: int) -> None:
        idx = np.vstack(indices_2q(self.num_qubits, q0, q1))
        sub = self.states[:, idx]  # (B, 4, dim/4)
        self.states[:, idx] = np.einsum("rc,bcj->brj", m, sub)

    @staticmethod
    def _batched_diag(name: str, angles: np.ndarray):
        """Per-row diagonal factors for the affine-parameter phase gates
        ``p``/``cp``/``crz`` (the parametric gates the frame pass leaves
        in a plan besides rotation steps).

        Returns ``[(sub_index, values), ...]`` listing only the
        non-identity columns of the (batched) diagonal — the same
        sparse update the scalar plan path applies — or ``None`` for any
        other gate.  The trig forms mirror
        :meth:`repro.sim.plan.PlanOp.resolve` exactly so batched and
        scalar execution agree bitwise.
        """
        if name == "p":
            return [(1, np.cos(angles) + 1j * np.sin(angles))]
        if name == "cp":
            return [(3, np.cos(angles) + 1j * np.sin(angles))]
        if name == "crz":
            h = angles / 2.0
            e = np.cos(h) - 1j * np.sin(h)
            return [(1, e), (3, e.conj())]
        return None

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
        instance b.  Dispatches on the plan's op metadata — rotation
        steps run the shared ``(B, 2^n)`` kernel with one angle per
        row, static ops (including fused blocks and folded diagonal
        passes) broadcast one matrix/diagonal over the batch, and the
        parametric phase gates scale per row.  Returns the (B, 2^n)
        buffer.
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
        n = self.num_qubits
        for op in plan.ops:
            kind = op.kind
            if kind == "rot":
                apply_rotation(self.states, op.theta(param_rows), op.data)
            elif kind == "x":
                i0, i1 = indices_1q(n, op.qubits[0])
                tmp = self.states[:, i0].copy()
                self.states[:, i0] = self.states[:, i1]
                self.states[:, i1] = tmp
            elif kind == "cx":
                idx = indices_2q(n, op.qubits[0], op.qubits[1])
                tmp = self.states[:, idx[1]].copy()
                self.states[:, idx[1]] = self.states[:, idx[3]]
                self.states[:, idx[3]] = tmp
            elif kind == "diag1":
                i0, i1 = indices_1q(n, op.qubits[0])
                d0, d1 = op.data
                if d0 != 1.0:
                    self.states[:, i0] *= d0
                if d1 != 1.0:
                    self.states[:, i1] *= d1
            elif kind == "diag2":
                idx = indices_2q(n, op.qubits[0], op.qubits[1])
                for sub in range(4):
                    if op.data[sub] != 1.0:
                        self.states[:, idx[sub]] *= op.data[sub]
            elif kind == "diag_full":
                self.states *= op.data[None, :]
            elif kind == "dense1":
                self._apply_1q_fixed(op.data, op.qubits[0])
            elif kind == "dense2":
                self._apply_2q_fixed(op.data, op.qubits[0], op.qubits[1])
            elif not op.is_parametric:
                raise ValueError(
                    f"batched plan execution supports <=2-qubit static ops; "
                    f"got kind {kind!r} on qubits {tuple(op.qubits)}"
                )
            else:
                refs = op.param_refs
                diag = None
                if len(refs) == 1 and refs[0][0] == "p":
                    _, coeff, slot, offset = refs[0]
                    diag = self._batched_diag(
                        op.gate_name, coeff * param_rows[:, slot] + offset
                    )
                if diag is None:
                    raise ValueError(
                        f"no batched form for parameterized gate "
                        f"{op.gate_name!r} with parameter refs "
                        f"{refs!r}; supported: rotation steps "
                        "(rx, ry, rz, rzz, rxx, ryy) and p, cp, crz"
                    )
                if len(op.qubits) == 1:
                    idx = indices_1q(n, op.qubits[0])
                else:
                    idx = indices_2q(n, op.qubits[0], op.qubits[1])
                for sub, vals in diag:
                    self.states[:, idx[sub]] *= vals[:, None]
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
