"""Distributed partitioned statevector (the SV-Sim / NWQ-Sim scheme).

The 2^n amplitude vector is split over R = 2^r ranks; rank k owns the
contiguous slice whose top r index bits equal k.  Qubits therefore
come in two kinds at any moment:

* **local** physical positions ``0 .. L-1`` (L = n - r): gates apply
  embarrassingly parallel within each rank's slice;
* **global** positions ``L .. n-1`` (the rank bits): touching one
  requires inter-rank amplitude exchange.

Gates on global qubits are handled with the communication-avoiding
*relocation* strategy real distributed simulators use: the global
qubit is swapped with a local one (one pairwise half-slice exchange
between partner ranks), the logical->physical layout table is updated,
and the gate then runs locally.  Repeated gates on the same qubit pay
no further communication — this is where distributed simulation wins
or loses, and the exchange counter + ``SimComm`` byte ledger make the
cost observable for the scaling benchmarks.

Expectation values read per-rank slices of the observable's x-mask
diagonals (compiled once per observable and layout): one full-slice
exchange per distinct nonzero global-X pattern, one gather-multiply-
reduce per (rank, x-mask) and one scalar allreduce (§4.2 direct
method, distributed).
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs.perf import RANK_COMPUTE_COUNTER
from repro.hpc.comm import SimComm
from repro.hpc.faults import FaultInjector
from repro.utils.retry import RetryPolicy
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.ir.pauli import PauliSum
from repro.ir.symplectic import SymplecticPauli
from repro.sim import kernels
from repro.utils.bitops import basis_indices, insert_zero_bit, xor_indices

__all__ = ["DistributedStatevector"]


class DistributedStatevector:
    """A 2^n statevector partitioned over 2^r simulated ranks."""

    def __init__(
        self,
        num_qubits: int,
        num_ranks: int,
        comm: Optional[SimComm] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if num_ranks < 1 or (num_ranks & (num_ranks - 1)) != 0:
            raise ValueError("num_ranks must be a power of two")
        r = int(math.log2(num_ranks))
        if num_qubits - r < 2:
            raise ValueError(
                "each rank must keep at least 2 local qubits "
                f"(n={num_qubits}, ranks={num_ranks})"
            )
        self.num_qubits = num_qubits
        self.num_ranks = num_ranks
        self.rank_bits = r
        self.local_qubits = num_qubits - r
        self.local_dim = 1 << self.local_qubits
        if comm is None:
            comm = SimComm(
                num_ranks, fault_injector=fault_injector, retry_policy=retry_policy
            )
        elif fault_injector is not None or retry_policy is not None:
            raise ValueError(
                "pass faults/retry via the comm when supplying one explicitly"
            )
        self.comm = comm
        # slices[k] = amplitudes with top bits == k
        self.slices: List[np.ndarray] = [
            np.zeros(self.local_dim, dtype=np.complex128) for _ in range(num_ranks)
        ]
        self.slices[0][0] = 1.0
        for k, s in enumerate(self.slices):
            obs.mem_track(self, "dsv_slice", s.nbytes, rank=k)
        # layout[logical qubit] = physical position; positions >= local_qubits
        # are rank bits.
        self.layout = list(range(num_qubits))
        self._logical_table: Tuple[Optional[tuple], Optional[np.ndarray]] = (None, None)
        # (observable, (version, layout), ledger handles, program)
        self._observable_slices: tuple = (None, None, (), [])
        self.exchanges = 0
        self.gates_applied = 0
        self._swap_cursor = 0
        # wall seconds each rank spent in local kernel work, filled
        # only while observability is enabled (per-rank attribution)
        self.rank_compute_s: List[float] = [0.0] * num_ranks

    # -- state management ------------------------------------------------------

    def reset(self) -> None:
        for s in self.slices:
            s.fill(0)
        self.slices[0][0] = 1.0
        self.layout = list(range(self.num_qubits))
        self.exchanges = 0
        self.gates_applied = 0
        self.rank_compute_s = [0.0] * self.num_ranks

    def gather(self) -> np.ndarray:
        """Full statevector in *logical* qubit order (root-side check)."""
        phys = self.comm.gather(self.slices)
        if self.layout == list(range(self.num_qubits)):
            return phys.copy()
        out = np.zeros_like(phys)
        out[self._logical_indices()] = phys
        return out

    def _logical_indices(self) -> np.ndarray:
        """The logical basis index of every physical index: logical bit
        ``q`` lives at physical position ``layout[q]``.  Kept until the
        layout changes (every rotation step under a permuted layout
        reads it)."""
        key = tuple(self.layout)
        if self._logical_table[0] != key:
            idx = basis_indices(self.num_qubits)
            logical_idx = np.zeros_like(idx)
            for q, pos in enumerate(key):
                logical_idx |= ((idx >> pos) & 1) << q
            self._logical_table = (key, logical_idx)
        return self._logical_table[1]

    def _to_phys(self, mask: int) -> int:
        """A logical qubit mask translated to physical bit positions."""
        out = 0
        for q in range(self.num_qubits):
            if (mask >> q) & 1:
                out |= 1 << self.layout[q]
        return out

    def _exchange_slices(self, rank_xor: int) -> List[np.ndarray]:
        """Every rank's copy of the slice of rank ``k ^ rank_xor``: one
        full-slice pairwise exchange."""
        partners = [k ^ rank_xor for k in range(self.num_ranks)]
        # full-state staging copy exchanged with the partners
        scratch = obs.mem_alloc("dsv_scratch", sum(s.nbytes for s in self.slices))
        received = self.comm.exchange([s.copy() for s in self.slices], partners)
        obs.mem_free(scratch)
        self.exchanges += 1
        return received

    def memory_per_rank_bytes(self) -> int:
        return self.slices[0].nbytes

    # -- layout management -----------------------------------------------------------

    def _swap_physical(self, local_pos: int, global_pos: int) -> None:
        """Swap index bits (local_pos, global_pos) of the physical
        addressing: a pairwise half-slice exchange between partners."""
        L = self.local_qubits
        if not (local_pos < L <= global_pos):
            raise ValueError("expected one local and one global position")
        gb = global_pos - L
        half = np.arange(1 << (L - 1), dtype=np.int64)
        base = insert_zero_bit(half, local_pos)
        buffers: List[Optional[np.ndarray]] = [None] * self.num_ranks
        positions: List[Optional[np.ndarray]] = [None] * self.num_ranks
        partners = [k ^ (1 << gb) for k in range(self.num_ranks)]
        for k in range(self.num_ranks):
            b_g = (k >> gb) & 1
            # elements whose local bit != rank bit move to the partner
            idx = base | ((1 - b_g) << local_pos)
            buffers[k] = self.slices[k][idx].copy()
            positions[k] = idx
        # staged send + receive half-slices live simultaneously
        scratch = obs.mem_alloc(
            "dsv_scratch", 2 * sum(b.nbytes for b in buffers if b is not None)
        )
        received = self.comm.exchange(buffers, partners)
        for k in range(self.num_ranks):
            self.slices[k][positions[k]] = received[k]
        obs.mem_free(scratch)
        self.exchanges += 1
        # update layout: logical qubits at these physical positions swap
        inv = {p: q for q, p in enumerate(self.layout)}
        ql, qg = inv[local_pos], inv[global_pos]
        self.layout[ql], self.layout[qg] = global_pos, local_pos

    def _ensure_local(self, logical_qubits: Sequence[int]) -> List[int]:
        """Relocate the given logical qubits to local physical slots;
        returns their (local) physical positions."""
        L = self.local_qubits
        involved = set(logical_qubits)
        for q in logical_qubits:
            if self.layout[q] >= L:
                # pick a local victim slot not hosting an involved qubit
                inv = {p: ql for ql, p in enumerate(self.layout)}
                victim = None
                for _ in range(L):
                    cand = self._swap_cursor % L
                    self._swap_cursor += 1
                    if inv[cand] not in involved:
                        victim = cand
                        break
                if victim is None:
                    raise RuntimeError("no free local slot for relocation")
                self._swap_physical(victim, self.layout[q])
        return [self.layout[q] for q in logical_qubits]

    # -- execution ----------------------------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        if self.comm.fault_injector is not None:
            self.comm.fault_injector.check_gate_faults(self.gates_applied)
        self.gates_applied += 1
        self._apply_local(
            *kernels.lower_gate(gate.name, gate.params, gate.matrix), gate.qubits
        )

    def _apply_local(self, kind: str, payload, logical_qubits: Sequence[int]) -> None:
        """Relocate the op's qubits to local slots, then run the shared
        kernel on every rank's slice."""
        phys = self._ensure_local(logical_qubits)
        L = self.local_qubits
        self._on_slices(lambda k, s: kernels.apply_op(s, kind, payload, phys, L))

    def _on_slices(self, kernel) -> None:
        """``kernel(k, slice_k)`` for every rank; timed per rank while
        observability is enabled (per-rank attribution)."""
        if obs.enabled():
            for k, s in enumerate(self.slices):
                t0 = time.perf_counter()
                kernel(k, s)
                self.rank_compute_s[k] += time.perf_counter() - t0
        else:
            for k, s in enumerate(self.slices):
                kernel(k, s)

    def _in_physical_order(self, table: np.ndarray) -> np.ndarray:
        """A 2^n table indexed by logical basis index, re-indexed by
        physical position under the current layout."""
        if self.layout == list(range(self.num_qubits)):
            return table
        return table[self._logical_indices()]

    def run(self, circuit: Circuit, reset: bool = True) -> None:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} qubits, register has {self.num_qubits}"
            )
        if circuit.num_parameters:
            from repro.sim.plan import unbound_parameter_message

            raise ValueError(unbound_parameter_message(circuit))
        if reset:
            self.reset()
        exchanges_before = self.exchanges
        compute_before = list(self.rank_compute_s)
        with obs.span(
            "dsv.run_circuit",
            category="compute",
            gates=len(circuit.gates),
            qubits=self.num_qubits,
            ranks=self.num_ranks,
        ) as sp:
            for g in circuit.gates:
                self.apply_gate(g)
        if obs.enabled():
            self._flush_rank_compute(sp, compute_before)
            sp.set_attribute("exchanges", self.exchanges - exchanges_before)

    def run_plan(self, plan, params: Sequence[float] = (), reset: bool = True) -> None:
        """Execute a compiled :class:`repro.sim.plan.ExecutionPlan`
        slice-by-slice.

        A rotation step runs the shared rotation kernel on every rank's
        slice under the current layout, with one full-slice exchange
        with rank ``k ^ x_global`` when its x-mask has global bits and
        no relocation; a full-register diagonal fold multiplies each
        slice by its part of the diagonal, read through the same
        logical-index table, with no communication at all.  Every other
        op is resolved to its (kind, payload) form with the parameters
        substituted, its logical qubits are relocated to local physical
        slots exactly as in :meth:`apply_gate`, and
        :func:`repro.sim.kernels.apply_op` runs on every rank's slice —
        no ``Gate`` objects and no bound-circuit copies on the
        distributed path either.  Prefix-state reuse does not apply here
        (the state lives in per-rank slices under a mutable layout).
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError(
                f"plan has {plan.num_qubits} qubits, register has {self.num_qubits}"
            )
        plan.require_full_register(1 << self.num_qubits)
        params = plan._check_params(params)
        if reset:
            self.reset()
        exchanges_before = self.exchanges
        compute_before = list(self.rank_compute_s)
        with obs.span(
            "dsv.run_plan",
            category="compute",
            ops=plan.num_ops,
            qubits=self.num_qubits,
            ranks=self.num_ranks,
        ) as sp:
            for op in plan.ops:
                self._apply_plan_op(op, params)
        if obs.enabled():
            self._flush_rank_compute(sp, compute_before)
            sp.set_attribute("exchanges", self.exchanges - exchanges_before)

    def _apply_plan_op(self, op, params: np.ndarray) -> None:
        if self.comm.fault_injector is not None:
            self.comm.fault_injector.check_gate_faults(self.gates_applied)
        self.gates_applied += 1
        L = self.local_qubits
        kind, payload = op.resolve(params)
        if kind == "rot":
            theta, step = payload
            x = self._to_phys(step.x)
            partners = self._exchange_slices(x >> L) if x >> L else self.slices
            local_x = x & (self.local_dim - 1)
            gather = xor_indices(L, local_x) if local_x else slice(None)
            classes = self._in_physical_order(step.classes)
            self._on_slices(lambda k, s: kernels.apply_rotation(
                s, theta, step,
                classes=classes[k << L:(k + 1) << L],
                source=partners[k][gather] if x else None,
            ))
        elif kind == "diag_full":
            diagonal = self._in_physical_order(payload)
            self._on_slices(lambda k, s: kernels.apply_op(
                s, kind, diagonal[k << L:(k + 1) << L], op.qubits, L
            ))
        else:
            self._apply_local(kind, payload, op.qubits)

    def _flush_rank_compute(self, sp, compute_before: Sequence[float]) -> None:
        """Attach the per-rank compute-second delta to the enclosing
        span and the rank-labelled counters (observability enabled)."""
        delta = [
            now - before
            for now, before in zip(self.rank_compute_s, compute_before)
        ]
        sp.set_attribute("rank_compute_s", delta)
        for k, dt in enumerate(delta):
            if dt > 0.0:
                obs.inc(
                    RANK_COMPUTE_COUNTER,
                    dt,
                    help="Wall seconds each rank spent in local kernels",
                    labels={"rank": str(k)},
                )

    # -- observation -----------------------------------------------------------------------

    def norm(self) -> float:
        parts = [complex(np.vdot(s, s)) for s in self.slices]
        return float(np.sqrt(self.comm.allreduce(parts).real))

    def expectation(self, observable: PauliSum) -> float:
        """<psi|H|psi> with distributed direct evaluation.

        The observable is resolved once per (observable version, layout)
        into per-rank slices of its x-mask diagonals, grouped by
        global-X pattern; an evaluation pays one full-slice pairwise
        exchange per nonzero pattern, one gather-multiply-reduce per
        (rank, x-mask), and one scalar allreduce.
        """
        if observable.num_qubits != self.num_qubits:
            raise ValueError(
                f"observable has {observable.num_qubits} qubits, "
                f"register has {self.num_qubits}"
            )
        exchanges_before = self.exchanges
        compute_before = list(self.rank_compute_s)
        with obs.span(
            "dsv.expectation",
            category="compute",
            terms=observable.num_terms,
            ranks=self.num_ranks,
        ) as sp:
            value = self._expectation_impl(observable)
        if obs.enabled():
            self._flush_rank_compute(sp, compute_before)
            sp.set_attribute("exchanges", self.exchanges - exchanges_before)
        return value

    def _observable_program(self, observable: PauliSum) -> list:
        """``[(global pattern, [(gather, rows), ...]), ...]``: for each
        x-mask of ``observable`` under the current layout, the local
        gather table (``None`` for a purely global mask) and the
        ``(ranks, 2^L)`` view of its diagonal, row k being rank k's
        slice.  Rebuilt only when the observable or the layout moved."""
        key = (observable.version, tuple(self.layout))
        source, built_for, handles, program = self._observable_slices
        if source is observable and built_for == key:
            return program
        for handle in handles:
            obs.mem_free(handle)
        L = self.local_qubits
        # Diagonals straight in physical positions: a bit permutation of
        # the term masks, so no 2^n index table under a relocated layout.
        sym = observable.to_symplectic()
        logical = np.stack([sym.x, sym.z])
        phys = np.zeros_like(logical)
        for q, pos in enumerate(self.layout):
            phys |= ((logical >> np.uint64(q)) & np.uint64(1)) << np.uint64(pos)
        masks, d = SymplecticPauli(self.num_qubits, phys[0], phys[1], sym.coeffs).x_mask_diagonals()
        program: list = []
        for mask, diagonal in zip(masks.tolist(), d):
            local_x = mask & (self.local_dim - 1)
            if not program or program[-1][0] != mask >> L:  # masks ascend
                program.append((mask >> L, []))
            program[-1][1].append((
                xor_indices(L, local_x) if local_x else None,
                diagonal.reshape(self.num_ranks, self.local_dim),
            ))
        handles = [
            obs.mem_track(self, "dsv_observable", d.nbytes // self.num_ranks, rank=k)
            for k in range(self.num_ranks)
        ]
        self._observable_slices = (observable, key, handles, program)
        return program

    def _expectation_impl(self, observable: PauliSum) -> float:
        timing = obs.enabled()
        partial = [0.0 + 0.0j] * self.num_ranks
        for pattern, passes in self._observable_program(observable):
            partners = self._exchange_slices(pattern) if pattern else self.slices
            for k, (mine, theirs) in enumerate(zip(self.slices, partners)):
                t0 = time.perf_counter() if timing else 0.0
                for gather, rows in passes:
                    partial[k] += np.vdot(
                        theirs if gather is None else theirs[gather], rows[k] * mine
                    )
                if timing:
                    self.rank_compute_s[k] += time.perf_counter() - t0
        total = self.comm.allreduce(partial)
        if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
            raise ValueError(
                f"non-Hermitian observable: expectation has imaginary part {total.imag:.3e}"
            )
        return float(total.real)
