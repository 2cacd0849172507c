"""Gate fusion (paper §4.3).

Consecutive gates whose combined support stays within two qubits are
fused into a single opaque unitary.  The paper's design point is
explicit: *fuse only up to two qubits* — a fused 4x4 keeps the kernel
cheap, whereas larger fused matrices grow as 2^k x 2^k and lose the
bandwidth advantage.  We honor exactly that rule.

Fusion legality: gate ``g`` can be folded into an earlier gate ``F``
iff (a) ``F`` is the *latest* gate acting on any of ``g``'s qubits
(so no intervening gate on those qubits is reordered), and (b) the
union of their supports has size <= 2.  Gates on disjoint qubits
commute, which is why only ``g``'s own qubits constrain legality.

Output gates are named ``fused1``/``fused2`` and carry explicit
matrices; they execute through the dense kernels of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate

__all__ = ["fuse_circuit", "FusionResult", "embed_1q_in_2q"]


def embed_1q_in_2q(m: np.ndarray, slot: int) -> np.ndarray:
    """Embed a 2x2 matrix acting on slot 0 (low bit) or 1 (high bit) of a
    two-qubit space (little-endian index ``b1 b0``)."""
    eye = np.eye(2, dtype=np.complex128)
    # index = b1*2 + b0; kron(A, B) acts with B on the low bit.
    return np.kron(m, eye) if slot == 1 else np.kron(eye, m)


def _expand(gate_matrix: np.ndarray, src: Tuple[int, ...], dst: Tuple[int, ...]) -> np.ndarray:
    """Expand ``gate_matrix`` on qubits ``src`` to the 2-qubit space of
    ``dst`` (both little-endian, ``dst`` has length 2 and contains src)."""
    if len(src) == 1:
        slot = dst.index(src[0])
        return embed_1q_in_2q(gate_matrix, slot)
    if src == dst:
        return gate_matrix
    # Same pair, swapped order: conjugate by SWAP (permutes index bits).
    perm = np.array([0, 2, 1, 3])
    return gate_matrix[np.ix_(perm, perm)]


@dataclass
class FusionResult:
    """Outcome of a fusion pass (the Fig. 4 quantities)."""

    circuit: Circuit
    original_gates: int
    fused_gates: int

    @property
    def reduction(self) -> float:
        """Fractional gate-count reduction, e.g. 0.52 for the paper's
        8-qubit UCCSD circuit."""
        if self.original_gates == 0:
            return 0.0
        return 1.0 - self.fused_gates / self.original_gates


def _fusible(gate: Gate) -> bool:
    return not gate.is_parameterized and gate.num_qubits <= 2


def fuse_circuit(circuit: Circuit, max_qubits: int = 2) -> FusionResult:
    """Run the fusion pass.

    Parameters
    ----------
    circuit:
        A *bound* circuit (symbolic-parameter gates act as fusion
        barriers, matching NWQ-Sim which fuses at execution time after
        parameters are known).
    max_qubits:
        Support limit for fused blocks; the paper's (and default)
        value is 2.  ``1`` restricts to single-qubit run fusion.
    """
    if max_qubits not in (1, 2):
        raise ValueError("fusion supports max_qubits of 1 or 2 (paper design point)")
    with obs.span("sim.fuse_circuit", gates=len(circuit), max_qubits=max_qubits):
        result = _fuse(circuit, max_qubits)
    return result


def _fuse(circuit: Circuit, max_qubits: int) -> FusionResult:
    out: List[Optional[Gate]] = []
    frontier: Dict[int, int] = {}

    def set_frontier(qubits: Sequence[int], idx: int) -> None:
        # Never move a frontier backwards: a fused block can absorb a
        # qubit whose most recent gate is *later* in the stream; that
        # later gate must stay the fusion anchor for that qubit.
        for q in qubits:
            frontier[q] = max(frontier.get(q, -1), idx)

    for g in circuit.gates:
        if _fusible(g):
            f_idxs = [frontier.get(q) for q in g.qubits]
            known = [i for i in f_idxs if i is not None]
            target_idx = max(known) if known else None
            if target_idx is not None:
                target = out[target_idx]
                if target is not None and _fusible(target):
                    union = tuple(sorted(set(target.qubits) | set(g.qubits)))
                    if len(union) <= max_qubits:
                        if len(union) == 1:
                            m = g.to_matrix() @ target.to_matrix()
                            fused = Gate("fused1", union, (), m)
                        else:
                            mt = _expand(target.to_matrix(), target.qubits, union)
                            mg = _expand(g.to_matrix(), g.qubits, union)
                            fused = Gate("fused2", union, (), mg @ mt)
                        out[target_idx] = fused
                        set_frontier(union, target_idx)
                        continue
        out.append(g)
        set_frontier(g.qubits, len(out) - 1)

    fused_gates = [g for g in out if g is not None]
    return FusionResult(
        circuit=Circuit(circuit.num_qubits, fused_gates),
        original_gates=len(circuit),
        fused_gates=len(fused_gates),
    )
