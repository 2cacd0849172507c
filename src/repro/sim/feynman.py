"""Schrödinger–Feynman hybrid simulation (paper related work [3]).

The Schrödinger method (everything else in ``repro.sim``) stores all
2^n amplitudes; the Feynman path method stores almost nothing but sums
exponentially many paths.  The hybrid cuts the register into two
partitions simulated Schrödinger-style (2^(n/2) amplitudes each) and
sums Feynman paths only over the *cross-partition* gates: each 2-qubit
gate spanning the cut is decomposed via its operator Schmidt
decomposition

    U = sum_k  A_k (x) B_k        (rank <= 4)

so a circuit with g cross gates costs  prod_g rank_g  path products of
half-register simulations.  Memory halves (in qubits: 2 * 2^(n/2)
instead of 2^n) at exponential-in-g time cost — the classic trade for
low-entanglement cuts, and the reason the paper's related work [3]
optimizes exactly this algorithm.

The final state is reconstructed densely here (so tests can verify
against the Schrödinger simulator); ``PathAccounting`` reports the
path count and per-path memory that make the trade-off explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.sim import kernels

__all__ = ["schmidt_decompose_gate", "SchrodingerFeynmanSimulator", "PathAccounting"]


def schmidt_decompose_gate(
    matrix: np.ndarray, atol: float = 1e-12
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Operator Schmidt decomposition of a 4x4 gate across its two
    qubits: returns [(A_k, B_k)] with  U = sum_k A_k (x) B_k, where
    A acts on the gate's first (low) qubit and B on the second.

    Implementation: reshuffle U's indices into the (A-side, B-side)
    operator basis and SVD; singular values fold into the factors.
    """
    if matrix.shape != (4, 4):
        raise ValueError("expected a two-qubit gate matrix")
    # U[(b1 b0), (b1' b0')] -> M[(b0 b0'), (b1 b1')]  (qubit0 = A side)
    u = matrix.reshape(2, 2, 2, 2)  # [b1, b0, b1', b0']
    m = u.transpose(1, 3, 0, 2).reshape(4, 4)  # [(b0 b0'), (b1 b1')]
    w, s, vh = np.linalg.svd(m)
    terms: List[Tuple[np.ndarray, np.ndarray]] = []
    for k, sv in enumerate(s):
        if sv < atol:
            continue
        a = np.sqrt(sv) * w[:, k].reshape(2, 2)
        b = np.sqrt(sv) * vh[k, :].reshape(2, 2)
        terms.append((a, b))
    return terms


@dataclass
class PathAccounting:
    """The cost profile of one hybrid run."""

    num_paths: int
    num_cross_gates: int
    partition_sizes: Tuple[int, int]
    bytes_per_path: int


class SchrodingerFeynmanSimulator:
    """Hybrid simulator over a bipartition (low block | high block).

    ``cut`` is the number of qubits in the low partition; qubits
    ``0 .. cut-1`` are partition A, the rest partition B.  Gates fully
    inside a partition run Schrödinger-style on that partition's
    vector; gates across the cut branch into Schmidt paths.
    """

    def __init__(self, num_qubits: int, cut: int):
        if not 1 <= cut < num_qubits:
            raise ValueError("cut must leave both partitions non-empty")
        self.num_qubits = num_qubits
        self.cut = cut
        self.n_a = cut
        self.n_b = num_qubits - cut
        self.accounting: Optional[PathAccounting] = None

    def run(self, circuit: Circuit) -> np.ndarray:
        """Execute and return the full dense statevector (the dense
        reconstruction is for verification; the per-path memory is the
        two half-vectors)."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width mismatch")
        if circuit.num_parameters:
            from repro.sim.plan import unbound_parameter_message

            raise ValueError(unbound_parameter_message(circuit))
        cut = self.cut

        # Each path: (amplitude-weight folded into vectors, state_a, state_b,
        # remaining gate index). Depth-first expansion keeps memory at
        # O(paths-in-flight); breadth-first list is fine at demo scale.
        init_a = np.zeros(1 << self.n_a, dtype=np.complex128)
        init_a[0] = 1.0
        init_b = np.zeros(1 << self.n_b, dtype=np.complex128)
        init_b[0] = 1.0
        paths: List[Tuple[np.ndarray, np.ndarray]] = [(init_a, init_b)]
        cross_gates = 0

        for gate in circuit.gates:
            sides = {0 if q < cut else 1 for q in gate.qubits}
            if sides == {0}:
                for a, _ in paths:
                    self._apply_local(a, gate, side=0)
            elif sides == {1}:
                for _, b in paths:
                    self._apply_local(b, gate, side=1)
            else:
                if gate.num_qubits != 2:
                    raise ValueError("only 2-qubit gates may span the cut")
                cross_gates += 1
                q_low = min(gate.qubits)
                q_high = max(gate.qubits)
                m = gate.to_matrix()
                if gate.qubits[0] != q_low:
                    # matrix convention: reorder so first factor is the
                    # low (A-side) qubit
                    perm = np.array([0, 2, 1, 3])
                    m = m[np.ix_(perm, perm)]
                terms = schmidt_decompose_gate(m)
                new_paths: List[Tuple[np.ndarray, np.ndarray]] = []
                for a, b in paths:
                    for ak, bk in terms:
                        na = a.copy()
                        nb = b.copy()
                        kernels.apply_kq_dense(na, ak, (q_low,), self.n_a)
                        kernels.apply_kq_dense(nb, bk, (q_high - cut,), self.n_b)
                        new_paths.append((na, nb))
                paths = new_paths

        # Reconstruct: |psi> = sum_paths |a> (x) |b>  with index
        # (high bits = B, low bits = A).
        full = np.zeros(1 << self.num_qubits, dtype=np.complex128)
        for a, b in paths:
            full += np.kron(b, a)
        self.accounting = PathAccounting(
            num_paths=len(paths),
            num_cross_gates=cross_gates,
            partition_sizes=(self.n_a, self.n_b),
            bytes_per_path=a.nbytes + b.nbytes,
        )
        return full

    def _apply_local(self, state: np.ndarray, gate: Gate, side: int) -> None:
        offset = 0 if side == 0 else self.cut
        n_local = self.n_a if side == 0 else self.n_b
        qubits = tuple(q - offset for q in gate.qubits)
        kernels.apply_kq_dense(state, gate.to_matrix(), qubits, n_local)
