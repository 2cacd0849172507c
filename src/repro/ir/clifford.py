"""Clifford conjugation and simultaneous diagonalization of commuting
Pauli sets.

Qubit-wise commuting groups (the paper's measurement scheme, §4.1) are
measurable after *single-qubit* rotations.  Groups that commute only
in the general sense need a Clifford entangling circuit to reach a
shared eigenbasis — in exchange, the groups are larger and the number
of distinct measured bases smaller.  This module provides:

* ``conjugate_pauli`` — exact propagation of a signed Pauli string
  through a Clifford gate (computed in the <=4-dimensional dense space
  of the touched qubits, so no hand-derived phase rules can go wrong),
* ``diagonalizing_clifford`` — a circuit C with C P C^dag Z-type for
  every P in a commuting set, built by symplectic elimination:
  S fixes Y factors, CX collapses X supports, CZ clears residual Z's,
  H converts the surviving X pivot to Z.

:func:`repro.sim.expectation.measure_general_group` measures a group
through that circuit; the measurement-strategy ablation benchmark uses
it to quantify what smarter grouping buys over the paper's qubit-wise
scheme.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.ir.pauli import PauliString

__all__ = [
    "conjugate_pauli",
    "conjugate_through_circuit",
    "diagonalizing_clifford",
]

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}


def _local_pauli_matrix(bits: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Dense matrix of a Pauli on k local qubits (little-endian)."""
    out = np.eye(1, dtype=complex)
    for xb, zb in reversed(list(bits)):
        out = np.kron(out, _SINGLE[(xb, zb)])
    return out


def conjugate_pauli(
    gate: Gate, sign: float, pauli: PauliString
) -> Tuple[float, PauliString]:
    """Return (sign', P') with  sign' P' = U (sign P) U^dag.

    ``gate`` must be Clifford (the result must be a signed Pauli; a
    non-Clifford gate raises).  The conjugation is computed densely on
    the gate's own qubits and matched against the 4^k candidates, which
    sidesteps per-gate phase-rule derivations entirely.
    """
    qs = gate.qubits
    k = len(qs)
    bits = [((pauli.x >> q) & 1, (pauli.z >> q) & 1) for q in qs]
    local = _local_pauli_matrix(bits)
    u = gate.to_matrix()
    conj = u @ local @ u.conj().T
    # Match against all signed local Paulis.
    for pattern in range(4 ** k):
        cand_bits = []
        p = pattern
        for _ in range(k):
            cand_bits.append(((p & 1), ((p >> 1) & 1)))
            p >>= 2
        cand = _local_pauli_matrix(cand_bits)
        for s in (1.0, -1.0):
            if np.allclose(conj, s * cand, atol=1e-9):
                new_x, new_z = pauli.x, pauli.z
                for (xb, zb), q in zip(cand_bits, qs):
                    new_x = (new_x & ~(1 << q)) | (xb << q)
                    new_z = (new_z & ~(1 << q)) | (zb << q)
                return sign * s, PauliString(pauli.num_qubits, new_x, new_z)
    raise ValueError(f"gate {gate.name!r} is not Clifford")


def conjugate_through_circuit(
    circuit: Circuit, sign: float, pauli: PauliString
) -> Tuple[float, PauliString]:
    """Propagate sign*P through every gate: returns C (sign P) C^dag."""
    for g in circuit.gates:
        sign, pauli = conjugate_pauli(g, sign, pauli)
    return sign, pauli


def diagonalizing_clifford(
    strings: Sequence[PauliString], num_qubits: int
) -> Circuit:
    """A Clifford circuit C with C P C^dag diagonal (Z-type) for every
    P in the mutually commuting set ``strings``.

    Inductive symplectic elimination over independent generators: pick
    a generator with X support, normalize its pivot qubit to a pure X
    (S kills a Y), collapse its other X factors onto the pivot with
    CX, clear its remaining Z factors with CZ, then H turns the pivot
    into Z.  Commutation guarantees the remaining generators can be
    cleaned off the finished pivots.
    """
    work = [PauliString(num_qubits, p.x, p.z) for p in strings]
    for i, a in enumerate(work):
        for b in work[i + 1:]:
            if not a.commutes_with(b):
                raise ValueError("strings do not mutually commute")
    circuit = Circuit(num_qubits)
    signs = [1.0] * len(work)

    def apply(gate: Gate) -> None:
        circuit.append(gate)
        for k in range(len(work)):
            signs[k], work[k] = conjugate_pauli(gate, signs[k], work[k])

    done_pivots: set = set()
    for _ in range(2 * num_qubits + len(work)):
        # find a generator that still has X support
        target = None
        for p in work:
            if p.x:
                target = p
                break
        if target is None:
            break
        # pivot: an X-support qubit, preferring non-finished ones
        candidates = [q for q in range(num_qubits) if (target.x >> q) & 1]
        pivot = next(
            (q for q in candidates if q not in done_pivots), candidates[0]
        )
        if (target.z >> pivot) & 1:
            apply(Gate("s", (pivot,)))
            # refresh the view of target (it is an element of work)
        target = next(p for p in work if (p.x >> pivot) & 1)
        # clear other X factors of the target with CX(pivot -> other)
        for q in range(num_qubits):
            if q != pivot and (target.x >> q) & 1:
                if (target.z >> q) & 1:
                    apply(Gate("s", (q,)))
                apply(Gate("cx", (pivot, q)))
        target = next(p for p in work if (p.x >> pivot) & 1)
        # clear remaining Z factors with CZ(pivot, q)
        for q in range(num_qubits):
            if q != pivot and (target.z >> q) & 1:
                apply(Gate("cz", (pivot, q)))
        target = next(p for p in work if (p.x >> pivot) & 1)
        if (target.z >> pivot) & 1:
            apply(Gate("s", (pivot,)))
        apply(Gate("h", (pivot,)))
        done_pivots.add(pivot)
    if any(p.x for p in work):
        raise RuntimeError("diagonalization failed to terminate")
    return circuit
