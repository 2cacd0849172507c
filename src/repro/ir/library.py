"""Reusable circuit constructions: QFT, GHZ, hardware-efficient ansatz,
and first-order Trotterized Hamiltonian evolution.

These are the standard building blocks the XACC-role framework is
expected to provide: the QFT feeds quantum phase estimation
(``repro.core.qpe``), the hardware-efficient ansatz is the
low-depth alternative the paper's related work (§6.1, Kandala et al.)
discusses, and Trotter evolution turns any Pauli-sum Hamiltonian into
an executable circuit.
"""

from __future__ import annotations

import math

from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.pauli import PauliSum

__all__ = [
    "qft",
    "inverse_qft",
    "ghz",
    "hardware_efficient_ansatz",
    "trotter_evolution",
    "controlled_pauli_exponential",
    "controlled_evolution",
]


def qft(num_qubits: int, include_swaps: bool = True) -> Circuit:
    """Quantum Fourier transform on ``num_qubits`` qubits.

    Convention: maps |k> to (1/sqrt(N)) sum_j exp(2 pi i j k / N) |j>
    with the little-endian bit order used throughout the package.
    """
    circ = Circuit(num_qubits)
    for q in range(num_qubits - 1, -1, -1):
        circ.h(q)
        for j in range(q - 1, -1, -1):
            angle = math.pi / (1 << (q - j))
            circ.add("cp", [j, q], angle)
    if include_swaps:
        for q in range(num_qubits // 2):
            circ.swap(q, num_qubits - 1 - q)
    return circ


def inverse_qft(num_qubits: int, include_swaps: bool = True) -> Circuit:
    """Adjoint of :func:`qft`."""
    return qft(num_qubits, include_swaps).inverse()


def ghz(num_qubits: int) -> Circuit:
    """The (|0...0> + |1...1>)/sqrt(2) preparation circuit."""
    circ = Circuit(num_qubits).h(0)
    for q in range(num_qubits - 1):
        circ.cx(q, q + 1)
    return circ


def hardware_efficient_ansatz(
    num_qubits: int,
    layers: int = 2,
    entangler: str = "linear",
    parameter_prefix: str = "w",
) -> Circuit:
    """Kandala-style hardware-efficient ansatz.

    Each layer: RY + RZ on every qubit, then a CX entangling pattern
    (``linear`` chain or ``circular`` ring).  One parameter per
    rotation — which means the parameter-shift rule applies to every
    parameter (unlike trotterized UCCSD where one parameter feeds many
    rotations).
    """
    if entangler not in ("linear", "circular"):
        raise ValueError("entangler must be 'linear' or 'circular'")
    circ = Circuit(num_qubits)
    k = 0
    for layer in range(layers):
        for q in range(num_qubits):
            circ.ry(Parameter(f"{parameter_prefix}{k}"), q)
            k += 1
            circ.rz(Parameter(f"{parameter_prefix}{k}"), q)
            k += 1
        pairs = [(q, q + 1) for q in range(num_qubits - 1)]
        if entangler == "circular" and num_qubits > 2:
            pairs.append((num_qubits - 1, 0))
        for a, b in pairs:
            circ.cx(a, b)
    # final rotation layer (standard: rotations close the circuit)
    for q in range(num_qubits):
        circ.ry(Parameter(f"{parameter_prefix}{k}"), q)
        k += 1
    return circ


def trotter_evolution(
    hamiltonian: PauliSum,
    time: float,
    steps: int = 1,
) -> Circuit:
    """First-order Trotter circuit for exp(-i H t).

    Each step applies exp(-i c_k P_k t / steps) for every term; the
    identity component contributes only a global phase and is skipped
    (callers needing the absolute phase — e.g. QPE — account for the
    identity coefficient classically).
    """
    from repro.chem.uccsd import pauli_exponential

    if not hamiltonian.is_hermitian():
        raise ValueError("evolution requires a Hermitian Hamiltonian")
    n = hamiltonian.num_qubits
    circ = Circuit(n)
    dt = time / steps
    for _ in range(steps):
        for coeff, pstr in hamiltonian:
            if pstr.is_identity:
                continue
            circ.compose(pauli_exponential(pstr, -coeff.real * dt, n))
    return circ


def controlled_pauli_exponential(
    pauli, angle: float, control: int, num_qubits: int
) -> Circuit:
    """Circuit for controlled-exp(i * angle * P) with ``control`` as the
    control qubit (P acts on other qubits).

    Same basis-rotation + CNOT-ladder pattern as the uncontrolled
    exponential, but the central RZ becomes a CRZ from the control:
    with the control in |0> the conjugation cancels to identity, with
    |1> it implements exp(i angle P) exactly.
    """
    from repro.ir.pauli import PauliString

    circ = Circuit(num_qubits)
    support = pauli.support
    if control in support:
        raise ValueError("control qubit overlaps the Pauli support")
    if not support:
        # controlled global phase: a phase gate on the control
        circ.add("p", [control], angle)
        return circ
    for q in support:
        op = pauli.op_on(q)
        if op == "X":
            circ.h(q)
        elif op == "Y":
            circ.rx(math.pi / 2, q)
    for k in range(len(support) - 1):
        circ.cx(support[k], support[k + 1])
    circ.add("crz", [control, support[-1]], -2.0 * angle)
    for k in range(len(support) - 2, -1, -1):
        circ.cx(support[k], support[k + 1])
    for q in support:
        op = pauli.op_on(q)
        if op == "X":
            circ.h(q)
        elif op == "Y":
            circ.rx(-math.pi / 2, q)
    return circ


def controlled_evolution(
    hamiltonian: PauliSum,
    time: float,
    control: int,
    num_qubits: int,
    steps: int = 1,
) -> Circuit:
    """Controlled exp(+i H t) by first-order Trotterization.

    The identity component of H becomes a controlled global phase
    (a P gate on the control), so eigenphases come out absolute —
    exactly what quantum phase estimation needs.
    """
    if not hamiltonian.is_hermitian():
        raise ValueError("evolution requires a Hermitian Hamiltonian")
    circ = Circuit(num_qubits)
    dt = time / steps
    for _ in range(steps):
        for coeff, pstr in hamiltonian:
            circ.compose(
                controlled_pauli_exponential(
                    pstr, coeff.real * dt, control, num_qubits
                )
            )
    return circ
