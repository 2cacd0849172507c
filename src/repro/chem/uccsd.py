"""UCCSD ansatz generation and compilation to circuits.

The unitary coupled-cluster singles-and-doubles ansatz

    |psi(theta)> = exp(T(theta) - T(theta)^dag) |HF>

is compiled by first-order Trotterization: each excitation generator
(anti-Hermitian, mapped through Jordan–Wigner to a sum of mutually
commuting Pauli strings) becomes a block of Pauli-exponential
sub-circuits sharing one variational parameter.  Each
``exp(i phi P)`` compiles to the textbook pattern: basis rotations to
Z, a CNOT parity ladder, one RZ(-2 phi), and the mirrored suffix.

This is the circuit family behind Figs. 1a and 4 of the paper (gate
count scaling and fusion savings), so the module also provides
analytic gate/parameter counting that agrees exactly with the built
circuits (cross-validated in tests) and stays cheap at 30+ qubits
where materializing the circuit would be wasteful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.chem.mappings import map_fermion_operators
from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.pauli import PauliString, PauliSum

__all__ = [
    "uccsd_excitations",
    "excitation_generator",
    "uccsd_generators",
    "pauli_exponential",
    "compile_evolution",
    "build_uccsd_circuit",
    "count_uccsd_gates",
    "UCCSDAnsatz",
]


def uccsd_excitations(
    num_spin_orbitals: int, num_electrons: int
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, int, int]]]:
    """Spin-preserving single and double excitations from the
    HF-occupied spin orbitals (the lowest ``num_electrons``, interleaved
    convention) into the virtuals.

    Returns (singles, doubles): singles as (i, a), doubles as
    (i, j, a, b) with i<j, a<b, total spin projection conserved.
    """
    occ = list(range(num_electrons))
    virt = list(range(num_electrons, num_spin_orbitals))
    singles = [(i, a) for i in occ for a in virt if (i - a) % 2 == 0]
    doubles = []
    for ii, i in enumerate(occ):
        for j in occ[ii + 1:]:
            for ai, a in enumerate(virt):
                for b in virt[ai + 1:]:
                    spin_change = (i % 2) + (j % 2) - (a % 2) - (b % 2)
                    if spin_change == 0:
                        doubles.append((i, j, a, b))
    return singles, doubles


def excitation_generator(excitation: Sequence[int]) -> FermionOperator:
    """Anti-Hermitian generator G = T - T^dag for one excitation."""
    if len(excitation) == 2:
        i, a = excitation
        t = FermionOperator.term([(a, True), (i, False)])
    elif len(excitation) == 4:
        i, j, a, b = excitation
        t = FermionOperator.term([(a, True), (b, True), (j, False), (i, False)])
    else:
        raise ValueError("excitation must have 2 or 4 indices")
    return (t - t.dagger()).normal_ordered()


def uccsd_generators(
    num_spin_orbitals: int, num_electrons: int
) -> List[Tuple[Tuple[int, ...], PauliSum]]:
    """All UCCSD generators mapped to qubit operators.

    Each entry is ``(excitation_indices, A)`` with ``A``
    anti-Hermitian; ``exp(theta A)`` is the ansatz factor.
    """
    singles, doubles = uccsd_excitations(num_spin_orbitals, num_electrons)
    excitations = list(singles) + list(doubles)
    mapped = map_fermion_operators(
        [excitation_generator(exc) for exc in excitations], num_spin_orbitals
    )
    return [(tuple(exc), a) for exc, a in zip(excitations, mapped) if a.num_terms]


def pauli_exponential(
    pauli: PauliString, angle, num_qubits: int
) -> Circuit:
    """Circuit for exp(i * angle * P).

    ``angle`` may be a float or a :class:`Parameter` (affine in the
    variational parameter).  Pattern: rotate X/Y factors to Z, entangle
    the support with a CNOT ladder, RZ(-2 * angle) on the last support
    qubit, then mirror.
    """
    circ = Circuit(num_qubits)
    support = pauli.support
    if not support:
        return circ  # exp(i a I) is a global phase
    for q in support:
        op = pauli.op_on(q)
        if op == "X":
            circ.h(q)
        elif op == "Y":
            # RX(pi/2) conjugation maps Y -> Z.
            circ.rx(np.pi / 2, q)
    for k in range(len(support) - 1):
        circ.cx(support[k], support[k + 1])
    rz_angle = angle * (-2.0) if isinstance(angle, Parameter) else -2.0 * angle
    circ.rz(rz_angle, support[-1])
    for k in range(len(support) - 2, -1, -1):
        circ.cx(support[k], support[k + 1])
    for q in support:
        op = pauli.op_on(q)
        if op == "X":
            circ.h(q)
        elif op == "Y":
            circ.rx(-np.pi / 2, q)
    return circ


def compile_evolution(
    generator: PauliSum, angle, num_qubits: int
) -> Circuit:
    """Compile exp(angle * A) for anti-Hermitian A = sum_k i c_k P_k.

    Writes each term as exp(i (angle * c_k) P_k); for UCCSD generators
    the P_k mutually commute so the product is exact (no Trotter error
    within one excitation block).
    """
    circ = Circuit(num_qubits)
    for coeff, pstr in generator:
        if abs(coeff.real) > 1e-12:
            raise ValueError("generator must be anti-Hermitian (i * real)")
        c = coeff.imag
        if abs(c) < 1e-14:
            continue
        sub_angle = angle * c if isinstance(angle, Parameter) else angle * c
        circ.compose(pauli_exponential(pstr, sub_angle, num_qubits))
    return circ


@dataclass
class UCCSDAnsatz:
    """A built UCCSD ansatz: parameterized circuit + generator list."""

    circuit: Circuit
    generators: List[Tuple[Tuple[int, ...], PauliSum]]
    num_spin_orbitals: int
    num_electrons: int

    @property
    def num_parameters(self) -> int:
        return len(self.generators)


def build_uccsd_circuit(
    num_spin_orbitals: int,
    num_electrons: int,
    include_reference: bool = True,
    trotter_steps: int = 1,
) -> UCCSDAnsatz:
    """The full parameterized UCCSD circuit (JW mapping).

    Parameters are named ``t0 .. t{m-1}``, one per excitation; with
    ``trotter_steps > 1`` each step applies every generator with
    angle theta/steps.
    """
    gens = uccsd_generators(num_spin_orbitals, num_electrons)
    circ = Circuit(num_spin_orbitals)
    if include_reference:
        for q in range(num_electrons):
            circ.x(q)
    for _ in range(trotter_steps):
        for k, (_, a) in enumerate(gens):
            theta = Parameter(f"t{k}", coeff=1.0 / trotter_steps)
            circ.compose(compile_evolution(a, theta, num_spin_orbitals))
    return UCCSDAnsatz(
        circuit=circ,
        generators=gens,
        num_spin_orbitals=num_spin_orbitals,
        num_electrons=num_electrons,
    )


def count_uccsd_gates(
    num_spin_orbitals: int,
    num_electrons: Optional[int] = None,
    include_reference: bool = True,
    trotter_steps: int = 1,
) -> dict:
    """Analytic UCCSD gate count (matches ``build_uccsd_circuit``).

    Cheap at any width — used by the Fig. 1a scaling sweep where the
    30-qubit circuit has millions of gates.  Under JW, a single
    excitation (i -> a) yields 2 Pauli strings of weight (a - i + 1)
    with 2 X/Y factors; a double excitation yields 8 strings with
    4 X/Y factors and Z-ladders over the inner index gaps.  Each
    string of weight w and x/y count m costs 2m basis gates +
    2(w - 1) CNOTs + 1 RZ.
    """
    if num_electrons is None:
        num_electrons = num_spin_orbitals // 2  # half filling
    singles, doubles = uccsd_excitations(num_spin_orbitals, num_electrons)
    gates = num_electrons if include_reference else 0
    two_q = 0
    for i, a in singles:
        w = a - i + 1  # X/Y endpoints + Z chain between
        per_string = 2 * 2 + 2 * (w - 1) + 1
        gates += 2 * per_string * trotter_steps
        two_q += 2 * 2 * (w - 1) * trotter_steps
    for i, j, a, b in doubles:
        # support: {i, j, a, b} + Z chains inside (i, j) and (a, b)
        w = 4 + max(0, j - i - 1) + max(0, b - a - 1)
        per_string = 2 * 4 + 2 * (w - 1) + 1
        gates += 8 * per_string * trotter_steps
        two_q += 8 * 2 * (w - 1) * trotter_steps
    return {
        "num_singles": len(singles),
        "num_doubles": len(doubles),
        "num_parameters": len(singles) + len(doubles),
        "total_gates": gates,
        "two_qubit_gates": two_q,
    }
