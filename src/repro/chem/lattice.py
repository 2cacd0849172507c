"""Lattice-model Hamiltonians: transverse-field Ising, Heisenberg,
Fermi–Hubbard.

The paper's introduction motivates quantum simulation "from quantum
chemistry to materials science"; these standard lattice models are the
materials-science workloads.  Spin models are built directly as Pauli
sums; the Fermi–Hubbard model is built as a ``FermionOperator`` and
mapped through the same Jordan–Wigner machinery as the molecular
Hamiltonians, so the entire VQE/ADAPT/QPE stack applies unchanged.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.chem.fermion import FermionOperator
from repro.chem.mappings import map_fermion_operator
from repro.ir.pauli import PauliString, PauliSum

__all__ = [
    "transverse_field_ising",
    "heisenberg_xxz",
    "fermi_hubbard",
    "fermi_hubbard_qubit",
]


def _chain_edges(num_sites: int, periodic: bool) -> List[Tuple[int, int]]:
    edges = [(i, i + 1) for i in range(num_sites - 1)]
    if periodic and num_sites > 2:
        edges.append((num_sites - 1, 0))
    return edges


def transverse_field_ising(
    num_sites: int, j: float = 1.0, h: float = 1.0, periodic: bool = False
) -> PauliSum:
    """H = -J sum ZZ - h sum X on a chain."""
    if num_sites < 2:
        raise ValueError("need at least two sites")
    out = PauliSum.zero(num_sites)
    for a, b in _chain_edges(num_sites, periodic):
        out.add_term(PauliString.from_ops(num_sites, {a: "Z", b: "Z"}), -j)
    for q in range(num_sites):
        out.add_term(PauliString.from_ops(num_sites, {q: "X"}), -h)
    return out


def heisenberg_xxz(
    num_sites: int,
    j_xy: float = 1.0,
    j_z: float = 1.0,
    field: float = 0.0,
    periodic: bool = False,
) -> PauliSum:
    """H = sum [ J_xy (XX + YY) + J_z ZZ ] + field * sum Z."""
    if num_sites < 2:
        raise ValueError("need at least two sites")
    out = PauliSum.zero(num_sites)
    for a, b in _chain_edges(num_sites, periodic):
        out.add_term(PauliString.from_ops(num_sites, {a: "X", b: "X"}), j_xy)
        out.add_term(PauliString.from_ops(num_sites, {a: "Y", b: "Y"}), j_xy)
        out.add_term(PauliString.from_ops(num_sites, {a: "Z", b: "Z"}), j_z)
    if field != 0.0:
        for q in range(num_sites):
            out.add_term(PauliString.from_ops(num_sites, {q: "Z"}), field)
    return out


def fermi_hubbard(
    num_sites: int,
    tunneling: float = 1.0,
    interaction: float = 4.0,
    chemical_potential: float = 0.0,
    periodic: bool = False,
) -> FermionOperator:
    """1-D Fermi–Hubbard chain in second quantization.

    Spin orbital ``2 s`` is the up spin of site ``s`` and ``2 s + 1``
    the down spin (the same interleaved convention as the chemistry
    stack):

        H = -t sum_{<rs>, sigma} (a+_{r sigma} a_{s sigma} + h.c.)
            + U sum_r n_{r up} n_{r down}
            - mu sum_{r sigma} n_{r sigma}
    """
    if num_sites < 2:
        raise ValueError("need at least two sites")
    op = FermionOperator()
    for a, b in _chain_edges(num_sites, periodic):
        for sigma in (0, 1):
            p, q = 2 * a + sigma, 2 * b + sigma
            op = op + FermionOperator.term([(p, True), (q, False)], -tunneling)
            op = op + FermionOperator.term([(q, True), (p, False)], -tunneling)
    for r in range(num_sites):
        up, down = 2 * r, 2 * r + 1
        op = op + FermionOperator.term(
            [(up, True), (up, False), (down, True), (down, False)], interaction
        )
        if chemical_potential != 0.0:
            for s in (up, down):
                op = op + FermionOperator.term(
                    [(s, True), (s, False)], -chemical_potential
                )
    return op


def fermi_hubbard_qubit(
    num_sites: int,
    tunneling: float = 1.0,
    interaction: float = 4.0,
    chemical_potential: float = 0.0,
    periodic: bool = False,
    mapping: str = "jordan-wigner",
) -> PauliSum:
    """Qubit form of :func:`fermi_hubbard` (2 qubits per site)."""
    op = fermi_hubbard(
        num_sites, tunneling, interaction, chemical_potential, periodic
    )
    return map_fermion_operator(op, 2 * num_sites, mapping)
