"""Operator pools for ADAPT-VQE (paper §5.3, refs [4, 16, 17]).

A pool is a list of anti-Hermitian generators ``A_k``; each ADAPT
iteration measures the energy gradient ``<psi|[H, A_k]|psi>`` of every
candidate and appends ``exp(theta A)`` for the largest-gradient
operator.  Two standard pools are provided:

* ``uccsd_pool`` — fermionic singles + doubles generators (the pool of
  the original ADAPT-VQE paper [4]),
* ``qubit_pool`` — the individual Pauli strings appearing in those
  generators, each taken as an independent generator ``i P`` (the
  qubit-ADAPT pool of [16]; shallower circuits, more iterations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.chem.uccsd import uccsd_generators
from repro.ir.pauli import PauliString, PauliSum

__all__ = ["PoolOperator", "uccsd_pool", "qubit_pool"]


@dataclass
class PoolOperator:
    """One pool candidate: a label plus its anti-Hermitian generator."""

    label: str
    generator: PauliSum

    @property
    def num_qubits(self) -> int:
        return self.generator.num_qubits


def uccsd_pool(num_spin_orbitals: int, num_electrons: int) -> List[PoolOperator]:
    """Fermionic UCCSD singles + doubles pool."""
    pool = []
    for exc, a in uccsd_generators(num_spin_orbitals, num_electrons):
        label = (
            f"s({exc[0]}->{exc[1]})"
            if len(exc) == 2
            else f"d({exc[0]},{exc[1]}->{exc[2]},{exc[3]})"
        )
        pool.append(PoolOperator(label=label, generator=a))
    return pool


def qubit_pool(num_spin_orbitals: int, num_electrons: int) -> List[PoolOperator]:
    """Qubit-ADAPT pool: each Pauli string of the UCCSD generators as
    an independent generator i*P (Z-ladders stripped, following [16])."""
    seen = set()
    pool: List[PoolOperator] = []
    n = num_spin_orbitals
    for _, a in uccsd_generators(num_spin_orbitals, num_electrons):
        for _, pstr in a:
            # Strip the JW Z-ladder: keep X/Y pattern only (qubit pool
            # operators need not be fermionic).
            x = pstr.x
            z = pstr.z & pstr.x  # keep Z only where combined with X (i.e. Y)
            stripped = PauliString(n, x, z)
            key = (stripped.x, stripped.z)
            if key in seen or stripped.is_identity:
                continue
            seen.add(key)
            pool.append(
                PoolOperator(
                    label=f"p({stripped.label()})",
                    generator=PauliSum.from_string(stripped, 1j),
                )
            )
    return pool

