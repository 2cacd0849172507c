"""Automatic active-space selection from MP2 natural orbitals.

The downfolding workflow (paper §2) needs an active/external orbital
partition as input.  Choosing it by hand works for water; a production
pipeline selects it from the correlated one-particle density: orbitals
whose MP2 natural-occupation numbers are close to 2 (inert core) or 0
(inert virtual) belong to the external space, and the fractional ones
carry the correlation the active space must keep.

``select_active_space`` ranks spatial orbitals by their distance from
integer occupation and returns the (core, active) partition for a
requested active-space size — reproducing the hand-picked choice for
the paper's H2O system (O 1s frozen, 6 active orbitals) from first
principles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.chem.hamiltonian import MolecularHamiltonian
from repro.chem.mp2 import run_mp2

__all__ = ["ActiveSpaceSelection", "mp2_natural_occupations", "select_active_space"]


@dataclass
class ActiveSpaceSelection:
    """A chosen partition plus the evidence behind it."""

    core_orbitals: List[int]
    active_orbitals: List[int]
    frozen_virtuals: List[int]
    natural_occupations: np.ndarray
    total_electrons: int = 0

    @property
    def num_active_electrons(self) -> int:
        """Electrons left for the active space after freezing the core."""
        return self.total_electrons - 2 * len(self.core_orbitals)


def mp2_natural_occupations(
    hamiltonian: MolecularHamiltonian, mo_energies: np.ndarray
) -> np.ndarray:
    """Diagonal of the MP2 one-particle density in spatial orbitals.

    n_i = 2 - 1/2 sum_{jab} |t_ijab|^2   (occupied depletion)
    n_a =     1/2 sum_{ijb} |t_ijab|^2   (virtual population)

    computed from spin-orbital amplitudes and folded back to spatial
    orbitals (alpha + beta).
    """
    mp2 = run_mp2(hamiltonian, mo_energies)
    t2 = mp2.t2
    n_occ_so = mp2.num_occupied_so
    n_so = mp2.num_spin_orbitals
    n_spatial = n_so // 2

    occ_so = np.zeros(n_so)
    occ_so[:n_occ_so] = 1.0
    # depletion of occupied spin orbital i
    dep = 0.5 * np.einsum("ijab->i", np.abs(t2) ** 2)
    # population of virtual spin orbital a
    pop = 0.5 * np.einsum("ijab->a", np.abs(t2) ** 2)
    occ_so[:n_occ_so] -= dep
    occ_so[n_occ_so:] += pop

    spatial = np.zeros(n_spatial)
    for p in range(n_spatial):
        spatial[p] = occ_so[2 * p] + occ_so[2 * p + 1]
    return spatial


def select_active_space(
    hamiltonian: MolecularHamiltonian,
    mo_energies: np.ndarray,
    num_active_orbitals: int,
) -> ActiveSpaceSelection:
    """Pick the ``num_active_orbitals`` most fractionally-occupied
    orbitals as active; inert occupied orbitals become core, inert
    virtuals are dropped.

    The returned core/active lists are sorted and directly usable as
    the ``core_orbitals``/``active_orbitals`` arguments of
    ``repro.chem.downfolding.hermitian_downfold``.
    """
    n_spatial = hamiltonian.num_orbitals
    if not 1 <= num_active_orbitals <= n_spatial:
        raise ValueError("bad active-space size")
    n_occ = hamiltonian.num_electrons // 2
    occ = mp2_natural_occupations(hamiltonian, np.asarray(mo_energies))
    # distance from inert occupation (2 for i < n_occ, 0 for virtuals)
    inert = np.where(np.arange(n_spatial) < n_occ, 2.0, 0.0)
    fractionality = np.abs(occ - inert)
    ranked = list(np.argsort(-fractionality))
    active = sorted(int(p) for p in ranked[:num_active_orbitals])
    core = sorted(p for p in range(n_occ) if p not in active)
    frozen_virt = sorted(
        p for p in range(n_occ, n_spatial) if p not in active
    )
    return ActiveSpaceSelection(
        core_orbitals=core,
        active_orbitals=active,
        frozen_virtuals=frozen_virt,
        natural_occupations=occ,
        total_electrons=hamiltonian.num_electrons,
    )
