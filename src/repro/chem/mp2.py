"""MP2 amplitudes and energy in the spin-orbital basis.

Second-order Moller–Plesset doubles amplitudes serve two roles here:

* a correlation-energy sanity anchor for the integral/SCF stack, and
* the external cluster amplitudes sigma_ext feeding the Hermitian
  downfolding commutator expansion (paper §2, Eq. 2) — exactly the
  perturbative seed the coupled-cluster downfolding literature uses
  for the external (out-of-active-space) excitations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.hamiltonian import MolecularHamiltonian
from repro.chem.mo import MOIntegrals, spin_orbital_tensors

__all__ = ["MP2Result", "run_mp2"]


@dataclass
class MP2Result:
    """MP2 doubles amplitudes ``t[i, j, a, b]`` (spin-orbital,
    antisymmetrized convention) and the correlation energy."""

    t2: np.ndarray
    correlation_energy: float
    orbital_energies_so: np.ndarray
    num_occupied_so: int

    @property
    def num_spin_orbitals(self) -> int:
        return self.orbital_energies_so.shape[0]


def run_mp2(
    hamiltonian: MolecularHamiltonian, mo_energies: np.ndarray
) -> MP2Result:
    """MP2 from spatial integrals + orbital energies.

    Amplitudes: t_ijab = <ij||ab> / (e_i + e_j - e_a - e_b) with
    <ij||ab> = <ij|ab> - <ij|ba> over spin orbitals (interleaved).
    Energy: E2 = 1/4 sum |<ij||ab>|^2 / D_ijab.
    """
    mo = MOIntegrals(
        h_mo=hamiltonian.h,
        eri_mo=hamiltonian.eri,
        mo_energies=mo_energies,
        nuclear_repulsion=hamiltonian.constant,
        num_electrons=hamiltonian.num_electrons,
    )
    _, g_so = spin_orbital_tensors(mo)
    n_so = 2 * hamiltonian.num_orbitals
    n_occ = hamiltonian.num_electrons
    eps = np.repeat(mo_energies, 2)

    occ = slice(0, n_occ)
    virt = slice(n_occ, n_so)

    # Antisymmetrized <ij||ab>
    g_oovv = g_so[occ, occ, virt, virt]
    g_anti = g_oovv - g_oovv.transpose(0, 1, 3, 2)

    e_occ = eps[occ]
    e_virt = eps[virt]
    denom = (
        e_occ[:, None, None, None]
        + e_occ[None, :, None, None]
        - e_virt[None, None, :, None]
        - e_virt[None, None, None, :]
    )
    with np.errstate(divide="raise"):
        t2 = g_anti / denom

    e2 = 0.25 * float(np.sum(g_anti * t2))
    return MP2Result(
        t2=t2,
        correlation_energy=e2,
        orbital_energies_so=eps,
        num_occupied_so=n_occ,
    )
