"""AO -> MO integral transformation and spin-orbital tensors.

Conventions used throughout the chemistry stack:

* Spatial MO integrals: ``h_mo[p, q]`` one-electron; ``eri_mo`` in
  *chemists'* notation ``(pq|rs)``.
* Spin orbitals are **interleaved**: spin orbital ``2p`` is the alpha
  spin of spatial orbital ``p`` and ``2p + 1`` its beta spin.  Under
  Jordan–Wigner this maps spin orbital ``i`` to qubit ``i``.
* The second-quantized Hamiltonian is

      H = E_nuc + sum_{PQ} h[P,Q] a+_P a_Q
          + 1/2 sum_{PQRS} g[P,Q,R,S] a+_P a+_Q a_S a_R

  with ``g`` in *physicists'* notation <PQ|RS> = (PR|QS) delta_spin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.chem.scf import SCFResult

__all__ = ["MOIntegrals", "transform_to_mo", "spin_orbital_tensors"]


@dataclass
class MOIntegrals:
    """Spatial-orbital MO integrals plus metadata."""

    h_mo: np.ndarray          # (n, n) one-electron
    eri_mo: np.ndarray        # (n, n, n, n), chemists' (pq|rs)
    mo_energies: np.ndarray
    nuclear_repulsion: float
    num_electrons: int

    @property
    def num_orbitals(self) -> int:
        return self.h_mo.shape[0]

    @property
    def num_occupied(self) -> int:
        return self.num_electrons // 2


def transform_to_mo(scf: SCFResult) -> MOIntegrals:
    """Four-index transform of the AO integrals into the MO basis."""
    c = scf.mo_coeff
    h_mo = c.T @ scf.h_core @ c
    # Sequential quarter-transformations: O(n^5) instead of O(n^8).
    eri = np.einsum("pqrs,pi->iqrs", scf.eri, c, optimize=True)
    eri = np.einsum("iqrs,qj->ijrs", eri, c, optimize=True)
    eri = np.einsum("ijrs,rk->ijks", eri, c, optimize=True)
    eri_mo = np.einsum("ijks,sl->ijkl", eri, c, optimize=True)
    return MOIntegrals(
        h_mo=h_mo,
        eri_mo=eri_mo,
        mo_energies=scf.mo_energies.copy(),
        nuclear_repulsion=scf.nuclear_repulsion,
        num_electrons=scf.num_electrons,
    )


def spin_orbital_tensors(
    mo: MOIntegrals,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand spatial MO integrals to interleaved spin orbitals.

    Returns ``(h_so, g_so)`` with ``h_so`` of shape (2n, 2n) and
    ``g_so[P,Q,R,S] = <PQ|RS>`` physicists' notation of shape (2n,)*4.
    """
    n = mo.num_orbitals
    h_so = np.zeros((2 * n, 2 * n))
    g_so = np.zeros((2 * n,) * 4)
    # Views indexed [p, sp, q, sq, ...]: spin orbital P = 2p + sp.
    h_view = h_so.reshape(n, 2, n, 2)
    g_view = g_so.reshape((n, 2) * 4)
    # <PQ|RS> = (PR|QS) * delta(sP,sR) * delta(sQ,sS), one strided
    # assignment per spin pair.
    phys = mo.eri_mo.transpose(0, 2, 1, 3)
    for sp in (0, 1):
        h_view[:, sp, :, sp] = mo.h_mo
        for sq in (0, 1):
            g_view[:, sp, :, sq, :, sp, :, sq] = phys
    return h_so, g_so
