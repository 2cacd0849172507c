"""Restricted Hartree–Fock with DIIS acceleration.

Produces the molecular-orbital basis everything downstream consumes:
MO coefficients for the integral transformation (``repro.chem.mo``),
orbital energies for MP2 amplitudes (the source of the downfolding
sigma_ext), and the reference determinant for UCCSD/ADAPT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.chem.basis import BasisFunction, build_basis
from repro.chem.integrals import (
    HermitePairs,
    core_hamiltonian,
    eri_tensor,
    overlap_matrix,
)
from repro.chem.molecule import Molecule

__all__ = ["SCFResult", "run_rhf"]


@dataclass
class SCFResult:
    """Converged RHF solution.

    Attributes
    ----------
    energy:
        Total RHF energy (electronic + nuclear repulsion), Hartree.
    mo_coeff:
        AO->MO coefficient matrix C (columns are MOs, ascending energy).
    mo_energies:
        Orbital energies (Hartree).
    h_core, eri, overlap:
        AO-basis integrals, retained for the MO transformation.
    """

    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    mo_coeff: np.ndarray
    mo_energies: np.ndarray
    h_core: np.ndarray
    eri: np.ndarray
    overlap: np.ndarray
    num_electrons: int
    converged: bool
    iterations: int
    molecule: Molecule
    basis: List[BasisFunction]

    @property
    def num_orbitals(self) -> int:
        """Number of spatial MOs."""
        return self.mo_coeff.shape[1]

    @property
    def num_occupied(self) -> int:
        """Number of doubly-occupied spatial MOs."""
        return self.num_electrons // 2


def _build_fock(h: np.ndarray, eri: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """F = h + J - K/2 with density matrix D = 2 C_occ C_occ^T."""
    j = np.einsum("pqrs,rs->pq", eri, dm)
    k = np.einsum("prqs,rs->pq", eri, dm)
    return h + j - 0.5 * k


def run_rhf(
    molecule: Molecule,
    basis_name: str = "sto-3g",
    max_iterations: int = 200,
    conv_tol: float = 1e-10,
    diis_size: int = 8,
) -> SCFResult:
    """Solve RHF for a closed-shell molecule.

    Raises for open shells (odd electron count): the reproduction's
    chemistry workloads are all closed-shell, matching the paper.
    """
    n_elec = molecule.num_electrons
    if n_elec % 2 != 0:
        raise ValueError("RHF requires an even number of electrons")
    n_occ = n_elec // 2
    for index, atom in enumerate(molecule.atoms):
        if not np.all(np.isfinite(atom.position)):
            raise ValueError(
                f"atom {index} ({atom.symbol}) has a non-finite coordinate: "
                f"{tuple(atom.position)}"
            )
    e_nuc = molecule.nuclear_repulsion()

    bfs = build_basis(molecule, basis_name)
    pairs = HermitePairs(bfs)  # one Hermite expansion behind all three integrals
    s = overlap_matrix(pairs)
    h = core_hamiltonian(pairs, molecule)
    eri = eri_tensor(pairs)

    # Symmetric (Loewdin) orthogonalization.
    s_vals, s_vecs = np.linalg.eigh(s)
    if np.min(s_vals) < 1e-10:
        raise ValueError("linearly dependent basis (overlap nearly singular)")
    x = s_vecs @ np.diag(s_vals ** -0.5) @ s_vecs.T

    def solve_fock(f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        fp = x.T @ f @ x
        eps, cp = np.linalg.eigh(fp)
        return eps, x @ cp

    # Core-Hamiltonian initial guess.
    eps, c = solve_fock(h)
    dm = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T

    diis_focks: List[np.ndarray] = []
    diis_errs: List[np.ndarray] = []
    e_old = 0.0
    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        f = _build_fock(h, eri, dm)

        # DIIS extrapolation on the orthonormal-basis error FDS - SDF.
        err = x.T @ (f @ dm @ s - s @ dm @ f) @ x
        diis_focks.append(f.copy())
        diis_errs.append(err)
        if len(diis_focks) > diis_size:
            diis_focks.pop(0)
            diis_errs.pop(0)
        if len(diis_focks) >= 2:
            m = len(diis_focks)
            bmat = -np.ones((m + 1, m + 1))
            bmat[m, m] = 0.0
            for i in range(m):
                for j in range(m):
                    bmat[i, j] = np.einsum("pq,pq->", diis_errs[i], diis_errs[j])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            try:
                coeffs = np.linalg.solve(bmat, rhs)[:m]
                f = sum(ci * fi for ci, fi in zip(coeffs, diis_focks))
            except np.linalg.LinAlgError:
                pass  # fall back to un-extrapolated Fock

        eps, c = solve_fock(f)
        dm_new = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        e_elec = 0.5 * np.einsum("pq,pq->", dm_new, h + _build_fock(h, eri, dm_new))
        d_e = abs(e_elec - e_old)
        d_dm = np.linalg.norm(dm_new - dm)
        dm = dm_new
        e_old = e_elec
        if d_e < conv_tol and d_dm < math_sqrt_tol(conv_tol):
            converged = True
            break

    return SCFResult(
        energy=float(e_old + e_nuc),
        electronic_energy=float(e_old),
        nuclear_repulsion=float(e_nuc),
        mo_coeff=c,
        mo_energies=eps,
        h_core=h,
        eri=eri,
        overlap=s,
        num_electrons=n_elec,
        converged=converged,
        iterations=it,
        molecule=molecule,
        basis=bfs,
    )


def math_sqrt_tol(tol: float) -> float:
    """Density-matrix convergence threshold paired with an energy
    threshold ``tol`` (energy is quadratic in the density error)."""
    return tol ** 0.5
