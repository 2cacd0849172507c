"""Second-quantized molecular Hamiltonians and active-space reduction.

``MolecularHamiltonian`` holds spatial-orbital integrals
(one-electron ``h``, chemists' two-electron ``eri``) plus a scalar
core/nuclear constant, and knows how to

* reduce itself to a frozen-core active space (the first, exact step
  of the paper's downfolding pipeline — external dynamical corrections
  are added by ``repro.chem.downfolding``),
* expand to a fermionic operator, and
* map to a qubit ``PauliSum`` under any mapping in
  ``repro.chem.mappings``.

A structurally-faithful synthetic generator is included for the
resource-counting studies (Figs. 1a/1b/3): it produces integrals with
the full 8-fold permutation symmetry of real two-electron integrals so
that JW Pauli-term counts match those of genuine chemistry
Hamiltonians of the same size — which is all those figures depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.chem.mappings import map_fermion_operator
from repro.chem.mo import MOIntegrals, spin_orbital_tensors, transform_to_mo
from repro.chem.scf import SCFResult
from repro.ir.pauli import PauliSum

__all__ = [
    "MolecularHamiltonian",
    "build_molecular_hamiltonian",
    "synthetic_two_body_hamiltonian",
]


@dataclass
class MolecularHamiltonian:
    """Spatial-orbital second-quantized Hamiltonian.

        H = constant + sum h[p,q] E_pq + 1/2 sum (pr|qs) e_pqrs

    stored via ``h`` (n x n) and chemists' ``eri`` (n x n x n x n).
    """

    constant: float
    h: np.ndarray
    eri: np.ndarray
    num_electrons: int

    @property
    def num_orbitals(self) -> int:
        return self.h.shape[0]

    @property
    def num_spin_orbitals(self) -> int:
        return 2 * self.num_orbitals

    @property
    def num_qubits(self) -> int:
        return self.num_spin_orbitals

    # -- active space ---------------------------------------------------------

    def active_space(
        self, core_orbitals: Sequence[int], active_orbitals: Sequence[int]
    ) -> "MolecularHamiltonian":
        """Exact frozen-core / restricted-active-space reduction.

        Core orbitals are kept doubly occupied and folded into the
        scalar constant and an effective one-body term; orbitals
        outside ``core + active`` are simply deleted (frozen virtuals).
        """
        core = list(core_orbitals)
        act = list(active_orbitals)
        if set(core) & set(act):
            raise ValueError("core and active orbitals overlap")
        n_core_elec = 2 * len(core)
        if n_core_elec > self.num_electrons:
            raise ValueError("more core electrons than electrons")

        # Scalar: E_core = sum_i 2 h_ii + sum_ij (2 (ii|jj) - (ij|ji))
        e_core = self.constant
        for i in core:
            e_core += 2.0 * self.h[i, i]
        for i in core:
            for j in core:
                e_core += 2.0 * self.eri[i, i, j, j] - self.eri[i, j, j, i]

        # Effective one-body: h'_pq = h_pq + sum_i (2 (pq|ii) - (pi|iq))
        na = len(act)
        h_act = np.zeros((na, na))
        for a, p in enumerate(act):
            for b, q in enumerate(act):
                val = self.h[p, q]
                for i in core:
                    val += 2.0 * self.eri[p, q, i, i] - self.eri[p, i, i, q]
                h_act[a, b] = val

        eri_act = self.eri[np.ix_(act, act, act, act)]
        return MolecularHamiltonian(
            constant=float(e_core),
            h=h_act,
            eri=eri_act,
            num_electrons=self.num_electrons - n_core_elec,
        )

    # -- operator forms -------------------------------------------------------------

    def spin_orbital_tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        """(h_so, g_so) interleaved spin-orbital tensors (see chem.mo)."""
        mo = MOIntegrals(
            h_mo=self.h,
            eri_mo=self.eri,
            mo_energies=np.zeros(self.num_orbitals),
            nuclear_repulsion=self.constant,
            num_electrons=self.num_electrons,
        )
        return spin_orbital_tensors(mo)

    def to_fermion_operator(self, threshold: float = 1e-12) -> FermionOperator:
        """H as a normal-ordered fermionic operator (constant included):
        the constant, then ``h_pq a+_p a_q`` and ``1/2 g_pqrs a+_p a+_q a_s
        a_r`` over the entries above ``threshold``, in C order."""
        h_so, g_so = self.spin_orbital_tensors()
        n_so = self.num_spin_orbitals
        cre = [(p, True) for p in range(n_so)]
        ann = [(p, False) for p in range(n_so)]
        terms = dict(FermionOperator.identity(self.constant).terms)
        p, q = np.nonzero(np.abs(h_so) > threshold)
        keys = [(cre[a], ann[b]) for a, b in zip(p.tolist(), q.tolist())]
        terms.update(zip(keys, h_so[p, q].tolist()))
        half = 0.5 * g_so
        p, q, r, s = np.nonzero(np.abs(half) > threshold)
        keys = [
            (cre[a], cre[b], ann[d], ann[c])
            for a, b, c, d in zip(p.tolist(), q.tolist(), r.tolist(), s.tolist())
        ]
        terms.update(zip(keys, half[p, q, r, s].tolist()))
        return FermionOperator(terms)

    def to_qubit(
        self, mapping: str = "jordan-wigner", threshold: float = 1e-10
    ) -> PauliSum:
        """Qubit Hamiltonian under the chosen mapping."""
        op = self.to_fermion_operator()
        return map_fermion_operator(op, self.num_spin_orbitals, mapping).chop(
            threshold
        )

    def hartree_fock_energy(self) -> float:
        """<HF|H|HF> from the stored integrals (sanity anchor)."""
        n_occ = self.num_electrons // 2
        e = self.constant
        for i in range(n_occ):
            e += 2.0 * self.h[i, i]
        for i in range(n_occ):
            for j in range(n_occ):
                e += 2.0 * self.eri[i, i, j, j] - self.eri[i, j, j, i]
        return float(e)


def build_molecular_hamiltonian(scf: SCFResult) -> MolecularHamiltonian:
    """MO-basis Hamiltonian from a converged SCF solution."""
    mo = transform_to_mo(scf)
    return MolecularHamiltonian(
        constant=mo.nuclear_repulsion,
        h=mo.h_mo,
        eri=mo.eri_mo,
        num_electrons=mo.num_electrons,
    )


def synthetic_two_body_hamiltonian(
    num_spatial_orbitals: int,
    num_electrons: Optional[int] = None,
    seed: int = 0,
    scale_one_body: float = 1.0,
    scale_two_body: float = 0.1,
) -> MolecularHamiltonian:
    """Random integrals with real-chemistry index symmetries.

    ``h`` is symmetric; ``eri`` carries the full 8-fold symmetry of
    real-orbital two-electron integrals.  Used for the Fig. 1a/1b/3
    scaling studies, where only the *structure* (which Pauli strings
    JW can produce) matters — a cc-pV5Z H2O active space of the same
    size has the same term census.
    """
    rng = np.random.default_rng(seed)
    n = num_spatial_orbitals
    if num_electrons is None:
        num_electrons = n  # half filling (n of 2n spin orbitals)
    h = rng.normal(scale=scale_one_body, size=(n, n))
    h = 0.5 * (h + h.T)
    eri = rng.normal(scale=scale_two_body, size=(n, n, n, n))
    # Symmetrize: (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq) and transposes.
    eri = eri + eri.transpose(1, 0, 2, 3)
    eri = eri + eri.transpose(0, 1, 3, 2)
    eri = eri + eri.transpose(2, 3, 0, 1)
    eri /= 8.0
    return MolecularHamiltonian(
        constant=0.0, h=h, eri=eri, num_electrons=num_electrons
    )
