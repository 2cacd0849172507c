"""Coupled-cluster downfolding (paper §2).

Two variants, mirroring the paper's taxonomy:

**Hermitian downfolding** (unitary-CC based, Eq. 2): the external
cluster operator sigma_ext (anti-Hermitian, seeded from MP2 doubles
that touch external orbitals) is integrated out through a truncated
commutator expansion

    H_eff = H + [H, sigma] + 1/2 [[H, sigma], sigma] + ...

computed *exactly in Pauli-string algebra* (products of Pauli strings
stay Pauli strings, so each commutator is closed-form bit arithmetic;
see ``repro.ir.pauli``).  The transformed operator is then projected
onto the active register by freezing every external qubit at its
reference occupation, yielding a Hermitian effective Hamiltonian on
2 * n_active qubits that downstream VQE consumes — this is the
"downfolded 6-orbital H2O" object of Fig. 5.

**Non-Hermitian downfolding** (Eq. 1): Loewdin/Brillouin–Wigner
partitioning in the determinant basis,
``H_eff(E) = H_AA + H_AX (E - H_XX)^{-1} H_XA``, solved
self-consistently in E.  Its fixed point reproduces the *full-space*
eigenvalue exactly with only active-space dimensionality — the
equivalence theorem the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.chem.fermion import FermionOperator
from repro.chem.hamiltonian import MolecularHamiltonian
from repro.chem.mappings import jordan_wigner
from repro.chem.mp2 import MP2Result, run_mp2
from repro.ir.pauli import PauliString, PauliSum
from repro.utils.bitops import sector_indices

__all__ = [
    "DownfoldingResult",
    "external_sigma",
    "project_onto_reference",
    "hermitian_downfold",
    "nonhermitian_downfold_energy",
]


@dataclass
class DownfoldingResult:
    """Hermitian downfolding output.

    ``effective_hamiltonian`` acts on the active qubits only and
    carries the commutator corrections; ``bare_hamiltonian`` is the
    plain frozen-reference projection (order 0), kept for ablation —
    the accuracy gap between the two is the value downfolding adds.
    """

    effective_hamiltonian: PauliSum
    bare_hamiltonian: PauliSum
    num_active_qubits: int
    num_electrons: int
    sigma_norm1: float
    order: int
    active_spin_orbitals: List[int]


def external_sigma(
    mp2: MP2Result,
    active_spin_orbitals: Sequence[int],
) -> FermionOperator:
    """Anti-Hermitian external cluster operator sigma_ext.

    Built from MP2 doubles amplitudes t_ijab restricted to excitations
    with at least one index *outside* the active spin-orbital set:
    sigma = T2_ext - T2_ext^dagger with
    T2 = sum_{i<j, a<b} t_ijab a+_a a+_b a_j a_i.
    """
    act = set(active_spin_orbitals)
    n_occ = mp2.num_occupied_so
    t2 = mp2.t2
    n_virt = t2.shape[2]
    t_op = FermionOperator()
    for i in range(n_occ):
        for j in range(i + 1, n_occ):
            for a_rel in range(n_virt):
                a = n_occ + a_rel
                for b_rel in range(a_rel + 1, n_virt):
                    b = n_occ + b_rel
                    amp = t2[i, j, a_rel, b_rel]
                    if abs(amp) < 1e-12:
                        continue
                    if {i, j, a, b} <= act:
                        continue  # internal excitation: stays for VQE
                    t_op = t_op + FermionOperator.term(
                        [(a, True), (b, True), (j, False), (i, False)], amp
                    )
    return (t_op - t_op.dagger()).normal_ordered()


def project_onto_reference(
    operator: PauliSum,
    active_qubits: Sequence[int],
    occupied_external: Sequence[int],
) -> PauliSum:
    """Freeze non-active qubits at their reference occupation.

    Every Pauli term factors as P_active (x) P_external; the external
    factor is replaced by its reference expectation value:
    0 for any X/Y factor, (-1)^{#Z on occupied} otherwise.  Active
    qubits are re-labelled 0..len(active)-1 preserving order.
    """
    n = operator.num_qubits
    act = list(active_qubits)
    act_set = set(act)
    occ_ext = set(occupied_external)
    if occ_ext & act_set:
        raise ValueError("occupied_external overlaps active qubits")
    ext_mask = 0
    for q in range(n):
        if q not in act_set:
            ext_mask |= 1 << q
    occ_mask = 0
    for q in occ_ext:
        occ_mask |= 1 << q

    pos = {q: k for k, q in enumerate(act)}
    out = PauliSum.zero(len(act))
    for (x, z), coeff in operator.terms.items():
        if x & ext_mask:
            continue  # X/Y on a frozen qubit: zero reference expectation
        sign = -1.0 if bin(z & occ_mask).count("1") % 2 else 1.0
        new_x = new_z = 0
        zx_act = (x | z) & ~ext_mask
        for q in act:
            bit = 1 << q
            if x & bit:
                new_x |= 1 << pos[q]
            if z & bit:
                new_z |= 1 << pos[q]
        out.add_term(PauliString(len(act), new_x, new_z), coeff * sign)
    return out.chop(1e-14)


def _bch(
    h: PauliSum, sigma: PauliSum, order: int, threshold: float
) -> PauliSum:
    """Truncated BCH series H + [H,s] + 1/2 [[H,s],s] + ... (Eq. 2)."""
    heff = h
    nested = h
    factorial = 1.0
    for k in range(1, order + 1):
        nested = nested.commutator(sigma).chop(threshold)
        factorial *= k
        heff = heff + nested * (1.0 / factorial)
    return heff.chop(threshold)


def hermitian_downfold(
    full_hamiltonian: MolecularHamiltonian,
    mo_energies: np.ndarray,
    core_orbitals: Sequence[int],
    active_orbitals: Sequence[int],
    order: int = 2,
    threshold: float = 1e-9,
) -> DownfoldingResult:
    """Hermitian CC downfolding onto an active space.

    Parameters
    ----------
    full_hamiltonian:
        The full MO-basis Hamiltonian (all orbitals).
    mo_energies:
        Orbital energies (for MP2 external amplitudes).
    core_orbitals / active_orbitals:
        Spatial-orbital partitions; anything else is a frozen virtual.
    order:
        Commutator truncation order of Eq. 2 (paper uses 2).
    threshold:
        Pauli-coefficient chop threshold between commutator levels.
    """
    n_spatial = full_hamiltonian.num_orbitals
    n_so = full_hamiltonian.num_spin_orbitals
    core = sorted(core_orbitals)
    active = sorted(active_orbitals)
    frozen_virtual = [
        p for p in range(n_spatial) if p not in core and p not in active
    ]
    active_so = [2 * p + s for p in active for s in (0, 1)]
    active_so.sort()
    core_so = sorted(2 * p + s for p in core for s in (0, 1))

    h_q = full_hamiltonian.to_qubit("jordan-wigner")
    mp2 = run_mp2(full_hamiltonian, np.asarray(mo_energies))
    sigma_f = external_sigma(mp2, active_so)
    sigma_q = jordan_wigner(sigma_f, n_so)

    bare = project_onto_reference(h_q, active_so, core_so)
    if sigma_q.num_terms == 0 or order == 0:
        heff_act = bare
    else:
        heff_full = _bch(h_q, sigma_q, order, threshold)
        heff_act = project_onto_reference(heff_full, active_so, core_so)

    return DownfoldingResult(
        effective_hamiltonian=heff_act,
        bare_hamiltonian=bare,
        num_active_qubits=len(active_so),
        num_electrons=full_hamiltonian.num_electrons - 2 * len(core),
        sigma_norm1=sigma_q.norm1(),
        order=order,
        active_spin_orbitals=active_so,
    )


def nonhermitian_downfold_energy(
    full_hamiltonian: MolecularHamiltonian,
    core_orbitals: Sequence[int],
    active_orbitals: Sequence[int],
    energy_guess: Optional[float] = None,
    tol: float = 1e-10,
    max_iterations: int = 100,
) -> Tuple[float, int]:
    """Self-consistent Loewdin (Brillouin–Wigner) downfolded energy.

    Partitions the particle-number sector of the determinant space
    into active-reference determinants (external orbitals at reference
    occupation) and the rest, and iterates
    ``E <- min eig [ H_AA + H_AX (E - H_XX)^{-1} H_XA ]``.
    The fixed point equals the exact full-space eigenvalue (the
    equivalence theorem of paper §2) — returned with the iteration
    count.
    """
    n_spatial = full_hamiltonian.num_orbitals
    core = sorted(core_orbitals)
    active = sorted(active_orbitals)
    active_so = sorted(2 * p + s for p in active for s in (0, 1))
    core_so = sorted(2 * p + s for p in core for s in (0, 1))
    n_so = full_hamiltonian.num_spin_orbitals

    h_q = full_hamiltonian.to_qubit("jordan-wigner")
    n_elec = full_hamiltonian.num_electrons
    sector = sector_indices(n_so, num_particles=n_elec, sz=0)

    core_mask = sum(1 << q for q in core_so)
    ext_virtual_mask = sum(
        1 << q
        for q in range(n_so)
        if q not in set(active_so) and q not in set(core_so)
    )
    in_a = ((sector & core_mask) == core_mask) & ((sector & ext_virtual_mask) == 0)
    idx_a = sector[in_a]
    idx_x = sector[~in_a]
    if idx_a.size == 0:
        raise ValueError("active reference block is empty")

    h_aa = h_q.matrix_block(idx_a, idx_a).toarray()
    h_ax = h_q.matrix_block(idx_a, idx_x).toarray()
    h_xa = h_q.matrix_block(idx_x, idx_a).toarray()
    h_xx = h_q.matrix_block(idx_x, idx_x).toarray()

    e = float(energy_guess) if energy_guess is not None else float(
        np.min(np.real(np.diag(h_aa)))
    )
    its = 0
    for its in range(1, max_iterations + 1):
        try:
            resolvent = np.linalg.solve(
                e * np.eye(h_xx.shape[0]) - h_xx, h_xa
            )
        except np.linalg.LinAlgError:
            e += 1e-6  # nudge off a singular resolvent
            continue
        heff = h_aa + h_ax @ resolvent
        # Non-Hermitian effective matrix: take the lowest real eigenvalue.
        vals = np.linalg.eigvals(heff)
        vals = vals[np.abs(vals.imag) < 1e-8].real
        e_new = float(np.min(vals))
        if abs(e_new - e) < tol:
            return e_new, its
        e = e_new
    return e, its
