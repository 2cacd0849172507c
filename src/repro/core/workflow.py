"""The end-to-end execution flow of Fig. 2:

    molecule -> SCF -> coupled-cluster downfolding -> qubit observable
             -> ansatz generation -> VQE on a simulator backend.

``run_vqe_workflow`` wires the whole pipeline with sensible defaults so
an example script is three lines; every stage remains individually
overridable (the stages are just the public APIs of the subpackages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro import obs
from repro.chem.downfolding import DownfoldingResult, hermitian_downfold
from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import MolecularHamiltonian, build_molecular_hamiltonian
from repro.chem.molecule import Molecule
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import SCFResult, run_rhf
from repro.chem.uccsd import uccsd_generators
from repro.core.vqe import VQE, VQEResult
from repro.ir.pauli import PauliSum
from repro.opt.base import Optimizer

__all__ = ["WorkflowResult", "run_vqe_workflow"]


@dataclass
class WorkflowResult:
    """Everything the Fig. 2 pipeline produced, stage by stage."""

    molecule: Molecule
    scf: SCFResult
    hamiltonian: MolecularHamiltonian
    downfolding: Optional[DownfoldingResult]
    qubit_hamiltonian: PauliSum
    vqe: VQEResult
    exact_energy: Optional[float]
    num_qubits: int
    num_electrons: int

    @property
    def energy(self) -> float:
        return self.vqe.energy

    @property
    def error_vs_exact(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return abs(self.vqe.energy - self.exact_energy)


def run_vqe_workflow(
    molecule: Molecule,
    core_orbitals: Optional[Sequence[int]] = None,
    active_orbitals: Optional[Sequence[int]] = None,
    downfold: bool = True,
    downfolding_order: int = 2,
    optimizer: Optional[Optimizer] = None,
    compute_exact: bool = True,
    basis_name: str = "sto-3g",
) -> WorkflowResult:
    """Run the complete Fig. 2 pipeline on one molecule.

    With no active-space arguments the full orbital space is used and
    downfolding reduces to a no-op; with ``core_orbitals`` /
    ``active_orbitals`` the Hamiltonian is downfolded (Hermitian,
    commutator order ``downfolding_order``) before VQE.
    """
    with obs.span("workflow.scf", atoms=len(molecule.atoms)):
        scf = run_rhf(molecule, basis_name)
    with obs.span("workflow.hamiltonian"):
        hamiltonian = build_molecular_hamiltonian(scf)

    n_spatial = hamiltonian.num_orbitals
    if active_orbitals is None:
        core_orbitals = []
        active_orbitals = list(range(n_spatial))
    core_orbitals = list(core_orbitals or [])

    downfolding: Optional[DownfoldingResult] = None
    with obs.span("workflow.qubit_mapping", downfold=bool(downfold and core_orbitals)):
        if downfold and core_orbitals:
            downfolding = hermitian_downfold(
                hamiltonian,
                scf.mo_energies,
                core_orbitals,
                active_orbitals,
                order=downfolding_order,
            )
            qubit_h = downfolding.effective_hamiltonian
            n_electrons = downfolding.num_electrons
        else:
            reduced = (
                hamiltonian.active_space(core_orbitals, active_orbitals)
                if (core_orbitals or len(active_orbitals) < n_spatial)
                else hamiltonian
            )
            qubit_h = reduced.to_qubit("jordan-wigner")
            n_electrons = reduced.num_electrons

    num_qubits = qubit_h.num_qubits
    gens = [a for _, a in uccsd_generators(num_qubits, n_electrons)]
    reference = hartree_fock_state(num_qubits, n_electrons)

    vqe = VQE(
        qubit_h,
        generators=gens,
        reference_state=reference,
        optimizer=optimizer,
    )
    with obs.span("workflow.vqe", qubits=num_qubits):
        result = vqe.run()

    with obs.span("workflow.exact_diagonalization", enabled=compute_exact):
        exact = (
            exact_ground_energy(qubit_h, num_particles=n_electrons, sz=0)
            if compute_exact
            else None
        )
    return WorkflowResult(
        molecule=molecule,
        scf=scf,
        hamiltonian=hamiltonian,
        downfolding=downfolding,
        qubit_hamiltonian=qubit_h,
        vqe=result,
        exact_energy=exact,
        num_qubits=num_qubits,
        num_electrons=n_electrons,
    )
