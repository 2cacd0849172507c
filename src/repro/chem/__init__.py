"""Quantum-chemistry substrate: Gaussian integrals, RHF, MP2,
fermionic algebra, qubit mappings, CC downfolding, UCCSD, ADAPT pools,
and exact-diagonalization references."""

from repro.chem.basis import BasisFunction, build_basis
from repro.chem.ci import (
    CIResult,
    cisd_determinants,
    davidson,
    enumerate_determinants,
    run_ci,
)
from repro.chem.active_space import (
    ActiveSpaceSelection,
    mp2_natural_occupations,
    select_active_space,
)
from repro.chem.lattice import (
    fermi_hubbard,
    fermi_hubbard_qubit,
    heisenberg_xxz,
    transverse_field_ising,
)
from repro.chem.properties import AU_TO_DEBYE, dipole_moment
from repro.chem.rdm import energy_from_rdms, natural_occupations, one_rdm, two_rdm
from repro.chem.spin import (
    s_plus_operator,
    s_squared_operator,
    s_z_operator,
    spin_expectations,
)
from repro.chem.downfolding import (
    DownfoldingResult,
    hermitian_downfold,
    nonhermitian_downfold_energy,
    project_onto_reference,
)
from repro.chem.fci import exact_ground_energy, exact_ground_state
from repro.chem.fermion import FermionOperator
from repro.chem.hamiltonian import (
    MolecularHamiltonian,
    build_molecular_hamiltonian,
    synthetic_two_body_hamiltonian,
)
from repro.chem.mappings import (
    bravyi_kitaev,
    jordan_wigner,
    map_fermion_operator,
    map_fermion_operators,
    parity_transform,
)
from repro.chem.molecule import Atom, Molecule, beh2, h2, h2o, h4_chain, hydrogen_fluoride, lih
from repro.chem.mo import MOIntegrals, spin_orbital_tensors, transform_to_mo
from repro.chem.mp2 import MP2Result, run_mp2
from repro.chem.pools import PoolOperator, qubit_pool, uccsd_pool
from repro.chem.reference import (
    hartree_fock_bitstring,
    hartree_fock_circuit,
    hartree_fock_state,
)
from repro.chem.scf import SCFResult, run_rhf
from repro.chem.uccsd import (
    UCCSDAnsatz,
    build_uccsd_circuit,
    compile_evolution,
    count_uccsd_gates,
    pauli_exponential,
    uccsd_excitations,
    uccsd_generators,
)

__all__ = [
    "Atom",
    "dipole_moment",
    "select_active_space",
    "mp2_natural_occupations",
    "ActiveSpaceSelection",
    "transverse_field_ising",
    "heisenberg_xxz",
    "fermi_hubbard",
    "fermi_hubbard_qubit",
    "AU_TO_DEBYE",
    "one_rdm",
    "two_rdm",
    "energy_from_rdms",
    "natural_occupations",
    "s_z_operator",
    "s_plus_operator",
    "s_squared_operator",
    "spin_expectations",
    "Molecule",
    "h2",
    "h2o",
    "h4_chain",
    "lih",
    "beh2",
    "hydrogen_fluoride",
    "BasisFunction",
    "build_basis",
    "run_ci",
    "CIResult",
    "davidson",
    "enumerate_determinants",
    "cisd_determinants",
    "SCFResult",
    "run_rhf",
    "MOIntegrals",
    "transform_to_mo",
    "spin_orbital_tensors",
    "MP2Result",
    "run_mp2",
    "FermionOperator",
    "jordan_wigner",
    "parity_transform",
    "bravyi_kitaev",
    "map_fermion_operator",
    "map_fermion_operators",
    "MolecularHamiltonian",
    "build_molecular_hamiltonian",
    "synthetic_two_body_hamiltonian",
    "DownfoldingResult",
    "hermitian_downfold",
    "nonhermitian_downfold_energy",
    "project_onto_reference",
    "exact_ground_energy",
    "exact_ground_state",
    "UCCSDAnsatz",
    "build_uccsd_circuit",
    "compile_evolution",
    "count_uccsd_gates",
    "pauli_exponential",
    "uccsd_excitations",
    "uccsd_generators",
    "PoolOperator",
    "uccsd_pool",
    "qubit_pool",
    "hartree_fock_bitstring",
    "hartree_fock_circuit",
    "hartree_fock_state",
]
