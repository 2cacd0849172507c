"""Quantum-chemistry substrate: Gaussian integrals, RHF, MP2,
fermionic algebra, qubit mappings, CC downfolding, UCCSD, ADAPT pools,
and exact-diagonalization references."""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "molecule": ["Atom", "Molecule", "h2", "h2o", "h4_chain", "lih", "beh2", "hydrogen_fluoride"],
        "basis": ["BasisFunction", "build_basis"],
        "ci": ["run_ci", "CIResult", "davidson", "enumerate_determinants", "cisd_determinants"],
        "scf": ["SCFResult", "run_rhf"],
        "mo": ["MOIntegrals", "transform_to_mo", "spin_orbital_tensors"],
        "mp2": ["MP2Result", "run_mp2"],
        "fermion": ["FermionOperator"],
        "mappings": [
            "jordan_wigner",
            "parity_transform",
            "bravyi_kitaev",
            "map_fermion_operator",
            "map_fermion_operators",
        ],
        "hamiltonian": [
            "MolecularHamiltonian",
            "build_molecular_hamiltonian",
            "synthetic_two_body_hamiltonian",
        ],
        "downfolding": [
            "DownfoldingResult",
            "hermitian_downfold",
            "nonhermitian_downfold_energy",
            "project_onto_reference",
        ],
        "fci": ["exact_ground_energy", "exact_ground_state"],
        "uccsd": [
            "UCCSDAnsatz",
            "build_uccsd_circuit",
            "compile_evolution",
            "count_uccsd_gates",
            "pauli_exponential",
            "uccsd_excitations",
            "uccsd_generators",
        ],
        "pools": ["PoolOperator", "uccsd_pool", "qubit_pool"],
        "reference": ["hartree_fock_bitstring", "hartree_fock_circuit", "hartree_fock_state"],
    },
)
