"""Tests for iterative QPE and the extra benchmark molecules."""

import numpy as np

from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import beh2, h2, hydrogen_fluoride
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.core.qpe import run_iterative_qpe
from repro.ir.pauli import PauliSum


class TestIterativeQPE:
    def test_eigenstate_deterministic(self):
        h = PauliSum.from_label_dict({"ZI": 0.5, "IZ": 0.25})
        state = np.zeros(4, dtype=complex)
        state[0b11] = 1.0  # eigenvalue -0.75
        res = run_iterative_qpe(h, state, num_bits=8, energy_window=(-1.0, 1.0))
        assert abs(res.energy - (-0.75)) <= res.resolution
        assert res.num_ancillas == 1

    def test_h2_ground_energy(self):
        scf = run_rhf(h2())
        hq = build_molecular_hamiltonian(scf).to_qubit()
        e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
        res = run_iterative_qpe(
            hq, hartree_fock_state(4, 2), num_bits=10,
            energy_window=(-2.0, 0.0), rng=np.random.default_rng(3),
        )
        assert abs(res.energy - e_fci) <= 2 * res.resolution

    def test_reproducible_given_rng(self):
        scf = run_rhf(h2())
        hq = build_molecular_hamiltonian(scf).to_qubit()
        kwargs = dict(num_bits=8, energy_window=(-2.0, 0.0))
        r1 = run_iterative_qpe(
            hq, hartree_fock_state(4, 2), rng=np.random.default_rng(1), **kwargs
        )
        r2 = run_iterative_qpe(
            hq, hartree_fock_state(4, 2), rng=np.random.default_rng(1), **kwargs
        )
        assert r1.energy == r2.energy


class TestExtraMolecules:
    def test_beh2_rhf(self):
        res = run_rhf(beh2())
        assert res.converged
        # literature RHF/STO-3G BeH2: about -15.56 Ha
        assert np.isclose(res.energy, -15.56, atol=0.02)
        assert res.num_orbitals == 7

    def test_hf_molecule_rhf(self):
        res = run_rhf(hydrogen_fluoride())
        assert res.converged
        # literature RHF/STO-3G HF: about -98.57 Ha
        assert np.isclose(res.energy, -98.57, atol=0.02)
