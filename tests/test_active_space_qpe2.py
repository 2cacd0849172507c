"""Tests for controlled evolution, gate-level QPE, and general
commuting grouping."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2, h2o
from repro.chem.reference import hartree_fock_circuit
from repro.chem.scf import run_rhf
from repro.core.qpe import run_qpe_trotter
from repro.ir.library import controlled_evolution, controlled_pauli_exponential
from repro.ir.pauli import PauliString, PauliSum


@pytest.fixture(scope="module")
def h2o_system():
    scf = run_rhf(h2o())
    return scf, build_molecular_hamiltonian(scf)


class TestControlledEvolution:
    def test_controlled_pauli_exponential(self):
        p = PauliString.from_label("XZ")  # qubits 0 (Z), 1 (X)
        phi = 0.63
        circ = controlled_pauli_exponential(p, phi, control=2, num_qubits=3)
        u = circ.to_matrix()
        expected = np.eye(8, dtype=complex)
        expected[4:, 4:] = expm(1j * phi * p.to_matrix())
        assert np.allclose(u, expected, atol=1e-10)

    def test_identity_becomes_controlled_phase(self):
        p = PauliString.identity(2)
        circ = controlled_pauli_exponential(p, 0.4, control=2, num_qubits=3)
        assert len(circ) == 1
        assert circ.gates[0].name == "p"
        assert circ.gates[0].qubits == (2,)

    def test_control_overlap_rejected(self):
        p = PauliString.from_label("XZ")
        with pytest.raises(ValueError):
            controlled_pauli_exponential(p, 0.1, control=0, num_qubits=2)

    def test_controlled_evolution_block_diagonal(self):
        h = PauliSum.from_label_dict({"ZZ": 0.4, "II": 0.3, "XI": -0.2})
        t = 0.8
        circ = controlled_evolution(h, t, control=2, num_qubits=3, steps=8)
        u = circ.to_matrix()
        # control=0 block: identity
        assert np.allclose(u[:4, :4], np.eye(4), atol=1e-10)
        assert np.allclose(u[:4, 4:], 0, atol=1e-10)
        # control=1 block: exp(iHt) up to Trotter error
        target = expm(1j * t * h.to_matrix())
        assert np.linalg.norm(u[4:, 4:] - target) < 0.02


class TestGateLevelQPE:
    def test_h2_within_resolution(self):
        scf = run_rhf(h2())
        hq = build_molecular_hamiltonian(scf).to_qubit()
        e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
        res = run_qpe_trotter(
            hq,
            hartree_fock_circuit(4, 2),
            num_ancillas=7,
            energy_window=(-2.0, 0.0),
            trotter_steps=2,
        )
        # Trotter bias + resolution: allow two ticks.
        assert abs(res.energy - e_fci) <= 2 * res.resolution
        assert res.success_probability > 0.25

    def test_eigenstate_sharp(self):
        h = PauliSum.from_label_dict({"ZI": 0.5, "IZ": 0.25})
        from repro.ir.circuit import Circuit

        prep = Circuit(2).x(0).x(1)  # |11>, eigenvalue -0.75
        res = run_qpe_trotter(
            h, prep, num_ancillas=6, energy_window=(-1.0, 1.0), trotter_steps=1
        )
        assert abs(res.energy - (-0.75)) <= res.resolution
        assert res.success_probability > 0.8


class TestGeneralCommutingGroups:
    def test_fewer_groups_than_qwc(self, h2o_system):
        """General commutation admits larger groups than qubit-wise."""
        scf, mh = h2o_system
        hq = mh.active_space([0], [1, 2, 3, 4, 5, 6]).to_qubit()
        qwc = hq.group_qubitwise_commuting()
        gen = hq.group_general_commuting()
        assert len(gen) < len(qwc)

    def test_groups_internally_commute(self):
        h = PauliSum.from_label_dict(
            {"XX": 1.0, "YY": 1.0, "ZZ": 1.0, "XI": 0.5, "IZ": 0.2}
        )
        for group in h.group_general_commuting():
            for i, (_, a) in enumerate(group):
                for _, b in group[i + 1:]:
                    assert a.commutes_with(b)

    def test_all_terms_covered(self):
        h = PauliSum.from_label_dict(
            {"XX": 1.0, "YY": 1.0, "ZZ": 1.0, "XZ": 0.5, "ZX": 0.2}
        )
        groups = h.group_general_commuting()
        assert sum(len(g) for g in groups) == h.num_terms
