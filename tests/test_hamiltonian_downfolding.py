"""Tests for Hamiltonian assembly, active spaces, FCI references, and
both downfolding variants (the paper's §2)."""

import numpy as np
import pytest

from repro.chem.ci import run_ci
from repro.chem.downfolding import (
    external_sigma,
    hermitian_downfold,
    nonhermitian_downfold_energy,
    project_onto_reference,
)
from repro.chem.fci import exact_ground_energy, exact_ground_state, sector_indices
from repro.chem.hamiltonian import (
    build_molecular_hamiltonian,
    synthetic_two_body_hamiltonian,
)
from repro.chem.mappings import jordan_wigner
from repro.chem.molecule import h2, h2o, h4_chain, lih
from repro.chem.mp2 import run_mp2
from repro.chem.scf import run_rhf
from repro.ir.pauli import PauliString, PauliSum


@pytest.fixture(scope="module")
def h2o_system():
    scf = run_rhf(h2o())
    return scf, build_molecular_hamiltonian(scf)


class TestMolecularHamiltonian:
    def test_h2_qubit_terms(self):
        scf = run_rhf(h2())
        mh = build_molecular_hamiltonian(scf)
        hq = mh.to_qubit()
        # The standard H2/STO-3G JW Hamiltonian has 15 terms.
        assert hq.num_terms == 15
        assert hq.is_hermitian()

    def test_h2_fci(self):
        scf = run_rhf(h2())
        mh = build_molecular_hamiltonian(scf)
        e = exact_ground_energy(mh.to_qubit(), num_particles=2, sz=0)
        assert np.isclose(e, -1.13727, atol=2e-4)

    def test_fci_below_hf(self, h2o_system):
        scf, mh = h2o_system
        act = mh.active_space([0], [1, 2, 3, 4, 5, 6])
        e = exact_ground_energy(act.to_qubit(), num_particles=8, sz=0)
        assert e < scf.energy  # correlation lowers the energy
        assert e > scf.energy - 0.2  # ... by a sane amount

    def test_active_space_preserves_hf(self, h2o_system):
        scf, mh = h2o_system
        act = mh.active_space([0], [1, 2, 3, 4, 5, 6])
        assert np.isclose(act.hartree_fock_energy(), scf.energy, atol=1e-8)
        assert act.num_electrons == 8
        assert act.num_qubits == 12

    def test_active_space_overlap_rejected(self, h2o_system):
        _, mh = h2o_system
        with pytest.raises(ValueError):
            mh.active_space([0, 1], [1, 2])

    def test_synthetic_symmetries(self):
        mh = synthetic_two_body_hamiltonian(4, seed=3)
        assert np.allclose(mh.h, mh.h.T)
        eri = mh.eri
        assert np.allclose(eri, eri.transpose(1, 0, 2, 3))
        assert np.allclose(eri, eri.transpose(0, 1, 3, 2))
        assert np.allclose(eri, eri.transpose(2, 3, 0, 1))

    def test_synthetic_qubit_hermitian(self):
        hq = synthetic_two_body_hamiltonian(3, seed=5).to_qubit()
        assert hq.is_hermitian()


class TestSectorIndices:
    def test_particle_count(self):
        idx = sector_indices(4, num_particles=2)
        assert len(idx) == 6  # C(4,2)
        assert all(bin(i).count("1") == 2 for i in idx)

    def test_sz_restriction(self):
        idx = sector_indices(4, num_particles=2, sz=0)
        # one alpha (even qubit) + one beta (odd qubit): 2*2 = 4 states
        assert len(idx) == 4

    def test_ground_state_embedded(self):
        h = PauliSum.from_label_dict({"ZZ": -1.0, "XI": 0.1, "IX": 0.1})
        e, state = exact_ground_state(h)
        assert np.isclose(np.linalg.norm(state), 1.0)
        assert np.isclose(h.expectation(state).real, e, atol=1e-9)


class TestFCIReference:
    """The sector-native reference against the values the full-matrix
    implementation returned, the determinant-space CI, and bad input."""

    @pytest.mark.parametrize(
        "factory,n_e,pinned",
        [(h2, 2, -1.1372701752425916), (h4_chain, 4, -2.180316616376807)],
    )
    def test_pinned_and_equal_to_determinant_ci(self, factory, n_e, pinned):
        mh = build_molecular_hamiltonian(run_rhf(factory()))
        hq = mh.to_qubit()
        e = exact_ground_energy(hq, num_particles=n_e, sz=0)
        assert abs(e - pinned) < 1e-10
        assert abs(e - run_ci(mh, "fci").energy) < 1e-10
        # the neutral singlet is the global ground state of both
        assert abs(exact_ground_energy(hq) - pinned) < 1e-10

    def test_pinned_downfolded_h2o(self, h2o_system):
        """The Fig. 5 reference: a 225 x 225 block of a 4747-term sum."""
        scf, mh = h2o_system
        res = hermitian_downfold(mh, scf.mo_energies, [0], [1, 2, 3, 4, 5, 6])
        heff = res.effective_hamiltonian.chop(1e-8)
        e, state = exact_ground_state(heff, num_particles=8, sz=0)
        assert abs(e - -75.01240060686116) < 1e-10
        assert np.isclose(heff.expectation(state).real, e, atol=1e-9)

    def test_bad_sector_names_its_inputs(self):
        h = PauliSum.from_label_dict({"ZZII": 1.0, "XXII": 0.5})
        with pytest.raises(ValueError, match="num_particles=3 with sz=0"):
            exact_ground_state(h, num_particles=3, sz=0)  # odd N, integer sz
        with pytest.raises(ValueError, match="num_particles=5 .* num_qubits=4"):
            exact_ground_state(h, num_particles=5)
        with pytest.raises(ValueError, match="sz=0.3 is not a multiple of 1/2"):
            exact_ground_state(h, num_particles=2, sz=0.3)

    def test_non_hermitian_sum_is_rejected(self):
        """eigh reads one triangle: without the check this returns a
        wrong eigenvalue silently."""
        h = PauliSum.from_label_dict({"ZZ": 1.0, "XY": 0.25j})
        with pytest.raises(ValueError, match=r"not Hermitian \(max .* 5\.000e-01"):
            exact_ground_state(h)


class TestProjection:
    def test_projection_matches_active_space(self, h2o_system):
        """Order-0 projection (freeze external qubits at reference)
        must reproduce the exact frozen-core active-space Hamiltonian."""
        scf, mh = h2o_system
        h_full = mh.to_qubit()
        active_so = sorted(2 * p + s for p in [1, 2, 3, 4, 5, 6] for s in (0, 1))
        core_so = [0, 1]
        projected = project_onto_reference(h_full, active_so, core_so)
        direct = mh.active_space([0], [1, 2, 3, 4, 5, 6]).to_qubit()
        diff = projected - direct
        assert diff.chop(1e-8).num_terms == 0

    def test_x_on_frozen_qubit_dropped(self):
        op = PauliSum.from_label_dict({"XII": 1.0, "IZZ": 2.0})
        out = project_onto_reference(op, [0, 1], [2])
        # X on frozen qubit 2 -> dropped; ZZ on active qubits survives
        assert out.num_terms == 1
        assert np.isclose(out.coefficient(PauliString.from_label("ZZ")), 2.0)

    def test_z_on_occupied_flips_sign(self):
        op = PauliSum.from_label_dict({"ZII": 1.0})
        out = project_onto_reference(op, [0, 1], [2])
        assert np.isclose(out.coefficient(PauliString.from_label("II")), -1.0)

    def test_z_on_virtual_keeps_sign(self):
        op = PauliSum.from_label_dict({"ZII": 1.0})
        out = project_onto_reference(op, [0, 1], [])
        assert np.isclose(out.coefficient(PauliString.from_label("II")), 1.0)

    def test_overlap_rejected(self):
        op = PauliSum.from_label_dict({"II": 1.0})
        with pytest.raises(ValueError):
            project_onto_reference(op, [0], [0])


class TestHermitianDownfolding:
    def test_sigma_antihermitian(self, h2o_system):
        scf, mh = h2o_system
        mp2 = run_mp2(mh, scf.mo_energies)
        active_so = sorted(2 * p + s for p in [1, 2, 3, 4, 5, 6] for s in (0, 1))
        sigma = external_sigma(mp2, active_so)
        assert sigma.is_anti_hermitian()
        sq = jordan_wigner(sigma, 14)
        assert sq.is_anti_hermitian()

    def test_downfolding_improves_accuracy(self, h2o_system):
        """The headline property: the downfolded active-space ground
        energy is far closer to the full-space FCI than the bare
        active-space one (paper §2: 'orders of magnitude')."""
        scf, mh = h2o_system
        e_full = exact_ground_energy(mh.to_qubit(), num_particles=10, sz=0)
        res = hermitian_downfold(mh, scf.mo_energies, [0], [1, 2, 3, 4, 5, 6])
        e_bare = exact_ground_energy(res.bare_hamiltonian, num_particles=8, sz=0)
        e_eff = exact_ground_energy(
            res.effective_hamiltonian, num_particles=8, sz=0
        )
        err_bare = abs(e_bare - e_full)
        err_eff = abs(e_eff - e_full)
        assert err_eff < err_bare / 5  # at least 5x better (measured ~26x)
        assert res.effective_hamiltonian.is_hermitian(atol=1e-7)

    def test_order_zero_equals_bare(self, h2o_system):
        scf, mh = h2o_system
        res = hermitian_downfold(
            mh, scf.mo_energies, [0], [1, 2, 3, 4, 5, 6], order=0
        )
        diff = res.effective_hamiltonian - res.bare_hamiltonian
        assert diff.chop(1e-10).num_terms == 0

    def test_no_core_is_identity_transform(self):
        """With nothing external, sigma is empty and H_eff == H."""
        scf = run_rhf(h2())
        mh = build_molecular_hamiltonian(scf)
        res = hermitian_downfold(mh, scf.mo_energies, [], [0, 1])
        assert res.sigma_norm1 == 0.0
        diff = res.effective_hamiltonian - mh.to_qubit()
        assert diff.chop(1e-10).num_terms == 0

    def test_result_metadata(self, h2o_system):
        scf, mh = h2o_system
        res = hermitian_downfold(mh, scf.mo_energies, [0], [1, 2, 3, 4, 5, 6])
        assert res.num_active_qubits == 12
        assert res.num_electrons == 8
        assert res.order == 2
        assert res.sigma_norm1 > 0


class TestNonHermitianDownfolding:
    def test_reproduces_full_fci(self, h2o_system):
        """The equivalence theorem: the self-consistent Loewdin energy
        equals the exact full-space eigenvalue."""
        scf, mh = h2o_system
        e_full = exact_ground_energy(mh.to_qubit(), num_particles=10, sz=0)
        e_nh, its = nonhermitian_downfold_energy(mh, [0], [1, 2, 3, 4, 5, 6])
        assert np.isclose(e_nh, e_full, atol=1e-7)
        assert its < 50
