"""Tests for Hamiltonian assembly, active spaces, FCI references, and
both downfolding variants (the paper's §2)."""

import tracemalloc

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
from repro.chem.mappings import jordan_wigner, map_fermion_operators
from repro.chem.mo import spin_orbital_tensors, transform_to_mo
from repro.chem.molecule import h2, h2o, h4_chain, lih
from repro.chem.mp2 import run_mp2
from repro.chem.scf import run_rhf
from repro.chem.uccsd import excitation_generator, uccsd_excitations
from repro.ir.pauli import PauliString, PauliSum
from repro.ir.symplectic import pack_masks
from tests.pauli_oracle import (
    hermitian_downfold_oracle,
    project_onto_reference_per_term,
    spin_orbital_tensors_loop,
    to_fermion_operator_loop,
)


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

    @pytest.mark.parametrize("factory", [h2, lih, h2o])
    @pytest.mark.parametrize("threshold", [1e-12, 1e-3])
    def test_fermion_operator_bit_equal_to_the_loop(self, factory, threshold):
        """Same keys, same insertion order, same float values."""
        mh = build_molecular_hamiltonian(run_rhf(factory()))
        got = mh.to_fermion_operator(threshold).terms
        want = to_fermion_operator_loop(mh, threshold).terms
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("factory", [h2, lih, h2o])
    def test_spin_orbital_tensors_match_loop(self, factory):
        mo = transform_to_mo(run_rhf(factory()))
        for got, want in zip(spin_orbital_tensors(mo), spin_orbital_tensors_loop(mo)):
            assert np.array_equal(got, want)

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

    @pytest.mark.parametrize(
        "active,occupied,match",
        [
            ([0, 2], [1], "active_qubits holds qubit 2"),
            ([0], [-1], "occupied_external holds qubit -1"),
        ],
    )
    def test_out_of_range_qubit_rejected(self, active, occupied, match):
        op = PauliSum.from_label_dict({"ZZ": 1.0})
        with pytest.raises(ValueError, match=match):
            project_onto_reference(op, active, occupied)


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


@pytest.fixture(scope="module")
def lih_system():
    scf = run_rhf(lih())
    return scf, build_molecular_hamiltonian(scf)


class TestPartitionValidation:
    """Bad active spaces fail before any work, naming the argument."""

    @pytest.mark.parametrize(
        "core,active,match",
        [
            ([0], [1, 2, 3, 4, 5, 6], r"active_orbitals holds orbital 6, outside \[0, 6\)"),
            ([0], [1, 1, 2], r"active_orbitals repeats orbital\(s\) \[1\]"),
            ([0], [-1, 1], r"active_orbitals holds orbital -1, outside \[0, 6\)"),
            ([0], [], r"active_orbitals is empty"),
            (
                [0, 1], [1, 2],
                r"core_orbitals \[0, 1\] and active_orbitals \[1, 2\] "
                r"share orbital\(s\) \[1\]",
            ),
            ([7], [1, 2], r"core_orbitals holds orbital 7"),
            ([0, 0], [1, 2], r"core_orbitals repeats orbital\(s\) \[0\]"),
            ([0], [1.5, 2], r"active_orbitals holds 1.5, not an integer"),
        ],
    )
    @pytest.mark.parametrize("variant", ["hermitian", "nonhermitian"])
    def test_bad_partition(self, lih_system, variant, core, active, match):
        scf, mh = lih_system
        with pytest.raises(ValueError, match=match):
            if variant == "hermitian":
                hermitian_downfold(mh, scf.mo_energies, core, active)
            else:
                nonhermitian_downfold_energy(mh, core, active)

    def test_negative_order(self, lih_system):
        scf, mh = lih_system
        with pytest.raises(ValueError, match=r"order must be an integer >= 0, got -1"):
            hermitian_downfold(mh, scf.mo_energies, [0], [1, 2], order=-1)

    @pytest.mark.parametrize("threshold", [-1e-9, float("nan"), float("inf")])
    def test_bad_threshold(self, lih_system, threshold):
        scf, mh = lih_system
        with pytest.raises(ValueError, match=r"threshold must be a finite number >= 0"):
            hermitian_downfold(
                mh, scf.mo_energies, [0], [1, 2], threshold=threshold
            )


class TestPackedAgainstOracle:
    """The packed series (last level formed only where the projection
    keeps it) against "commute fully, then project"."""

    @pytest.mark.parametrize(
        "factory,core,active,order",
        [
            (h2o, [0], [1, 2, 3, 4, 5, 6], 2),
            (lambda: lih(1.3), [0], [1, 2, 3, 4, 5], 2),
            (lambda: lih(1.9), [0], [1, 2, 3, 4], 2),
            (h2o, [0, 1], [2, 3, 4, 5], 2),
            (lih, [0], [1, 2, 3, 4, 5], 1),
            (lih, [0], [1, 2, 3, 4, 5], 3),
        ],
        ids=["h2o-fig5", "lih-1.3", "lih-1.9", "h2o-core01", "lih-order1", "lih-order3"],
    )
    def test_same_terms_as_oracle(self, factory, core, active, order):
        scf = run_rhf(factory())
        mh = build_molecular_hamiltonian(scf)
        packed = hermitian_downfold(
            mh, scf.mo_energies, core, active, order=order
        ).effective_hamiltonian
        oracle = hermitian_downfold_oracle(
            mh, scf.mo_energies, core, active, order=order
        )
        assert set(packed.terms) == set(oracle.terms)
        assert max(
            abs(packed.terms[k] - c) for k, c in oracle.terms.items()
        ) < 1e-12


class TestMultiWord:
    """70 qubits: two packed words per row."""

    N = 70
    EXT = list(range(0, 6)) + list(range(60, 68))  # straddles word 0/1

    def _sum(self, rng, terms):
        ext = sum(1 << q for q in self.EXT)
        patterns = [0, 1 << 3, (1 << 61) | (1 << 65), (1 << 1) | (1 << 67)]
        out = {}
        for _ in range(terms):
            x = int(rng.integers(0, 1 << 62)) | (int(rng.integers(0, 1 << 8)) << 62)
            z = int(rng.integers(0, 1 << 62)) | (int(rng.integers(0, 1 << 8)) << 62)
            x = (x & ~ext) | patterns[int(rng.integers(len(patterns)))]
            out[x, z] = complex(rng.normal(), rng.normal())
        return PauliSum(self.N, out)

    @pytest.mark.parametrize("pair_chunk", [None, 64])
    def test_x_clear_commutator_is_filtered_full_one(self, monkeypatch, pair_chunk):
        if pair_chunk is not None:  # many join blocks instead of one
            monkeypatch.setattr("repro.ir.symplectic._PAIR_CHUNK", pair_chunk)
        rng = np.random.default_rng(7)
        a = self._sum(rng, 300).to_symplectic()
        b = self._sum(rng, 120).to_symplectic()
        ext = sum(1 << q for q in self.EXT)
        full = {
            k: c for k, c in a.commutator(b).to_terms_dict().items()
            if not k[0] & ext
        }
        mask = pack_masks([ext], self.N)[0]
        restricted = a.commutator_x_clear(b, mask).to_terms_dict()
        assert full and set(restricted) == set(full)
        assert max(abs(restricted[k] - c) for k, c in full.items()) < 1e-12
        # the chop applies to the restricted rows only
        chopped = a.commutator_x_clear(b, mask, threshold=1.0).to_terms_dict()
        assert set(chopped) == {k for k, c in full.items() if abs(c) > 1.0}

    def test_packed_projection_equals_oracle(self):
        rng = np.random.default_rng(11)
        op = self._sum(rng, 2000)
        # partners that differ only by Z on frozen qubits land on the
        # same active string, with or without a sign flip
        ext = sum(1 << q for q in self.EXT)
        clear = [(k, c) for k, c in op.terms.items() if not k[0] & ext]
        op = op + PauliSum(
            self.N,
            {(x, z ^ (1 << (2 + i % 2))): 0.5 * c for i, ((x, z), c) in enumerate(clear)},
        )
        active = [q for q in range(self.N) if q not in self.EXT]
        occupied = [0, 2, 61, 66]
        packed = project_onto_reference(op, active, occupied)
        oracle = project_onto_reference_per_term(op, active, occupied)
        assert packed.num_qubits == oracle.num_qubits == len(active)
        assert packed.num_terms > 0
        assert set(packed.terms) == set(oracle.terms)
        assert max(
            abs(packed.terms[k] - c) for k, c in oracle.terms.items()
        ) < 1e-12


class TestBlockedJoins:
    """Every pair loop forms at most ``_PAIR_CHUNK`` pairs at a time and
    sums them into one running result, so the Fig. 5 H2O joins give the
    same terms at any block size and the downfold never holds a whole
    join's pair transients."""

    FIG5 = ([0], [1, 2, 3, 4, 5, 6])

    @pytest.fixture(scope="class")
    def operands(self, h2o_system):
        scf, mh = h2o_system
        n = mh.num_spin_orbitals
        mp2 = run_mp2(mh, scf.mo_energies)
        sigma = jordan_wigner(external_sigma(mp2, list(range(2, n))), n)
        heff = hermitian_downfold(mh, scf.mo_energies, *self.FIG5).effective_hamiltonian
        # the 300 heaviest terms after the identity (|c| ~ 75 would
        # swamp an absolute tolerance on the product)
        heavy = sorted(heff.terms.items(), key=lambda kv: -abs(kv[1]))[1:301]
        singles, doubles = uccsd_excitations(12, 8)
        pool = [excitation_generator(e) for e in list(singles) + list(doubles)]
        return {
            "h": mh.to_qubit().to_symplectic(),
            "sigma": sigma.to_symplectic(),
            "heavy": PauliSum(12, dict(heavy)).to_symplectic(),
            "ops": [mh.to_fermion_operator()] + pool,
            "frozen": pack_masks([0b11], n)[0],
        }

    @staticmethod
    def _joins(o):
        """Each join as a ``{(x, z): coeff}`` dict (the mapping one per
        operator).  Sums that cancel exactly leave rounding residues
        (|c| ~ 1e-18) that depend on the summation order, so the joins
        chop at 1e-12: once, on the final sums."""
        level1 = o["h"].commutator(o["sigma"], 1e-12)
        return {
            "commutator": level1.to_terms_dict(),
            "commutator_x_clear": level1.commutator_x_clear(
                o["sigma"], o["frozen"], 1e-12
            ).to_terms_dict(),
            "mul": o["heavy"].mul(o["heavy"], 1e-12).to_terms_dict(),
            **{
                f"map[{k}]": ps.terms
                for k, ps in enumerate(map_fermion_operators(o["ops"], 14))
            },
        }

    def test_same_terms_at_any_block_size(self, operands, monkeypatch):
        default = self._joins(operands)
        monkeypatch.setattr("repro.ir.symplectic._PAIR_CHUNK", 64)
        small = self._joins(operands)
        assert len(default["commutator_x_clear"]) > 1000
        for name, want in default.items():
            got = small[name]
            assert want and set(got) == set(want), name
            assert max(abs(got[k] - c) for k, c in want.items()) < 1e-12, name

    def test_downfold_traced_peak_is_bounded(self, h2o_system):
        """The level-2 join's 567k pairs are formed a block at a time and
        its 290k anticommuting ones kept as 12-byte keys; forming the
        whole join at once traced 33 MiB here."""
        scf, mh = h2o_system
        hermitian_downfold(mh, scf.mo_energies, *self.FIG5)  # warm caches
        tracemalloc.start()
        try:
            hermitian_downfold(mh, scf.mo_energies, *self.FIG5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
