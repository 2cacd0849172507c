"""Tests for the remaining extensions: warm-started PES scans,
molecular properties, and checkpointing."""

import os

import numpy as np
import pytest

from repro.chem.molecule import h2, h2o
from repro.chem.properties import AU_TO_DEBYE, dipole_moment
from repro.chem.scf import run_rhf
from repro.core.scan import scan_potential_energy_surface
from repro.hpc.distributed import DistributedStatevector
from repro.ir.circuit import Circuit
from repro.sim.checkpoint import (
    load_distributed,
    load_statevector,
    save_distributed,
    save_statevector,
)
from repro.sim.statevector import StatevectorSimulator
from tests.test_statevector import random_circuit


class TestScan:
    @pytest.fixture(scope="class")
    def h2_scan(self):
        lengths = [0.6, 0.75, 0.9, 1.1, 1.4]
        return scan_potential_energy_surface(h2, lengths, warm_start=True)

    def test_curve_shape(self, h2_scan):
        """H2 dissociation: minimum near 0.74 A, rising on both sides."""
        eq = h2_scan.equilibrium()
        assert 0.6 < eq.parameter < 0.95
        energies = h2_scan.energies
        assert energies[0] > eq.vqe_energy
        assert energies[-1] > eq.vqe_energy

    def test_vqe_tracks_fci_along_curve(self, h2_scan):
        for p in h2_scan.points:
            assert abs(p.vqe_energy - p.exact_energy) < 1e-5

    def test_correlation_grows_with_stretching(self, h2_scan):
        """Stretching H2 increases static correlation."""
        corr = [abs(p.correlation_energy) for p in h2_scan.points]
        assert corr[-1] > corr[0]

    def test_warm_start_flags(self, h2_scan):
        assert not h2_scan.points[0].warm_started
        assert all(p.warm_started for p in h2_scan.points[1:])

    def test_warm_start_saves_evaluations(self):
        # Stretched geometries have large doubles amplitudes, so the
        # cold (zero) start is far from the optimum while the previous
        # point's optimum is adjacent — the §6.2 warm-start payoff.
        lengths = [1.5, 1.55, 1.6, 1.65, 1.7]
        warm = scan_potential_energy_surface(
            h2, lengths, warm_start=True, compute_exact=False
        )
        cold = scan_potential_energy_surface(
            h2, lengths, warm_start=False, compute_exact=False
        )
        # identical physics ...
        assert np.allclose(warm.energies, cold.energies, atol=1e-7)
        # ... cheaper optimization after the first point (§6.2)
        warm_tail = sum(p.function_evaluations for p in warm.points[1:])
        cold_tail = sum(p.function_evaluations for p in cold.points[1:])
        assert warm_tail < cold_tail


class TestDipole:
    @pytest.fixture(scope="class")
    def water_scf(self):
        return run_rhf(h2o())

    def test_h2o_magnitude(self, water_scf):
        _, mag = dipole_moment(water_scf)
        # literature RHF/STO-3G water dipole: ~1.71-1.73 Debye
        assert 1.5 < mag * AU_TO_DEBYE < 1.9

    def test_points_along_symmetry_axis(self, water_scf):
        mu, _ = dipole_moment(water_scf)
        # our water geometry has its C2 axis along z
        assert abs(mu[0]) < 1e-8 and abs(mu[1]) < 1e-8
        assert mu[2] > 0

    def test_origin_independent_for_neutral(self, water_scf):
        mu1, _ = dipole_moment(water_scf)
        mu2, _ = dipole_moment(water_scf, origin=(0.5, -1.0, 2.0))
        assert np.allclose(mu1, mu2, atol=1e-8)

    def test_h2_dipole_zero(self):
        _, mag = dipole_moment(run_rhf(h2()))
        assert mag < 1e-8


class TestCheckpoint:
    def test_statevector_roundtrip(self, tmp_path, rng):
        c = random_circuit(5, 30, 3)
        sim = StatevectorSimulator(5)
        sim.run(c)
        path = os.path.join(tmp_path, "ckpt.npz")
        save_statevector(sim, path)
        restored = load_statevector(path)
        assert restored.num_qubits == 5
        assert restored.gates_applied == sim.gates_applied
        assert np.allclose(restored.state, sim.state)

    def test_resume_continues_correctly(self, tmp_path):
        """Split a circuit at a checkpoint; the result must match an
        uninterrupted run."""
        c = random_circuit(4, 40, 8)
        first = Circuit(4, c.gates[:20])
        second = Circuit(4, c.gates[20:])
        sim = StatevectorSimulator(4)
        sim.run(first)
        path = os.path.join(tmp_path, "mid.npz")
        save_statevector(sim, path)
        resumed = load_statevector(path)
        resumed.apply_circuit(second)
        full = StatevectorSimulator(4)
        full.run(c)
        assert np.allclose(resumed.state, full.state, atol=1e-10)

    def test_corruption_detected(self, tmp_path):
        sim = StatevectorSimulator(3)
        path = os.path.join(tmp_path, "bad.npz")
        sim.state[0] = 0.5  # denormalized on purpose
        save_statevector(sim, path)
        with pytest.raises(ValueError):
            load_statevector(path)

    def test_distributed_roundtrip(self, tmp_path):
        c = random_circuit(6, 25, 4)
        dsv = DistributedStatevector(6, 4)
        dsv.run(c)
        directory = os.path.join(tmp_path, "dist")
        save_distributed(dsv, directory)
        restored = load_distributed(directory)
        assert restored.layout == dsv.layout
        assert np.allclose(restored.gather(), dsv.gather(), atol=1e-12)

    def test_distributed_resume(self, tmp_path):
        c = random_circuit(6, 30, 5)
        first = Circuit(6, c.gates[:15])
        second = Circuit(6, c.gates[15:])
        dsv = DistributedStatevector(6, 2)
        dsv.run(first)
        directory = os.path.join(tmp_path, "dist2")
        save_distributed(dsv, directory)
        resumed = load_distributed(directory)
        resumed.run(second, reset=False)
        ref = StatevectorSimulator(6).run(c).copy()
        assert np.allclose(resumed.gather(), ref, atol=1e-9)
