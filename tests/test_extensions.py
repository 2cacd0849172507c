"""Tests for the §6.2 warm-started potential-energy-surface scan."""

import numpy as np
import pytest

from repro.chem.molecule import h2
from repro.core.scan import scan_potential_energy_surface


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
