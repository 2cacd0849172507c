"""Tests for the lattice-model Hamiltonians against analytic results."""

import numpy as np
import pytest

from repro.chem.fci import exact_ground_energy
from repro.chem.lattice import (
    fermi_hubbard,
    fermi_hubbard_qubit,
    heisenberg_xxz,
    transverse_field_ising,
)
from repro.chem.mappings import map_fermion_operators
from repro.chem.uccsd import excitation_generator
from repro.core.vqe import VQE


def generalized_generators(n):
    """UCCGSD generators: every spin-preserving single and double
    excitation over all ``n`` spin orbitals, with no occupied/virtual
    restriction, one per orbital pairing."""
    singles = [(i, a) for i in range(n) for a in range(i + 1, n) if (i - a) % 2 == 0]
    doubles = [
        (i, j, a, b)
        for i in range(n)
        for j in range(i + 1, n)
        for a in range(n)
        for b in range(a + 1, n)
        if (a, b) > (i, j)
        and not {i, j} & {a, b}
        and (i % 2) + (j % 2) == (a % 2) + (b % 2)
    ]
    mapped = map_fermion_operators(
        [excitation_generator(exc) for exc in singles + doubles], n
    )
    return [a for a in mapped if a.num_terms]


class TestTFIM:
    def test_term_count(self):
        h = transverse_field_ising(5)
        assert h.num_terms == 4 + 5  # 4 bonds + 5 fields

    def test_classical_limit(self):
        """h = 0: ground energy is the classical ferromagnet -J(n-1)."""
        h = transverse_field_ising(5, j=1.0, h=0.0)
        assert np.isclose(exact_ground_energy(h), -4.0)

    def test_paramagnet_limit(self):
        """J = 0: every spin aligns with the field, E = -h n."""
        h = transverse_field_ising(4, j=0.0, h=2.0)
        assert np.isclose(exact_ground_energy(h), -8.0)

    def test_critical_point_energy(self):
        """At J = h = 1 (open chain, n=2): E0 = -sqrt(J^2+... analytic
        2-site value: eigenvalues of -ZZ - X1 - X2 are -sqrt(5), ...)."""
        h = transverse_field_ising(2, j=1.0, h=1.0)
        assert np.isclose(exact_ground_energy(h), -np.sqrt(5.0), atol=1e-10)

    def test_periodic_adds_bond(self):
        open_chain = transverse_field_ising(4)
        ring = transverse_field_ising(4, periodic=True)
        assert ring.num_terms == open_chain.num_terms + 1


class TestHeisenberg:
    def test_two_site_singlet(self):
        """Two-site antiferromagnet: ground state is the singlet with
        E = -3 J (XX+YY+ZZ eigenvalue -3 on the singlet)."""
        h = heisenberg_xxz(2, j_xy=1.0, j_z=1.0)
        assert np.isclose(exact_ground_energy(h), -3.0)

    def test_ising_limit(self):
        """j_xy = 0 reduces to classical Ising: E = -j_z (n-1) for
        the antiferromagnetic Neel state with j_z > 0."""
        h = heisenberg_xxz(4, j_xy=0.0, j_z=1.0)
        assert np.isclose(exact_ground_energy(h), -3.0)

    def test_field_shifts_sectors(self):
        h0 = heisenberg_xxz(3, field=0.0)
        h1 = heisenberg_xxz(3, field=-10.0)
        # strong negative field polarizes: lower energy
        assert exact_ground_energy(h1) < exact_ground_energy(h0)


class TestFermiHubbard:
    def test_hermitian(self):
        hq = fermi_hubbard_qubit(3)
        assert hq.is_hermitian()

    def test_two_site_analytic(self):
        """2-site Hubbard, 2 electrons, Sz=0:
        E0 = (U - sqrt(U^2 + 16 t^2)) / 2."""
        t, u = 1.0, 4.0
        hq = fermi_hubbard_qubit(2, tunneling=t, interaction=u)
        e = exact_ground_energy(hq, num_particles=2, sz=0)
        expected = (u - np.sqrt(u * u + 16 * t * t)) / 2
        assert np.isclose(e, expected, atol=1e-10)

    def test_atomic_limit(self):
        """t = 0: half filling avoids double occupancy, E = 0."""
        hq = fermi_hubbard_qubit(2, tunneling=0.0, interaction=4.0)
        assert np.isclose(
            exact_ground_energy(hq, num_particles=2, sz=0), 0.0, atol=1e-10
        )

    def test_noninteracting_limit(self):
        """U = 0: tight-binding; 2-site, 2 electrons -> E = -2t."""
        hq = fermi_hubbard_qubit(2, tunneling=1.0, interaction=0.0)
        assert np.isclose(
            exact_ground_energy(hq, num_particles=2, sz=0), -2.0, atol=1e-10
        )

    def test_number_conservation(self):
        op = fermi_hubbard(3)
        assert op.conserves_particle_number()

    def test_vqe_on_hubbard(self):
        """The chemistry-mode VQE drives the Hubbard model unchanged —
        one framework, any second-quantized workload.  The reference is
        the Neel-like configuration (one electron per site, Sz = 0):
        the aufbau determinant double-occupies a site and sits at a
        stationary point of the landscape."""
        t, u = 1.0, 4.0
        hq = fermi_hubbard_qubit(2, tunneling=t, interaction=u)
        gens = generalized_generators(4)
        neel = np.zeros(16, dtype=complex)
        neel[0b1001] = 1.0  # up on site 0 (qubit 0), down on site 1 (qubit 3)
        vqe = VQE(hq, generators=gens, reference_state=neel)
        res = vqe.run()
        expected = (u - np.sqrt(u * u + 16 * t * t)) / 2
        assert abs(res.energy - expected) < 1e-6

    def test_chemical_potential(self):
        mu = 0.7
        h_no = fermi_hubbard_qubit(2, chemical_potential=0.0)
        h_mu = fermi_hubbard_qubit(2, chemical_potential=mu)
        # at fixed particle number N, -mu N is a constant shift
        e_no = exact_ground_energy(h_no, num_particles=2, sz=0)
        e_mu = exact_ground_energy(h_mu, num_particles=2, sz=0)
        assert np.isclose(e_mu, e_no - 2 * mu, atol=1e-10)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            fermi_hubbard(1)
        with pytest.raises(ValueError):
            transverse_field_ising(1)
