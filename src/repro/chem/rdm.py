"""Reduced density matrices from simulated states.

The 1- and 2-RDMs

    D1[p, q]       = <a+_p a_q>
    D2[p, q, r, s] = <a+_p a+_q a_s a_r>      (matching the g_so index
                                               convention of chem.mo)

are the chemistry-side observables a converged VQE state is *for*:
every one- and two-body property (energies, dipoles, natural
occupations, correlation functions) is a contraction against them.
Computed here by mapping every ladder pair/quadruple through
Jordan–Wigner in one batched call and taking direct expectations —
exact, no sampling.

The energy-reconstruction identity

    E = constant + sum h D1 + 1/2 sum g D2

is the strongest available cross-check of Hamiltonian construction,
mapping, and simulator at once; it is asserted in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.chem.hamiltonian import MolecularHamiltonian
from repro.chem.mappings import map_fermion_operators

__all__ = [
    "one_rdm",
    "two_rdm",
    "energy_from_rdms",
    "natural_occupations",
]


def one_rdm(state: np.ndarray, num_spin_orbitals: int) -> np.ndarray:
    """<a+_p a_q> over spin orbitals (Hermitian, trace = N)."""
    n = num_spin_orbitals
    if state.shape != (1 << n,):
        raise ValueError("state dimension mismatch")
    d1 = np.zeros((n, n), dtype=np.complex128)
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    ops = map_fermion_operators(
        [FermionOperator.term([(p, True), (q, False)]) for p, q in pairs], n
    )
    for (p, q), op in zip(pairs, ops):
        val = op.expectation(state)
        d1[p, q] = val
        if p != q:
            d1[q, p] = val.conjugate()
    return d1


def two_rdm(state: np.ndarray, num_spin_orbitals: int) -> np.ndarray:
    """<a+_p a+_q a_s a_r> (index order matches ``g_so``; exploits the
    antisymmetry D2[p,q,r,s] = -D2[q,p,r,s] = -D2[p,q,s,r] and the
    Hermitian pair symmetry)."""
    n = num_spin_orbitals
    if state.shape != (1 << n,):
        raise ValueError("state dimension mismatch")
    d2 = np.zeros((n, n, n, n), dtype=np.complex128)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    # (p, q) <= (r, s) only: the rest fill by Hermiticity below
    quads = [(p, q, r, s) for p, q in pairs for r, s in pairs if (p, q) <= (r, s)]
    ops = map_fermion_operators(
        [
            FermionOperator.term([(p, True), (q, True), (s, False), (r, False)])
            for p, q, r, s in quads
        ],
        n,
    )
    for (p, q, r, s), op in zip(quads, ops):
        val = op.expectation(state)
        for (a, b), sgn1 in (((p, q), 1.0), ((q, p), -1.0)):
            for (c, d), sgn2 in (((r, s), 1.0), ((s, r), -1.0)):
                d2[a, b, c, d] = sgn1 * sgn2 * val
                # Hermitian partner: <a+_c a+_d a_b a_a>* ...
                d2[c, d, a, b] = sgn1 * sgn2 * val.conjugate()
    return d2


def energy_from_rdms(
    hamiltonian: MolecularHamiltonian,
    d1: np.ndarray,
    d2: np.ndarray,
) -> float:
    """E = constant + sum h_so D1 + 1/2 sum g_so D2."""
    h_so, g_so = hamiltonian.spin_orbital_tensors()
    e = hamiltonian.constant
    e += float(np.real(np.einsum("pq,pq->", h_so, d1)))
    e += 0.5 * float(np.real(np.einsum("pqrs,pqrs->", g_so, d2)))
    return e


def natural_occupations(d1: np.ndarray) -> np.ndarray:
    """Eigenvalues of the 1-RDM, descending — the (spin-orbital)
    natural occupation numbers of the correlated state."""
    vals = np.linalg.eigvalsh(d1)
    return vals[::-1].real
