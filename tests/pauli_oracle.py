"""Per-term reference loops for the Pauli algebra.

These dict-of-terms loops are the oracle the packed symplectic engine
(:mod:`repro.ir.symplectic`) is checked against: one Python iteration
per term pair for products and commutators, a member-by-member
qubit-wise-commutation test for grouping, a chain of two-term
ladder products per fermionic term for the mappings, the quadruple
loops that expanded the MO integrals to spin orbitals and built the
fermionic Hamiltonian from them, and "commute fully, then project" for
Hermitian downfolding (the whole BCH series in dict arithmetic, then a
per-term reference projection).  They live
under ``tests/`` because nothing in the package runs them; the property
tests in ``tests/test_symplectic.py``, the downfolding tests and the
per-term baselines of ``benchmarks/bench_pauli_algebra.py`` import them
from here.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.chem.downfolding import external_sigma
from repro.chem.fermion import FermionOperator
from repro.chem.hamiltonian import MolecularHamiltonian
from repro.chem.mappings import _get_mapper, jordan_wigner
from repro.chem.mo import MOIntegrals
from repro.chem.mp2 import run_mp2
from repro.ir.pauli import PauliString, PauliSum
from repro.utils.bitops import I_POW as _I_POW
from repro.utils.bitops import popcount as _popcount

__all__ = [
    "dot_per_term",
    "commutator_per_term",
    "group_qwc_per_term",
    "map_fermion_operator_per_term",
    "spin_orbital_tensors_loop",
    "project_onto_reference_per_term",
    "bch_full",
    "hermitian_downfold_oracle",
]


def dot_per_term(a: PauliSum, b: PauliSum) -> PauliSum:
    """Product ``a @ b``, one dict update per term pair."""
    out: Dict[Tuple[int, int], complex] = {}
    for (x1, z1), c1 in a.terms.items():
        c11 = _popcount(x1 & z1)
        for (x2, z2), c2 in b.terms.items():
            x3 = x1 ^ x2
            z3 = z1 ^ z2
            exponent = (
                c11
                + _popcount(x2 & z2)
                - _popcount(x3 & z3)
                + 2 * _popcount(z1 & x2)
            ) % 4
            coeff = c1 * c2 * _I_POW[exponent]
            key = (x3, z3)
            new = out.get(key, 0.0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
    return PauliSum(a.num_qubits, out)


def commutator_per_term(a: PauliSum, b: PauliSum) -> PauliSum:
    """``[a, b]``: each anticommuting pair contributes ``2 P1 P2``."""
    out: Dict[Tuple[int, int], complex] = {}
    for (x1, z1), c1 in a.terms.items():
        c11 = _popcount(x1 & z1)
        for (x2, z2), c2 in b.terms.items():
            if (_popcount(x1 & z2) + _popcount(z1 & x2)) % 2 == 0:
                continue  # commuting pair contributes nothing
            x3 = x1 ^ x2
            z3 = z1 ^ z2
            exponent = (
                c11
                + _popcount(x2 & z2)
                - _popcount(x3 & z3)
                + 2 * _popcount(z1 & x2)
            ) % 4
            coeff = 2.0 * c1 * c2 * _I_POW[exponent]
            key = (x3, z3)
            new = out.get(key, 0.0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
    return PauliSum(a.num_qubits, out)


def group_qwc_per_term(ps: PauliSum) -> List[List[Tuple[complex, PauliString]]]:
    """Greedy first-fit qubit-wise-commuting grouping, testing every
    member of every group.  Terms are scanned by descending ``|coeff|``
    with ties in ascending ``(x, z)`` order — the engine's scan order,
    so the two must return identical groups."""
    groups: List[List[Tuple[complex, PauliString]]] = []
    ordered = sorted(ps, key=lambda t: (-abs(t[0]), t[1].x, t[1].z))
    reps: List[List[PauliString]] = []
    for coeff, pstr in ordered:
        placed = False
        for gi, members in enumerate(reps):
            if all(pstr.qubitwise_commutes_with(m) for m in members):
                groups[gi].append((coeff, pstr))
                members.append(pstr)
                placed = True
                break
        if not placed:
            groups.append([(coeff, pstr)])
            reps.append([pstr])
    return groups


def _ladder(mapper, p: int, dagger: bool) -> PauliSum:
    """a+_p or a_p = X_U . Z_P . (I +/- Z_F)/2 as a two-term sum."""
    n = mapper.n
    x_u = PauliSum.from_string(PauliString(n, x=mapper.update_masks[p]))
    z_p = PauliSum.from_string(PauliString(n, z=mapper.parity_masks[p]))
    z_f = PauliSum.from_string(PauliString(n, z=mapper.flip_masks[p]))
    sign = 1.0 if dagger else -1.0
    projector = (PauliSum.identity(n) + sign * z_f) * 0.5
    return dot_per_term(dot_per_term(x_u, z_p), projector)


def map_fermion_operator_per_term(
    op: FermionOperator, num_modes: int, mapping: str = "jordan-wigner"
) -> PauliSum:
    """Map one operator a fermionic term at a time, each term a chain of
    per-term products of its ladder factors."""
    if op.max_orbital >= num_modes:
        raise ValueError(
            f"operator touches orbital {op.max_orbital} >= num_modes {num_modes}"
        )
    mapper = _get_mapper(mapping, num_modes)
    ladders: Dict[Tuple[int, bool], PauliSum] = {}

    def ladder(p: int, dagger: bool) -> PauliSum:
        if (p, dagger) not in ladders:
            ladders[p, dagger] = _ladder(mapper, p, dagger)
        return ladders[p, dagger]

    result = PauliSum.zero(num_modes)
    for term, coeff in op:
        if not term:
            result = result + PauliSum.identity(num_modes, coeff)
            continue
        acc = ladder(*term[0])
        for orb, dag in term[1:]:
            acc = dot_per_term(acc, ladder(orb, dag))
        result = result + acc * coeff
    return result.chop(1e-14)


def to_fermion_operator_loop(
    mh: MolecularHamiltonian, threshold: float = 1e-12
) -> FermionOperator:
    """``MolecularHamiltonian.to_fermion_operator`` one integral at a
    time: one-body entries, then two-body entries, in C order."""
    h_so, g_so = mh.spin_orbital_tensors()
    n_so = mh.num_spin_orbitals
    terms = dict(FermionOperator.identity(mh.constant).terms)
    for p in range(n_so):
        for q in range(n_so):
            c = h_so[p, q]
            if abs(c) > threshold:
                key = ((p, True), (q, False))
                terms[key] = terms.get(key, 0.0) + c
    for p in range(n_so):
        for q in range(n_so):
            for r in range(n_so):
                for s in range(n_so):
                    c = 0.5 * g_so[p, q, r, s]
                    if abs(c) > threshold:
                        key = ((p, True), (q, True), (s, False), (r, False))
                        terms[key] = terms.get(key, 0.0) + c
    return FermionOperator(terms)


def spin_orbital_tensors_loop(mo: MOIntegrals) -> Tuple[np.ndarray, np.ndarray]:
    """``chem.mo.spin_orbital_tensors`` one integral at a time:
    ``h_so[2p+s, 2q+s] = h[p, q]`` and ``g_so[2p+sp, 2q+sq, 2r+sp,
    2s+sq] = (pr|qs)`` over the n^4 x 4 spatial/spin index loop."""
    n = mo.num_orbitals
    h_so = np.zeros((2 * n, 2 * n))
    for p in range(n):
        for q in range(n):
            h_so[2 * p, 2 * q] = mo.h_mo[p, q]
            h_so[2 * p + 1, 2 * q + 1] = mo.h_mo[p, q]
    g_so = np.zeros((2 * n,) * 4)
    eri = mo.eri_mo
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    val = eri[p, r, q, s]
                    if val == 0.0:
                        continue
                    for sp in (0, 1):
                        for sq in (0, 1):
                            g_so[2 * p + sp, 2 * q + sq, 2 * r + sp, 2 * s + sq] = val
    return h_so, g_so


def project_onto_reference_per_term(
    operator: PauliSum,
    active_qubits: Sequence[int],
    occupied_external: Sequence[int],
) -> PauliSum:
    """Freeze non-active qubits at their reference occupation.

    Every Pauli term factors as P_active (x) P_external; the external
    factor is replaced by its reference expectation value:
    0 for any X/Y factor, (-1)^{#Z on occupied} otherwise.  Active
    qubits are re-labelled 0..len(active)-1 preserving order.
    """
    n = operator.num_qubits
    act = list(active_qubits)
    act_set = set(act)
    occ_ext = set(occupied_external)
    if occ_ext & act_set:
        raise ValueError("occupied_external overlaps active qubits")
    ext_mask = 0
    for q in range(n):
        if q not in act_set:
            ext_mask |= 1 << q
    occ_mask = 0
    for q in occ_ext:
        occ_mask |= 1 << q

    pos = {q: k for k, q in enumerate(act)}
    out = PauliSum.zero(len(act))
    for (x, z), coeff in operator.terms.items():
        if x & ext_mask:
            continue  # X/Y on a frozen qubit: zero reference expectation
        sign = -1.0 if bin(z & occ_mask).count("1") % 2 else 1.0
        new_x = new_z = 0
        for q in act:
            bit = 1 << q
            if x & bit:
                new_x |= 1 << pos[q]
            if z & bit:
                new_z |= 1 << pos[q]
        out.add_term(PauliString(len(act), new_x, new_z), coeff * sign)
    return out.chop(1e-14)


def bch_full(
    h: PauliSum, sigma: PauliSum, order: int, threshold: float
) -> PauliSum:
    """Truncated BCH series H + [H,s] + 1/2 [[H,s],s] + ... (Eq. 2)."""
    heff = h
    nested = h
    factorial = 1.0
    for k in range(1, order + 1):
        nested = nested.commutator(sigma).chop(threshold)
        factorial *= k
        heff = heff + nested * (1.0 / factorial)
    return heff.chop(threshold)


def hermitian_downfold_oracle(
    full_hamiltonian: MolecularHamiltonian,
    mo_energies: np.ndarray,
    core_orbitals: Sequence[int],
    active_orbitals: Sequence[int],
    order: int = 2,
    threshold: float = 1e-9,
) -> PauliSum:
    """The effective Hamiltonian of ``hermitian_downfold``, built by
    forming every commutator term on the full register and only then
    projecting onto the reference."""
    n_so = full_hamiltonian.num_spin_orbitals
    active_so = sorted(2 * p + s for p in active_orbitals for s in (0, 1))
    core_so = sorted(2 * p + s for p in core_orbitals for s in (0, 1))
    h_q = full_hamiltonian.to_qubit("jordan-wigner")
    mp2 = run_mp2(full_hamiltonian, np.asarray(mo_energies))
    sigma_q = jordan_wigner(external_sigma(mp2, active_so), n_so)
    if sigma_q.num_terms == 0 or order == 0:
        return project_onto_reference_per_term(h_q, active_so, core_so)
    heff_full = bch_full(h_q, sigma_q, order, threshold)
    return project_onto_reference_per_term(heff_full, active_so, core_so)
