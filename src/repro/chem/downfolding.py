"""Coupled-cluster downfolding (paper §2).

Two variants, mirroring the paper's taxonomy:

**Hermitian downfolding** (unitary-CC based, Eq. 2): the external
cluster operator sigma_ext (anti-Hermitian, seeded from MP2 doubles
that touch external orbitals) is integrated out through a truncated
commutator expansion

    H_eff = H + [H, sigma] + 1/2 [[H, sigma], sigma] + ...

computed *exactly in Pauli-string algebra* (products of Pauli strings
stay Pauli strings, so each commutator is closed-form bit arithmetic).
The transformed operator is then projected onto the active register by
freezing every external qubit at its reference occupation, yielding a
Hermitian effective Hamiltonian on 2 * n_active qubits that downstream
VQE consumes — this is the "downfolded 6-orbital H2O" object of Fig. 5.

The whole series runs on packed :class:`repro.ir.symplectic.SymplecticPauli`
sums.  The projection zeroes every term with X/Y on a frozen qubit, and
a product P1 P2 escapes that only when its factors agree on the frozen
X bits, so the last level forms just those pairs
(``SymplecticPauli.commutator_x_clear``) — about a third of the full
commutator on H2O.  The levels are summed in one stable sort and the
projection is vectorized too: drop, sign by Z parity on occupied frozen
qubits, compress the active bits, dedup.  The bare (order-0) Hamiltonian
goes through the same projection.

**Non-Hermitian downfolding** (Eq. 1): Loewdin/Brillouin–Wigner
partitioning in the determinant basis,
``H_eff(E) = H_AA + H_AX (E - H_XX)^{-1} H_XA``, solved
self-consistently in E.  Its fixed point reproduces the *full-space*
eigenvalue exactly with only active-space dimensionality — the
equivalence theorem the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.chem.hamiltonian import MolecularHamiltonian
from repro.chem.mappings import jordan_wigner
from repro.chem.mp2 import MP2Result, run_mp2
from repro.ir.pauli import PauliSum
from repro.ir.symplectic import SymplecticPauli, pack_masks, parity_words
from repro.utils.bitops import sector_indices

__all__ = [
    "DownfoldingResult",
    "external_sigma",
    "project_onto_reference",
    "hermitian_downfold",
    "nonhermitian_downfold_energy",
]


@dataclass
class DownfoldingResult:
    """Hermitian downfolding output.

    ``effective_hamiltonian`` acts on the active qubits only and
    carries the commutator corrections; ``bare_hamiltonian`` is the
    plain frozen-reference projection (order 0), kept for ablation —
    the accuracy gap between the two is the value downfolding adds.
    """

    effective_hamiltonian: PauliSum
    bare_hamiltonian: PauliSum
    num_active_qubits: int
    num_electrons: int
    sigma_norm1: float
    order: int
    active_spin_orbitals: List[int]


def external_sigma(
    mp2: MP2Result,
    active_spin_orbitals: Sequence[int],
) -> FermionOperator:
    """Anti-Hermitian external cluster operator sigma_ext.

    Built from MP2 doubles amplitudes t_ijab restricted to excitations
    with at least one index *outside* the active spin-orbital set:
    sigma = T2_ext - T2_ext^dagger with
    T2 = sum_{i<j, a<b} t_ijab a+_a a+_b a_j a_i.
    """
    act = set(active_spin_orbitals)
    n_occ = mp2.num_occupied_so
    t2 = mp2.t2
    n_virt = t2.shape[2]
    t_op = FermionOperator()
    for i in range(n_occ):
        for j in range(i + 1, n_occ):
            for a_rel in range(n_virt):
                a = n_occ + a_rel
                for b_rel in range(a_rel + 1, n_virt):
                    b = n_occ + b_rel
                    amp = t2[i, j, a_rel, b_rel]
                    if abs(amp) < 1e-12:
                        continue
                    if {i, j, a, b} <= act:
                        continue  # internal excitation: stays for VQE
                    t_op = t_op + FermionOperator.term(
                        [(a, True), (b, True), (j, False), (i, False)], amp
                    )
    return (t_op - t_op.dagger()).normal_ordered()


def _check_partition(
    num_orbitals: int,
    core_orbitals: Sequence[int],
    active_orbitals: Sequence[int],
    order: Optional[int] = None,
    threshold: Optional[float] = None,
) -> Tuple[List[int], List[int]]:
    """Validate a core / active split of ``num_orbitals`` spatial
    orbitals (and the expansion's ``order`` / ``threshold`` when given);
    returns ``(core, active)`` sorted.  Each failure is a ``ValueError``
    naming the argument and the offending value."""
    parts = []
    for name, orbitals in (
        ("core_orbitals", core_orbitals),
        ("active_orbitals", active_orbitals),
    ):
        values = list(orbitals)
        for p in values:
            if not isinstance(p, (int, np.integer)):
                raise ValueError(
                    f"{name} holds {p!r}, not an integer orbital index"
                )
        values = [int(p) for p in values]
        bad = [p for p in values if not 0 <= p < num_orbitals]
        if bad:
            raise ValueError(
                f"{name} holds orbital {bad[0]}, outside [0, {num_orbitals}) "
                f"for this {num_orbitals}-orbital Hamiltonian"
            )
        repeated = sorted({p for p in values if values.count(p) > 1})
        if repeated:
            raise ValueError(f"{name} repeats orbital(s) {repeated}: {values}")
        parts.append(sorted(values))
    core, active = parts
    if not active:
        raise ValueError("active_orbitals is empty: nothing to downfold onto")
    shared = sorted(set(core) & set(active))
    if shared:
        raise ValueError(
            f"core_orbitals {core} and active_orbitals {active} share "
            f"orbital(s) {shared}"
        )
    if order is not None and (
        not isinstance(order, (int, np.integer)) or order < 0
    ):
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    if threshold is not None and not (
        np.isfinite(threshold) and threshold >= 0
    ):
        raise ValueError(
            f"threshold must be a finite number >= 0, got {threshold!r}"
        )
    return core, active


def _qubit_mask(qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Packed ``(num_words,)`` uint64 row with the given qubits set."""
    return pack_masks([sum(1 << q for q in set(qubits))], num_qubits)[0]


def _project(
    op: SymplecticPauli,
    active_qubits: Sequence[int],
    occupied_external: Sequence[int],
) -> SymplecticPauli:
    """Packed reference projection (see :func:`project_onto_reference`):
    drop rows with X/Y on a frozen qubit, sign the rest by the parity of
    their Z on occupied frozen qubits, compress the active bits to
    ``0..len(active)-1``, then dedup and chop at 1e-14."""
    act = list(active_qubits)
    n = op.num_qubits
    for name, qubits in (
        ("active_qubits", act),
        ("occupied_external", occupied_external),
    ):
        bad = [q for q in qubits if not 0 <= q < n]
        if bad:
            raise ValueError(f"{name} holds qubit {bad[0]}, outside [0, {n})")
    if set(occupied_external) & set(act):
        raise ValueError("occupied_external overlaps active qubits")
    ext = _qubit_mask(set(range(n)) - set(act), n)
    occ = _qubit_mask(occupied_external, n)
    keep = ~(op.x & ext).any(axis=1)
    x, z = op.x[keep], op.z[keep]
    coeffs = op.coeffs[keep] * (1.0 - 2.0 * parity_words(z & occ))
    m = len(act)
    new_x = np.zeros((len(coeffs), (m + 63) // 64), dtype=np.uint64)
    new_z = np.zeros_like(new_x)
    one = np.uint64(1)
    for k, q in enumerate(act):
        src, shift = divmod(q, 64)
        dst, place = divmod(k, 64)
        shift, place = np.uint64(shift), np.uint64(place)
        new_x[:, dst] |= ((x[:, src] >> shift) & one) << place
        new_z[:, dst] |= ((z[:, src] >> shift) & one) << place
    return SymplecticPauli(m, new_x, new_z, coeffs).dedup(1e-14)


def project_onto_reference(
    operator: PauliSum,
    active_qubits: Sequence[int],
    occupied_external: Sequence[int],
) -> PauliSum:
    """Freeze non-active qubits at their reference occupation.

    Every Pauli term factors as P_active (x) P_external; the external
    factor is replaced by its reference expectation value:
    0 for any X/Y factor, (-1)^{#Z on occupied} otherwise.  Active
    qubits are re-labelled 0..len(active)-1 preserving order; terms
    that land on the same active string are summed, and coefficients
    of at most 1e-14 dropped.
    """
    return PauliSum.from_symplectic(
        _project(operator.to_symplectic(), active_qubits, occupied_external)
    )


def _sum_stable(
    parts: Sequence[SymplecticPauli], threshold: float
) -> SymplecticPauli:
    """Sum of several packed sums: one stable sort of all rows by
    ``(x, z)``, so equal strings add in the order of ``parts``; then a
    chop at ``threshold``."""
    n = parts[0].num_qubits
    x = np.concatenate([p.x for p in parts])
    z = np.concatenate([p.z for p in parts])
    coeffs = np.concatenate([p.coeffs for p in parts])
    if not len(coeffs):
        return SymplecticPauli.zero(n)
    order = np.lexsort(tuple(z.T) + tuple(x.T))
    x, z = x[order], z[order]
    boundary = np.ones(len(order), dtype=bool)
    boundary[1:] = np.any((x[1:] != x[:-1]) | (z[1:] != z[:-1]), axis=1)
    starts = np.flatnonzero(boundary)
    summed = np.add.reduceat(coeffs[order], starts)
    keep = np.abs(summed) > threshold
    return SymplecticPauli(n, x[starts][keep], z[starts][keep], summed[keep])


def hermitian_downfold(
    full_hamiltonian: MolecularHamiltonian,
    mo_energies: np.ndarray,
    core_orbitals: Sequence[int],
    active_orbitals: Sequence[int],
    order: int = 2,
    threshold: float = 1e-9,
) -> DownfoldingResult:
    """Hermitian CC downfolding onto an active space.

    Parameters
    ----------
    full_hamiltonian:
        The full MO-basis Hamiltonian (all orbitals).
    mo_energies:
        Orbital energies (for MP2 external amplitudes).
    core_orbitals / active_orbitals:
        Spatial-orbital partitions; anything else is a frozen virtual.
        Indices must be distinct orbitals of ``full_hamiltonian``, the
        two sets disjoint and ``active_orbitals`` non-empty.
    order:
        Commutator truncation order of Eq. 2 (paper uses 2), >= 0.
    threshold:
        Pauli-coefficient chop threshold between commutator levels.

    Raises ``ValueError`` naming the argument for a bad partition,
    ``order`` or ``threshold``.
    """
    n_so = full_hamiltonian.num_spin_orbitals
    core, active = _check_partition(
        full_hamiltonian.num_orbitals, core_orbitals, active_orbitals,
        order, threshold,
    )
    active_so = sorted(2 * p + s for p in active for s in (0, 1))
    core_so = sorted(2 * p + s for p in core for s in (0, 1))

    h_q = full_hamiltonian.to_qubit("jordan-wigner")
    mp2 = run_mp2(full_hamiltonian, np.asarray(mo_energies))
    sigma_q = jordan_wigner(external_sigma(mp2, active_so), n_so)

    h = h_q.to_symplectic()
    bare = _project(h, active_so, core_so)
    if sigma_q.num_terms == 0 or order == 0:
        heff = bare
    else:
        # H + [H,s] + 1/2 [[H,s],s] + ... (Eq. 2); the last level keeps
        # only the products with no X/Y on a frozen qubit, the only ones
        # the projection does not zero.
        sigma = sigma_q.to_symplectic()
        ext = _qubit_mask(set(range(n_so)) - set(active_so), n_so)
        parts = [h]
        nested = h
        factorial = 1.0
        for k in range(1, order + 1):
            if k < order:
                nested = nested.commutator(sigma).chop(threshold)
            else:
                nested = nested.commutator_x_clear(sigma, ext, threshold)
            factorial *= k
            parts.append(nested.scale(1.0 / factorial))
        heff = _project(_sum_stable(parts, threshold), active_so, core_so)

    return DownfoldingResult(
        effective_hamiltonian=PauliSum.from_symplectic(heff),
        bare_hamiltonian=PauliSum.from_symplectic(bare),
        num_active_qubits=len(active_so),
        num_electrons=full_hamiltonian.num_electrons - 2 * len(core),
        sigma_norm1=sigma_q.norm1(),
        order=order,
        active_spin_orbitals=active_so,
    )


def nonhermitian_downfold_energy(
    full_hamiltonian: MolecularHamiltonian,
    core_orbitals: Sequence[int],
    active_orbitals: Sequence[int],
    energy_guess: Optional[float] = None,
    tol: float = 1e-10,
    max_iterations: int = 100,
) -> Tuple[float, int]:
    """Self-consistent Loewdin (Brillouin–Wigner) downfolded energy.

    Partitions the particle-number sector of the determinant space
    into active-reference determinants (external orbitals at reference
    occupation) and the rest, and iterates
    ``E <- min eig [ H_AA + H_AX (E - H_XX)^{-1} H_XA ]``.
    The fixed point equals the exact full-space eigenvalue (the
    equivalence theorem of paper §2) — returned with the iteration
    count.
    """
    core, active = _check_partition(
        full_hamiltonian.num_orbitals, core_orbitals, active_orbitals
    )
    active_so = sorted(2 * p + s for p in active for s in (0, 1))
    core_so = sorted(2 * p + s for p in core for s in (0, 1))
    n_so = full_hamiltonian.num_spin_orbitals

    h_q = full_hamiltonian.to_qubit("jordan-wigner")
    n_elec = full_hamiltonian.num_electrons
    sector = sector_indices(n_so, num_particles=n_elec, sz=0)

    core_mask = sum(1 << q for q in core_so)
    ext_virtual_mask = sum(
        1 << q
        for q in range(n_so)
        if q not in set(active_so) and q not in set(core_so)
    )
    in_a = ((sector & core_mask) == core_mask) & ((sector & ext_virtual_mask) == 0)
    idx_a = sector[in_a]
    idx_x = sector[~in_a]
    if idx_a.size == 0:
        raise ValueError("active reference block is empty")

    h_aa = h_q.matrix_block(idx_a, idx_a)
    h_ax = h_q.matrix_block(idx_a, idx_x)
    h_xa = h_q.matrix_block(idx_x, idx_a)
    h_xx = h_q.matrix_block(idx_x, idx_x)

    e = float(energy_guess) if energy_guess is not None else float(
        np.min(np.real(np.diag(h_aa)))
    )
    its = 0
    for its in range(1, max_iterations + 1):
        try:
            resolvent = np.linalg.solve(
                e * np.eye(h_xx.shape[0]) - h_xx, h_xa
            )
        except np.linalg.LinAlgError:
            e += 1e-6  # nudge off a singular resolvent
            continue
        heff = h_aa + h_ax @ resolvent
        # Non-Hermitian effective matrix: take the lowest real eigenvalue.
        vals = np.linalg.eigvals(heff)
        vals = vals[np.abs(vals.imag) < 1e-8].real
        e_new = float(np.min(vals))
        if abs(e_new - e) < tol:
            return e_new, its
        e = e_new
    return e, its
