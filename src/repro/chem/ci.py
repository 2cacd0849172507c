"""Determinant-basis configuration interaction (Slater–Condon rules).

The qubit-space exact diagonalization in ``repro.chem.fci`` works on
2^n amplitudes — fine for cross-checking small registers, but the
classical electronic-structure reference the paper's workflow leans on
(the NWChem side) diagonalizes in the *determinant* basis, whose
dimension is the binomial count of the particle sector (441 vs 16,384
for frozen-core H2O).  This module is that substrate:

* determinants as occupation bitmasks, enumerated per (N, S_z) sector,
* Hamiltonian matrix elements by the Slater–Condon rules (diagonal,
  single- and double-excitation cases with fermionic phase factors),
* FCI and CISD spaces,
* a self-contained Davidson eigensolver (diagonal preconditioner) for
  the lowest root.

Cross-checked in the tests against the qubit-space diagonalization:
both must give identical FCI energies, and CISD must land between HF
and FCI (variational hierarchy).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chem.hamiltonian import MolecularHamiltonian

__all__ = [
    "enumerate_determinants",
    "cisd_determinants",
    "build_ci_matrix",
    "davidson",
    "CIResult",
    "run_ci",
]


def _occupied(det: int, n: int) -> List[int]:
    return [p for p in range(n) if (det >> p) & 1]


def _phase_single(det: int, i: int, a: int) -> float:
    """Fermionic phase of a_i -> a_a on |det> (i occupied, a empty):
    (-1)^(number of occupied orbitals strictly between i and a)."""
    lo, hi = (i, a) if i < a else (a, i)
    mask = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1.0 if bin(det & mask).count("1") % 2 else 1.0


def enumerate_determinants(
    num_spin_orbitals: int,
    num_electrons: int,
    sz: Optional[float] = 0.0,
) -> List[int]:
    """All determinants (occupation bitmasks) of the (N, S_z) sector.

    Interleaved convention: even spin orbitals are alpha.  ``sz=None``
    drops the spin restriction.
    """
    n = num_spin_orbitals
    dets = []
    for occ in combinations(range(n), num_electrons):
        if sz is not None:
            n_a = sum(1 for p in occ if p % 2 == 0)
            n_b = len(occ) - n_a
            if n_a - n_b != int(round(2 * sz)):
                continue
        det = 0
        for p in occ:
            det |= 1 << p
        dets.append(det)
    return sorted(dets)


def cisd_determinants(
    num_spin_orbitals: int, num_electrons: int, sz: Optional[float] = 0.0
) -> List[int]:
    """Reference + all single and double excitations (spin-sector
    restricted) — the CISD space."""
    n = num_spin_orbitals
    ref = (1 << num_electrons) - 1
    occ = list(range(num_electrons))
    virt = list(range(num_electrons, n))
    dets = {ref}
    for i in occ:
        for a in virt:
            if sz is not None and (i - a) % 2 != 0:
                continue
            dets.add(ref ^ (1 << i) ^ (1 << a))
    for i, j in combinations(occ, 2):
        for a, b in combinations(virt, 2):
            if sz is not None and ((i % 2) + (j % 2)) != ((a % 2) + (b % 2)):
                continue
            dets.add(ref ^ (1 << i) ^ (1 << j) ^ (1 << a) ^ (1 << b))
    return sorted(dets)


def _element(
    bra: int,
    ket: int,
    n: int,
    h: np.ndarray,
    g: np.ndarray,
) -> float:
    """<bra|H|ket> by the Slater–Condon rules.  ``g`` is physicists'
    <PQ|RS>; antisymmetrized integrals are formed on the fly."""
    diff = bra ^ ket
    ndiff = bin(diff).count("1")
    if ndiff == 0:
        occ = _occupied(ket, n)
        e = sum(h[p, p] for p in occ)
        for i in occ:
            for j in occ:
                e += 0.5 * (g[i, j, i, j] - g[i, j, j, i])
        return float(e)
    if ndiff == 2:
        i = (diff & ket).bit_length() - 1   # occupied in ket only
        a = (diff & bra).bit_length() - 1   # occupied in bra only
        common = _occupied(ket & bra, n)
        val = h[a, i] + sum(g[a, j, i, j] - g[a, j, j, i] for j in common)
        return float(_phase_single(ket, i, a) * val)
    if ndiff == 4:
        ket_only = _occupied(diff & ket, n)   # i < j annihilated
        bra_only = _occupied(diff & bra, n)   # a < b created
        i, j = ket_only
        a, b = bra_only
        # phase: remove i then j, add b then a, tracking intermediate
        # occupations
        phase = _phase_single(ket, i, a)
        mid = ket ^ (1 << i) ^ (1 << a)
        phase *= _phase_single(mid, j, b)
        val = g[a, b, i, j] - g[a, b, j, i]
        return float(phase * val)
    return 0.0


def build_ci_matrix(
    hamiltonian: MolecularHamiltonian, determinants: Sequence[int]
) -> np.ndarray:
    """Dense CI matrix over the given determinant list (constant
    included on the diagonal)."""
    h_so, g_so = hamiltonian.spin_orbital_tensors()
    n = hamiltonian.num_spin_orbitals
    dim = len(determinants)
    mat = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            if bin(determinants[a] ^ determinants[b]).count("1") > 4:
                continue
            val = _element(determinants[a], determinants[b], n, h_so, g_so)
            mat[a, b] = mat[b, a] = val
    mat += hamiltonian.constant * np.eye(dim)
    return mat


def davidson(
    matrix: np.ndarray,
    num_roots: int = 1,
    tol: float = 1e-9,
    max_iterations: int = 200,
    max_subspace: int = 40,
) -> Tuple[np.ndarray, np.ndarray]:
    """Davidson eigensolver for the lowest roots of a symmetric matrix.

    Diagonal preconditioner; subspace collapse when it outgrows
    ``max_subspace``.  Returns (eigenvalues, eigenvectors[:, k]).
    Self-contained — no scipy eigensolver underneath — because an HPC
    electronic-structure stack owns its iterative eigensolver.
    """
    dim = matrix.shape[0]
    num_roots = min(num_roots, dim)
    if dim <= max(64, 4 * num_roots):
        vals, vecs = np.linalg.eigh(matrix)
        return vals[:num_roots], vecs[:, :num_roots]
    diag = np.diag(matrix)
    # seed with unit vectors at the smallest diagonal entries
    order = np.argsort(diag)
    basis = np.zeros((dim, num_roots))
    for k in range(num_roots):
        basis[order[k], k] = 1.0
    for _ in range(max_iterations):
        q, _ = np.linalg.qr(basis)
        hq = matrix @ q
        small = q.T @ hq
        s_vals, s_vecs = np.linalg.eigh(small)
        ritz_vals = s_vals[:num_roots]
        ritz_vecs = q @ s_vecs[:, :num_roots]
        residuals = hq @ s_vecs[:, :num_roots] - ritz_vecs * ritz_vals
        norms = np.linalg.norm(residuals, axis=0)
        if np.all(norms < tol):
            return ritz_vals, ritz_vecs
        new_dirs = []
        for k in range(num_roots):
            if norms[k] < tol:
                continue
            denom = diag - ritz_vals[k]
            denom = np.where(np.abs(denom) < 1e-8, 1e-8, denom)
            new_dirs.append(residuals[:, k] / denom)
        basis = np.column_stack([q, *new_dirs])
        if basis.shape[1] > max_subspace:
            basis = ritz_vecs  # collapse
    return ritz_vals, ritz_vecs


@dataclass
class CIResult:
    """Outcome of a determinant-space CI calculation."""

    energy: float
    eigenvector: np.ndarray
    determinants: List[int]
    space: str

    @property
    def dimension(self) -> int:
        return len(self.determinants)


def run_ci(
    hamiltonian: MolecularHamiltonian,
    space: str = "fci",
    sz: Optional[float] = 0.0,
) -> CIResult:
    """Diagonalize in the chosen determinant space: 'fci' or 'cisd'."""
    n = hamiltonian.num_spin_orbitals
    n_e = hamiltonian.num_electrons
    if space == "fci":
        dets = enumerate_determinants(n, n_e, sz)
    elif space == "cisd":
        dets = cisd_determinants(n, n_e, sz)
    else:
        raise ValueError("space must be 'fci' or 'cisd'")
    mat = build_ci_matrix(hamiltonian, dets)
    vals, vecs = davidson(mat, num_roots=1)
    return CIResult(
        energy=float(vals[0]),
        eigenvector=vecs[:, 0],
        determinants=dets,
        space=space,
    )
