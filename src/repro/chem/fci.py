"""Exact diagonalization (FCI) references, built sector-natively.

The "true ground state" baseline of the Fig. 5 convergence study is the
lowest eigenvalue of the qubit Hamiltonian inside the physical
particle-number (and optionally S_z) sector, which keeps the eigensolve
honest even when other Fock sectors dip lower.  Only that block is ever
built: ``PauliSum.matrix_block`` evaluates ``<sector| H |sector>`` from
the x-mask-grouped symplectic form in O(terms x sector size) — 225 x 225
for 12-qubit downfolded H2O, never 2^n x 2^n — and it goes to dense
``eigh`` (up to 256 rows) or sparse ``eigsh``.  An impossible particle
number or S_z, an empty sector, and a non-Hermitian block (``eigh``
reads one triangle and would return a wrong number silently) raise a
``ValueError`` naming the offending values.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from repro.ir.pauli import PauliSum
from repro.utils.bitops import sector_indices

__all__ = ["exact_ground_energy", "exact_ground_state", "sector_indices"]


def exact_ground_state(
    hamiltonian: PauliSum,
    num_particles: Optional[int] = None,
    sz: Optional[float] = None,
) -> Tuple[float, np.ndarray]:
    """Lowest eigenpair, optionally restricted to a symmetry sector.

    Returns ``(energy, state)`` with ``state`` embedded back in the
    full 2^n space (zeros outside the sector).
    """
    n = hamiltonian.num_qubits
    keep = sector_indices(n, num_particles, sz)
    if keep.size == 0:
        raise ValueError(
            f"empty symmetry sector: no basis state of num_qubits={n} has "
            f"num_particles={num_particles} with sz={sz} (an odd particle "
            f"number needs a half-integer sz, an even one an integer sz)"
        )
    sub = hamiltonian.matrix_block(keep, keep)
    asymmetry = abs(sub - sub.conj().T).max()
    if asymmetry > 1e-10:
        raise ValueError(
            f"Hamiltonian block is not Hermitian (max |H - H^dagger| = "
            f"{asymmetry:.3e}); exact diagonalization needs real Pauli "
            f"coefficients"
        )
    if keep.size <= 256:
        vals, vecs = np.linalg.eigh(sub.toarray())
    else:
        vals, vecs = spla.eigsh(sub, k=1, which="SA", maxiter=10000)
    state = np.zeros(1 << n, dtype=np.complex128)
    state[keep] = vecs[:, 0]
    return float(vals[0]), state


def exact_ground_energy(
    hamiltonian: PauliSum,
    num_particles: Optional[int] = None,
    sz: Optional[float] = None,
) -> float:
    """Lowest eigenvalue (sector-restricted if requested)."""
    e0, _ = exact_ground_state(hamiltonian, num_particles, sz)
    return e0
