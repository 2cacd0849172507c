"""Exact diagonalization (FCI) references, built sector-natively.

The "true ground state" baseline of the Fig. 5 convergence study is the
lowest eigenvalue of the qubit Hamiltonian inside the physical
particle-number (and optionally S_z) sector, which keeps the eigensolve
honest even when other Fock sectors dip lower.  Nothing of size 2^n is
built.  A sector of up to ``DENSE_LIMIT`` rows (225 for 12-qubit
downfolded H2O) is one dense block from ``PauliSum.matrix_block`` and
goes to ``eigh``.  A larger one is never formed: a Lanczos iteration
with full reorthogonalization runs on the engine's own sector product,
``compile_observable(H, sector).apply``.  An impossible particle number
or S_z, an empty sector, and a non-Hermitian block (``eigh`` reads one
triangle and would return a wrong number silently) raise a
``ValueError`` naming the offending values.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.utils.bitops import sector_indices

__all__ = ["exact_ground_energy", "exact_ground_state", "sector_indices"]

DENSE_LIMIT = 256  # sector rows diagonalized as one dense block
LANCZOS_TOL = 1e-12  # Ritz residual, relative to max(1, |E|)


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
    if keep.size <= DENSE_LIMIT:
        sub = hamiltonian.matrix_block(keep, keep)
        _check_hermitian(np.abs(sub - sub.conj().T).max())
        vals, vecs = np.linalg.eigh(sub)
        energy, vector = vals[0], vecs[:, 0]
    else:
        h = compile_observable(hamiltonian, keep)
        # entry (j, g[j]) of the block is d[g[j]]: Hermitian iff d = conj(d[g])
        _check_hermitian(max(
            (np.abs(d - (d if g is None else d[g]).conj()).max()
             for d, g in zip(h.diagonals, h.gathers)),
            default=0.0,
        ))
        energy, vector = _lanczos(h.apply, keep.size)
    state = np.zeros(1 << n, dtype=np.complex128)
    state[keep] = vector
    return float(energy), state


def exact_ground_energy(
    hamiltonian: PauliSum,
    num_particles: Optional[int] = None,
    sz: Optional[float] = None,
) -> float:
    """Lowest eigenvalue (sector-restricted if requested)."""
    e0, _ = exact_ground_state(hamiltonian, num_particles, sz)
    return e0


def _check_hermitian(asymmetry: float) -> None:
    if asymmetry > 1e-10:
        raise ValueError(
            f"Hamiltonian block is not Hermitian (max |H - H^dagger| = "
            f"{asymmetry:.3e}); exact diagonalization needs real Pauli "
            f"coefficients"
        )


def _lanczos(apply: Callable[[np.ndarray], np.ndarray], dim: int) -> Tuple[float, np.ndarray]:
    """Lowest eigenpair of the Hermitian ``apply`` on ``C^dim``: Lanczos
    from a fixed random start, every new vector reorthogonalized against
    the whole basis (twice), stopped when the lowest Ritz pair's
    residual ``beta_k |y_k|`` is below ``LANCZOS_TOL * max(1, |E|)`` or
    the basis spans an invariant subspace."""
    basis = np.empty((min(dim, 64), dim), dtype=np.complex128)  # grown by doubling
    v = np.random.default_rng(0).standard_normal(dim).astype(np.complex128)
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    for k in range(dim):
        w = apply(basis[k])
        alpha.append(float(np.vdot(basis[k], w).real))
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1].conj() @ w)
        b = float(np.linalg.norm(w))
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        vals, vecs = np.linalg.eigh(t)
        if b * abs(vecs[-1, 0]) <= LANCZOS_TOL * max(1.0, abs(vals[0])) or k + 1 == dim:
            vector = vecs[:, 0] @ basis[: k + 1]
            return vals[0], vector / np.linalg.norm(vector)
        beta.append(b)
        if k + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])[:dim]
        basis[k + 1] = w / b
    raise AssertionError("unreachable")  # pragma: no cover
