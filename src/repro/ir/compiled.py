"""Compiled Pauli observables: x-mask-batched evaluation kernels.

The direct expectation method (paper §4.2.2) evaluates <psi|H|psi>
from the amplitude vector with one vectorized pass *per Hamiltonian
term* — for a downfolded chemistry Hamiltonian that is thousands of
full-vector gathers, sign evaluations, and reductions on every energy
and gradient call of a VQE/ADAPT campaign.

This module precompiles the observable instead.  Writing each term as
``P(x, z) = i^{|x & z|} X^x Z^z``, every term with the same x-mask
performs the *same* amplitude permutation ``k -> k ^ x``; only the
diagonal sign pattern differs.  Grouping terms by x-mask and summing
their sign patterns into one dense complex diagonal per distinct mask,

    d_x[k] = sum_z c_{x,z} * i^{|x & z|} * (-1)^{parity(k & z)},

collapses the whole observable to

    (H psi)[j]   = sum_x d_x[j ^ x] * psi[j ^ x],
    <psi|H|psi>  = sum_x sum_k conj(psi[k ^ x]) * d_x[k] * psi[k],

i.e. **one gather + one multiply + one reduction per distinct x-mask**
instead of per term.  All diagonal (Z-only) terms share x = 0 and
collapse into a single gather-free pass — for qubit-mapped chemistry
Hamiltonians that alone absorbs a large fraction of the term count.

The engine runs on an **index set**: all 2^n basis states by default,
or a sorted array of them such as the (N, S_z) sector a
number-conserving ansatz lives in (``compile_observable(H, index)``).
On a sector the diagonals are evaluated at its ``D`` columns only
(``x_mask_diagonals(cols=index)``) and each gather table is a partner
table, the position of ``k ^ x`` in the set; where that leaves the set
the partner is ``k`` itself and the diagonal 0, so the same ``apply``
and ``expectation`` loops compute ``P H P``.  That is exact for every
consumer: the energy, the gradient brackets and ADAPT's screen only
pair vectors that live in the sector, so ``H`` itself need not
conserve N.  A mask with no entry left is no pass.

What is compiled is a Hamiltonian: an ansatz generator or ADAPT pool
operator is lowered to rotation steps instead
(:func:`repro.sim.plan.generator_ops`).  Compiled forms are cached on
the source :class:`PauliSum` per index set (invalidated by
``add_term``/``chop``) via :func:`compile_observable`, so every
consumer — the estimators, the adjoint-gradient sweep, ADAPT's
``H psi``, batched simulation — shares one compilation per observable
and index set per campaign.
Full-register compile cost is one n-level Walsh-Hadamard transform per
distinct x-mask (``num_passes * n * 2^n``, whatever the term count — a
few naive ``apply`` calls' worth), a sector's is one terms x ``D`` sign
matrix, so the engine pays for itself within the first evaluations;
memory is about ``num_passes * D * 24`` bytes, ``D`` the length of the
index set (complex diagonal + int64 gather table per non-zero mask).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.ir.pauli import PauliSum
from repro.utils.bitops import basis_indices, sector_partners

__all__ = ["CompiledPauliSum", "compile_observable"]


class CompiledPauliSum:
    """An x-mask-batched, ready-to-evaluate form of a :class:`PauliSum`
    on the sorted basis indices ``index`` (default: all 2^n).

    ``dim`` is the length of the index set, the length of every state
    it takes.  Instances are immutable snapshots:
    they do not track later mutations of the source sum.  Use
    :func:`compile_observable` to get the memoized (auto-invalidated)
    compiled form.
    """

    __slots__ = (
        "num_qubits",
        "index",
        "dim",
        "num_terms",
        "x_masks",
        "diagonals",
        "gathers",
        "source_version",
        "__weakref__",  # memory-ledger registration outlives no instance
    )

    def __init__(self, pauli_sum: PauliSum, index: Optional[np.ndarray] = None):
        n = pauli_sum.num_qubits
        self.num_qubits = n
        self.num_terms = pauli_sum.num_terms
        self.source_version = pauli_sum.version
        symp = pauli_sum.to_symplectic()
        if index is None:
            # One in-place Walsh-Hadamard transform per distinct x-mask
            # over the packed symplectic form (x = 0, the gather-free
            # diagonal pass, sorts first).
            self.index = basis_indices(n)
            masks, self.diagonals = symp.x_mask_diagonals()
            self.x_masks: Tuple[int, ...] = tuple(masks.tolist())
            self.gathers: List[Optional[np.ndarray]] = [
                None if x == 0 else self.index ^ x for x in self.x_masks
            ]
        else:
            # P H P on the index set: the diagonal is zeroed (and the
            # partner is the amplitude itself) wherever k ^ x leaves the
            # set; a mask left with no entry is no pass at all.
            if np.any(np.diff(index) <= 0):
                raise ValueError("index set must be sorted basis indices without repeats")
            self.index = index
            masks, d = symp.x_mask_diagonals(index)
            keep, gathers = [], []
            for m, x in enumerate(masks.tolist()):
                partners, inside = sector_partners(index, x)
                d[m, ~inside] = 0.0
                if d[m].any():
                    keep.append(m)
                    gathers.append(None if x == 0 else partners)
            self.x_masks = tuple(masks[keep].tolist())
            self.diagonals = d[keep]
            self.gathers = gathers
        self.dim = self.index.size
        obs.mem_track(self, "compiled_observable", self.nbytes())

    # -- inspection ----------------------------------------------------------

    @property
    def num_passes(self) -> int:
        """Vector passes per evaluation (= distinct x-masks with an
        entry on the index set); the naive per-term path pays
        ``num_terms`` passes instead."""
        return len(self.x_masks)

    @property
    def is_diagonal(self) -> bool:
        """True when every term is Z-type (single gather-free pass)."""
        return self.x_masks == (0,) or not self.x_masks

    def nbytes(self) -> int:
        """Memory held by the precomputed diagonals + gather tables."""
        total = self.diagonals.nbytes
        for g in self.gathers:
            if g is not None:
                total += g.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"CompiledPauliSum(qubits={self.num_qubits}, dim={self.dim}, "
            f"terms={self.num_terms}, passes={self.num_passes})"
        )

    # -- numerics ------------------------------------------------------------

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Return ``H @ state`` in one pass per distinct x-mask; ``state``
        is one ``(dim,)`` vector or a ``(…, dim)`` block of them."""
        if state.shape[-1] != self.dim:
            raise ValueError(
                f"state dimension mismatch: expected {self.dim}, got {state.shape[-1]}"
            )
        out = np.zeros(state.shape, dtype=np.complex128)
        for d, g in zip(self.diagonals, self.gathers):
            t = d * state
            if g is None:
                out += t
            else:
                out += t.take(g, axis=-1)
        return out

    def expectation(self, state: np.ndarray) -> complex:
        """<state| H |state> without materializing ``H @ state``."""
        if state.shape[0] != self.dim:
            raise ValueError(
                f"state dimension mismatch: expected {self.dim}, got {state.shape[0]}"
            )
        total = 0.0 + 0.0j
        abs2: Optional[np.ndarray] = None
        for d, g in zip(self.diagonals, self.gathers):
            if g is None:
                if abs2 is None:
                    abs2 = (state.real * state.real) + (state.imag * state.imag)
                total += np.dot(d, abs2)
            else:
                total += np.vdot(state[g], d * state)
        return complex(total)

    def expectations(self, states: np.ndarray) -> np.ndarray:
        """<psi_b|H|psi_b> for a (B, dim) batch, one pass per x-mask.

        Returns the complex per-row values; Hermiticity checking is the
        caller's concern (see ``BatchedStatevectorSimulator``).
        """
        if states.ndim != 2 or states.shape[1] != self.dim:
            raise ValueError(f"expected a (batch, {self.dim}) amplitude matrix")
        out = np.zeros(states.shape[0], dtype=np.complex128)
        for d, g in zip(self.diagonals, self.gathers):
            if g is None:
                abs2 = (states.real * states.real) + (states.imag * states.imag)
                out += abs2 @ d
            else:
                out += np.einsum(
                    "bi,bi->b", states[:, g].conj(), d * states
                )
        return out


def compile_observable(
    observable: Union[PauliSum, CompiledPauliSum],
    index: Optional[np.ndarray] = None,
) -> CompiledPauliSum:
    """The memoizing entry point every hot path goes through.

    Returns the compiled form of ``observable`` on the sorted basis
    indices ``index`` (``None`` or all 2^n of them: the full register),
    reusing the copy cached on the :class:`PauliSum` for that index set
    when it is still valid (the cache is dropped by ``add_term``/
    ``chop``).  Passing an already-compiled observable is a no-op, so
    APIs can accept either form; its index set must then be ``index``.
    """
    if isinstance(observable, CompiledPauliSum):
        if index is not None and not _same_index(observable.index, index):
            raise ValueError(
                f"compiled observable holds {observable.dim} amplitudes, "
                f"the index set {index.size}; compile the PauliSum on it"
            )
        return observable
    n = observable.num_qubits
    index = basis_indices(n) if index is None else np.asarray(index)
    if index.size and (index[0] < 0 or index[-1] >= 1 << n):
        raise ValueError(
            f"index set holds basis indices outside [0, 2^{n}) of the "
            f"{n}-qubit observable"
        )
    cached = [c for c in observable._compiled or () if c.source_version == observable.version]
    hit = next((c for c in cached if _same_index(c.index, index)), None)
    if hit is not None:
        return hit
    compiled = CompiledPauliSum(observable, None if index.size == 1 << n else index)
    observable._compiled = cached + [compiled]
    return compiled


def _same_index(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (a.size == b.size and np.array_equal(a, b))
