"""Vectorized gate-application kernels.

These are the NumPy analogue of NWQ-Sim's GPU gate kernels: each gate
application is a small, fixed number of vectorized passes over the
state vector, with no per-amplitude Python loop.  The addressing trick
is the standard one — enumerate the 2^(n-k) amplitude groups of a
k-qubit gate by inserting zero bits at the target-qubit positions
(see ``repro.utils.bitops.insert_zero_bit``) — which mirrors how
GPU threads are indexed in the real simulator.

All kernels update the state **in place** (in-place operations avoid a
full-vector allocation per gate, the dominant memory cost at scale) and
assume ``state`` is a contiguous complex128 array of length 2^n.

Addressing tables are pulled from the process-wide LRU cache in
``repro.utils.bitops`` (``indices_1q`` / ``indices_2q``): a VQE
campaign applies the same few (width, qubit) combinations millions of
times, so the tables are built once and shared.  They are read-only —
kernels only ever use them as gather/scatter indices.

The one kernel that is not per-gate is :func:`apply_rotation`: the
closed-form exponential of an anti-Hermitian single-x-mask operator
over one state or a ``(B, 2^n)`` block (:class:`MaskRotation`).  Compiled plans
(scalar, batched and per distributed slice), the reverse-mode gradient
and ``GeneratorEvolution`` all evolve through it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.bitops import (
    basis_indices,
    indices_1q,
    indices_2q,
    insert_zero_bit,
    parity_mask,
    xor_indices,
)

__all__ = [
    "MaskRotation",
    "apply_rotation",
    "rotation_bracket",
    "apply_1q",
    "apply_2q",
    "apply_diag_1q",
    "apply_diag_2q",
    "apply_x",
    "apply_cx",
    "apply_kq_dense",
]


def apply_1q(state: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> None:
    """Apply a dense 2x2 unitary to ``qubit``; two vectorized passes."""
    i0, i1 = indices_1q(n, qubit)
    a0 = state[i0]
    a1 = state[i1]
    m = matrix
    state[i0] = m[0, 0] * a0 + m[0, 1] * a1
    state[i1] = m[1, 0] * a0 + m[1, 1] * a1


def apply_diag_1q(state: np.ndarray, d0: complex, d1: complex, qubit: int, n: int) -> None:
    """Apply diag(d0, d1) on ``qubit`` — no gather needed, pure scaling."""
    i0, i1 = indices_1q(n, qubit)
    if d0 != 1.0:
        state[i0] *= d0
    if d1 != 1.0:
        state[i1] *= d1


def apply_x(state: np.ndarray, qubit: int, n: int) -> None:
    """Pauli-X as a pure swap of amplitude halves."""
    i0, i1 = indices_1q(n, qubit)
    tmp = state[i0].copy()
    state[i0] = state[i1]
    state[i1] = tmp


def apply_2q(
    state: np.ndarray, matrix: np.ndarray, q0: int, q1: int, n: int
) -> None:
    """Apply a dense 4x4 unitary to ``(q0, q1)``.

    Matrix convention is little-endian on (q0, q1): row/col index
    ``b1 b0`` with ``b0`` the state of ``q0`` (matches
    ``repro.ir.gates``).
    """
    i00, i01, i10, i11 = indices_2q(n, q0, q1)
    a00 = state[i00]
    a01 = state[i01]
    a10 = state[i10]
    a11 = state[i11]
    m = matrix
    state[i00] = m[0, 0] * a00 + m[0, 1] * a01 + m[0, 2] * a10 + m[0, 3] * a11
    state[i01] = m[1, 0] * a00 + m[1, 1] * a01 + m[1, 2] * a10 + m[1, 3] * a11
    state[i10] = m[2, 0] * a00 + m[2, 1] * a01 + m[2, 2] * a10 + m[2, 3] * a11
    state[i11] = m[3, 0] * a00 + m[3, 1] * a01 + m[3, 2] * a10 + m[3, 3] * a11


def apply_diag_2q(
    state: np.ndarray,
    diag: Sequence[complex],
    q0: int,
    q1: int,
    n: int,
) -> None:
    """Apply diag(d00, d01, d10, d11) on (q0, q1) by scaling only."""
    tables = indices_2q(n, q0, q1)
    for sub, idx in enumerate(tables):
        d = diag[sub]
        if d != 1.0:
            state[idx] *= d


def apply_cx(state: np.ndarray, control: int, target: int, n: int) -> None:
    """CNOT as a conditional swap — half the traffic of a dense 4x4."""
    # indices_2q is keyed on (control, target): sub-block bit 0 is the
    # control, so blocks 1 (c=1, t=0) and 3 (c=1, t=1) swap.
    _, ic, _, ict = indices_2q(n, control, target)
    tmp = state[ic].copy()
    state[ic] = state[ict]
    state[ict] = tmp


def apply_kq_dense(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], n: int
) -> None:
    """General k-qubit dense unitary (used by tests and by fusion when
    validating; production circuits stay at k <= 2 per the paper's
    design point §4.3)."""
    k = len(qubits)
    dim_sub = 1 << k
    if matrix.shape != (dim_sub, dim_sub):
        raise ValueError("matrix shape mismatch")
    base = np.arange(1 << (n - k), dtype=np.int64)
    i0 = base
    for p in sorted(qubits):
        i0 = insert_zero_bit(i0, p)
    idx = np.empty((dim_sub, i0.shape[0]), dtype=np.int64)
    for sub in range(dim_sub):
        offset = 0
        for j, q in enumerate(qubits):
            if (sub >> j) & 1:
                offset |= 1 << q
        idx[sub] = i0 | offset
    block = state[idx]  # (dim_sub, groups)
    state[idx] = matrix @ block


class MaskRotation:
    """``exp(theta A)`` for an anti-Hermitian ``A`` with a single x-mask,
    ``(A psi)[i] = w[i] psi[i ^ x]``.

    ``A`` is a direct sum of anti-Hermitian blocks on the pairs
    ``{i, i ^ x}`` (1x1 when ``x = 0``) with ``A^2 = -|w|^2``, so

        exp(theta A) psi = cos(theta |w|) o psi
                           + sin(theta |w|) w / |w| o psi[i ^ x]

    exactly, whether or not the Pauli terms summed into ``w`` commute.
    The weights are stored as a class index per amplitude (smallest
    unsigned dtype) plus per-class tables — three classes for a UCCSD
    excitation — instead of 2^n complex values.
    """

    __slots__ = ("x", "classes", "weights", "rates", "directions")

    def __init__(self, x: int, weights: np.ndarray, classes: np.ndarray):
        self.x = int(x)
        self.weights = weights
        self.classes = classes.astype(np.min_scalar_type(weights.size - 1))
        rates = np.abs(weights)
        # one entry when every amplitude turns at the same rate (any
        # single-Pauli rotation): cos(theta |w|) is then a scalar per row
        self.rates = rates[:1] if np.all(rates == rates[0]) else rates
        # |w| = 0 only where A psi vanishes: sin(0) w / 0 is read as 0
        self.directions = np.divide(
            weights, self.rates, out=np.zeros_like(weights), where=self.rates > 0
        )

    @classmethod
    def from_terms(cls, x: int, terms, num_qubits: int) -> "MaskRotation":
        """From ``w[i] = sum_j c_j (-1)^{|i & z_j|}`` given as ``(z_j, c_j)``
        pairs: each term splits the classes so far by its parity and
        classes of equal weight merge again, so no 2^n array is sorted."""
        idx = basis_indices(num_qubits)
        weights = np.zeros(1, dtype=np.complex128)
        classes = np.zeros(idx.size, dtype=np.intp)
        for z, c in terms:
            split = 2 * classes + parity_mask(idx, z)
            seen = np.flatnonzero(np.bincount(split))
            weights, merged = np.unique(
                weights[seen >> 1] + np.where(seen & 1, -c, c), return_inverse=True
            )
            relabel = np.zeros(seen[-1] + 1, dtype=np.intp)
            relabel[seen] = merged
            classes = relabel[split]
        return cls(x, weights, classes)

    @property
    def nbytes(self) -> int:
        tables = (self.classes, self.weights, self.rates, self.directions)
        return sum(t.nbytes for t in tables)


def apply_rotation(
    block: np.ndarray,
    theta: "float | np.ndarray",
    step: MaskRotation,
    classes: "np.ndarray | None" = None,
    source: "np.ndarray | None" = None,
) -> None:
    """``block <- exp(theta A) block`` in place along the last axis: one
    state and a scalar ``theta``, or a ``(B, D)`` block with ``theta`` of
    shape ``(B,)``.

    ``source``, when given, is ``psi[..., i ^ x]`` already gathered by
    the caller — a distributed slice gathers it from its partner rank's
    slice under the physical layout and passes the class indices of its
    own amplitudes as ``classes`` — otherwise it is gathered from
    ``block`` itself.
    """
    if classes is None:
        classes = step.classes
    if source is None:
        if step.x == 0:  # A is diagonal: exp(theta w) itself
            block *= np.exp(np.multiply.outer(theta, step.weights)).take(classes, axis=-1)
            return
        n = block.shape[-1].bit_length() - 1
        source = block.take(xor_indices(n, step.x), axis=-1)
    angles = np.multiply.outer(theta, step.rates)
    keep = np.cos(angles)
    if step.rates.size > 1:
        classes = classes.astype(np.intp)  # one cast for both takes
        keep = keep.take(classes, axis=-1)
    moved = source * (np.sin(angles) * step.directions).take(classes, axis=-1)
    block *= keep
    block += moved


def rotation_bracket(lam: np.ndarray, phi: np.ndarray, step: MaskRotation) -> complex:
    """``<lam| A |phi>`` for the generator of ``step`` (1-D states)."""
    moved = phi[xor_indices(phi.shape[0].bit_length() - 1, step.x)] if step.x else phi
    return complex(np.vdot(lam, step.weights.take(step.classes) * moved))
