"""Vectorized gate-application kernels: the one place gates are applied.

These are the NumPy analogue of NWQ-Sim's GPU gate kernels (paper
§4.3): one kernel set that every execution mode calls.  Each kernel
updates, **in place**, the last axis of ``block`` — one ``(2^n,)``
state, a ``(B, 2^n)`` batch or one rank's ``(2^L,)`` slice, or, for a
rotation step built on an index set, a ``(…, D)`` block over that set
— and takes any leading axes unchanged.

Static gates address amplitudes through **strided views**, not index
tables: the last axis is reshaped so that each target qubit becomes an
axis of length 2 (qubit ``q`` is bit ``q`` of the basis index, so its
axis sits between a ``2^(n-q-1)`` and a ``2^q`` span) and those axes are
moved to the front.  ``view[b_{k-1}, ..., b_0]`` is then the sub-block
with ``qubits[j]`` in state ``b_j`` — the little-endian convention of
``repro.ir.gates`` — and a swap, a scaling or one small matrix product
over it is the whole gate.

Two entry points sit on top of the per-gate kernels:

* :func:`lower_gate` — the single ``gate -> (kind, payload)`` rule
  table (which gates are swaps, which are diagonals and what those
  diagonals are), vectorised in the angle so a ``(B,)`` angle vector
  yields per-row diagonals;
* :func:`apply_op` — the single dispatch over the kinds ``rot / x / cx
  / diag1 / diag2 / diag_full / dense`` (and their inverses).  Compiled
  plans (scalar, batched and per distributed slice), gate-by-gate
  simulation and the reverse-mode gradient all apply gates through it.

``rot`` is the closed-form exponential of an anti-Hermitian
single-x-mask operator (:class:`MaskRotation`, :func:`apply_rotation`):
what the frame pass merges circuit rotations into, what a generator
ansatz lowers to (``ExecutionPlan.from_generators``), and what the
``GeneratorEvolution`` test oracle evolves through.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.ir.gates import GATE_SET
from repro.utils.bitops import (
    basis_indices, count_set_bits, parity_mask, sector_partners, xor_indices,
)

__all__ = [
    "MaskRotation",
    "apply_rotation",
    "row_dot",
    "rotation_bracket",
    "phase_bracket",
    "lower_gate",
    "apply_op",
    "apply_diag_1q",
    "apply_diag_2q",
    "apply_x",
    "apply_cx",
    "apply_kq_dense",
]


@lru_cache(maxsize=4096)
def _qubit_layout(n: int, qubits: Tuple[int, ...], lead: int):
    """How a block with ``lead`` leading axes and 2^n amplitudes along
    the last one splits around ``qubits``: the shape the last axis
    takes (a length-2 axis per qubit between the spans of untouched
    bits), and the permutation that brings the qubits' axes to the
    front, most significant sub-index bit first."""
    tail, axis_of, top = [], {}, n
    for q in sorted(qubits, reverse=True):
        tail += [1 << (top - q - 1), 2]
        axis_of[q] = lead + len(tail) - 1
        top = q
    tail.append(1 << top)
    bits = [axis_of[q] for q in reversed(qubits)]
    rest = [a for a in range(lead + len(tail)) if a not in bits]
    return tuple(tail), tuple(bits + rest)


def _qubit_view(block: np.ndarray, qubits: Sequence[int], n: int) -> np.ndarray:
    """A view of ``block`` with the bits of ``qubits`` as leading axes:
    ``view[b_{k-1}, ..., b_0]`` holds the amplitudes with ``qubits[j]``
    in state ``b_j``, over every leading axis of ``block``."""
    if block.shape[-1] != 1 << n or block.strides[-1] != block.itemsize:
        # Only the last axis is split, which never copies while that axis
        # is packed; anything else is refused rather than risk a kernel
        # that updates a copy and leaves the caller's state untouched.
        raise ValueError(
            f"gate kernels need a block whose last axis holds 2^{n} = {1 << n} "
            f"packed amplitudes; got shape {block.shape} with strides "
            f"{block.strides} (itemsize {block.itemsize})"
        )
    tail, order = _qubit_layout(n, tuple(qubits), block.ndim - 1)
    return block.reshape(block.shape[:-1] + tail).transpose(order)


def _scale(view: np.ndarray, d) -> None:
    """``view *= d`` for a scalar, or one factor per leading row."""
    if np.ndim(d):
        view *= np.reshape(d, np.shape(d) + (1,) * (view.ndim - np.ndim(d)))
    elif d != 1.0:
        view *= d


def apply_x(block: np.ndarray, qubit: int, n: int) -> None:
    """Pauli-X as a pure swap of amplitude halves."""
    v = _qubit_view(block, (qubit,), n)
    tmp = v[0].copy()
    v[0] = v[1]
    v[1] = tmp


def apply_cx(block: np.ndarray, control: int, target: int, n: int) -> None:
    """CNOT as a conditional swap — half the traffic of a dense 4x4."""
    v = _qubit_view(block, (control, target), n)  # v[target bit, control bit]
    tmp = v[0, 1].copy()
    v[0, 1] = v[1, 1]
    v[1, 1] = tmp


def apply_diag_1q(block: np.ndarray, d0, d1, qubit: int, n: int) -> None:
    """Apply diag(d0, d1) on ``qubit`` — pure scaling; an entry may be a
    ``(B,)`` vector holding one factor per row of a ``(B, 2^n)`` block."""
    v = _qubit_view(block, (qubit,), n)
    _scale(v[0], d0)
    _scale(v[1], d1)


def apply_diag_2q(block: np.ndarray, diag: Sequence, q0: int, q1: int, n: int) -> None:
    """Apply diag(d00, d01, d10, d11) on (q0, q1) by scaling only (index
    ``b1 b0`` with ``b0`` the state of ``q0``); entries as in
    :func:`apply_diag_1q`."""
    v = _qubit_view(block, (q0, q1), n)
    for sub in range(4):
        _scale(v[sub >> 1, sub & 1], diag[sub])


def apply_kq_dense(
    block: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], n: int
) -> None:
    """Apply a dense 2^k x 2^k unitary to ``qubits``: one matrix product
    over the sub-block axis.

    Matrix convention is little-endian on ``qubits``: row/col index
    ``b_{k-1} ... b_0`` with ``b_0`` the state of ``qubits[0]`` (matches
    ``repro.ir.gates``).
    """
    dim = 1 << len(qubits)
    if matrix.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {matrix.shape} does not act on {len(qubits)} qubit(s)"
        )
    v = _qubit_view(block, qubits, n)
    v[...] = (matrix @ v.reshape(dim, -1)).reshape(v.shape)


# -- gate -> (kind, payload) --------------------------------------------------


def _phase(angle):
    return np.cos(angle) + 1j * np.sin(angle)


_T = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

# Diagonal gates: 2 entries on one qubit, 4 on two (index b1 b0).
_CONSTANT_DIAGONALS = {
    "i": (1.0 + 0j, 1.0 + 0j),
    "z": (1.0 + 0j, -1.0 + 0j),
    "s": (1.0 + 0j, 1j),
    "sdg": (1.0 + 0j, -1j),
    "t": (1.0 + 0j, _T),
    "tdg": (1.0 + 0j, _T.conjugate()),
    "cz": (1.0 + 0j, 1.0 + 0j, 1.0 + 0j, -1.0 + 0j),
}
_ANGLE_DIAGONALS = {
    "p": lambda t: (1.0, _phase(t)),
    "rz": lambda t: (_phase(-t / 2), _phase(t / 2)),
    "cp": lambda t: (1.0, 1.0, 1.0, _phase(t)),
    "crz": lambda t: (1.0, _phase(-t / 2), 1.0, _phase(t / 2)),
    "rzz": lambda t: (_phase(-t / 2), _phase(t / 2), _phase(t / 2), _phase(-t / 2)),
}
#: parametric gates with a closed form in a vector of angles
ANGLE_DIAGONAL_GATES = frozenset(_ANGLE_DIAGONALS)


def lower_gate(name: str, angles: Sequence = (), matrix: "np.ndarray | None" = None):
    """``(kind, payload)`` of one gate, the form :func:`apply_op` takes.

    ``x``/``cx`` are swaps (no payload), diagonal gates lower to
    ``diag1``/``diag2`` with their entries, everything else — and any
    gate carrying an explicit ``matrix`` — to ``dense`` with its
    unitary.  The angle of a diagonal gate may be a ``(B,)`` vector: the
    diagonal entries are then per-row vectors.
    """
    if matrix is None:
        if name in ("x", "cx"):
            return name, None
        diag = _CONSTANT_DIAGONALS.get(name)
        if diag is None and name in _ANGLE_DIAGONALS:
            diag = _ANGLE_DIAGONALS[name](angles[0])
        if diag is not None:
            return ("diag1" if len(diag) == 2 else "diag2"), diag
        matrix = GATE_SET[name][2](*angles)
    return "dense", matrix


def apply_op(
    block: np.ndarray, kind: str, payload, qubits: Sequence[int], n: int,
    adjoint: bool = False,
) -> None:
    """Apply one lowered op — or, with ``adjoint``, its inverse — to
    ``block`` in place.  Every op is unitary: swaps are their own
    inverse, diagonals conjugate, dense blocks conjugate-transpose and a
    rotation step ``(theta, step)`` runs at ``-theta``."""
    if kind == "rot":
        theta, step = payload
        apply_rotation(block, np.negative(theta) if adjoint else theta, step)
    elif kind == "x":
        apply_x(block, qubits[0], n)
    elif kind == "cx":
        apply_cx(block, qubits[0], qubits[1], n)
    elif kind == "diag1" or kind == "diag2":
        if adjoint:
            payload = [np.conjugate(d) for d in payload]
        if kind == "diag1":
            apply_diag_1q(block, payload[0], payload[1], qubits[0], n)
        else:
            apply_diag_2q(block, payload, qubits[0], qubits[1], n)
    elif kind == "diag_full":
        block *= payload.conj() if adjoint else payload
    elif kind == "dense":
        apply_kq_dense(block, payload.conj().T if adjoint else payload, qubits, n)
    else:
        raise ValueError(f"unknown op kind {kind!r}")


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

    A step built on an **index set** (a sorted subset of the basis, such
    as an (N, S_z) sector) has class tables of that length and a
    ``partners`` table: the position of ``index[i] ^ x`` in the set, or
    ``i`` itself where it leaves the set.  ``partners`` is ``None`` on
    the full register, which gathers through the shared
    ``xor_indices`` table instead.  On a set the step closes on (zero
    weight wherever the partner leaves it) the same formula is exact:
    those amplitudes turn at rate 0.
    """

    __slots__ = ("x", "classes", "weights", "rates", "directions", "partners")

    def __init__(
        self, x: int, weights: np.ndarray, classes: np.ndarray,
        partners: "np.ndarray | None" = None,
    ):
        self.x = int(x)
        self.weights = weights
        self.classes = classes.astype(np.min_scalar_type(weights.size - 1))
        self.partners = partners
        rates = np.abs(weights)
        # one entry when every amplitude turns at the same rate (any
        # single-Pauli rotation): cos(theta |w|) is then a scalar per row
        self.rates = rates[:1] if np.all(rates == rates[0]) else rates
        # |w| = 0 only where A psi vanishes: sin(0) w / 0 is read as 0
        self.directions = np.divide(
            weights, self.rates, out=np.zeros_like(weights), where=self.rates > 0
        )

    @classmethod
    def from_terms(
        cls, x: int, terms, num_qubits: int, index: "np.ndarray | None" = None
    ) -> "MaskRotation":
        """From ``w[i] = sum_j c_j (-1)^{|i & z_j|}`` given as ``(z_j, c_j)``
        pairs, over all 2^n amplitudes or over the sorted basis indices
        ``index``.  On the full register each term splits the classes so
        far by its parity and classes of equal weight merge again, so no
        2^n array is sorted; an index set is a sector, small enough to
        take ``w`` from one terms x ``len(index)`` sign matrix."""
        if index is not None:
            zs = np.array([z for z, _ in terms], dtype=np.int64).reshape(-1, 1)
            signs = 1.0 - 2.0 * (count_set_bits(index & zs) & 1)
            w = np.array([c for _, c in terms], dtype=np.complex128) @ signs
            weights, classes = np.unique(w, return_inverse=True)
            return cls(x, weights, classes, sector_partners(index, x)[0])
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
        extra = 0 if self.partners is None else self.partners.nbytes
        return sum(t.nbytes for t in tables) + extra


def _partners(step: MaskRotation, length: int) -> np.ndarray:
    """The gather table of ``step`` over a last axis of ``length``."""
    if step.partners is not None:
        return step.partners
    return xor_indices(length.bit_length() - 1, step.x)


def apply_rotation(
    block: np.ndarray,
    theta: "float | np.ndarray",
    step: MaskRotation,
    classes: "np.ndarray | None" = None,
    source: "np.ndarray | None" = None,
) -> None:
    """``block <- exp(theta A) block`` in place along the last axis: one
    state and a scalar ``theta``, or a ``(B, D)`` block with ``theta`` of
    shape ``(B,)``; ``D`` is the length of the step's index set.

    ``source``, when given, is ``psi[..., i ^ x]`` already gathered by
    the caller — a distributed slice gathers it from its partner rank's
    slice under the physical layout and passes the class indices of its
    own amplitudes as ``classes`` — otherwise it is gathered from
    ``block`` itself through the step's partner table.
    """
    if classes is None:
        classes = step.classes
    if source is None:
        if step.x == 0:  # A is diagonal: exp(theta w) itself
            block *= np.exp(np.multiply.outer(theta, step.weights)).take(classes, axis=-1)
            return
        source = block.take(_partners(step, block.shape[-1]), axis=-1)
    angles = np.multiply.outer(theta, step.rates)
    keep = np.cos(angles)
    if step.rates.size > 1:
        classes = classes.astype(np.intp)  # one cast for both takes
        keep = keep.take(classes, axis=-1)
    moved = source * (np.sin(angles) * step.directions).take(classes, axis=-1)
    block *= keep
    block += moved


def row_dot(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``<lam|phi>`` along the last axis, one value per leading index.

    A plain sum over each row, so a row's value does not depend on how
    many rows share the block (``einsum`` and ``vdot`` regroup the sum
    for long rows)."""
    return (lam.conj() * phi).sum(axis=-1)


def rotation_bracket(lam: np.ndarray, phi: np.ndarray, step: MaskRotation) -> np.ndarray:
    """``<lam| A |phi>`` for the generator of ``step``, row by row over
    ``(…, D)`` blocks on the step's index set."""
    if step.x:
        phi = phi.take(_partners(step, phi.shape[-1]), axis=-1)
    return row_dot(lam, step.weights.take(step.classes) * phi)


def phase_bracket(lam: np.ndarray, phi: np.ndarray, qubit: int) -> np.ndarray:
    """``<lam| i |1><1|_qubit |phi>``, row by row: the bracket of the
    phase gate's generator, ``d/dtheta p(theta) = i |1><1| p(theta)``."""
    split = lam.shape[:-1] + (-1, 2, 1 << qubit)
    return 1j * row_dot(lam.reshape(split)[..., 1, :], phi.reshape(split)[..., 1, :]).sum(-1)
