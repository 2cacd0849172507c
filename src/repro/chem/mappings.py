"""Fermion-to-qubit mappings: Jordan–Wigner, parity, Bravyi–Kitaev.

All three mappings are instances of one GF(2) linear-encoding scheme
(Seeley–Richard–Love): the stored qubit bits are ``b = beta n mod 2``
for an invertible binary matrix ``beta`` acting on the occupation
vector ``n``.  For a ladder operator on mode ``p`` three index sets
follow from ``beta``:

* update set ``U(p)``  — rows j with beta[j, p] = 1: qubits that flip
  when occupation p flips (an X string),
* parity set ``P(p)``  — qubits whose Z-product gives the parity of
  modes < p (the JW sign factor),
* flip set  ``F(p)``   — qubits whose Z-product gives (-1)^{n_p}
  (the occupation projector).

Then  a+_p = X_U . Z_P . (I + Z_F)/2   and   a_p = X_U . Z_P . (I - Z_F)/2,
with all products carried out exactly in the packed Pauli algebra of
``repro.ir.symplectic`` (phases emerge automatically where X and Z
strings overlap).  Jordan–Wigner is ``beta = I``; parity is the prefix-sum
matrix; Bravyi–Kitaev is the Seeley–Richard–Love block-doubling matrix
(log-depth parity/update sets).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Literal, Sequence, Tuple

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.ir.pauli import PauliSum
from repro.ir.symplectic import (
    Rows,
    fold_blocks,
    pack_masks,
    pauli_mul_batch,
    row_blocks,
    unpack_masks,
)

__all__ = [
    "jordan_wigner",
    "parity_transform",
    "bravyi_kitaev",
    "map_fermion_operator",
    "map_fermion_operators",
    "encoding_matrix",
]

MappingName = Literal["jordan-wigner", "parity", "bravyi-kitaev"]


def encoding_matrix(name: str, n: int) -> np.ndarray:
    """The GF(2) matrix beta for a named mapping on n modes."""
    key = name.lower()
    if key in ("jordan-wigner", "jw"):
        return np.eye(n, dtype=np.uint8)
    if key == "parity":
        return np.tril(np.ones((n, n), dtype=np.uint8))
    if key in ("bravyi-kitaev", "bk"):
        size = 1
        beta = np.array([[1]], dtype=np.uint8)
        while size < n:
            top = np.hstack([beta, np.zeros((size, size), dtype=np.uint8)])
            bottom_left = np.zeros((size, size), dtype=np.uint8)
            bottom_left[-1, :] = 1  # last row of the lower-left block is all ones
            bottom = np.hstack([bottom_left, beta])
            beta = np.vstack([top, bottom])
            size *= 2
        return beta[:n, :n]
    raise ValueError(f"unknown mapping {name!r}")


def _gf2_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a binary matrix over GF(2) by Gaussian elimination."""
    n = m.shape[0]
    a = m.astype(np.uint8).copy()
    inv = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col]), None)
        if pivot is None:
            raise ValueError("encoding matrix is singular over GF(2)")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        for r in range(n):
            if r != col and a[r, col]:
                a[r] ^= a[col]
                inv[r] ^= inv[col]
    return inv


class _Mapper:
    """Precomputed index sets for one mapping on n modes."""

    def __init__(self, name: str, n: int):
        self.n = n
        beta = encoding_matrix(name, n)
        beta_inv = _gf2_inverse(beta)
        self.update_masks = []
        self.parity_masks = []
        self.flip_masks = []
        for p in range(n):
            u = 0
            for j in range(n):
                if beta[j, p]:
                    u |= 1 << j
            # parity of modes < p: sum_q<p n_q = sum_q<p sum_j beta_inv[q,j] b_j
            col_parity = np.zeros(n, dtype=np.uint8)
            for q in range(p):
                col_parity ^= beta_inv[q]
            pmask = 0
            for j in range(n):
                if col_parity[j]:
                    pmask |= 1 << j
            f = 0
            for j in range(n):
                if beta_inv[p, j]:
                    f |= 1 << j
            self.update_masks.append(u)
            self.parity_masks.append(pmask)
            self.flip_masks.append(f)
        # Packed factor tables for map_fermion_operators.  A ladder
        # operator expands into two Hermitian-convention rows:
        #   a(+/-)_p = 0.5 i^{-|U&P|}       P(U, P)
        #            +/- 0.5 i^{-|U&(P^F)|} P(U, P^F)
        # (the i powers convert the literal X^x Z^z products into the
        # P(x, z) = i^{|x&z|} X^x Z^z convention of repro.ir.pauli).
        i_pow = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])
        self._fx = pack_masks(self.update_masks, n)
        self._fz0 = pack_masks(self.parity_masks, n)
        self._fz1 = pack_masks(
            [pm ^ fm for pm, fm in zip(self.parity_masks, self.flip_masks)], n
        )
        self._fc0 = np.array(
            [
                0.5 * i_pow[(-bin(u & pm).count("1")) % 4]
                for u, pm in zip(self.update_masks, self.parity_masks)
            ]
        )
        self._fc1 = np.array(
            [
                0.5 * i_pow[(-bin(u & (pm ^ fm)).count("1")) % 4]
                for u, pm, fm in zip(
                    self.update_masks, self.parity_masks, self.flip_masks
                )
            ]
        )


_MAPPER_CACHE: Dict[Tuple[str, int], _Mapper] = {}


def _get_mapper(name: str, n: int) -> _Mapper:
    key = (name.lower(), n)
    if key not in _MAPPER_CACHE:
        _MAPPER_CACHE[key] = _Mapper(name, n)
    return _MAPPER_CACHE[key]


def map_fermion_operators(
    ops: Sequence[FermionOperator],
    num_modes: int,
    mapping: str = "jordan-wigner",
) -> List[PauliSum]:
    """Map a list of fermionic operators to qubit operators on
    ``num_modes`` qubits in one pass — the one fermion-to-qubit path.

    Every ladder term of every operator is bucketed by its length ``k``
    and each bucket expanded in blocks of at most
    :func:`repro.ir.symplectic.row_blocks`' pair budget: a
    (terms, 2^k, words) symplectic batch doubled per ladder factor by
    :func:`repro.ir.symplectic.pauli_mul_batch`, each row tagged with the
    operator it came from.  :func:`repro.ir.symplectic.fold_blocks` sums
    the blocks on (owner, x, z) into one running result, so memory is
    O(block + output) whatever the operator count, and the operators
    come back as contiguous runs, which split into one :class:`PauliSum`
    each, terms in ascending ``(x, z)`` order.  Mapping a whole list (a
    UCCSD pool, say) pays the array set-up once instead of once per
    operator.
    """
    mapper = _get_mapper(mapping, num_modes)
    buckets: Dict[int, list] = {}
    for owner, op in enumerate(ops):
        for term, coeff in op:
            buckets.setdefault(len(term), []).append((owner, term, coeff))
    if not buckets:
        return [PauliSum.zero(num_modes) for _ in ops]
    # The owner column costs a byte per expanded row when ops < 256.
    owner_dtype = np.min_scalar_type(len(ops))
    blocks = (
        block
        for k, entries in buckets.items()
        for block in _expand_bucket(mapper, k, entries, owner_dtype)
    )
    x, z, c, owner = fold_blocks(num_modes, blocks, 1e-14)
    keys = list(zip(unpack_masks(x), unpack_masks(z)))
    cs = c.tolist()
    bounds = np.searchsorted(owner, np.arange(len(ops) + 1)).tolist()
    return [
        PauliSum(num_modes, dict(zip(keys[lo:hi], cs[lo:hi])))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _expand_bucket(mapper: _Mapper, k: int, entries: list, owner_dtype) -> Iterator[Rows]:
    """The Pauli rows of one bucket of length-``k`` ladder terms
    ``(owner, term, coeff)``, ``2^k`` per term, as owned blocks."""
    m = len(entries)
    words = mapper._fx.shape[1]
    owners = np.array([owner for owner, _, _ in entries], dtype=owner_dtype)
    # Per-factor choice arrays: (m, k) index tables into the mapper's
    # packed factor rows, plus the dagger sign on the z^F choice.
    orbs = np.array(
        [[orb for orb, _ in term] for _, term, _ in entries], dtype=np.int64
    ).reshape(m, k)
    if k and orbs.max() >= mapper.n:
        row = int(np.argmax(orbs.max(axis=1)))
        raise ValueError(
            f"operator {owners[row]} touches orbital {orbs[row].max()} "
            f">= num_modes {mapper.n}"
        )
    signs = np.array(
        [[1.0 if dag else -1.0 for _, dag in term] for _, term, _ in entries]
    ).reshape(m, k)
    coeffs = np.array([c for _, _, c in entries], dtype=np.complex128)
    for sl in row_blocks(m, 1 << k):
        # Running batch product, doubling per ladder factor.
        rows = sl.stop - sl.start
        bx = np.zeros((rows, 1, words), dtype=np.uint64)
        bz = np.zeros((rows, 1, words), dtype=np.uint64)
        bc = np.ones((rows, 1), dtype=np.complex128)
        for t in range(k):
            p = orbs[sl, t]
            fx = mapper._fx[p][:, None, :]
            out = [
                pauli_mul_batch(bx, bz, bc, fx, fz[:, None, :], fc[:, None])
                for fz, fc in (
                    (mapper._fz0[p], mapper._fc0[p]),
                    (mapper._fz1[p], mapper._fc1[p] * signs[sl, t]),
                )
            ]
            bx = np.concatenate([o[0] for o in out], axis=1)
            bz = np.concatenate([o[1] for o in out], axis=1)
            bc = np.concatenate([o[2] for o in out], axis=1)
        yield (
            bx.reshape(-1, words),
            bz.reshape(-1, words),
            (bc * coeffs[sl, None]).reshape(-1),
            np.repeat(owners[sl], 1 << k),
        )


def map_fermion_operator(
    op: FermionOperator, num_modes: int, mapping: str = "jordan-wigner"
) -> PauliSum:
    """Map one fermionic operator to a qubit operator on ``num_modes``
    qubits: the one-element :func:`map_fermion_operators` call."""
    return map_fermion_operators([op], num_modes, mapping)[0]


def jordan_wigner(op: FermionOperator, num_modes: int) -> PauliSum:
    """Jordan–Wigner transform (the mapping the paper's workflow uses)."""
    return map_fermion_operator(op, num_modes, "jordan-wigner")


def parity_transform(op: FermionOperator, num_modes: int) -> PauliSum:
    """Parity mapping."""
    return map_fermion_operator(op, num_modes, "parity")


def bravyi_kitaev(op: FermionOperator, num_modes: int) -> PauliSum:
    """Bravyi–Kitaev mapping (log-weight strings)."""
    return map_fermion_operator(op, num_modes, "bravyi-kitaev")
