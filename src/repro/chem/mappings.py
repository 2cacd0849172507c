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
with all products carried out exactly in the Pauli algebra of
``repro.ir.pauli`` (phases emerge automatically where X and Z strings
overlap).  Jordan–Wigner is ``beta = I``; parity is the prefix-sum
matrix; Bravyi–Kitaev is the Seeley–Richard–Love block-doubling matrix
(log-depth parity/update sets).
"""

from __future__ import annotations

from typing import Dict, Literal, Tuple

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.ir.pauli import PauliString, PauliSum
from repro.ir.symplectic import SymplecticPauli, pack_masks, pauli_mul_batch

__all__ = [
    "jordan_wigner",
    "parity_transform",
    "bravyi_kitaev",
    "map_fermion_operator",
    "encoding_matrix",
]

MappingName = Literal["jordan-wigner", "parity", "bravyi-kitaev"]

# Below this many fermionic terms the per-term mapping loop is used —
# it is fast enough there and preserves its historical output ordering
# (which seeds the QWC-grouping scan order for small systems).
_BATCH_TERM_CUTOFF = 512


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
        # Packed factor tables for the batched mapping path.  A ladder
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

        self._ladders: Dict[Tuple[int, bool], PauliSum] = {}

    def ladder(self, p: int, dagger: bool) -> PauliSum:
        """a+_p or a_p as a 2-term PauliSum.  Built once per (p, dagger)
        and shared: callers combine it with ``dot`` / ``*`` / ``+``,
        which return new sums, and must not mutate it."""
        cached = self._ladders.get((p, dagger))
        if cached is None:
            n = self.n
            x_u = PauliSum.from_string(PauliString(n, x=self.update_masks[p]))
            z_p = PauliSum.from_string(PauliString(n, z=self.parity_masks[p]))
            z_f = PauliSum.from_string(PauliString(n, z=self.flip_masks[p]))
            sign = 1.0 if dagger else -1.0
            projector = (PauliSum.identity(n) + sign * z_f) * 0.5
            cached = self._ladders[p, dagger] = x_u.dot(z_p).dot(projector)
        return cached


_MAPPER_CACHE: Dict[Tuple[str, int], _Mapper] = {}


def _get_mapper(name: str, n: int) -> _Mapper:
    key = (name.lower(), n)
    if key not in _MAPPER_CACHE:
        _MAPPER_CACHE[key] = _Mapper(name, n)
    return _MAPPER_CACHE[key]


def map_fermion_operator(
    op: FermionOperator, num_modes: int, mapping: str = "jordan-wigner"
) -> PauliSum:
    """Map a fermionic operator to a qubit operator on ``num_modes`` qubits.

    Large operators take the batched path: fermionic terms are bucketed
    by ladder length ``k`` and each bucket's products expanded
    simultaneously — a (terms, 2^t, words) symplectic batch doubled once
    per ladder factor via :func:`repro.ir.symplectic.pauli_mul_batch`,
    then collapsed with one global dedup — instead of per-term
    ``PauliSum.dot`` chains.  Small operators keep the per-term loop
    (and its output term ordering).
    """
    if op.max_orbital >= num_modes:
        raise ValueError(
            f"operator touches orbital {op.max_orbital} >= num_modes {num_modes}"
        )
    if len(op.terms) <= _BATCH_TERM_CUTOFF:
        return _map_fermion_operator_per_term(op, num_modes, mapping)
    mapper = _get_mapper(mapping, num_modes)
    words = mapper._fx.shape[1]
    identity_coeff = 0.0 + 0j
    buckets: Dict[int, list] = {}
    for term, coeff in op:
        if not term:
            identity_coeff += complex(coeff)
            continue
        buckets.setdefault(len(term), []).append((term, complex(coeff)))

    pieces = []
    if identity_coeff != 0:
        pieces.append(
            (
                np.zeros((1, words), dtype=np.uint64),
                np.zeros((1, words), dtype=np.uint64),
                np.array([identity_coeff]),
            )
        )
    for k, entries in buckets.items():
        m = len(entries)
        # Per-factor choice arrays: (m, k) index tables into the mapper's
        # packed factor rows, plus the dagger sign on the z^F choice.
        orbs = np.array([[orb for orb, _ in term] for term, _ in entries])
        signs = np.array(
            [[1.0 if dag else -1.0 for _, dag in term] for term, _ in entries]
        )
        coeffs = np.array([c for _, c in entries])
        # Running batch product, doubling per ladder factor.
        bx = np.zeros((m, 1, words), dtype=np.uint64)
        bz = np.zeros((m, 1, words), dtype=np.uint64)
        bc = np.ones((m, 1), dtype=np.complex128)
        for t in range(k):
            p = orbs[:, t]
            fx = mapper._fx[p][:, None, :]
            out = []
            for fz, fc in (
                (mapper._fz0[p], mapper._fc0[p]),
                (mapper._fz1[p], mapper._fc1[p] * signs[:, t]),
            ):
                out.append(
                    pauli_mul_batch(
                        bx, bz, bc, fx, fz[:, None, :], fc[:, None]
                    )
                )
            bx = np.concatenate([o[0] for o in out], axis=1)
            bz = np.concatenate([o[1] for o in out], axis=1)
            bc = np.concatenate([o[2] for o in out], axis=1)
        bc = bc * coeffs[:, None]
        pieces.append(
            (
                bx.reshape(-1, words),
                bz.reshape(-1, words),
                bc.reshape(-1),
            )
        )

    if not pieces:
        return PauliSum.zero(num_modes)
    symp = SymplecticPauli(
        num_modes,
        np.concatenate([p[0] for p in pieces], axis=0),
        np.concatenate([p[1] for p in pieces], axis=0),
        np.concatenate([p[2] for p in pieces]),
    ).dedup(threshold=1e-14)
    return PauliSum(num_modes, symp.to_terms_dict())


def _map_fermion_operator_per_term(
    op: FermionOperator, num_modes: int, mapping: str = "jordan-wigner"
) -> PauliSum:
    """Reference per-term mapping loop (baseline for benchmarks)."""
    if op.max_orbital >= num_modes:
        raise ValueError(
            f"operator touches orbital {op.max_orbital} >= num_modes {num_modes}"
        )
    mapper = _get_mapper(mapping, num_modes)
    result = PauliSum.zero(num_modes)
    for term, coeff in op:
        if not term:
            result = result + PauliSum.identity(num_modes, coeff)
            continue
        acc = mapper.ladder(*term[0])
        for orb, dag in term[1:]:
            acc = acc.dot(mapper.ladder(orb, dag))
        result = result + acc * coeff
    return result.chop(1e-14)


def jordan_wigner(op: FermionOperator, num_modes: int) -> PauliSum:
    """Jordan–Wigner transform (the mapping the paper's workflow uses)."""
    return map_fermion_operator(op, num_modes, "jordan-wigner")


def parity_transform(op: FermionOperator, num_modes: int) -> PauliSum:
    """Parity mapping."""
    return map_fermion_operator(op, num_modes, "parity")


def bravyi_kitaev(op: FermionOperator, num_modes: int) -> PauliSum:
    """Bravyi–Kitaev mapping (log-weight strings)."""
    return map_fermion_operator(op, num_modes, "bravyi-kitaev")
