"""Vectorized symplectic Pauli algebra on packed (X|Z) bit-matrices.

``repro.ir.pauli`` stores one term per dict entry; per-term Python
loops over those dicts are quadratic-with-a-large-constant for the
4747-term downfolded H2O Hamiltonian that every real workload
(downfolding commutator expansions, ADAPT pool screening, QWC grouping,
term-counting sweeps) funnels through.

This module is the batched core: a whole Pauli sum becomes three NumPy
arrays —

* ``x``, ``z``: ``(terms, ceil(n/64))`` uint64 bit-matrices, word ``w``
  of row ``t`` holding qubits ``64w .. 64w+63`` of term ``t``'s X/Z
  masks (the symmer-style symplectic form, packed 64 qubits per word),
* ``coeffs``: ``(terms,)`` complex128,

with the phase convention of :mod:`repro.ir.pauli` kept exactly:
``P(x, z) = i^{|x & z|} X^x Z^z`` (each row is a Hermitian Pauli
string).  All algebra is then bit arithmetic over whole matrices:

* sum×sum product / commutator — one broadcasted XOR plus popcount
  phase bookkeeping per (chunked) pair block, followed by a single
  lexicographic dedup-and-sum instead of per-pair dict updates,
* commutation / anticommutation / qubitwise-commutation adjacency —
  boolean matrices from word-AND + popcount parity,
* greedy QWC grouping — the first-fit scan checks a candidate term
  against *all* existing groups in one vectorized conflict test,
* GF(2) elimination (``gf2_rref`` / ``gf2_kernel``) over packed rows —
  the kernel of the stacked Hamiltonian X-block is exactly the group of
  Z-type Z2 symmetries (:func:`find_z2_symmetries`); the plan and ADAPT
  use them as parity filters on the (N, S_z) index set
  (:func:`repro.utils.bitops.sector_of`).

This is the only sum-level Pauli algebra in the package:
:class:`repro.ir.pauli.PauliSum` runs every ``dot`` / ``commutator`` /
``group_qubitwise_commuting`` / ``simplify`` here, at every size, and
memoizes the packed form under its ``_version`` cache protocol;
:func:`repro.chem.mappings.map_fermion_operators` expands ladder
products with :func:`pauli_mul_batch` and collapses them with the same
dedup.  Nothing here mutates a source sum.

Term order is defined once: dedup (and so every product, commutator
and mapping) emits rows in ascending ``(x, z)`` order, the masks read
as integers, and QWC grouping scans by descending ``|coeff|`` with ties
in that order — a sum's measurement groups depend only on its terms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.bitops import count_set_bits, popcount

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.pauli import PauliSum

__all__ = [
    "SymplecticPauli",
    "pack_masks",
    "unpack_masks",
    "popcount_words",
    "parity_words",
    "pauli_mul_batch",
    "dedup_rows",
    "gf2_rref",
    "gf2_kernel",
    "find_z2_symmetries",
    "parity_flips",
]

# Powers of i as an indexable array (fancy indexing over exponent
# matrices); tuple I_POW stays the scalar path's table.
I_POW_ARR = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j], dtype=np.complex128)

_WORD_BITS = 64
_WORD_MASK = (1 << 64) - 1

# Pair-block budget for the chunked outer products: bounds peak memory
# of a product at ~100 MB of transients regardless of operand size.
_PAIR_CHUNK = 1 << 20

# The packed (n <= 32) product path spends ~48 bytes of transients per
# pair, so it affords larger blocks — fewer chunk sorts per product.
_PACKED_PAIR_CHUNK = 1 << 22

_SHIFT32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)

# Elements in flight while building x-mask diagonals: a butterfly block
# small enough to stay in cache, and the terms x columns sign matrix of
# the subset path (int64 popcount temporaries, ~40 bytes per element).
_WHT_BLOCK = 1 << 13
_SIGN_CHUNK = 1 << 18


def _dedup_packed(
    packed: np.ndarray, coeffs: np.ndarray, threshold: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort packed uint64 row keys (``(x << 32) | z`` and the like),
    sum coefficients of equal keys (``np.add.reduceat`` over run
    boundaries), drop ``|coeff| <= threshold``.  Returns
    ``(unique_keys, coeffs)`` in ascending key order — the same (x, z)
    order the general row-matrix path produces."""
    order = np.argsort(packed)
    srt = packed[order]
    boundary = np.empty(len(srt), dtype=bool)
    boundary[0] = True
    np.not_equal(srt[1:], srt[:-1], out=boundary[1:])
    idx = np.flatnonzero(boundary)
    summed = np.add.reduceat(coeffs[order], idx)
    keep = np.abs(summed) > threshold
    return srt[idx][keep], summed[keep]


def _key_columns(x: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``np.lexsort`` keys (last = primary) ordering rows by ``(x, z)``
    as integers: highest x word first, lowest z word last."""
    return tuple(z.T) + tuple(x.T)


def dedup_rows(
    num_qubits: int,
    x: np.ndarray,
    z: np.ndarray,
    coeffs: np.ndarray,
    threshold: float = 0.0,
    owner: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort non-empty rows by ``(owner, x, z)``, sum the coefficients of
    equal rows and drop ``|coeff| <= threshold``.

    ``owner`` (non-negative ints, ``None`` = one sum) says which of
    several sums a row belongs to, so they all dedup in one sort and come
    back as contiguous runs, each in ascending ``(x, z)`` order.  Returns
    ``(x, z, coeffs, owner)``.  When the whole key fits in one uint64 —
    a one-word register and few owners; always for one sum of <= 32
    qubits — that is a single argsort of ``(owner << 2n) | (x << n) | z``;
    wider keys take a typed ``np.lexsort`` over the columns (not
    ``np.unique(axis=0)``, which sorts a void view with per-row memcmp
    and dominates large products).
    """
    n = num_qubits
    owner_bits = 0 if owner is None else int(owner.max()).bit_length()
    if 2 * n + owner_bits <= 64:
        key = x[:, 0] << np.uint64(n)
        key |= z[:, 0]
        if owner_bits:
            key |= owner.astype(np.uint64) << np.uint64(2 * n)
        key, coeffs = _dedup_packed(key, coeffs, threshold)
        low = np.uint64((1 << n) - 1)
        owner = (
            (key >> np.uint64(2 * n)).astype(np.int64)
            if owner_bits
            else np.zeros(len(key), dtype=np.int64)
        )
        return (
            ((key >> np.uint64(n)) & low)[:, None],
            (key & low)[:, None],
            coeffs,
            owner,
        )
    w = x.shape[1]
    if owner is None:
        owner = np.zeros(len(coeffs), dtype=np.uint8)
    order = np.lexsort(_key_columns(x, z) + (owner,))
    srt = np.concatenate([x, z, owner[:, None].astype(np.uint64)], axis=1)[order]
    boundary = np.empty(len(srt), dtype=bool)
    boundary[0] = True
    np.any(srt[1:] != srt[:-1], axis=1, out=boundary[1:])
    idx = np.flatnonzero(boundary)
    summed = np.add.reduceat(coeffs[order], idx)
    keep = np.abs(summed) > threshold
    uniq = srt[idx][keep]
    return uniq[:, :w], uniq[:, w : 2 * w], summed[keep], uniq[:, -1].astype(np.int64)


def _num_words(num_qubits: int) -> int:
    return (num_qubits + _WORD_BITS - 1) // _WORD_BITS


def pack_masks(masks: Sequence[int], num_qubits: int) -> np.ndarray:
    """Pack Python-int bitmasks into a ``(len(masks), ceil(n/64))``
    uint64 matrix (word ``w`` holds bits ``64w .. 64w+63``)."""
    w = _num_words(num_qubits)
    t = len(masks)
    out = np.zeros((t, w), dtype=np.uint64)
    if t == 0:
        return out
    if w == 1:
        out[:, 0] = np.fromiter(masks, dtype=np.uint64, count=t)
    else:
        for j in range(w):
            shift = _WORD_BITS * j
            out[:, j] = np.fromiter(
                ((m >> shift) & _WORD_MASK for m in masks),
                dtype=np.uint64,
                count=t,
            )
    return out


def unpack_masks(words: np.ndarray) -> List[int]:
    """Inverse of :func:`pack_masks`: rows back to Python ints."""
    if words.ndim != 2:
        raise ValueError("expected a (terms, words) matrix")
    t, w = words.shape
    if w == 1:
        return words[:, 0].tolist()  # uint64 -> exact Python ints
    cols = [words[:, j].tolist() for j in range(w)]
    return [
        sum(cols[j][i] << (_WORD_BITS * j) for j in range(w))
        for i in range(t)
    ]


if hasattr(np, "bitwise_count"):  # numpy >= 2.0: native POPCNT
    _popcount_elem = np.bitwise_count
else:
    _popcount_elem = count_set_bits


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of packed masks (summed over the word axis)."""
    return _popcount_elem(words).sum(axis=-1, dtype=np.int64)


def parity_words(words: np.ndarray) -> np.ndarray:
    """Per-row popcount parity (0/1) of packed masks."""
    return popcount_words(words) & 1


def pauli_mul_batch(
    x1: np.ndarray,
    z1: np.ndarray,
    c1: np.ndarray,
    x2: np.ndarray,
    z2: np.ndarray,
    c2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcasted product of Hermitian Pauli strings.

    Inputs are packed word arrays with any broadcast-compatible leading
    shape and a trailing word axis; coefficients broadcast over the
    leading shape.  Returns ``(x3, z3, c3)`` with the phase convention
    of :meth:`repro.ir.pauli.PauliString.mul`:

        P(x1, z1) P(x2, z2) = i^e P(x3, z3),
        e = |x1&z1| + |x2&z2| - |x3&z3| + 2 |z1&x2|  (mod 4).
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    exponent = (
        popcount_words(x1 & z1)
        + popcount_words(x2 & z2)
        - popcount_words(x3 & z3)
        + 2 * popcount_words(z1 & x2)
    ) % 4
    return x3, z3, c1 * c2 * I_POW_ARR[exponent]


class SymplecticPauli:
    """A whole Pauli sum as packed (X|Z) uint64 bit-matrices.

    Rows are terms; instances are value objects — every operation
    returns a new instance and never aliases operand arrays into the
    result.  Rows are *not* automatically deduplicated on construction;
    ``dedup()`` (or any product, which dedups its output) collapses
    duplicates.
    """

    __slots__ = ("num_qubits", "num_words", "x", "z", "coeffs")

    def __init__(
        self,
        num_qubits: int,
        x: np.ndarray,
        z: np.ndarray,
        coeffs: np.ndarray,
    ):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        w = _num_words(num_qubits)
        x = np.ascontiguousarray(x, dtype=np.uint64)
        z = np.ascontiguousarray(z, dtype=np.uint64)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if x.ndim != 2 or x.shape[1] != w or x.shape != z.shape:
            raise ValueError("x/z must be (terms, ceil(n/64)) matrices")
        if coeffs.shape != (x.shape[0],):
            raise ValueError("coeffs length must match the row count")
        self.num_qubits = num_qubits
        self.num_words = w
        self.x = x
        self.z = z
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_terms_dict(
        cls, num_qubits: int, terms: Dict[Tuple[int, int], complex]
    ) -> "SymplecticPauli":
        """Pack a ``PauliSum.terms``-style ``{(x, z): coeff}`` dict
        (row order = dict insertion order)."""
        keys = list(terms.keys())
        x = pack_masks([k[0] for k in keys], num_qubits)
        z = pack_masks([k[1] for k in keys], num_qubits)
        coeffs = np.fromiter(
            (terms[k] for k in keys), dtype=np.complex128, count=len(keys)
        )
        return cls(num_qubits, x, z, coeffs)

    @classmethod
    def from_pauli_sum(cls, pauli_sum: "PauliSum") -> "SymplecticPauli":
        return cls.from_terms_dict(pauli_sum.num_qubits, pauli_sum.terms)

    @classmethod
    def zero(cls, num_qubits: int) -> "SymplecticPauli":
        w = _num_words(num_qubits)
        return cls(
            num_qubits,
            np.zeros((0, w), dtype=np.uint64),
            np.zeros((0, w), dtype=np.uint64),
            np.zeros(0, dtype=np.complex128),
        )

    # -- inspection / conversion ---------------------------------------------

    @property
    def num_terms(self) -> int:
        return self.x.shape[0]

    def __len__(self) -> int:
        return self.x.shape[0]

    def x_masks(self) -> List[int]:
        return unpack_masks(self.x)

    def z_masks(self) -> List[int]:
        return unpack_masks(self.z)

    def to_terms_dict(self) -> Dict[Tuple[int, int], complex]:
        """Back to ``{(x, z): coeff}`` (duplicate rows collapse)."""
        out: Dict[Tuple[int, int], complex] = {}
        coeffs = self.coeffs.tolist()
        for xm, zm, c in zip(self.x_masks(), self.z_masks(), coeffs):
            key = (xm, zm)
            new = out.get(key, 0.0) + c
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
        return out

    def to_pauli_sum(self) -> "PauliSum":
        from repro.ir.pauli import PauliSum

        return PauliSum(self.num_qubits, self.to_terms_dict())

    def labels(self) -> List[str]:
        """Textual labels row by row (highest qubit first)."""
        from repro.ir.pauli import PauliString

        return [
            PauliString(self.num_qubits, xm, zm).label()
            for xm, zm in zip(self.x_masks(), self.z_masks())
        ]

    def __repr__(self) -> str:
        return (
            f"SymplecticPauli(qubits={self.num_qubits}, "
            f"terms={self.num_terms}, words={self.num_words})"
        )

    # -- dedup / chop --------------------------------------------------------

    def dedup(self, threshold: float = 0.0) -> "SymplecticPauli":
        """Collapse duplicate (x, z) rows (coefficients summed) and
        drop rows with ``|coeff| <= threshold``; rows come back in
        ascending ``(x, z)`` order (:func:`dedup_rows`)."""
        if self.num_terms == 0:
            return SymplecticPauli.zero(self.num_qubits)
        x, z, coeffs, _ = dedup_rows(
            self.num_qubits, self.x, self.z, self.coeffs, threshold
        )
        return SymplecticPauli(self.num_qubits, x, z, coeffs)

    def chop(self, threshold: float) -> "SymplecticPauli":
        """Drop rows with ``|coeff| <= threshold`` (no dedup)."""
        keep = np.abs(self.coeffs) > threshold
        return SymplecticPauli(
            self.num_qubits, self.x[keep], self.z[keep], self.coeffs[keep]
        )

    def scale(self, scalar: complex) -> "SymplecticPauli":
        return SymplecticPauli(
            self.num_qubits, self.x, self.z, self.coeffs * scalar
        )

    # -- products ------------------------------------------------------------

    def _check_compatible(self, other: "SymplecticPauli") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )

    def mul(
        self, other: "SymplecticPauli", threshold: float = 0.0
    ) -> "SymplecticPauli":
        """Operator product ``self @ other``: every row pair multiplied
        with phase tracking, then one global dedup-and-sum.

        Runs in pair chunks of ~2^20 so a 4747x4747 product stays
        within a bounded transient footprint.
        """
        self._check_compatible(other)
        ta, tb = self.num_terms, other.num_terms
        if ta == 0 or tb == 0:
            return SymplecticPauli.zero(self.num_qubits)
        if self.num_qubits <= 32:
            return self._mul_packed(other, threshold)
        w = self.num_words
        # |x & z| popcounts of both operands, hoisted out of the chunk loop.
        pa = popcount_words(self.x & self.z)
        pb = popcount_words(other.x & other.z)
        rows_per_chunk = max(1, _PAIR_CHUNK // tb)
        pieces: List[SymplecticPauli] = []
        for start in range(0, ta, rows_per_chunk):
            sl = slice(start, min(start + rows_per_chunk, ta))
            x1 = self.x[sl][:, None, :]
            z1 = self.z[sl][:, None, :]
            x3 = x1 ^ other.x[None, :, :]
            z3 = z1 ^ other.z[None, :, :]
            exponent = (
                pa[sl][:, None]
                + pb[None, :]
                - popcount_words(x3 & z3)
                + 2 * popcount_words(z1 & other.x[None, :, :])
            ) % 4
            coeffs = (
                self.coeffs[sl][:, None] * other.coeffs[None, :]
            ) * I_POW_ARR[exponent]
            piece = SymplecticPauli(
                self.num_qubits,
                x3.reshape(-1, w),
                z3.reshape(-1, w),
                coeffs.ravel(),
            )
            # Dedup inside the chunk so the accumulated pieces stay small.
            pieces.append(piece.dedup(threshold))
        if len(pieces) == 1:
            return pieces[0]
        return _concat(pieces).dedup(threshold)

    def _mul_packed(
        self, other: "SymplecticPauli", threshold: float
    ) -> "SymplecticPauli":
        """Product specialization for n <= 32: each term is one packed
        ``(x << 32) | z`` uint64, so the pair XOR, the phase popcounts
        and the dedup sort all run on single uint64 arrays instead of
        separate (x, z) row matrices."""
        ta, tb = self.num_terms, other.num_terms
        p1 = (self.x[:, 0] << _SHIFT32) | self.z[:, 0]
        p2 = (other.x[:, 0] << _SHIFT32) | other.z[:, 0]
        pa = _popcount_elem((p1 >> _SHIFT32) & p1).astype(np.int64)
        pb = _popcount_elem((p2 >> _SHIFT32) & p2).astype(np.int64)
        z1 = self.z[:, 0]
        x2 = other.x[:, 0]
        rows_per_chunk = max(1, _PACKED_PAIR_CHUNK // tb)
        packed_pieces: List[np.ndarray] = []
        coeff_pieces: List[np.ndarray] = []
        for start in range(0, ta, rows_per_chunk):
            sl = slice(start, min(start + rows_per_chunk, ta))
            pp = p1[sl][:, None] ^ p2[None, :]
            # x3 & z3 of every pair, still packed: the x field shifted
            # down onto the z field.
            xz3 = (pp >> _SHIFT32) & pp
            z1x2 = z1[sl][:, None] & x2[None, :]
            exponent = (
                pa[sl][:, None]
                + pb[None, :]
                - _popcount_elem(xz3).astype(np.int64)
                + 2 * _popcount_elem(z1x2).astype(np.int64)
            ) % 4
            coeffs = (
                self.coeffs[sl][:, None] * other.coeffs[None, :]
            ) * I_POW_ARR[exponent]
            up, uc = _dedup_packed(pp.ravel(), coeffs.ravel(), threshold)
            packed_pieces.append(up)
            coeff_pieces.append(uc)
        if len(packed_pieces) == 1:
            up, uc = packed_pieces[0], coeff_pieces[0]
        else:
            up, uc = _dedup_packed(
                np.concatenate(packed_pieces),
                np.concatenate(coeff_pieces),
                threshold,
            )
        return SymplecticPauli(
            self.num_qubits,
            (up >> _SHIFT32)[:, None],
            (up & _MASK32)[:, None],
            uc,
        )

    def commutator(
        self, other: "SymplecticPauli", threshold: float = 0.0
    ) -> "SymplecticPauli":
        """[self, other]: only anticommuting row pairs contribute, each
        with ``2 * P1 P2``."""
        self._check_compatible(other)
        ta, tb = self.num_terms, other.num_terms
        if ta == 0 or tb == 0:
            return SymplecticPauli.zero(self.num_qubits)
        pa = popcount_words(self.x & self.z)
        pb = popcount_words(other.x & other.z)
        rows_per_chunk = max(1, _PAIR_CHUNK // tb)
        pieces: List[SymplecticPauli] = []
        for start in range(0, ta, rows_per_chunk):
            sl = slice(start, min(start + rows_per_chunk, ta))
            i, j = np.nonzero(self.anticommutation_matrix(other, rows=sl))
            if i.size == 0:
                continue
            pieces.append(
                self._pair_commutators(other, i + start, j, pa, pb).dedup(
                    threshold
                )
            )
        if not pieces:
            return SymplecticPauli.zero(self.num_qubits)
        if len(pieces) == 1:
            return pieces[0]
        return _concat(pieces).dedup(threshold)

    def commutator_x_clear(
        self,
        other: "SymplecticPauli",
        mask: np.ndarray,
        threshold: float = 0.0,
    ) -> "SymplecticPauli":
        """The rows of ``[self, other]`` with no X/Y on ``mask`` (a packed
        ``(num_words,)`` uint64 row), without forming the others.

        A product's X part is ``x1 ^ x2``, clear on ``mask`` exactly when
        the two rows agree there, so the pairs are a join on ``x & mask``:
        each row of ``self`` meets only the rows of ``other`` with its
        key, in blocks of at most ~2^20 pairs.  Equal to
        ``commutator(other)`` with its ``x & mask`` rows dropped and then
        chopped at ``threshold``.
        """
        self._check_compatible(other)
        ta, tb = self.num_terms, other.num_terms
        if ta == 0 or tb == 0:
            return SymplecticPauli.zero(self.num_qubits)
        mask = np.asarray(mask, dtype=np.uint64)
        keys = np.concatenate([self.x & mask, other.x & mask])
        _, group = np.unique(keys, axis=0, return_inverse=True)
        group = group.reshape(-1)
        ga, gb = group[:ta], group[ta:]
        by_group = np.argsort(gb, kind="stable")
        sizes = np.bincount(gb, minlength=int(group.max()) + 1)
        first = np.cumsum(sizes) - sizes  # group g is by_group[first[g]:]
        partners = sizes[ga]
        reach = np.cumsum(partners)
        pa = popcount_words(self.x & self.z)
        pb = popcount_words(other.x & other.z)
        pieces: List[SymplecticPauli] = []
        lo = 0
        while lo < ta:
            budget = reach[lo] - partners[lo] + _PAIR_CHUNK
            hi = max(lo + 1, int(np.searchsorted(reach, budget, side="right")))
            rep = partners[lo:hi]
            n_pairs = int(rep.sum())
            if n_pairs:
                i = np.repeat(np.arange(lo, hi), rep)
                rank = np.arange(n_pairs) - np.repeat(np.cumsum(rep) - rep, rep)
                j = by_group[np.repeat(first[ga[lo:hi]], rep) + rank]
                anti = (
                    (
                        popcount_words(self.x[i] & other.z[j])
                        + popcount_words(self.z[i] & other.x[j])
                    )
                    & 1
                ).astype(bool)
                i, j = i[anti], j[anti]
                if i.size:
                    pieces.append(
                        self._pair_commutators(other, i, j, pa, pb).dedup()
                    )
            lo = hi
        if not pieces:
            return SymplecticPauli.zero(self.num_qubits)
        return _concat(pieces).dedup(threshold)

    def _pair_commutators(
        self,
        other: "SymplecticPauli",
        i: np.ndarray,
        j: np.ndarray,
        pa: np.ndarray,
        pb: np.ndarray,
    ) -> "SymplecticPauli":
        """``2 P_i P_j`` for anticommuting row pairs ``(i, j)`` (not
        deduplicated); ``pa`` / ``pb`` are the rows' ``|x & z|``."""
        x1 = self.x[i]
        z1 = self.z[i]
        x2 = other.x[j]
        x3 = x1 ^ x2
        z3 = z1 ^ other.z[j]
        exponent = (
            pa[i] + pb[j] - popcount_words(x3 & z3) + 2 * popcount_words(z1 & x2)
        ) % 4
        coeffs = (2.0 * self.coeffs[i] * other.coeffs[j]) * I_POW_ARR[exponent]
        return SymplecticPauli(self.num_qubits, x3, z3, coeffs)

    # -- adjacency -----------------------------------------------------------

    def anticommutation_matrix(
        self,
        other: Optional["SymplecticPauli"] = None,
        rows: slice = slice(None),
    ) -> np.ndarray:
        """Boolean (rows_of_self, terms_of_other) matrix; entry True
        when the pair *anticommutes* (symplectic inner product odd)."""
        other = self if other is None else other
        self._check_compatible(other)
        x1 = self.x[rows][:, None, :]
        z1 = self.z[rows][:, None, :]
        parity = (
            popcount_words(x1 & other.z[None, :, :])
            + popcount_words(z1 & other.x[None, :, :])
        ) & 1
        return parity.astype(bool)

    # -- qubitwise-commuting grouping ----------------------------------------

    def group_qubitwise(self) -> List[List[int]]:
        """Greedy first-fit QWC grouping; returns term-index groups.

        Terms are scanned by descending ``|coeff|`` so heavy terms seed
        the groups, ties in ascending ``(x, z)`` order — one lexsort, so
        the groups do not depend on the row order.  The fit test against
        every existing group is one vectorized conflict check on the
        groups' union letter masks — equivalent to testing against every
        member, because members of a QWC group agree on each occupied
        qubit.
        """
        t = self.num_terms
        order = np.lexsort(
            _key_columns(self.x, self.z) + (-np.abs(self.coeffs),)
        )
        occ_all = self.x | self.z
        w = self.num_words
        cap = max(1, t)
        gx = np.zeros((cap, w), dtype=np.uint64)
        gz = np.zeros((cap, w), dtype=np.uint64)
        gocc = np.zeros((cap, w), dtype=np.uint64)
        n_groups = 0
        groups: List[List[int]] = []
        for idx in order.tolist():
            placed = False
            if n_groups:
                conflict = (occ_all[idx] & gocc[:n_groups]) & (
                    (self.x[idx] ^ gx[:n_groups])
                    | (self.z[idx] ^ gz[:n_groups])
                )
                fits = np.flatnonzero(~(conflict != 0).any(axis=1))
                if fits.size:
                    g = int(fits[0])
                    groups[g].append(idx)
                    gx[g] |= self.x[idx]
                    gz[g] |= self.z[idx]
                    gocc[g] |= occ_all[idx]
                    placed = True
            if not placed:
                groups.append([idx])
                gx[n_groups] = self.x[idx]
                gz[n_groups] = self.z[idx]
                gocc[n_groups] = occ_all[idx]
                n_groups += 1
        return groups

    # -- computational-basis matrix elements ---------------------------------

    def x_mask_diagonals(self, cols: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Summed sign diagonals per distinct x-mask.

        Every term with x-mask ``x`` maps ``|k>`` to ``|k ^ x>``, so the
        whole sum is ``H|k> = sum_x d_x[k] |k ^ x>`` with

            d_x[k] = sum_z c_{x,z} * i^{|x & z|} * (-1)^{parity(k & z)}.

        Returns ``(masks, d)``: the distinct masks ascending (x = 0
        first) and ``d[m, c] = <cols[c] ^ masks[m]| H |cols[c]>``.

        Without ``cols`` the columns are all 2^n indices and ``d_x`` is
        the unnormalised Walsh-Hadamard transform of the vector holding
        ``c_{x,z} i^{|x & z|}`` at index ``z``: scatter, then n
        in-place butterfly levels — n * 2^n per mask whatever the term
        count, and no allocation besides the result.  A subset of a
        register too wide for that (a symmetry sector of 40 qubits)
        gets the terms x ``len(cols)`` sign matrix instead, in chunks.
        """
        if self.num_qubits > 62:
            raise ValueError(
                f"int64 basis indices need num_qubits <= 62, got {self.num_qubits}"
            )
        xs = self.x[:, 0].astype(np.int64)
        zs = self.z[:, 0].astype(np.int64)
        weights = self.coeffs * I_POW_ARR[popcount_words(self.x & self.z) % 4]
        masks, inverse = np.unique(xs, return_inverse=True)
        if cols is None:
            d = np.zeros((len(masks), 1 << self.num_qubits), dtype=np.complex128)
            np.add.at(d, (inverse, zs), weights)
            _walsh_hadamard(d)
            return masks, d
        cols = np.asarray(cols, dtype=np.int64)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(len(masks) + 1))
        d = np.zeros((len(masks), cols.size), dtype=np.complex128)
        chunk = max(1, _SIGN_CHUNK // max(1, cols.size))
        for m in range(len(masks)):
            group = order[bounds[m] : bounds[m + 1]]
            for lo in range(0, group.size, chunk):
                sub = group[lo : lo + chunk]
                signs = 1.0 - 2.0 * (
                    count_set_bits(cols[None, :] & zs[sub, None]) & 1
                )
                d[m] += weights[sub] @ signs
        return masks, d

    def matrix_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense ``<rows| H |cols>`` for arrays of basis-state indices,
        scattered from :meth:`block_entries`."""
        r, c, values, shape = self.block_entries(rows, cols)
        out = np.zeros(shape, dtype=np.complex128)
        out[r, c] = values
        return out

    def block_entries(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]:
        """``(r, c, values, shape)``: the nonzero entries of ``<rows| H
        |cols>``, each ``(r, c)`` once.

        Each column's amplitudes land on ``cols ^ x``; those that fall
        in ``rows`` are kept.  On a subset of the columns the cost is
        O(terms x len(cols)) and nothing of size 2^n is allocated, so a
        symmetry-sector block of a wide register stays cheap.  ``rows``
        must not repeat (a repeated row has no single target).
        """
        dim = 1 << self.num_qubits
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        for name, arr in (("rows", rows), ("cols", cols)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-D index array")
            if arr.size and (arr.min() < 0 or arr.max() >= dim):
                raise ValueError(
                    f"{name} holds basis indices outside [0, 2^{self.num_qubits})"
                )
        by_value = np.argsort(rows, kind="stable")
        sorted_rows = rows[by_value]
        if np.any(sorted_rows[1:] == sorted_rows[:-1]):
            raise ValueError("rows holds a repeated basis index")
        shape = (rows.size, cols.size)
        if rows.size == 0:  # no slot to clip the search to
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0, dtype=np.complex128), shape
        every = cols.size == dim and np.array_equal(cols, np.arange(dim))
        masks, d = self.x_mask_diagonals(None if every else cols)
        target = cols[None, :] ^ masks[:, None]
        slot = np.minimum(np.searchsorted(sorted_rows, target), rows.size - 1)
        m, c = np.nonzero((sorted_rows[slot] == target) & (d != 0))
        return by_value[slot[m, c]], c, d[m, c], shape


def _walsh_hadamard(d: np.ndarray) -> None:
    """Unnormalised Walsh-Hadamard transform of every row of the
    C-contiguous ``(rows, 2^n)`` array ``d``, in place:
    ``d[r, k] <- sum_z d[r, z] * (-1)^{|k & z|}``."""
    rows, dim = d.shape
    step = max(1, _WHT_BLOCK // dim)
    for lo in range(0, rows, step):
        blk = d[lo : lo + step]
        h = 1
        while h < dim:
            v = blk.reshape(blk.shape[0], dim // (2 * h), 2, h)
            a, b = v[:, :, 0], v[:, :, 1]
            t = a - b
            a += b
            b[...] = t
            h *= 2


def _concat(pieces: List[SymplecticPauli]) -> SymplecticPauli:
    first = pieces[0]
    return SymplecticPauli(
        first.num_qubits,
        np.concatenate([p.x for p in pieces], axis=0),
        np.concatenate([p.z for p in pieces], axis=0),
        np.concatenate([p.coeffs for p in pieces]),
    )


# -- GF(2) linear algebra on packed rows --------------------------------------


def gf2_rref(
    rows: np.ndarray, num_bits: int
) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(2) of packed uint64 rows.

    ``rows`` is ``(R, ceil(num_bits/64))``; returns ``(rref, pivots)``
    where ``rref`` holds the ``rank`` nonzero reduced rows and
    ``pivots`` their pivot columns (ascending).  Each elimination step
    XORs the pivot row into every other row carrying that column — a
    single vectorized operation per column.
    """
    mat = np.array(rows, dtype=np.uint64, copy=True)
    if mat.ndim != 2:
        raise ValueError("expected a (rows, words) matrix")
    r = 0
    pivots: List[int] = []
    n_rows = mat.shape[0]
    for col in range(num_bits):
        if r == n_rows:
            break
        word, bit = divmod(col, _WORD_BITS)
        colbit = np.uint64(1 << bit)
        has = (mat[:, word] & colbit) != 0
        candidates = np.flatnonzero(has[r:])
        if candidates.size == 0:
            continue
        p = r + int(candidates[0])
        if p != r:
            mat[[r, p]] = mat[[p, r]]
        has = (mat[:, word] & colbit) != 0
        has[r] = False
        mat[has] ^= mat[r]
        pivots.append(col)
        r += 1
    return mat[: len(pivots)], pivots


def gf2_kernel(rows: np.ndarray, num_bits: int) -> np.ndarray:
    """Kernel basis of a packed GF(2) matrix: all ``v`` with
    ``row . v = 0 (mod 2)`` for every row.

    Returns a ``(dim_kernel, ceil(num_bits/64))`` packed basis in
    reduced form: each basis vector sets exactly one free column plus
    the pivot columns needed to cancel it, so the basis is independent
    by construction.
    """
    rref, pivots = gf2_rref(rows, num_bits)
    pivot_set = set(pivots)
    free_cols = [c for c in range(num_bits) if c not in pivot_set]
    w = rows.shape[1] if rows.ndim == 2 else _num_words(num_bits)
    basis = np.zeros((len(free_cols), w), dtype=np.uint64)
    for k, f in enumerate(free_cols):
        fw, fb = divmod(f, _WORD_BITS)
        basis[k, fw] |= np.uint64(1 << fb)
        # v[pivot_i] = rref[i, f] cancels row i's contribution at f.
        fcol = (rref[:, fw] >> np.uint64(fb)) & np.uint64(1)
        for i in np.flatnonzero(fcol):
            pw, pb = divmod(pivots[int(i)], _WORD_BITS)
            basis[k, pw] |= np.uint64(1 << pb)
    return basis


def find_z2_symmetries(hamiltonian: "PauliSum") -> Tuple[int, ...]:
    """Independent Z-type Z2 symmetries of ``hamiltonian``: the z-masks
    ``s`` of the generators ``Z^s`` of its symmetry group (empty when it
    has none; every single-qubit ``Z`` for an empty or diagonal sum).

    ``Z^s`` commutes with a term exactly when the term's x-mask overlaps
    ``s`` in an even number of bits, so the symmetries are the GF(2)
    kernel of the stacked X-block.  Molecular Hamiltonians under
    Jordan-Wigner carry the two spin-sector particle parities, and
    point-group symmetry of the integrals adds more (four in all on
    full-space LiH and H2O).  Memoized on the sum under its ``_version``
    cache protocol, so one Hamiltonian is solved once however many plans
    ask.
    """
    if hamiltonian._z2 is None:
        kernel = gf2_kernel(hamiltonian.to_symplectic().x, hamiltonian.num_qubits)
        hamiltonian._z2 = tuple(unpack_masks(kernel))
    return hamiltonian._z2


def parity_flips(op: "PauliSum", z_masks: Sequence[int]) -> List[bool]:
    """Per term of ``op``: whether it anticommutes with some ``Z^s``,
    ``s`` in ``z_masks`` — whether it moves every basis state out of its
    parity class under those masks."""
    return [any(popcount(x & s) & 1 for s in z_masks) for x, _ in op.terms]
