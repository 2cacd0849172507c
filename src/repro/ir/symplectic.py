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
  phase bookkeeping per pair block, folded into a running sorted sum
  (:func:`fold_blocks`) instead of per-pair dict updates, so memory is
  O(block + output), not O(pairs); a commutator keeps a 12-byte key per
  anticommuting pair for one exact sort first (:meth:`_pair_sums`),
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
products with :func:`pauli_mul_batch` and sums them with the same
fold.  Nothing here mutates a source sum.

Term order is defined once: dedup (and so every product, commutator
and mapping) emits rows in ascending ``(x, z)`` order, the masks read
as integers, and QWC grouping scans by descending ``|coeff|`` with ties
in that order — a sum's measurement groups depend only on its terms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    "row_blocks",
    "fold_blocks",
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

# Pairs per block of every pair loop (products, commutators, the x-clear
# join, the fermion mapping's ladder expansion): a block holds ~100 bytes
# per pair in transients and fold_blocks keeps one block plus the running
# sum, so a join's peak is O(block + output).  Measured on Fig. 5 H2O,
# 2^16 / 2^17 / 2^18: hermitian_downfold's traced peak 9.2 / 10.7 / 16.7
# MiB; the 4747^2 H_eff product 74 / 79 / 86 MiB in 3.6 / 3.5 / 3.1 s.
_PAIR_CHUNK = 1 << 16

# Anticommuting pairs per key sort in the commutators (~20 bytes each
# while sorted): a join up to this size gets exactly the sums of one
# dedup_rows call, which the downfolded Hamiltonians' measurement groups
# depend on through their coefficient ties.
_SORT_PAIRS = 1 << 20

# Elements in flight while building x-mask diagonals: a butterfly block
# small enough to stay in cache, and the terms x columns sign matrix of
# the subset path (int64 popcount temporaries, ~40 bytes per element).
# Small x-mask groups share one sign block of at most _SIGN_RUN
# elements; a group past _SIGN_CHUNK is cut into blocks of that size.
_WHT_BLOCK = 1 << 13
_SIGN_RUN = 1 << 12
_SIGN_CHUNK = 1 << 18


def _sign_block(cols: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """``(-1)^{parity(cols[c] & zs[t])}`` as a terms x columns float block."""
    return 1.0 - 2.0 * (count_set_bits(cols[None, :] & zs[:, None]) & 1)


# One (x, z, coeffs, owner) row set; owner None for a single sum.
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]


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
) -> Rows:
    """Sort non-empty rows by ``(owner, x, z)``, sum the coefficients of
    equal rows and drop ``|coeff| <= threshold``.

    ``owner`` (non-negative ints, ``None`` = one sum) says which of
    several sums a row belongs to, so they all dedup in one sort and come
    back as contiguous runs, each in ascending ``(x, z)`` order.  Returns
    ``(x, z, coeffs, owner)`` (``owner`` ``None`` when given ``None``).
    When the whole key fits in one uint64 — a one-word register and few
    owners; always for one sum of <= 32 qubits — that is a single argsort
    of ``(owner << 2n) | (x << n) | z``; wider keys take a typed
    ``np.lexsort`` over the columns (not ``np.unique(axis=0)``, which
    sorts a void view with per-row memcmp and dominates large products).
    """
    n = num_qubits
    owner_bits = 0 if owner is None else int(owner.max(initial=0)).bit_length()
    if 2 * n + owner_bits <= 64:
        key = x[:, 0] << np.uint64(n)
        key |= z[:, 0]
        if owner_bits:
            key |= owner.astype(np.uint64) << np.uint64(2 * n)
        order = np.argsort(key)
        srt = key[order]
        boundary = np.empty(len(srt), dtype=bool)
        np.not_equal(srt[1:], srt[:-1], out=boundary[1:])
    else:
        key = np.zeros(len(coeffs), dtype=np.uint8) if owner is None else owner
        order = np.lexsort(_key_columns(x, z) + (key,))
        srt = np.concatenate([x, z, key[:, None].astype(np.uint64)], axis=1)[order]
        boundary = np.empty(len(srt), dtype=bool)
        np.any(srt[1:] != srt[:-1], axis=1, out=boundary[1:])
    boundary[:1] = True
    idx = np.flatnonzero(boundary)
    summed = np.add.reduceat(coeffs[order], idx)
    keep = np.abs(summed) > threshold
    srt = srt[idx][keep]
    if srt.ndim == 1:  # unpack the uint64 keys
        low = np.uint64((1 << n) - 1)
        own = None if owner is None else (srt >> np.uint64(2 * n)).astype(np.int64)
        return ((srt >> np.uint64(n)) & low)[:, None], (srt & low)[:, None], summed[keep], own
    w = x.shape[1]
    own = None if owner is None else srt[:, -1].astype(np.int64)
    return srt[:, :w], srt[:, w : 2 * w], summed[keep], own


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices of ``range(rows)`` that expand to at most ``_PAIR_CHUNK``
    pairs when each row meets ``width`` partners (one row per slice when
    a single row exceeds it)."""
    step = max(1, _PAIR_CHUNK // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def fold_blocks(num_qubits: int, blocks: Iterable[Rows], threshold: float = 0.0) -> Rows:
    """Sum the rows of ``(x, z, coeffs, owner)`` blocks as one
    :func:`dedup_rows` call over their concatenation would, in
    O(block + output) memory.

    Consecutive blocks are joined up to ``_PAIR_CHUNK`` rows (a small sum
    is one block and one sort), deduplicated with no threshold and held
    pending; whenever the pending rows outnumber the running sorted
    result they are merged into it (one dedup of their concatenation),
    so the merges cost a constant factor over the block dedups.
    ``threshold`` is applied once, to the final sums, so no row depends
    on how the pairs were blocked.  ``blocks`` must not be empty.
    """
    def dedup(rows: Rows, threshold: float = 0.0) -> Rows:
        return dedup_rows(num_qubits, *rows[:3], threshold, rows[3])

    parts: List[Rows] = []
    held = pending = 0
    for part in map(dedup, _joined(blocks)):  # map() drops each block once sorted
        parts.append(part)
        pending += len(part[2])
        if not held:  # the first rows are the running result
            held, pending = pending, 0
        elif pending > held:
            parts = [dedup(_concat(parts))]
            held, pending = len(parts[0][2]), 0
    return dedup(_concat(parts), threshold)


def _joined(blocks: Iterable[Rows]) -> Iterator[Rows]:
    """Runs of consecutive blocks, concatenated up to ``_PAIR_CHUNK``
    rows each (a larger block stays alone)."""
    run: List[Rows] = []
    rows = 0
    for block in blocks:
        if run and rows + len(block[2]) > _PAIR_CHUNK:
            yield _concat(run)
            rows = 0
        run.append(block)
        rows += len(block[2])
    yield _concat(run)


def _concat(parts: List[Rows]) -> Rows:
    """Empty ``parts`` into one row set (``owner`` ``None`` stays)."""
    if len(parts) == 1:
        return parts.pop()
    cols = [None if col[0] is None else np.concatenate(col) for col in zip(*parts)]
    parts.clear()
    return tuple(cols)


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
        with phase tracking, in blocks of at most ``_PAIR_CHUNK`` pairs
        summed by :func:`fold_blocks` and chopped at ``threshold`` once.

        A 4747x4747 product holds one block and its running result
        (~390k rows), never its 22.5M pairs.
        """
        self._check_compatible(other)
        if self.num_terms == 0 or other.num_terms == 0:
            return SymplecticPauli.zero(self.num_qubits)

        def block(sl: slice) -> Rows:  # mapped, so its temporaries die young
            x3, z3, coeffs = pauli_mul_batch(
                self.x[sl][:, None], self.z[sl][:, None], self.coeffs[sl][:, None],
                other.x[None], other.z[None], other.coeffs[None],
            )
            w = self.num_words
            return x3.reshape(-1, w), z3.reshape(-1, w), coeffs.ravel(), None

        return self._folded(map(block, row_blocks(self.num_terms, other.num_terms)), threshold)

    def _folded(self, blocks: Iterable[Rows], threshold: float) -> "SymplecticPauli":
        x, z, coeffs, _ = fold_blocks(self.num_qubits, blocks, threshold)
        return SymplecticPauli(self.num_qubits, x, z, coeffs)

    def commutator(
        self, other: "SymplecticPauli", threshold: float = 0.0
    ) -> "SymplecticPauli":
        """[self, other]: only anticommuting row pairs contribute, each
        with ``2 * P1 P2``, found in blocks of at most ``_PAIR_CHUNK``
        pairs and summed by :meth:`_pair_sums` and :func:`fold_blocks`."""
        self._check_compatible(other)
        if self.num_terms == 0 or other.num_terms == 0:
            return SymplecticPauli.zero(self.num_qubits)

        def block(sl: slice) -> Tuple[np.ndarray, np.ndarray]:
            i, j = np.nonzero(self.anticommutation_matrix(other, rows=sl))
            return i + sl.start, j

        pairs = map(block, row_blocks(self.num_terms, other.num_terms))
        return self._folded(self._pair_sums(other, pairs), threshold)

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
        key, in blocks of at most ``_PAIR_CHUNK`` pairs summed as in
        :meth:`commutator`.  Equal to ``commutator(other)`` with its
        ``x & mask`` rows dropped and then chopped at ``threshold``.
        """
        self._check_compatible(other)
        if self.num_terms == 0 or other.num_terms == 0:
            return SymplecticPauli.zero(self.num_qubits)
        return self._folded(self._pair_sums(other, self._x_clear_pairs(other, mask)), threshold)

    def _x_clear_pairs(
        self, other: "SymplecticPauli", mask: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The anticommuting pairs of the ``x & mask`` join in blocks (a
        generator, so its tables are freed before the pairs are summed)."""
        ta = self.num_terms
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
        lo = 0
        while lo < ta:
            budget = reach[lo] - partners[lo] + _PAIR_CHUNK
            hi = max(lo + 1, int(np.searchsorted(reach, budget, side="right")))
            rep = partners[lo:hi]
            i = np.repeat(np.arange(lo, hi), rep)
            # pair k of row i is by_group[first[ga[i]] + rank of k in i]
            j = np.repeat(first[ga[lo:hi]] - (np.cumsum(rep) - rep), rep)
            j += np.arange(len(j))
            j = by_group[j]
            anti = (
                popcount_words(self.x[i] & other.z[j])
                + popcount_words(self.z[i] & other.x[j])
            ) & 1
            anti = anti.astype(bool)
            i, j = i[anti], j[anti]
            yield i, j
            lo = hi

    def _pair_sums(
        self, other: "SymplecticPauli", pairs: Iterable[Tuple[np.ndarray, np.ndarray]]
    ) -> Iterator[Rows]:
        """``2 P_i P_j`` over the anticommuting pairs ``(i, j)`` that
        ``pairs`` yields, summed per ``_SORT_PAIRS`` pairs: each pair keeps
        its packed ``(x << n) | z`` key and index (~12 bytes) until one
        argsort of them all, so the sums are, to the bit, those of one
        :func:`dedup_rows` call over the pairs' rows (:meth:`_key_sum`).
        Registers too wide for one key word yield the rows themselves."""
        n, tb = self.num_qubits, other.num_terms
        if 2 * n > 64:
            for i, j in pairs:
                x3, z3, coeffs = pauli_mul_batch(
                    self.x[i], self.z[i], 2.0 * self.coeffs[i],
                    other.x[j], other.z[j], other.coeffs[j],
                )
                yield x3, z3, coeffs, None
            return
        # one key and one index buffer, filled block by block and grown
        # in place (ndarray.resize, by a quarter) when a block does not
        # fit, rather than blocks gathered and concatenated: the Fig. 5
        # downfold's peak RSS then no longer moves by ~2 MiB with where
        # the allocator happened to place the blocks
        keys = np.empty(_PAIR_CHUNK, dtype=np.uint64)
        index = np.empty(_PAIR_CHUNK, dtype=np.min_scalar_type(self.num_terms * tb))
        count, pending = 0, False
        for i, j in pairs:
            end = count + len(i)
            if end > len(keys):
                size = max(end, len(keys) + len(keys) // 4)
                keys.resize(size, refcheck=False)
                index.resize(size, refcheck=False)
            # no view of the buffers outlives a block: resize moves them
            np.bitwise_xor(self.x[i, 0], other.x[j, 0], out=keys[count:end])
            keys[count:end] <<= np.uint64(n)
            keys[count:end] |= self.z[i, 0] ^ other.z[j, 0]
            index[count:end] = i * tb + j
            count, pending = end, True
            if count >= _SORT_PAIRS:
                yield self._key_sum(other, keys[:count], index[:count])
                count, pending = 0, False
        if pending:
            yield self._key_sum(other, keys[:count], index[:count])

    def _key_sum(self, other: "SymplecticPauli", keys: np.ndarray, index: np.ndarray) -> Rows:
        """Sum the pairs of one filled stretch of :meth:`_pair_sums`'
        buffers (``keys`` is sorted in place) into one deduplicated row
        set: coefficients are formed and summed in key order a few
        blocks of rows at a time, cut between equal keys."""
        n, tb = self.num_qubits, other.num_terms
        if not len(keys):
            none = np.zeros((0, 1), dtype=np.uint64)
            return none, none.copy(), np.zeros(0, dtype=np.complex128), None
        order = np.argsort(keys)
        keys.sort()  # == keys[order], without a second array
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        # A sorted row's coefficient costs ~4x a block pair's transients.
        cuts = np.arange(0, len(keys), max(1, _PAIR_CHUNK // 4))
        edges = np.unique(starts[np.searchsorted(starts, cuts, side="right") - 1])
        pa = popcount_words(self.x & self.z)
        pb = popcount_words(other.x & other.z)
        summed = []
        for lo, hi in zip(edges, np.append(edges[1:], len(keys))):
            i, j = np.divmod(index[order[lo:hi]], tb)
            k = keys[lo:hi]
            # pauli_mul_batch's phase rule, x3 and z3 read off the key
            e = pa[i] + pb[j]
            e -= _popcount_elem((k >> np.uint64(n)) & k)
            e += 2 * _popcount_elem(self.z[i, 0] & other.x[j, 0])
            coeffs = self.coeffs[i] * other.coeffs[j]
            coeffs *= 2.0 * I_POW_ARR[e % 4]
            s0, s1 = np.searchsorted(starts, [lo, hi])
            summed.append(np.add.reduceat(coeffs, starts[s0:s1] - lo))
        del order, index
        x, z = np.divmod(keys[starts], np.uint64(1 << n))
        return x[:, None], z[:, None], np.concatenate(summed), None

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
        weights, zs = weights[order], zs[order]
        d = np.zeros((len(masks), cols.size), dtype=np.complex128)
        width = max(1, cols.size)
        run, chunk = max(1, _SIGN_RUN // width), max(1, _SIGN_CHUNK // width)
        m = 0
        while m < len(masks):
            # the whole groups from m whose terms fit one small block
            # share it; a lone group keeps blocks of up to `chunk` terms
            stop = int(np.searchsorted(bounds, bounds[m] + run, side="right")) - 1
            stop = max(stop, m + 1)
            lo, hi = bounds[m], bounds[stop]
            step = chunk if stop == m + 1 else hi - lo
            for start in range(lo, hi, step):
                end = min(start + step, hi)
                signs = _sign_block(cols, zs[start:end])
                for k in range(m, stop):
                    a, b = max(bounds[k], start), min(bounds[k + 1], end)
                    if a < b:
                        d[k] += weights[a:b] @ signs[a - start : b - start]
            m = stop
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
