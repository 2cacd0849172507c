"""Bit-manipulation helpers used by the statevector kernels.

The statevector simulator addresses amplitudes by integer basis-state
index; gate kernels are built from vectorized index arithmetic rather
than per-amplitude Python loops (see ``repro.sim.kernels``).  These
helpers centralize the bit tricks those kernels rely on.

Qubit convention: qubit ``q`` corresponds to bit ``q`` of the basis
index (little-endian), i.e. basis state ``|b_{n-1} ... b_1 b_0>`` has
index ``sum_q b_q << q``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "I_POW",
    "bit_at",
    "set_bit",
    "flip_bit",
    "popcount",
    "count_set_bits",
    "insert_zero_bit",
    "insert_zero_bits",
    "parity_mask",
    "sign_vector",
    "basis_indices",
    "xor_indices",
    "sector_indices",
    "sector_of",
    "sector_partners",
    "clear_index_tables",
]

# Powers of i indexed mod 4 — the phase table of P(x, z) = i^{|x&z|} X^x Z^z.
# Single shared definition; every module that used to carry its own copy
# (ir.pauli, sim.batched, hpc.distributed) imports this one.
I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def bit_at(index: int, position: int) -> int:
    """Return bit ``position`` of ``index`` (0 or 1)."""
    return (index >> position) & 1


def set_bit(index: int, position: int, value: int) -> int:
    """Return ``index`` with bit ``position`` forced to ``value``."""
    if value:
        return index | (1 << position)
    return index & ~(1 << position)


def flip_bit(index: int, position: int) -> int:
    """Return ``index`` with bit ``position`` flipped."""
    return index ^ (1 << position)


def popcount(v: int) -> int:
    """Population count of a Python int (the scalar fast path).

    The term-algebra loops (products, commutators) call this on dict
    keys millions of times during downfolding; keeping it free of the
    ndarray dispatch in :func:`count_set_bits` matters there.
    """
    return v.bit_count() if hasattr(int, "bit_count") else bin(v).count("1")


def count_set_bits(x: "int | np.ndarray") -> "int | np.ndarray":
    """Population count for a Python int or an integer ndarray.

    For ndarrays this is fully vectorized (used for Pauli-Z parity
    evaluation over all 2^n basis indices at once).
    """
    if isinstance(x, np.ndarray):
        # SWAR popcount on uint64; exact for indices < 2^63 which covers
        # any simulable register size.
        v = x.astype(np.uint64, copy=True)
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        h01 = np.uint64(0x0101010101010101)
        v -= (v >> np.uint64(1)) & m1
        v = (v & m2) + ((v >> np.uint64(2)) & m2)
        v = (v + (v >> np.uint64(4))) & m4
        return ((v * h01) >> np.uint64(56)).astype(np.int64)
    return int(x).bit_count() if hasattr(int, "bit_count") else bin(int(x)).count("1")


def insert_zero_bit(indices: np.ndarray, position: int) -> np.ndarray:
    """Insert a 0 bit at ``position`` into every index of ``indices``.

    Maps ``k`` in ``[0, 2^(n-1))`` to the index in ``[0, 2^n)`` whose
    bit ``position`` is zero and whose remaining bits are ``k``.  This
    is the core addressing step for single-qubit gate kernels: the set
    ``insert_zero_bit(arange(2^(n-1)), q)`` enumerates all amplitudes
    with qubit ``q`` in state |0>.
    """
    low_mask = (1 << position) - 1
    low = indices & low_mask
    high = (indices >> position) << (position + 1)
    return high | low


def insert_zero_bits(indices: np.ndarray, positions: "list[int]") -> np.ndarray:
    """Insert 0 bits at each of ``positions`` (ascending order required)."""
    out = indices
    for p in sorted(positions):
        out = insert_zero_bit(out, p)
    return out


def parity_mask(indices: np.ndarray, mask: int) -> np.ndarray:
    """Parity (0/1) of ``indices & mask``, vectorized.

    Used to evaluate the +/-1 eigenvalue pattern of a Z-type Pauli
    string over all basis states in one shot.
    """
    return (count_set_bits(indices & mask) & 1).astype(np.int64)


def sign_vector(z_mask: int, num_qubits: int) -> np.ndarray:
    """The +/-1 eigenvalue pattern of ``Z^z`` over all 2^n basis states:
    ``sign_vector(z, n)[k] = (-1)^parity(k & z)`` (float64)."""
    idx = basis_indices(num_qubits)
    return 1.0 - 2.0 * (count_set_bits(idx & z_mask) & 1)


# -- cached index tables ------------------------------------------------------
#
# Process-wide LRU caches: each table is built once per (register width,
# mask or target qubits).  Returned arrays are marked read-only — callers
# must treat them as shared immutable state.  The rotation and Pauli
# kernels gather through `basis_indices` / `xor_indices`; the static gate
# kernels (`repro.sim.kernels`) address amplitudes through strided views
# and use no table.


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=512)
def basis_indices(num_qubits: int) -> np.ndarray:
    """Read-only ``np.arange(2^n, dtype=int64)`` — the full basis-index
    table used by Pauli application and diagonal expectation."""
    return _frozen(np.arange(1 << num_qubits, dtype=np.int64))


@lru_cache(maxsize=128)
def xor_indices(num_qubits: int, x_mask: int) -> np.ndarray:
    """Read-only gather table ``i ^ x_mask`` over all 2^n basis indices
    (the partner of every amplitude under an x-mask); LRU-shared by the
    rotation steps of every plan and generator with that mask."""
    return _frozen(basis_indices(num_qubits) ^ x_mask)


# every even bit: the alpha spin orbitals of the interleaved convention
_ALPHA_BITS = int("01" * 31, 2)


def sector_indices(
    num_qubits: int, num_particles: "int | None" = None, sz: "float | None" = None
) -> np.ndarray:
    """Read-only sorted basis-state indices with the given particle
    number and S_z (either may be ``None``: no constraint).

    Interleaved spin convention: even qubits are alpha, odd are beta;
    ``sz`` is (n_alpha - n_beta) / 2.  One array per sector, however
    the arguments are spelled, is shared by the FCI block, the execution
    plan and the compiled observable.
    """
    return _sector_indices(num_qubits, num_particles, sz)


@lru_cache(maxsize=64)
def _sector_indices(num_qubits: int, num_particles, sz) -> np.ndarray:
    if num_particles is not None and not 0 <= num_particles <= num_qubits:
        raise ValueError(
            f"num_particles={num_particles} does not fit in "
            f"num_qubits={num_qubits} spin orbitals"
        )
    if sz is not None and 2 * sz != round(2 * sz):
        raise ValueError(f"sz={sz} is not a multiple of 1/2")
    idx = basis_indices(num_qubits)
    mask = np.ones(idx.shape[0], dtype=bool)
    if num_particles is not None:
        mask &= count_set_bits(idx) == num_particles
    if sz is not None:
        alpha = count_set_bits(idx & _ALPHA_BITS)
        beta = count_set_bits(idx & (_ALPHA_BITS << 1))
        mask &= (alpha - beta) == int(round(2 * sz))
    return _frozen(idx[mask])


def sector_of(num_qubits: int, index: int, z_masks: "tuple[int, ...]" = ()) -> np.ndarray:
    """:func:`sector_indices` of the (N, S_z) sector holding the basis
    state ``index``, filtered to the states with ``index``'s parity
    under every z-mask in ``z_masks`` (a Hamiltonian's Z2 symmetries,
    :func:`repro.ir.symplectic.find_z2_symmetries`).  One read-only
    array per (sector, parities), shared like :func:`sector_indices`."""
    alpha = popcount(index & _ALPHA_BITS)
    beta = popcount(index & (_ALPHA_BITS << 1))
    sector = (num_qubits, alpha + beta, (alpha - beta) / 2)
    if not z_masks:
        return sector_indices(*sector)
    return _parity_indices(*sector, tuple((s, popcount(index & s) & 1) for s in z_masks))


@lru_cache(maxsize=64)
def _parity_indices(num_qubits: int, num_particles: int, sz: float, parities) -> np.ndarray:
    idx = sector_indices(num_qubits, num_particles, sz)
    keep = np.ones(idx.size, dtype=bool)
    for s, p in parities:
        keep &= parity_mask(idx, s) == p
    return _frozen(idx[keep])


def sector_partners(index: np.ndarray, x_mask: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(partners, inside)`` over a sorted index set: ``partners[i]`` is
    the position of ``index[i] ^ x_mask`` in ``index``, or ``i`` itself
    where that basis state lies outside the set (``inside[i]`` False).
    A table of partners is what a kernel gathers through in place of
    ``xor_indices`` when the state holds only ``index``."""
    target = index ^ x_mask
    found = np.minimum(np.searchsorted(index, target), index.size - 1)
    inside = index[found] == target
    return np.where(inside, found, np.arange(index.size)), inside


def clear_index_tables() -> None:
    """Drop all cached index tables (frees memory after wide-register runs)."""
    basis_indices.cache_clear()
    xor_indices.cache_clear()
    _sector_indices.cache_clear()
    _parity_indices.cache_clear()
