"""Tests for the utility layer: bit operations and linear algebra
helpers."""


import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import (
    bit_at,
    count_set_bits,
    flip_bit,
    insert_zero_bit,
    insert_zero_bits,
    parity_mask,
    set_bit,
)
from repro.utils.linalg import (
    fidelity,
    global_phase_aligned,
    is_hermitian,
    is_unitary,
    kron_all,
    random_statevector,
    random_unitary,
)


class TestBitops:
    @given(st.integers(0, 2**20), st.integers(0, 19))
    def test_bit_roundtrip(self, x, pos):
        assert bit_at(set_bit(x, pos, 1), pos) == 1
        assert bit_at(set_bit(x, pos, 0), pos) == 0
        assert flip_bit(flip_bit(x, pos), pos) == x

    @given(st.integers(0, 2**40))
    def test_popcount_scalar(self, x):
        assert count_set_bits(x) == bin(x).count("1")

    def test_popcount_vectorized(self):
        xs = np.array([0, 1, 3, 7, 255, 2**33 - 1], dtype=np.int64)
        got = count_set_bits(xs)
        expected = [bin(int(x)).count("1") for x in xs]
        assert list(got) == expected

    @given(st.integers(0, 2**10 - 1), st.integers(0, 10))
    def test_insert_zero_bit(self, k, pos):
        out = int(insert_zero_bit(np.array([k], dtype=np.int64), pos)[0])
        assert bit_at(out, pos) == 0
        # removing the inserted bit recovers k
        low = out & ((1 << pos) - 1)
        high = out >> (pos + 1)
        assert (high << pos) | low == k

    def test_insert_zero_bits_enumerates_groups(self):
        # inserting zeros at {0, 2} over arange(4) gives indices with
        # bits 0 and 2 cleared, covering each group exactly once
        out = insert_zero_bits(np.arange(4, dtype=np.int64), [0, 2])
        assert sorted(out) == [0b0000, 0b0010, 0b1000, 0b1010]

    def test_parity_mask(self):
        idx = np.arange(8, dtype=np.int64)
        par = parity_mask(idx, 0b101)
        expected = [bin(i & 0b101).count("1") % 2 for i in range(8)]
        assert list(par) == expected


class TestLinalg:
    def test_random_unitary_is_unitary(self, rng):
        for dim in (2, 4, 8):
            assert is_unitary(random_unitary(dim, rng))

    def test_is_hermitian(self):
        assert is_hermitian(np.array([[1, 1j], [-1j, 2]]))
        assert not is_hermitian(np.array([[0, 1], [0, 0]]))
        assert not is_hermitian(np.ones((2, 3)))

    def test_random_statevector_normalized(self, rng):
        v = random_statevector(5, rng)
        assert np.isclose(np.linalg.norm(v), 1.0)

    def test_kron_all(self):
        x = np.array([[0, 1], [1, 0]])
        assert np.allclose(kron_all([x, x]), np.kron(x, x))
        assert np.allclose(kron_all([]), np.eye(1))

    def test_fidelity(self, rng):
        v = random_statevector(3, rng)
        assert np.isclose(fidelity(v, v), 1.0)
        w = random_statevector(3, rng)
        assert 0.0 <= fidelity(v, w) <= 1.0

    def test_global_phase_aligned(self, rng):
        v = random_statevector(3, rng)
        assert global_phase_aligned(v, v * np.exp(0.7j))
        w = random_statevector(3, rng)
        assert not global_phase_aligned(v, w)
