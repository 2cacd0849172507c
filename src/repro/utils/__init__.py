"""Shared utilities: bit manipulation, linear algebra helpers, retries."""

from repro.utils.bitops import (
    bit_at,
    count_set_bits,
    flip_bit,
    insert_zero_bit,
    set_bit,
)
from repro.utils.linalg import (
    is_hermitian,
    is_unitary,
    kron_all,
    random_statevector,
    random_unitary,
)
from repro.utils.retry import RetryExhaustedError, RetryPolicy, RetryStats

__all__ = [
    "RetryExhaustedError",
    "RetryPolicy",
    "RetryStats",
    "bit_at",
    "count_set_bits",
    "flip_bit",
    "insert_zero_bit",
    "set_bit",
    "is_hermitian",
    "is_unitary",
    "kron_all",
    "random_statevector",
    "random_unitary",
]
