"""Shared utilities: bit manipulation, linear algebra helpers, retries,
atomic file writes."""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "retry": ["RetryExhaustedError", "RetryPolicy", "RetryStats"],
        "files": ["atomic_write"],
        "bitops": ["bit_at", "count_set_bits", "flip_bit", "insert_zero_bit", "set_bit"],
        "linalg": [
            "is_hermitian",
            "is_unitary",
            "kron_all",
            "random_statevector",
            "random_unitary",
        ],
    },
)
