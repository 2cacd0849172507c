"""Property-based correctness of the compiled-observable engine.

The x-mask-batched :class:`repro.ir.compiled.CompiledPauliSum` must be
numerically indistinguishable (to 1e-12) from the naive one-pass-per-
term reference on random observables and random states, and the caches
layered on :class:`PauliSum` (compiled form, qubit-wise-commuting
grouping) must invalidate exactly when the sum mutates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.compiled import CompiledPauliSum, compile_observable
from repro.ir.pauli import PauliString, PauliSum
from repro.sim.batched import BatchedStatevectorSimulator
from repro.utils.bitops import basis_indices
from repro.utils.linalg import random_statevector

coeffs = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def sized_pauli_sums(draw, min_qubits=2, max_qubits=8, max_terms=8):
    n = draw(st.integers(min_qubits, max_qubits))
    out = PauliSum.zero(n)
    for _ in range(draw(st.integers(1, max_terms))):
        x = draw(st.integers(0, (1 << n) - 1))
        z = draw(st.integers(0, (1 << n) - 1))
        out.add_term(PauliString(n, x, z), draw(coeffs))
    return out


def naive_apply(h: PauliSum, state: np.ndarray) -> np.ndarray:
    """Reference H @ state: one PauliString application per term."""
    out = np.zeros_like(state, dtype=np.complex128)
    for (x, z), c in h.terms.items():
        out += c * PauliString(h.num_qubits, x, z).apply(state)
    return out


def hermitized(h: PauliSum) -> PauliSum:
    return h + PauliSum(
        h.num_qubits, {k: v.conjugate() for k, v in h.terms.items()}
    )


# -- compiled numerics vs the per-term reference ----------------------------


class TestCompiledMatchesNaive:
    @given(sized_pauli_sums(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_apply(self, h, seed):
        state = random_statevector(h.num_qubits, np.random.default_rng(seed))
        compiled = CompiledPauliSum(h)
        assert np.allclose(compiled.apply(state), naive_apply(h, state), atol=1e-12)

    @given(sized_pauli_sums(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_expectation(self, h, seed):
        state = random_statevector(h.num_qubits, np.random.default_rng(seed))
        expected = complex(np.vdot(state, naive_apply(h, state)))
        got = CompiledPauliSum(h).expectation(state)
        assert abs(got - expected) < 1e-12

    @given(sized_pauli_sums(max_qubits=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_batched_expectations(self, h, seed):
        rng = np.random.default_rng(seed)
        states = np.stack(
            [random_statevector(h.num_qubits, rng) for _ in range(3)]
        )
        got = CompiledPauliSum(h).expectations(states)
        for b in range(states.shape[0]):
            expected = complex(np.vdot(states[b], naive_apply(h, states[b])))
            assert abs(got[b] - expected) < 1e-12

    @given(sized_pauli_sums(max_qubits=5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_batched_simulator_expectations(self, h, seed):
        """BatchedStatevectorSimulator.expectations == per-row naive."""
        herm = hermitized(h)
        rng = np.random.default_rng(seed)
        sim = BatchedStatevectorSimulator(h.num_qubits, batch_size=4)
        for b in range(sim.batch_size):
            sim.states[b] = random_statevector(h.num_qubits, rng)
        got = sim.expectations(herm)
        assert got.dtype == np.float64
        for b in range(sim.batch_size):
            expected = np.vdot(sim.states[b], naive_apply(herm, sim.states[b]))
            assert abs(got[b] - expected.real) < 1e-12

    @given(sized_pauli_sums())
    @settings(max_examples=40)
    def test_pass_count_never_exceeds_terms(self, h):
        compiled = CompiledPauliSum(h)
        assert 1 <= compiled.num_passes <= h.num_terms
        distinct_x = {x for (x, _z) in h.terms.keys()}
        assert compiled.num_passes == len(distinct_x)

    def test_empty_sum(self):
        h = PauliSum.zero(3)
        compiled = CompiledPauliSum(h)
        state = random_statevector(3, np.random.default_rng(0))
        assert compiled.num_passes == 0
        assert np.allclose(compiled.apply(state), 0.0)
        assert compiled.expectation(state) == 0.0

    def test_diagonal_only_is_gather_free(self):
        h = PauliSum.zero(4)
        h.add_term(PauliString(4, 0, 0b0101), 0.5)
        h.add_term(PauliString(4, 0, 0b1010), -1.25)
        compiled = CompiledPauliSum(h)
        assert compiled.is_diagonal
        assert compiled.num_passes == 1
        assert compiled.gathers == [None]
        state = random_statevector(4, np.random.default_rng(1))
        assert np.allclose(compiled.apply(state), naive_apply(h, state), atol=1e-12)


# -- compile_observable memoization ------------------------------------------


class TestCompileCache:
    def test_cache_identity_on_repeat(self):
        h = PauliSum.zero(3)
        h.add_term(PauliString(3, 0b001, 0b010), 1.0)
        first = compile_observable(h)
        assert compile_observable(h) is first

    def test_compiled_passthrough(self):
        h = PauliSum.zero(2)
        h.add_term(PauliString(2, 0b01, 0b00), 1.0)
        compiled = compile_observable(h)
        assert compile_observable(compiled) is compiled

    def test_add_term_invalidates(self):
        h = PauliSum.zero(3)
        h.add_term(PauliString(3, 0b001, 0b000), 1.0)
        stale = compile_observable(h)
        h.add_term(PauliString(3, 0b110, 0b011), 0.5)
        fresh = compile_observable(h)
        assert fresh is not stale
        state = random_statevector(3, np.random.default_rng(2))
        assert np.allclose(fresh.apply(state), naive_apply(h, state), atol=1e-12)

    def test_chop_invalidates_when_terms_die(self):
        h = PauliSum.zero(3)
        h.add_term(PauliString(3, 0b001, 0b000), 1.0)
        h.add_term(PauliString(3, 0b010, 0b001), 1e-14)
        stale = compile_observable(h)
        h.chop(1e-10)
        fresh = compile_observable(h)
        assert fresh is not stale
        assert fresh.num_terms == 1

    def test_noop_chop_keeps_cache(self):
        h = PauliSum.zero(3)
        h.add_term(PauliString(3, 0b001, 0b000), 1.0)
        first = compile_observable(h)
        h.chop(1e-10)  # removes nothing
        assert compile_observable(h) is first

    @given(sized_pauli_sums(max_qubits=5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_mutate_recompile_matches_naive(self, h, seed):
        rng = np.random.default_rng(seed)
        compile_observable(h)  # populate the cache, then mutate
        x = int(rng.integers(0, 1 << h.num_qubits))
        z = int(rng.integers(0, 1 << h.num_qubits))
        h.add_term(PauliString(h.num_qubits, x, z), 0.75 - 0.25j)
        state = random_statevector(h.num_qubits, rng)
        got = compile_observable(h).apply(state)
        assert np.allclose(got, naive_apply(h, state), atol=1e-12)


# -- grouping memoization -----------------------------------------------------


class TestGroupingMemoization:
    def _sum(self):
        h = PauliSum.zero(3)
        h.add_term(PauliString(3, 0b001, 0b000), 1.0)
        h.add_term(PauliString(3, 0b000, 0b011), -0.5)
        h.add_term(PauliString(3, 0b100, 0b100), 0.25)
        return h

    def test_memoized_same_object(self):
        h = self._sum()
        assert h.group_qubitwise_commuting() is h.group_qubitwise_commuting()

    def test_add_term_recomputes_with_new_term(self):
        h = self._sum()
        stale = h.group_qubitwise_commuting()
        h.add_term(PauliString(3, 0b111, 0b111), 2.0)
        fresh = h.group_qubitwise_commuting()
        assert fresh is not stale
        keys = {(p.x, p.z) for g in fresh for _, p in g}
        assert (0b111, 0b111) in keys
        assert sum(len(g) for g in fresh) == h.num_terms

    def test_chop_recomputes_without_dead_term(self):
        h = self._sum()
        h.add_term(PauliString(3, 0b011, 0b110), 1e-14)
        stale = h.group_qubitwise_commuting()
        h.chop(1e-10)
        fresh = h.group_qubitwise_commuting()
        assert fresh is not stale
        keys = {(p.x, p.z) for g in fresh for _, p in g}
        assert (0b011, 0b110) not in keys

    @given(sized_pauli_sums(max_qubits=5))
    @settings(max_examples=40)
    def test_version_counter_monotone(self, h):
        v0 = h.version
        h.add_term(PauliString(h.num_qubits, 0, 1), 0.1)
        assert h.version > v0


# -- cached index tables -----------------------------------------------------


class TestIndexTableCache:
    def test_basis_indices_cached_and_frozen(self):
        a = basis_indices(6)
        assert a is basis_indices(6)
        assert not a.flags.writeable
        assert np.array_equal(a, np.arange(64))
