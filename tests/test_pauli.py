"""Tests for the Pauli-string / Pauli-sum algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cache import CachedEnergyEvaluator
from repro.ir.circuit import Circuit
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliString, PauliSum
from repro.opt.gradient import AnsatzObjective
from repro.sim.batched import BatchedStatevectorSimulator
from repro.sim.evolution import GeneratorEvolution
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator
from repro.utils.linalg import random_statevector

I2 = np.eye(2, dtype=complex)
MX = np.array([[0, 1], [1, 0]], dtype=complex)
MY = np.array([[0, -1j], [1j, 0]], dtype=complex)
MZ = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": MX, "Y": MY, "Z": MZ}


def dense_from_label(label: str) -> np.ndarray:
    """Literal tensor product, label[0] = highest qubit."""
    out = np.eye(1, dtype=complex)
    for ch in label:
        out = np.kron(out, MATS[ch])
    return out


labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)


class TestPauliString:
    def test_label_roundtrip(self):
        for lbl in ["X", "IZ", "XYZ", "IIII", "YXZI"]:
            assert PauliString.from_label(lbl).label() == lbl

    def test_from_ops(self):
        p = PauliString.from_ops(3, {0: "X", 2: "Z"})
        assert p.label() == "ZIX"

    def test_invalid_char(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")

    @given(labels)
    def test_matrix_matches_tensor_product(self, lbl):
        p = PauliString.from_label(lbl)
        assert np.allclose(p.to_matrix(), dense_from_label(lbl))

    @given(labels)
    def test_hermitian(self, lbl):
        m = PauliString.from_label(lbl).to_matrix()
        assert np.allclose(m, m.conj().T)

    @given(labels, labels)
    def test_product_phase(self, a, b):
        n = max(len(a), len(b))
        a = a.rjust(n, "I")
        b = b.rjust(n, "I")
        pa, pb = PauliString.from_label(a), PauliString.from_label(b)
        phase, pc = pa.mul(pb)
        assert np.allclose(
            phase * pc.to_matrix(), dense_from_label(a) @ dense_from_label(b)
        )

    @given(labels, labels)
    def test_commutation_predicate(self, a, b):
        n = max(len(a), len(b))
        a, b = a.rjust(n, "I"), b.rjust(n, "I")
        pa, pb = PauliString.from_label(a), PauliString.from_label(b)
        ma, mb = dense_from_label(a), dense_from_label(b)
        commutes = np.allclose(ma @ mb, mb @ ma)
        assert pa.commutes_with(pb) == commutes

    def test_qubitwise_commutes(self):
        a = PauliString.from_label("XIZ")
        b = PauliString.from_label("XZI")
        c = PauliString.from_label("ZIZ")
        assert a.qubitwise_commutes_with(b)
        assert not a.qubitwise_commutes_with(c)

    @given(labels)
    def test_apply_matches_matrix(self, lbl):
        p = PauliString.from_label(lbl)
        state = random_statevector(len(lbl), np.random.default_rng(3))
        assert np.allclose(p.apply(state), p.to_matrix() @ state)

    @given(labels)
    def test_expectation_real(self, lbl):
        p = PauliString.from_label(lbl)
        state = random_statevector(len(lbl), np.random.default_rng(5))
        val = p.expectation(state)
        assert abs(val.imag) < 1e-10
        assert -1.0 - 1e-9 <= val.real <= 1.0 + 1e-9

    def test_support_and_weight(self):
        p = PauliString.from_label("XIYZ")
        assert p.support == (0, 1, 3)
        assert p.weight == 3
        assert not p.is_identity
        assert PauliString.identity(4).is_identity

    def test_diagonal(self):
        assert PauliString.from_label("ZIZ").is_diagonal
        assert not PauliString.from_label("XIZ").is_diagonal


_P3 = PauliString.from_label("XYZ")
_P4 = PauliString.from_label("XYZI")
_S3 = PauliSum.from_label_dict({"XYZ": 1.0, "ZZI": 0.5})
_S4 = PauliSum.from_label_dict({"XYZI": 1.0})
_S2 = PauliSum.from_label_dict({"XY": 1.0})
_A3 = PauliSum.from_label_dict({"XYI": 1j})
_STATE2 = np.zeros(4, dtype=np.complex128)  # a 2-qubit state for 3-qubit engines


@pytest.mark.parametrize(
    "bad_call, message",
    [
        (lambda: PauliString.from_ops(3, {0: "Q"}), "'Q' on qubit 0"),
        (lambda: PauliString.from_ops(3, {2: "x", 1: "?"}), "'\\?' on qubit 1"),
        (lambda: _P3.mul(_P4), "3 vs 4"),
        (lambda: PauliSum.zero(3).add_term(_P4, 1.0), "3 vs 4"),
        (lambda: _S3 + _S4, "3 vs 4"),
        (lambda: _S4 - _S3, "4 vs 3"),
        (lambda: _S3.dot(_S4), "3 vs 4"),
        (lambda: _S3.commutator(_S4), "3 vs 4"),
        (lambda: _S3.to_symplectic().mul(_S4.to_symplectic()), "3 vs 4"),
        (lambda: _P3.apply(_STATE2), "expected 8, got 4"),
        (lambda: _S3.apply(_STATE2), "expected 8, got 4"),
        (lambda: compile_observable(_S3).apply(_STATE2), "expected 8, got 4"),
        (lambda: compile_observable(_S3).expectation(_STATE2), "expected 8, got 4"),
        (lambda: GeneratorEvolution(_A3).apply(_STATE2, 0.1), "expected 8, got 4"),
        (
            lambda: StatevectorSimulator(3).set_state(_STATE2),
            r"expected shape \(8,\), got \(4,\)",
        ),
        (
            lambda: compile_circuit(Circuit(3).h(0)).execute(_STATE2.copy()),
            r"expected shape \(8,\), got \(4,\)",
        ),
        (
            lambda: BatchedStatevectorSimulator(3, 2).run(Circuit(2).h(0), {}),
            "expected 3 qubits, got 2",
        ),
        (
            lambda: BatchedStatevectorSimulator(3, 2).run_plan(
                compile_circuit(Circuit(2).h(0)), np.zeros((2, 0))
            ),
            "expected 3 qubits, got 2",
        ),
        (lambda: BatchedStatevectorSimulator(3, 2).expectations(_S2), "expected 3 qubits, got 2"),
        (lambda: CachedEnergyEvaluator(Circuit(3).h(0), _S2), "ansatz has 3 qubits, observable 2"),
        (
            lambda: AnsatzObjective(np.eye(8)[0], [_A3], _S3).prepare_state([0.1, 0.2]),
            "expected 1, got 2",
        ),
    ],
    ids=[
        "from_ops",
        "from_ops-second-letter",
        "PauliString.mul",
        "add_term",
        "add",
        "sub",
        "dot",
        "commutator",
        "SymplecticPauli.mul",
        "PauliString.apply",
        "PauliSum.apply",
        "CompiledPauliSum.apply",
        "CompiledPauliSum.expectation",
        "GeneratorEvolution.apply",
        "StatevectorSimulator.set_state",
        "ExecutionPlan.execute",
        "BatchedStatevectorSimulator.run",
        "BatchedStatevectorSimulator.run_plan",
        "BatchedStatevectorSimulator.expectations",
        "CachedEnergyEvaluator",
        "AnsatzObjective.prepare_state",
    ],
)
def test_bad_input_names_itself(bad_call, message):
    """A bad Pauli letter names the letter and its qubit; a width or
    dimension mismatch states the expected and the received size."""
    with pytest.raises(ValueError, match=message):
        bad_call()


class TestPauliSum:
    def test_add_collapses(self):
        h = PauliSum.from_label_dict({"XX": 1.0, "ZZ": 2.0})
        g = PauliSum.from_label_dict({"XX": -1.0})
        s = h + g
        assert s.num_terms == 1
        assert s.coefficient(PauliString.from_label("ZZ")) == 2.0

    def test_scalar_mul(self):
        h = PauliSum.from_label_dict({"XY": 2.0})
        assert (h * 0.5).coefficient(PauliString.from_label("XY")) == 1.0

    @given(labels, labels)
    def test_dot_matches_dense(self, a, b):
        n = max(len(a), len(b))
        a, b = a.rjust(n, "I"), b.rjust(n, "I")
        ha = PauliSum.from_label_dict({a: 1.5})
        hb = PauliSum.from_label_dict({b: -0.5j})
        prod = ha.dot(hb)
        assert np.allclose(
            prod.to_matrix(),
            1.5 * dense_from_label(a) @ (-0.5j * dense_from_label(b)),
        )

    def test_commutator_matches_dense(self):
        h = PauliSum.from_label_dict({"XX": 1.0, "ZI": 0.5, "IY": -0.25})
        g = PauliSum.from_label_dict({"ZZ": 0.7, "XI": 0.2})
        comm = h.commutator(g)
        mh, mg = h.to_matrix(), g.to_matrix()
        assert np.allclose(comm.to_matrix(), mh @ mg - mg @ mh)

    def test_commutator_of_commuting_is_zero(self):
        h = PauliSum.from_label_dict({"ZZ": 1.0})
        g = PauliSum.from_label_dict({"ZI": 2.0, "IZ": -1.0})
        assert h.commutator(g).num_terms == 0

    def test_hermiticity_checks(self):
        h = PauliSum.from_label_dict({"XX": 1.0, "ZZ": -0.5})
        assert h.is_hermitian()
        a = PauliSum.from_label_dict({"XY": 1j})
        assert a.is_anti_hermitian()
        assert not a.is_hermitian()

    def test_apply_and_expectation(self, rng):
        h = PauliSum.from_label_dict({"XX": 1.0, "ZZ": 1.0, "II": 0.5})
        state = random_statevector(2, rng)
        dense = h.to_matrix()
        assert np.allclose(h.apply(state), dense @ state)
        assert np.isclose(
            h.expectation(state).real, np.vdot(state, dense @ state).real
        )

    def test_ground_energy_small(self):
        # H = Z has ground energy -1.
        h = PauliSum.from_label_dict({"Z": 1.0})
        assert np.isclose(h.ground_energy(), -1.0)

    def test_ground_energy_sparse_path(self):
        # 7 qubits forces the eigsh path; transverse-field-free Ising chain
        # ZZ couplings with all -1 coefficients: ground energy = -(n-1).
        n = 7
        terms = {}
        for i in range(n - 1):
            lbl = ["I"] * n
            lbl[n - 1 - i] = "Z"
            lbl[n - 2 - i] = "Z"
            terms["".join(lbl)] = -1.0
        h = PauliSum.from_label_dict(terms)
        assert np.isclose(h.ground_energy(), -(n - 1))

    def test_chop(self):
        h = PauliSum.from_label_dict({"XX": 1.0, "ZZ": 1e-15})
        assert h.chop(1e-12).num_terms == 1

    def test_grouping_covers_all_terms(self):
        h = PauliSum.from_label_dict(
            {"XX": 1.0, "ZZ": 0.5, "XI": 0.3, "IZ": 0.2, "YY": -0.1}
        )
        groups = h.group_qubitwise_commuting()
        total_terms = sum(len(g) for g in groups)
        assert total_terms == h.num_terms
        for group in groups:
            for i, (_, a) in enumerate(group):
                for _, b in group[i + 1:]:
                    assert a.qubitwise_commutes_with(b)

    def test_norm1(self):
        h = PauliSum.from_label_dict({"XX": 3.0, "ZZ": -4.0})
        assert h.norm1() == 7.0


# -- <rows|H|cols> straight from the symplectic form -------------------------

block_coeffs = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def sums_with_index_sets(draw):
    """A 2-8 qubit sum (complex coefficients, Y-containing strings) with
    two independent index subsets: rectangular and empty blocks included."""
    n = draw(st.integers(2, 8))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.dictionaries(label, block_coeffs, min_size=1, max_size=6))
    index = st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=12)
    return terms, draw(index), draw(index)


def dense_from_terms(terms) -> np.ndarray:
    """The reference: per-string Kronecker products, summed."""
    return sum(c * dense_from_label(lbl) for lbl, c in terms.items())


class TestMatrixBlock:
    @given(sums_with_index_sets())
    def test_block_matches_kronecker_reference(self, case):
        terms, rows, cols = case
        block = PauliSum.from_label_dict(terms).matrix_block(rows, cols)
        assert block.shape == (len(rows), len(cols))
        expected = dense_from_terms(terms)[np.ix_(rows, cols)]
        assert np.allclose(block.toarray(), expected, atol=1e-12)

    @given(sums_with_index_sets())
    def test_to_sparse_matches_kronecker_reference(self, case):
        terms, _, _ = case
        got = PauliSum.from_label_dict(terms).to_sparse()
        assert np.allclose(got.toarray(), dense_from_terms(terms), atol=1e-12)

    def test_empty_sum_and_empty_index_sets(self):
        assert PauliSum.zero(3).to_sparse().nnz == 0
        h = PauliSum.from_label_dict({"XY": 1.0, "ZI": -0.5j})
        assert h.matrix_block([], [0, 3]).shape == (0, 2)
        assert h.matrix_block([1, 2], []).shape == (2, 0)

    def test_sector_block_of_a_wide_register(self):
        """40 qubits: only O(terms x len(cols)) work, nothing 2^n-sized."""
        n = 40
        hop = PauliSum(n, {(0b11 << 38, 0): 0.5, (0b11 << 38, 0b11 << 38): 0.5})
        lo, hi = 1 << 38, 1 << 39
        block = hop.matrix_block([lo, hi], [lo, hi]).toarray()
        assert np.allclose(block, [[0, 1], [1, 0]])

    def test_bad_index_arrays_are_named(self):
        h = PauliSum.from_label_dict({"XX": 1.0})
        with pytest.raises(ValueError, match="rows holds a repeated"):
            h.matrix_block([1, 1], [0])
        with pytest.raises(ValueError, match="cols holds basis indices outside"):
            h.matrix_block([0], [4])
        with pytest.raises(ValueError, match="rows must be a 1-D"):
            h.matrix_block([[0, 1]], [0])
