"""Property tests for the packed symplectic Pauli engine and Z2
symmetries: engine kernels vs the per-term oracle loops
(``tests/pauli_oracle.py``), phase conventions, term order, GF(2)
linear algebra, and parity-set vs (N, S_z)-sector ground energies."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chem.fermion import FermionOperator
from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import (
    build_molecular_hamiltonian,
    synthetic_two_body_hamiltonian,
)
from repro.chem.mappings import map_fermion_operator, map_fermion_operators
from repro.chem.molecule import h2, h2o, lih
from repro.chem.reference import hartree_fock_bitstring, hartree_fock_state
from repro.chem.scf import run_rhf
from repro.chem.uccsd import uccsd_generators
from repro.ir import symplectic
from repro.ir.pauli import PauliString, PauliSum
from repro.ir.symplectic import (
    I_POW_ARR,
    SymplecticPauli,
    find_z2_symmetries,
    gf2_kernel,
    gf2_rref,
    pack_masks,
    pauli_mul_batch,
    popcount_words,
    unpack_masks,
)
from repro.utils.bitops import count_set_bits, sector_of
from tests.pauli_oracle import (
    commutator_per_term,
    dot_per_term,
    group_qwc_per_term,
    map_fermion_operator_per_term,
)
from tests.test_pauli import dense_from_label

coeffs = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def pauli_sums(draw, n=6, min_terms=1, max_terms=8):
    out = PauliSum.zero(n)
    for _ in range(draw(st.integers(min_terms, max_terms))):
        x = draw(st.integers(0, (1 << n) - 1))
        z = draw(st.integers(0, (1 << n) - 1))
        out.add_term(PauliString(n, x, z), draw(coeffs))
    return out


def _terms_close(a: PauliSum, b: PauliSum, atol=1e-9):
    keys = set(a.terms) | set(b.terms)
    return all(
        abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) < atol for k in keys
    )


# -- packing ------------------------------------------------------------------


class TestPacking:
    @given(
        st.integers(1, 140),
        st.lists(st.integers(0, (1 << 140) - 1), min_size=0, max_size=6),
    )
    def test_pack_unpack_round_trip(self, n, masks):
        masks = [m & ((1 << n) - 1) for m in masks]
        packed = pack_masks(masks, n)
        assert packed.shape == (len(masks), (n + 63) // 64)
        assert unpack_masks(packed) == masks

    @given(pauli_sums(n=6))
    def test_pauli_sum_round_trip(self, ps):
        symp = SymplecticPauli.from_pauli_sum(ps)
        back = symp.to_pauli_sum()
        assert _terms_close(ps, back)

    @given(pauli_sums(n=70, max_terms=5))
    def test_multiword_round_trip(self, ps):
        symp = SymplecticPauli.from_pauli_sum(ps)
        assert symp.num_words == 2
        assert _terms_close(ps, symp.to_pauli_sum())

    def test_labels_match_pauli_strings(self):
        ps = PauliSum.from_label_dict({"XZYI": 1.0, "IIXY": 2.0, "ZZZZ": 3.0})
        symp = ps.to_symplectic()
        expect = {p.label() for _, p in ps}
        assert set(symp.labels()) == expect


def _ascending(ps: PauliSum) -> bool:
    keys = list(ps.terms)
    return keys == sorted(keys)


# -- engine vs per-term oracle ------------------------------------------------


class TestEngineMatchesPerTerm:
    @given(pauli_sums(n=6), pauli_sums(n=6))
    def test_product(self, a, b):
        engine = a.dot(b)
        assert _terms_close(dot_per_term(a, b), engine)
        assert _ascending(engine)

    @given(pauli_sums(n=70, max_terms=5), pauli_sums(n=70, max_terms=5))
    def test_product_multiword(self, a, b):
        engine = a.dot(b)
        assert _terms_close(dot_per_term(a, b), engine)
        assert _ascending(engine)

    @given(pauli_sums(n=6), pauli_sums(n=6))
    def test_commutator(self, a, b):
        engine = a.commutator(b)
        assert _terms_close(commutator_per_term(a, b), engine)
        assert _ascending(engine)

    def test_commutator_across_sort_batches_and_buffer_growth(self, monkeypatch):
        """A join past ``_SORT_PAIRS`` pairs is summed in several sorts,
        its key buffer grown and refilled block by block: the sums still
        match the per-term oracle."""
        monkeypatch.setattr("repro.ir.symplectic._PAIR_CHUNK", 8)
        monkeypatch.setattr("repro.ir.symplectic._SORT_PAIRS", 40)
        a, b = _random_sum(60, seed=5), _random_sum(40, seed=6)
        engine = a.commutator(b)
        assert _terms_close(commutator_per_term(a, b), engine)
        assert _ascending(engine)

    def test_phase_convention_vs_pauli_string(self):
        rng = np.random.default_rng(7)
        n = 9
        for _ in range(200):
            x1, z1, x2, z2 = (int(v) for v in rng.integers(0, 1 << n, 4))
            phase, p3 = PauliString(n, x1, z1).mul(PauliString(n, x2, z2))
            x3, z3, c3 = pauli_mul_batch(
                pack_masks([x1], n),
                pack_masks([z1], n),
                np.array([1.0 + 0j]),
                pack_masks([x2], n),
                pack_masks([z2], n),
                np.array([1.0 + 0j]),
            )
            assert unpack_masks(x3) == [p3.x]
            assert unpack_masks(z3) == [p3.z]
            assert abs(c3[0] - phase) < 1e-12

    @given(pauli_sums(n=6, min_terms=2, max_terms=10))
    def test_dedup_collapses_duplicates(self, ps):
        symp = ps.to_symplectic()
        doubled = SymplecticPauli(
            6,
            np.concatenate([symp.x, symp.x]),
            np.concatenate([symp.z, symp.z]),
            np.concatenate([symp.coeffs, symp.coeffs]),
        ).dedup()
        assert _terms_close(
            PauliSum(6, doubled.to_terms_dict()), PauliSum(6, ps.terms) * 2.0
        )


class TestChopOnce:
    """``threshold`` chops the final sums, never a block's partial sums:
    with two-pair blocks every result term below is the sum of two
    pairs from different blocks, each under the threshold alone."""

    @staticmethod
    def _operands(n):
        """0.3 X_0 + 0.3 X_0 Z_{n-1} and Z_0 + Z_0 Z_{n-1}."""
        last = 1 << (n - 1)
        a = PauliSum(n, {(1, 0): 0.3, (1, last): 0.3}).to_symplectic()
        b = PauliSum(n, {(0, 1): 1.0, (0, 1 | last): 1.0}).to_symplectic()
        return a, b

    @pytest.mark.parametrize("n", [2, 40])  # one uint64 key / the column sort
    def test_commutator(self, monkeypatch, n):
        a, b = self._operands(n)
        exact = a.commutator(b).to_terms_dict()
        assert len(exact) == 2
        assert all(abs(abs(c) - 1.2) < 1e-12 for c in exact.values())
        monkeypatch.setattr("repro.ir.symplectic._PAIR_CHUNK", 2)
        chopped = a.commutator(b, threshold=1.08).to_terms_dict()
        assert set(chopped) == set(exact)

    @pytest.mark.parametrize("n", [2, 40])
    def test_product(self, monkeypatch, n):
        a, b = self._operands(n)
        exact = a.mul(b).to_terms_dict()
        assert len(exact) == 2
        assert all(abs(abs(c) - 0.6) < 1e-12 for c in exact.values())
        monkeypatch.setattr("repro.ir.symplectic._PAIR_CHUNK", 2)
        chopped = a.mul(b, threshold=0.5).to_terms_dict()
        assert set(chopped) == set(exact)


# -- operator protocol (scalar algebra) ---------------------------------------


class TestScalarProtocol:
    def setup_method(self):
        self.a = PauliSum.from_label_dict({"XY": 1.5, "ZI": -0.5j, "II": 2.0})

    def test_zero_scalar_gives_zero_sum(self):
        out = self.a * 0
        assert out.num_terms == 0
        assert out.num_qubits == self.a.num_qubits

    def test_scalar_scales_every_term(self):
        out = self.a * (2.0 - 1.0j)
        for key, c in self.a.terms.items():
            assert out.terms[key] == c * (2.0 - 1.0j)

    def test_rmul_matches_mul(self):
        assert (3.0 * self.a).terms == (self.a * 3.0).terms

    def test_truediv(self):
        out = self.a / 2.0
        for key, c in self.a.terms.items():
            assert abs(out.terms[key] - c / 2.0) < 1e-15

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            self.a / 0.0

    def test_simplify_merges_and_chops(self):
        ps = PauliSum.zero(2)
        ps.add_term(PauliString(2, 1, 0), 1.0)
        ps.add_term(PauliString(2, 1, 0), -1.0 + 1e-12)
        ps.add_term(PauliString(2, 0, 3), 0.5)
        out = ps.simplify(threshold=1e-9)
        assert out.terms == {(0, 3): 0.5}


# -- grouping -----------------------------------------------------------------


def _random_sum(n_terms, n=8, seed=3):
    rng = np.random.default_rng(seed)
    ps = PauliSum.zero(n)
    for _ in range(n_terms):
        ps.add_term(
            PauliString(
                n,
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 1 << n)),
            ),
            complex(rng.normal(), rng.normal()),
        )
    return ps


class TestQWCGrouping:
    @staticmethod
    def _keys(groups):
        return [[(p.x, p.z) for _, p in g] for g in groups]

    @pytest.mark.parametrize("n_terms", [20, 120])
    def test_groups_partition_and_commute(self, n_terms):
        ps = _random_sum(n_terms)
        groups = ps.group_qubitwise_commuting()
        assert self._keys(groups) == self._keys(group_qwc_per_term(ps))
        seen = []
        for g in groups:
            for _, p in g:
                seen.append((p.x, p.z))
            for i in range(len(g)):
                for j in range(i + 1, len(g)):
                    assert g[i][1].qubitwise_commutes_with(g[j][1])
        assert sorted(seen) == sorted(ps.terms.keys())

    def test_engine_matches_per_term_groups(self):
        """Same groups, same members, same order as the oracle — also
        when many terms tie on |coeff| and only the (x, z) order breaks
        the tie."""
        ps = _random_sum(150, seed=11)
        ties = PauliSum(8, {k: (1.0 if c.real > 0 else -1.0) for k, c in ps.terms.items()})
        for h in (ps, ties):
            assert self._keys(h.group_qubitwise_commuting()) == self._keys(
                group_qwc_per_term(h)
            )

    @given(pauli_sums(n=5, max_terms=24), st.randoms(use_true_random=False))
    def test_groups_ignore_insertion_order(self, ps, rnd):
        items = list(ps.terms.items())
        rnd.shuffle(items)
        shuffled = PauliSum(ps.num_qubits, dict(items))
        assert self._keys(shuffled.group_qubitwise_commuting()) == self._keys(
            ps.group_qubitwise_commuting()
        )


# -- the NumPy < 2 popcount fallback ------------------------------------------


def _algebra(a: PauliSum, b: PauliSum):
    """Product, commutator and QWC groups, with term order and values."""
    groups = [[(p.x, p.z, c) for c, p in g] for g in a.group_qubitwise_commuting()]
    return list(a.dot(b).terms.items()), list(a.commutator(b).terms.items()), groups


def test_count_set_bits_fallback_matches_native_popcount(monkeypatch):
    """NumPy < 2 has no ``bitwise_count``; the engine then popcounts with
    ``count_set_bits``.  Both give the same algebra, bit for bit, on LiH
    (n <= 32: the packed product) and on a 40-qubit pair (the unpacked
    row-matrix path)."""
    mh = build_molecular_hamiltonian(run_rhf(lih()))
    h = mh.to_qubit("jordan-wigner")
    a = PauliSum.zero(h.num_qubits)
    for _, gen in uccsd_generators(h.num_qubits, mh.num_electrons)[:8]:
        a = a + gen
    pairs = [(h, a), (_random_sum(60, n=40, seed=1), _random_sum(60, n=40, seed=2))]
    native = [_algebra(x, y) for x, y in pairs]
    monkeypatch.setattr(symplectic, "_popcount_elem", count_set_bits)
    assert [_algebra(x, y) for x, y in pairs] == native


# -- x-mask diagonals: Walsh-Hadamard vs the sign-matrix oracle ---------------


def sign_matrix_diagonals(symp: SymplecticPauli):
    """The full-range oracle: the terms x 2^n sign matrix per x-mask
    that ``x_mask_diagonals`` evaluated before it became a transform."""
    cols = np.arange(1 << symp.num_qubits, dtype=np.int64)
    xs = symp.x[:, 0].astype(np.int64)
    zs = symp.z[:, 0].astype(np.int64)
    weights = symp.coeffs * I_POW_ARR[popcount_words(symp.x & symp.z) % 4]
    masks = np.unique(xs)
    d = np.zeros((len(masks), cols.size), dtype=np.complex128)
    for m, x in enumerate(masks):
        sub = np.flatnonzero(xs == x)
        signs = 1.0 - 2.0 * (count_set_bits(cols[None, :] & zs[sub, None]) & 1)
        d[m] = weights[sub] @ signs
    return masks, d


@st.composite
def sized_symplectic(draw):
    """1-10 qubits, complex coefficients, repeated (x, z) rows allowed
    (a ``SymplecticPauli`` does not dedup) and few distinct x-masks, so
    several terms share a diagonal."""
    n = draw(st.integers(1, 10))
    top = (1 << n) - 1
    x_pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(x_pool), st.integers(0, top), coeffs),
            min_size=1,
            max_size=12,
        )
    )
    return SymplecticPauli(
        n,
        pack_masks([t[0] for t in terms], n),
        pack_masks([t[1] for t in terms], n),
        np.array([t[2] for t in terms]),
    )


class TestXMaskDiagonals:
    @given(sized_symplectic())
    def test_transform_matches_sign_matrix_oracle(self, symp):
        masks, d = symp.x_mask_diagonals()
        ref_masks, ref = sign_matrix_diagonals(symp)
        tol = 1e-12 * np.abs(symp.coeffs).sum()
        assert masks.tolist() == ref_masks.tolist() == sorted(set(symp.x_masks()))
        assert np.abs(d - ref).max() <= tol
        # the subset path, asked for every column, is the same function
        _, sub = symp.x_mask_diagonals(np.arange(1 << symp.num_qubits))
        assert np.abs(sub - ref).max() <= tol

    @pytest.mark.parametrize(
        "terms",
        [
            {"Y": 0.7},  # one qubit, one term
            {"I": 0.25, "Z": -1.5, "X": 0.5, "Y": 2.0},  # one qubit, every letter
            {"XYZI": 1.0 - 0.5j},  # a single term
            {"IIII": 0.3, "ZIZI": -1.1, "IZZZ": 0.4},  # x = 0 only
            {"XZYI": 1.0, "IIXY": 2.0j, "YYII": -0.5, "XZXI": 0.25, "ZZZZ": 3.0},
        ],
    )
    def test_label_conventions(self, terms):
        """(X|Z) <-> string: X sets x, Z sets z, Y sets both, leftmost
        letter = highest qubit.  ``d_x[k]`` is the matrix element
        ``<k ^ x| H |k>`` of the Kronecker-product matrix."""
        h = PauliSum.from_label_dict(terms)
        dense = sum(c * dense_from_label(lbl) for lbl, c in terms.items())
        masks, d = h.to_symplectic().x_mask_diagonals()
        k = np.arange(dense.shape[0])
        rebuilt = np.zeros_like(dense)
        for x, row in zip(masks.tolist(), d):
            rebuilt[k ^ x, k] = row
        np.testing.assert_allclose(rebuilt, dense, rtol=0, atol=1e-12)

    def test_zero_sum_has_no_masks(self):
        masks, d = SymplecticPauli.zero(3).x_mask_diagonals()
        assert masks.size == 0 and d.shape == (0, 8)

    def test_subset_path_transients_are_bounded(self):
        """600 Z-strings on 60 000 columns of a 20-qubit register: the
        sign matrix is built a few terms at a time (a fixed 512-term
        chunk would hold 245 MB per temporary)."""
        n, terms, width = 20, 600, 60_000
        rng = np.random.default_rng(5)
        symp = SymplecticPauli(
            n,
            np.zeros((terms, 1), dtype=np.uint64),
            rng.integers(0, 1 << n, size=(terms, 1)).astype(np.uint64),
            rng.standard_normal(terms),
        )
        cols = rng.choice(1 << n, size=width, replace=False)
        tracemalloc.start()
        try:
            masks, d = symp.x_mask_diagonals(cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert masks.tolist() == [0] and d.shape == (1, width)
        probe = cols[:50]
        signs = 1.0 - 2.0 * (count_set_bits(probe[None, :] & symp.z.astype(np.int64)) & 1)
        np.testing.assert_allclose(d[0, :50], symp.coeffs @ signs, rtol=0, atol=1e-9)


# -- GF(2) linear algebra -----------------------------------------------------


class TestGF2:
    @given(
        st.integers(2, 24),
        st.lists(st.integers(0, (1 << 24) - 1), min_size=1, max_size=10),
    )
    def test_kernel_orthogonal_and_rank_nullity(self, n, rows):
        rows = [r & ((1 << n) - 1) for r in rows]
        mat = pack_masks(rows, n)
        kernel = gf2_kernel(mat, n)
        _, pivots = gf2_rref(mat, n)
        assert len(kernel) == n - len(pivots)  # rank-nullity
        for k in unpack_masks(kernel) if len(kernel) else []:
            for r in rows:
                assert bin(k & r).count("1") % 2 == 0

    @given(
        st.integers(2, 16),
        st.lists(st.integers(1, (1 << 16) - 1), min_size=1, max_size=6),
    )
    def test_rref_preserves_row_space(self, n, rows):
        rows = [r & ((1 << n) - 1) for r in rows if r & ((1 << n) - 1)]
        if not rows:
            return
        rref, pivots = gf2_rref(pack_masks(rows, n), n)
        spans = unpack_masks(rref)
        # pivot columns are exclusive to their row, so reducing an
        # original row by each pivot bit must reach exactly zero
        for r in rows:
            acc = r
            for s, col in zip(spans, pivots):
                if acc & (1 << col):
                    acc ^= s
            assert acc == 0


# -- batched fermionic mapping ------------------------------------------------

ladder_ops = st.lists(
    st.tuples(st.integers(0, 5), st.booleans()), min_size=0, max_size=4
)


@st.composite
def fermion_operators(draw, max_terms=6):
    op = FermionOperator()
    for _ in range(draw(st.integers(0, max_terms))):
        op = op + FermionOperator.term(draw(ladder_ops), draw(coeffs))
    return op


@st.composite
def operator_lists(draw):
    """Lists that include the edge cases: empty operators, identity-only
    operators, and one whose terms all cancel once mapped
    (a+_2 a_2 + a_2 a+_2 - 1 = 0)."""
    special = st.sampled_from(
        [
            FermionOperator(),
            FermionOperator.identity(0.75),
            FermionOperator(
                {((2, True), (2, False)): 1.0, ((2, False), (2, True)): 1.0, (): -1.0}
            ),
        ]
    )
    return draw(st.lists(st.one_of(fermion_operators(), special), max_size=6))


class TestBatchedMapping:
    @pytest.mark.parametrize(
        "mapping", ["jordan-wigner", "parity", "bravyi-kitaev"]
    )
    @given(ops=operator_lists())
    def test_batched_matches_per_term(self, mapping, ops):
        """One ``map_fermion_operators`` call equals the oracle run per
        operator, element by element, and each element equals the
        one-element call, with terms in ascending (x, z) order."""
        batched = map_fermion_operators(ops, 6, mapping)
        assert len(batched) == len(ops)
        for op, qubit_op in zip(ops, batched):
            reference = map_fermion_operator_per_term(op, 6, mapping)
            assert _terms_close(reference, qubit_op, atol=1e-12)
            single = map_fermion_operator(op, 6, mapping)
            assert _terms_close(single, qubit_op, atol=1e-12)
            assert _ascending(qubit_op)

    @pytest.mark.parametrize("num_modes", [31, 70])
    def test_wide_registers_take_the_column_sort(self, num_modes):
        """Eight operators on 31 modes (62 mask bits + 3 owner bits) and
        on 70 (two words) do not fit one packed key; the column lexsort
        must give the same per-operator result."""
        top = num_modes - 1
        ops = [
            FermionOperator.term([(p, True), (q, False)], 0.5 + 0.1j * p)
            + FermionOperator.term([(q, True), (p, False)], 0.5 - 0.1j * p)
            for p, q in [(0, top), (1, top - 1), (top, 2), (5, 5), (3, 29)]
        ] + [
            FermionOperator(),
            FermionOperator.identity(-1.25),
            FermionOperator.term([(top, True), (top - 2, True), (1, False), (0, False)]),
        ]
        for mapping in ("jordan-wigner", "bravyi-kitaev"):
            batched = map_fermion_operators(ops, num_modes, mapping)
            for op, qubit_op in zip(ops, batched):
                reference = map_fermion_operator_per_term(op, num_modes, mapping)
                assert _terms_close(reference, qubit_op, atol=1e-12)
                assert _ascending(qubit_op)

    def test_out_of_range_orbital_names_the_operator(self):
        ops = [FermionOperator.term([(1, True)]), FermionOperator.term([(7, False)])]
        with pytest.raises(ValueError, match="operator 1 touches orbital 7"):
            map_fermion_operators(ops, 6)


# -- Z2 symmetries and the parity set ----------------------------------------


def _full_space(molecule):
    mh = build_molecular_hamiltonian(run_rhf(molecule))
    h = mh.to_qubit("jordan-wigner")
    return h, mh.num_electrons, hartree_fock_bitstring(h.num_qubits, mh.num_electrons)


class TestParitySet:
    """The Hamiltonian's Z-type Z2 symmetries narrow the reference's
    (N, S_z) sector to its parity class (``sector_of(..., z_masks)``)
    without moving the ground energy."""

    def test_h2_has_three_symmetries(self):
        h, ne, hf = _full_space(h2())
        masks = find_z2_symmetries(h)
        assert len(masks) >= 3
        assert sector_of(h.num_qubits, hf, masks).size == 2

    @pytest.mark.parametrize("name", ["lih", "h2o"])
    def test_parity_set_keeps_ground_energy(self, name):
        h, ne, hf = _full_space({"lih": lih, "h2o": h2o}[name]())
        masks = find_z2_symmetries(h)
        assert len(masks) >= 3
        index = sector_of(h.num_qubits, hf, masks)
        assert 3 * index.size <= sector_of(h.num_qubits, hf).size
        e_parity = np.linalg.eigvalsh(h.matrix_block(index, index))[0]
        assert abs(e_parity - exact_ground_energy(h, num_particles=ne, sz=0)) < 1e-8

    def test_hf_expectation_preserved(self):
        h, ne, hf = _full_space(h2())
        index = sector_of(h.num_qubits, hf, find_z2_symmetries(h))
        state = hartree_fock_state(h.num_qubits, ne)
        e_full = np.vdot(state, h.to_matrix() @ state).real
        e_block = h.matrix_block(index, index)[np.searchsorted(index, hf)] @ state[index]
        assert abs(e_full - e_block.real) < 1e-10

    def test_synthetic_has_spin_parity_symmetries(self):
        # Dense two-body integrals leave exactly the two spin-parity
        # symmetries (Z on all alpha qubits, Z on all beta qubits) —
        # the closed form behind counting.z2_symmetry_count.
        mh = synthetic_two_body_hamiltonian(3)
        h = mh.to_qubit("jordan-wigner")
        syms = find_z2_symmetries(h)
        n = h.num_qubits
        alpha = sum(1 << q for q in range(0, n, 2))
        beta = sum(1 << q for q in range(1, n, 2))
        # the kernel basis spans {alpha, beta}; any two independent
        # members of that span are an equivalent answer
        assert len(syms) == 2
        span = {0, alpha, beta, alpha ^ beta}
        assert all(s in span for s in syms)

    def test_parity_set_keeps_reference_parity(self):
        # every state of the set has the reference's parity under each
        # mask, and every sector state with those parities is in it
        sector = sector_of(6, 0b000011)
        got = sector_of(6, 0b000011, (0b010101, 0b000110))
        want = [i for i in sector.tolist()
                if bin(i & 0b010101).count("1") % 2 == 1
                and bin(i & 0b000110).count("1") % 2 == 1]
        assert got.tolist() == want and not got.flags.writeable
        assert sector_of(6, 0b000011, (0b010101, 0b000110)) is got

    def test_symmetry_breaking_generator_keeps_the_sector(self):
        from repro.ir.symplectic import parity_flips
        from repro.sim.plan import ExecutionPlan

        h, ne, hf = _full_space(lih())
        n, masks = h.num_qubits, find_z2_symmetries(h)
        gens = [a for _, a in uccsd_generators(n, ne)]
        breaking = [a for a in gens if all(parity_flips(a, masks))]
        keeping = [a for a in gens if not any(parity_flips(a, masks))]
        assert breaking and keeping and len(breaking) + len(keeping) == len(gens)
        reference = hartree_fock_state(n, ne)
        assert ExecutionPlan.from_generators(keeping, reference, masks).index is (
            sector_of(n, hf, masks))
        assert ExecutionPlan.from_generators(keeping[:2] + breaking[:1], reference, masks).index is (
            sector_of(n, hf))

    def test_symmetries_memoized_per_version(self):
        h = synthetic_two_body_hamiltonian(2).to_qubit("jordan-wigner")
        masks = find_z2_symmetries(h)
        assert find_z2_symmetries(h) is masks
        # a single X on qubit 0 flips one spin: breaks spin parity
        h.add_term(PauliString(h.num_qubits, x=1), 0.1)
        assert len(find_z2_symmetries(h)) < len(masks)
