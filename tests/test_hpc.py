"""Tests for the HPC substrate: communicator, distributed statevector,
performance model, and batch scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hpc.cluster import MACHINES, get_machine
from repro.hpc.comm import SimComm
from repro.hpc.distributed import DistributedStatevector
from repro.hpc.perfmodel import (
    count_exchanges,
    count_expectation_exchanges,
    estimate_circuit_time,
    max_qubits_for_memory,
    strong_scaling_curve,
    weak_scaling_curve,
)
from repro.hpc.scheduler import BatchScheduler, Job
from repro.ir.circuit import Circuit
from repro.ir.compiled import compile_observable
from repro.ir.gates import Parameter
from repro.ir.pauli import PauliString, PauliSum
from repro.sim.expectation import expectation_direct
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator
from tests.test_statevector import random_circuit


class TestSimComm:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            SimComm(3)

    def test_exchange_symmetric(self):
        comm = SimComm(2)
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        out = comm.exchange([a, b], [1, 0])
        assert np.array_equal(out[0], b)
        assert np.array_equal(out[1], a)
        assert comm.stats.point_to_point_messages == 2
        assert comm.stats.point_to_point_bytes == a.nbytes + b.nbytes

    def test_asymmetric_rejected(self):
        comm = SimComm(4)
        bufs = [np.zeros(1)] * 4
        with pytest.raises(ValueError):
            comm.exchange(bufs, [1, 2, 3, 0])  # not an involution

    def test_self_partner_free(self):
        comm = SimComm(2)
        a = np.array([1.0])
        out = comm.exchange([a, None], [0, 1])
        assert np.array_equal(out[0], a)
        assert comm.stats.point_to_point_bytes == 0

    def test_allreduce(self):
        comm = SimComm(4)
        assert comm.allreduce([1, 2, 3, 4]) == 10
        assert comm.stats.allreduce_calls == 1
        assert comm.stats.allreduce_bytes > 0

    def test_gather(self):
        comm = SimComm(2)
        out = comm.gather([np.array([1.0]), np.array([2.0])])
        assert np.array_equal(out, [1.0, 2.0])


class TestDistributedStatevector:
    def test_power_of_two_ranks(self):
        with pytest.raises(ValueError):
            DistributedStatevector(6, 3)

    def test_minimum_local_qubits(self):
        with pytest.raises(ValueError):
            DistributedStatevector(4, 8)  # would leave 1 local qubit

    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_serial(self, ranks, seed):
        n = 6
        c = random_circuit(n, 35, seed)
        ref = StatevectorSimulator(n).run(c).copy()
        d = DistributedStatevector(n, ranks)
        d.run(c)
        assert np.allclose(d.gather(), ref, atol=1e-9)

    def test_norm_preserved(self):
        d = DistributedStatevector(6, 4)
        d.run(random_circuit(6, 40, 3))
        assert np.isclose(d.norm(), 1.0, atol=1e-9)

    def test_local_gates_no_communication(self):
        """Gates on initially-local qubits must not communicate."""
        d = DistributedStatevector(6, 4)  # local qubits 0..3
        c = Circuit(6).h(0).cx(0, 1).rz(0.3, 2).cx(2, 3)
        d.run(c)
        assert d.exchanges == 0
        assert d.comm.stats.point_to_point_bytes == 0

    def test_global_gate_communicates(self):
        d = DistributedStatevector(6, 4)  # qubits 4, 5 are global
        d.run(Circuit(6).h(5))
        assert d.exchanges == 1
        assert d.comm.stats.point_to_point_bytes > 0

    def test_relocation_amortized(self):
        """Repeated gates on a relocated qubit pay once."""
        d = DistributedStatevector(6, 4)
        d.run(Circuit(6).h(5).rz(0.1, 5).rz(0.2, 5).h(5))
        assert d.exchanges == 1

    def test_expectation_matches_serial(self):
        n = 6
        c = random_circuit(n, 30, 7)
        h = PauliSum.from_label_dict(
            {"XXIIII": 0.5, "IZZIII": -1.2, "YIIYII": 0.3,
             "ZIIIIZ": 0.9, "IIXZII": 0.4, "IIIIII": 0.25}
        )
        ref_state = StatevectorSimulator(n).run(c).copy()
        e_ref = expectation_direct(ref_state, h)
        for ranks in (1, 2, 4):
            d = DistributedStatevector(n, ranks)
            d.run(c)
            assert np.isclose(d.expectation(h), e_ref, atol=1e-9)

    def test_memory_per_rank(self):
        d = DistributedStatevector(10, 4)
        assert d.memory_per_rank_bytes() == (1 << 8) * 16

    def test_gather_respects_layout(self):
        """After relocations, gather() must untangle the layout."""
        n = 6
        c = Circuit(6).h(5).cx(5, 0).h(4).cx(4, 5)
        ref = StatevectorSimulator(n).run(c).copy()
        d = DistributedStatevector(n, 4)
        d.run(c)
        assert d.layout != list(range(n))  # relocations happened
        assert np.allclose(d.gather(), ref, atol=1e-10)

    def test_unbound_rejected(self):
        from repro.ir.gates import Parameter

        d = DistributedStatevector(6, 2)
        with pytest.raises(ValueError):
            d.run(Circuit(6).rz(Parameter("x"), 0))


# -- distributed expectation vs the serial compiled observable ---------------

_N = 6  # 8 ranks still keep 3 local qubits
_CLIFFORD = ["h", "s", "x", "cx", "cz"]
_ROTATION = ["rx", "ry", "rz", "rzz", "rxx", "ryy"]


@st.composite
def clifford_rotation_circuits(draw):
    """A 6-qubit circuit of Clifford gates and parametric rotations,
    with one angle per rotation."""
    circ, angles = Circuit(_N), []
    for _ in range(draw(st.integers(3, 14))):
        name = draw(st.sampled_from(_CLIFFORD + _ROTATION))
        q0 = draw(st.integers(0, _N - 1))
        qubits = [q0]
        if name in ("cx", "cz", "rzz", "rxx", "ryy"):
            qubits.append((q0 + draw(st.integers(1, _N - 1))) % _N)
        if name in _ROTATION:
            circ.add(name, qubits, Parameter(f"t{len(angles)}"))
            angles.append(draw(st.floats(-3.0, 3.0)))
        else:
            circ.add(name, qubits)
    return circ, angles


@st.composite
def hermitian_sums(draw):
    """Real coefficients on Hermitian strings: an identity term, x-masks
    confined to the top three bits (all global at 8 ranks), to the low
    two (local at every rank count), mixed ones, and Y letters."""
    top, low, every = 0b111000, 0b000011, (1 << _N) - 1
    coeff = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.05)
    h = PauliSum.zero(_N)
    h.add_term(PauliString(_N, 0, 0), draw(coeff))
    for x_bits in (top, low, every, every, every):
        x = draw(st.integers(1, every)) & x_bits
        z = draw(st.integers(0, every))
        h.add_term(PauliString(_N, x, z), draw(coeff))
    h.add_term(PauliString(_N, 0b100001, 0b100101), draw(coeff))  # Y on both ends
    return h


def _global_patterns(dsv, h):
    L = dsv.local_qubits
    return {dsv._to_phys(x) >> L for x, _ in h.terms} - {0}


class TestDistributedExpectation:
    @given(clifford_rotation_circuits(), hermitian_sums())
    @settings(max_examples=25, deadline=None)
    def test_matches_serial_compiled_observable(self, case, h):
        circ, angles = case
        bound = circ.bind(angles) if angles else circ
        plan = compile_circuit(circ)
        state = StatevectorSimulator(_N).run(bound).copy()
        expected = compile_observable(h).expectation(state).real
        for ranks in (1, 2, 4, 8):
            dsv = DistributedStatevector(_N, ranks)
            for execute in (lambda: dsv.run_plan(plan, angles), lambda: dsv.run(bound)):
                execute()
                exchanges, reduces = dsv.exchanges, dsv.comm.stats.allreduce_calls
                assert abs(dsv.expectation(h) - expected) < 1e-12
                assert dsv.exchanges - exchanges == len(_global_patterns(dsv, h))
                assert dsv.comm.stats.allreduce_calls - reduces == 1

    def test_follows_observable_mutation_and_layout_change(self):
        h = PauliSum.from_label_dict(
            {"XXIIII": 0.5, "IZZIII": -1.2, "YIIYII": 0.3, "IIXZII": 0.4, "IIIIII": 0.25}
        )
        first = Circuit(_N).h(0).cx(0, 3).ry(0.4, 5).h(2)
        second = Circuit(_N).h(5).cx(5, 0).h(4).cx(4, 5).rx(0.8, 1)
        serial = StatevectorSimulator(_N)

        def reference(circuit):
            return compile_observable(h).expectation(serial.run(circuit).copy()).real

        dsv = DistributedStatevector(_N, 4)
        dsv.run(first)
        assert abs(dsv.expectation(h) - reference(first)) < 1e-12
        program = dsv._observable_program(h)
        assert dsv._observable_program(h) is program  # nothing moved: reused
        h.add_term(PauliString.from_label("ZIIIIX"), 0.7)
        assert abs(dsv.expectation(h) - reference(first)) < 1e-12
        h.add_term(PauliString(_N, 0, 0), 1e-12 - 0.25)
        h.chop(1e-9)
        assert (0, 0) not in h.terms
        assert abs(dsv.expectation(h) - reference(first)) < 1e-12
        layout = list(dsv.layout)
        dsv.run(second)
        assert dsv.layout != layout  # same observable, relocated register
        assert abs(dsv.expectation(h) - reference(second)) < 1e-12

    def test_bad_input_is_named(self):
        dsv = DistributedStatevector(8, 2)
        with pytest.raises(ValueError, match="observable has 6 qubits, register has 8"):
            dsv.expectation(PauliSum.from_label_dict({"XXIIII": 1.0}))
        with pytest.raises(ValueError, match="circuit has 6 qubits, register has 8"):
            dsv.run(Circuit(6).h(0))
        with pytest.raises(ValueError, match="plan has 6 qubits, register has 8"):
            dsv.run_plan(compile_circuit(Circuit(6).h(0)))
        dsv.run(Circuit(8).h(0).h(7))
        with pytest.raises(ValueError, match=r"non-Hermitian.*imaginary part 5\.000e-01"):
            dsv.expectation(PauliSum(8, {(1 << 7, 0): 0.5j, (1, 0): 1.0}))

    def test_empty_observable_is_zero_without_exchange(self):
        dsv = DistributedStatevector(_N, 4)
        dsv.run(Circuit(_N).h(5).cx(5, 0))
        before = dsv.exchanges
        assert dsv.expectation(PauliSum.zero(_N)) == 0.0
        assert dsv.exchanges == before

    def test_resident_slices_are_on_the_ledger(self):
        h = PauliSum.from_label_dict({"XXIIII": 0.5, "IZZIII": -1.2, "IIXZII": 0.4})
        obs.reset()
        obs.configure(enabled=True)
        try:
            ledger = obs.get_memory_ledger()
            dsv = DistributedStatevector(_N, 4)
            dsv.expectation(h)
            # three x-masks, one complex 2^4 row each, on each of 4 ranks
            assert ledger.live_by_category["dsv_observable"] == 4 * 3 * 16 * 16
            h.add_term(PauliString.from_label("IIIIXI"), 0.1)
            dsv.expectation(h)  # replaced, not accumulated
            assert ledger.live_by_category["dsv_observable"] == 4 * 4 * 16 * 16
        finally:
            obs.disable()
            obs.reset()


class TestPerfModel:
    def test_exchange_count_matches_engine(self):
        """The model's layout replay must agree with the execution
        engine's actual exchange counter."""
        for seed in (0, 1, 2):
            n, ranks = 6, 4
            c = random_circuit(n, 30, seed)
            d = DistributedStatevector(n, ranks)
            d.run(c)
            predicted = count_exchanges(c, n, ranks)
            # engine adds no expectation exchanges here
            assert predicted == d.exchanges

    def test_expectation_exchange_count_matches_engine(self):
        """LiH, 12 qubits: the distinct nonzero global parts of the 84
        x-masks, against what one evaluation actually exchanges."""
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import lih
        from repro.chem.scf import run_rhf

        hq = build_molecular_hamiltonian(run_rhf(lih(1.5949))).to_qubit()
        predicted = {}
        for ranks in (2, 4, 8):
            d = DistributedStatevector(hq.num_qubits, ranks)
            d.expectation(hq)
            predicted[ranks] = count_expectation_exchanges(hq, hq.num_qubits, ranks)
            assert predicted[ranks] == d.exchanges
        assert predicted[4] == 3

    def test_strong_scaling_compute_drops(self):
        curve = strong_scaling_curve(28, 10000, [1, 2, 4, 8, 16])
        computes = [curve[r].compute for r in (1, 2, 4, 8, 16)]
        assert all(b < a for a, b in zip(computes, computes[1:]))

    def test_strong_scaling_has_communication_cost(self):
        curve = strong_scaling_curve(28, 10000, [1, 16])
        assert curve[1].communication == 0.0
        assert curve[16].communication > 0.0

    def test_weak_scaling_slice_constant(self):
        curve = weak_scaling_curve(26, 10000, [1, 2, 4, 8])
        computes = [curve[r].compute for r in (1, 2, 4, 8)]
        # constant per-rank slice -> constant compute time
        assert np.allclose(computes, computes[0], rtol=1e-9)

    def test_machine_presets_exist(self):
        for name in ("perlmutter", "summit", "frontier", "cpu-node"):
            assert get_machine(name).mem_bandwidth > 0
        with pytest.raises(KeyError):
            get_machine("lumi")

    def test_perlmutter_faster_than_summit(self):
        tp = estimate_circuit_time(10000, 28, 4, "perlmutter")
        ts = estimate_circuit_time(10000, 28, 4, "summit")
        assert tp.total < ts.total

    def test_max_qubits_for_memory(self):
        # A100 40 GB: 2^31 amplitudes = 32 GiB fits, 2^32 does not.
        assert max_qubits_for_memory("perlmutter", 1) == 31
        # doubling ranks adds one qubit
        assert max_qubits_for_memory("perlmutter", 2) == 32


class TestBatchScheduler:
    def test_speedup_with_many_jobs(self):
        jobs = [Job(f"j{k}", 20, 5000) for k in range(32)]
        sched = BatchScheduler(8).schedule(jobs)
        assert sched.speedup > 6.0  # near-perfect for uniform jobs
        assert 0.9 < sched.utilization <= 1.0

    def test_single_rank_serial(self):
        jobs = [Job(f"j{k}", 16, 1000) for k in range(4)]
        sched = BatchScheduler(1).schedule(jobs)
        assert np.isclose(sched.speedup, 1.0)

    def test_all_jobs_assigned(self):
        jobs = [Job(f"j{k}", 18, 100 * (k + 1)) for k in range(10)]
        sched = BatchScheduler(3).schedule(jobs)
        assigned = [j.name for js in sched.assignments.values() for j in js]
        assert sorted(assigned) == sorted(j.name for j in jobs)

    def test_lpt_beats_worst_case(self):
        """Makespan must be within 4/3 of the trivial lower bound."""
        rng = np.random.default_rng(5)
        jobs = [Job(f"j{k}", 20, int(rng.integers(100, 10000))) for k in range(40)]
        scheduler = BatchScheduler(4)
        sched = scheduler.schedule(jobs)
        lower = max(
            sched.serial_time / 4, max(scheduler.job_cost(j) for j in jobs)
        )
        assert sched.makespan <= lower * (4 / 3) + 1e-12
