"""Tests for the batched statevector simulator and the block reverse-mode
sweep (paper §6.2 batch execution)."""

import numpy as np
import pytest

from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.library import hardware_efficient_ansatz
from repro.ir.pauli import PauliSum
from repro.opt.parameter_shift import parameter_shift_gradient
from repro.sim.batched import BatchedStatevectorSimulator, reverse_value_and_gradient
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator


@pytest.fixture(scope="module")
def h4_problem():
    """The serve tier's H4 problem: qubit Hamiltonian and UCCSD circuit."""
    from repro.serve.spec import JobSpec
    from repro.serve.store import ProblemCache

    problem = ProblemCache().get(JobSpec(tenant="t", molecule="h4"))
    return problem["hamiltonian"], problem["ansatz"]


def reference_states(circuit, parameter_table, batch):
    """One-at-a-time execution for comparison."""
    out = []
    for b in range(batch):
        values = {k: float(v[b]) for k, v in parameter_table.items()}
        bound = circuit.bind(values)
        out.append(StatevectorSimulator(circuit.num_qubits).run(bound).copy())
    return np.array(out)


class TestBatchedSimulator:
    def test_fixed_gates_broadcast(self):
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        sim = BatchedStatevectorSimulator(3, 4)
        sim.run(c, {})
        for b in range(4):
            assert np.isclose(abs(sim.states[b, 0]) ** 2, 0.5)
            assert np.isclose(abs(sim.states[b, 7]) ** 2, 0.5)

    @pytest.mark.parametrize("gate", ["rx", "ry", "rz", "p"])
    def test_parameterized_1q_gates(self, gate, rng):
        c = Circuit(2).h(0).h(1)
        c.add(gate, [0], Parameter("a"))
        c.cx(0, 1)
        batch = 5
        table = {"a": rng.uniform(-np.pi, np.pi, size=batch)}
        sim = BatchedStatevectorSimulator(2, batch)
        sim.run(c, table)
        ref = reference_states(c, table, batch)
        assert np.allclose(sim.states, ref, atol=1e-10)

    @pytest.mark.parametrize("gate", ["rzz", "rxx", "ryy"])
    def test_parameterized_2q_gates(self, gate, rng):
        c = Circuit(3).h(0).h(2)
        c.add(gate, [0, 2], Parameter("b", coeff=0.5, offset=0.1))
        batch = 4
        table = {"b": rng.uniform(-2, 2, size=batch)}
        sim = BatchedStatevectorSimulator(3, batch)
        sim.run(c, table)
        ref = reference_states(c, table, batch)
        assert np.allclose(sim.states, ref, atol=1e-10)

    def test_hea_batch_matches_serial(self, rng):
        ansatz = hardware_efficient_ansatz(4, layers=2)
        batch = 6
        table = {
            name: rng.uniform(-np.pi, np.pi, size=batch)
            for name in ansatz.parameters
        }
        sim = BatchedStatevectorSimulator(4, batch)
        sim.run(ansatz, table)
        ref = reference_states(ansatz, table, batch)
        assert np.allclose(sim.states, ref, atol=1e-9)

    def test_batched_expectations(self, rng):
        ansatz = hardware_efficient_ansatz(3, layers=1)
        batch = 4
        table = {
            name: rng.uniform(-1, 1, size=batch) for name in ansatz.parameters
        }
        h = PauliSum.from_label_dict({"ZZI": 0.5, "IXX": -0.7, "YIY": 0.2})
        sim = BatchedStatevectorSimulator(3, batch)
        sim.run(ansatz, table)
        got = sim.expectations(h)
        ref = reference_states(ansatz, table, batch)
        from repro.sim.expectation import expectation_direct

        for b in range(batch):
            assert np.isclose(got[b], expectation_direct(ref[b], h), atol=1e-10)

    def test_missing_parameter_rejected(self):
        c = Circuit(1).rz(Parameter("x"), 0)
        sim = BatchedStatevectorSimulator(1, 2)
        with pytest.raises(ValueError):
            sim.run(c, {})

    def test_wrong_vector_length_rejected(self):
        c = Circuit(1).rz(Parameter("x"), 0)
        sim = BatchedStatevectorSimulator(1, 2)
        with pytest.raises(ValueError):
            sim.run(c, {"x": np.zeros(3)})

    def test_norms_preserved(self, rng):
        ansatz = hardware_efficient_ansatz(3, layers=2)
        batch = 3
        table = {
            name: rng.uniform(-np.pi, np.pi, size=batch)
            for name in ansatz.parameters
        }
        sim = BatchedStatevectorSimulator(3, batch)
        sim.run(ansatz, table)
        norms = np.linalg.norm(sim.states, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)


class TestBlockSweep:
    """``reverse_value_and_gradient``: R energies and R exact gradients
    from one reverse-mode sweep over a (2R, 2^n) block."""

    def test_matches_serial_gradient(self, rng):
        """HEA: every row of the block equals the hardware two-term rule
        run with a custom ``estimate``, and its energy equals a direct
        estimate."""
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.scf import run_rhf
        from repro.core.estimator import DirectEstimator

        hq = build_molecular_hamiltonian(run_rhf(h2())).to_qubit()
        ansatz = hardware_efficient_ansatz(4, layers=1)
        rows = rng.normal(scale=0.4, size=(4, ansatz.num_parameters))
        values, grads = reverse_value_and_gradient(compile_circuit(ansatz), hq, rows)
        est = DirectEstimator()
        for x, value, grad in zip(rows, values, grads):
            two_term = parameter_shift_gradient(ansatz, hq, x, estimate=est.estimate)
            assert np.allclose(grad, two_term, atol=1e-10)
            assert np.isclose(value, est.estimate(ansatz.bind(list(x)), hq), atol=1e-12)

    def test_rejects_unsupported_circuit(self):
        """A parametric gate that is neither a rotation step nor ``p``
        is refused by name, qubits and parameter."""
        c = Circuit(2).h(0).h(1).add("crz", [0, 1], Parameter("a"))
        h = PauliSum.from_label_dict({"XX": 1.0})
        with pytest.raises(ValueError, match=r"'crz' on qubits \(0, 1\) \(parameter 'a'\)"):
            reverse_value_and_gradient(compile_circuit(c), h, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="'crz'"):
            parameter_shift_gradient(c, h, np.zeros(1))

    def test_uccsd_h4_matches_central_differences(self, h4_problem):
        """UCCSD (parameters shared across gates, refused by the two-term
        rule) gets its exact gradient; central differences at eps = 1e-6
        agree to FD's own error."""
        hq, ansatz = h4_problem
        plan = compile_circuit(ansatz)
        x = 0.05 * np.random.default_rng(3).standard_normal(plan.num_parameters)
        grad = parameter_shift_gradient(ansatz, hq, x)
        shifts = 1e-6 * np.eye(plan.num_parameters)
        values, _ = reverse_value_and_gradient(plan, hq, np.concatenate([x + shifts, x - shifts]))
        central = (values[: plan.num_parameters] - values[plan.num_parameters :]) / 2e-6
        assert np.max(np.abs(grad - central)) < 1e-7

    def test_block_of_five_equals_five_single_rows(self, h4_problem):
        """Row-wise to the bit: a row's energy and gradient do not
        depend on what else shares the block."""
        hq, ansatz = h4_problem
        plan = compile_circuit(ansatz)
        rows = 0.1 * np.random.default_rng(4).standard_normal((5, plan.num_parameters))
        values, grads = reverse_value_and_gradient(plan, hq, rows)
        for k in range(5):
            value, grad = reverse_value_and_gradient(plan, hq, rows[k : k + 1])
            assert value[0] == values[k]
            assert np.array_equal(grad[0], grads[k])


class TestPerRowObservables:
    """A scan's geometries share one plan: one sweep carries them all,
    each row with its own Hamiltonian."""

    @pytest.fixture(scope="class")
    def h2_scan(self):
        from repro.serve.spec import JobSpec
        from repro.serve.store import ProblemCache

        cache = ProblemCache()
        problems = [
            cache.get(JobSpec(tenant="t", molecule="h2", geometry=g))
            for g in (0.6, 0.74, 0.9, 1.2)
        ]
        assert len({id(p["ansatz"]) for p in problems}) == 1
        return compile_circuit(problems[0]["ansatz"]), [p["hamiltonian"] for p in problems]

    def test_four_geometries_equal_eight_solo_sweeps(self, h2_scan):
        """Row-wise to the bit, values and gradients."""
        plan, hamiltonians = h2_scan
        rows = 0.2 * np.random.default_rng(5).standard_normal((8, plan.num_parameters))
        # interleaved, as the broker stacks jobs in submission order
        per_row = [hamiltonians[k % 4] for k in range(8)]
        values, grads = reverse_value_and_gradient(plan, per_row, rows)
        for k in range(8):
            value, grad = reverse_value_and_gradient(plan, per_row[k], rows[k : k + 1])
            assert value[0] == values[k]
            assert np.array_equal(grad[0], grads[k])
        with pytest.raises(ValueError, match="8 per-row observables, got 4"):
            reverse_value_and_gradient(plan, hamiltonians, rows)

    def test_broker_groups_by_plan_not_observable(self, h2_scan):
        """Under one plan key, rows on one plan share a group whatever
        their Hamiltonians; a second plan object never joins it."""
        from repro.serve.broker import EvaluationBroker
        from tests.row_campaign import RowCampaign

        plan, hamiltonians = h2_scan
        other = compile_circuit(hardware_efficient_ansatz(4, layers=1))
        rng = np.random.default_rng(6)
        broker = EvaluationBroker()
        scan = [
            RowCampaign(plan, h, rng.normal(scale=0.2, size=(1, plan.num_parameters)))
            for h in hamiltonians
        ]
        hea = RowCampaign(
            other, hamiltonians[0], rng.normal(scale=0.2, size=(1, other.num_parameters))
        )
        assert broker.pump([("h2", c) for c in scan + [hea]])[0] == [None] * 5
        stats = broker.stats()
        assert stats["waves"] == 1
        assert stats["groups_executed"] == 2
        assert stats["max_occupancy"] == 4
        for c in scan + [hea]:
            solo_value, solo_grad = reverse_value_and_gradient(c.plan, c.observable, c.rows)
            assert c.values == [solo_value[0]]
            assert np.array_equal(c.gradients[0], solo_grad[0])
