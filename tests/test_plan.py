"""Compiled circuit plans (repro.sim.plan) and the one kernel set under
them (repro.sim.kernels): every executor against gate-by-gate
simulation, invalidation, the >=3-qubit dense fallback, and the plan
wiring through estimators and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import DirectEstimator
from repro.hpc.distributed import DistributedStatevector
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate, Parameter
from repro.ir.pauli import PauliSum
from repro.sim import kernels
from repro.sim.batched import BatchedStatevectorSimulator
from repro.sim.plan import ExecutionPlan, compile_circuit, unbound_parameter_message
from repro.sim.statevector import StatevectorSimulator

# -- strategies ---------------------------------------------------------------

_STATIC_1Q = ["h", "x", "y", "z", "s", "sdg", "sx", "t", "tdg"]
_STATIC_2Q = ["cx", "cz", "swap"]
_PARAM_1Q = ["rx", "ry", "rz", "p"]
_PARAM_2Q = ["rzz", "rxx", "ryy", "cp", "crz"]
_SHIFT_RULE = ["rx", "ry", "rz", "p", "rzz", "rxx", "ryy"]

angles = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
# constant angles: arbitrary (non-Clifford rotation steps) or a multiple
# of pi/2 (the gate is Clifford and joins the frame)
constant_angles = st.one_of(
    angles, st.integers(-4, 4).map(lambda k: k * np.pi / 2)
)


def _opaque_2q(seed):
    """A fused-style opaque two-qubit unitary (explicit matrix)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


@st.composite
def parameterized_circuits(
    draw, max_qubits=4, max_gates=14, max_params=4, parametric_u3=True, shift_rule=False
):
    """Random circuit mixing Clifford gates, rotations and barriers.

    Rotations (rx/ry/rz/rzz/rxx/ryy) take a ``Parameter(coeff, offset)``
    — the same named parameter may feed several gates, the
    trotterized-ansatz pattern — or a constant angle, Clifford or not;
    barriers are t/tdg, p/cp/crz, u3, ccx and an opaque unitary.
    ``parametric_u3=False`` leaves out the one gate the batched executor
    does not take (a dense matrix per row); ``shift_rule=True`` gives
    every parametric gate its own parameter in a gate the shift rule
    covers.
    """
    n = draw(st.integers(2, max_qubits))
    m = draw(st.integers(0, max_params))
    circ = Circuit(n)
    used = 0

    def parameter():
        nonlocal used
        name = f"t{used}" if shift_rule else f"t{draw(st.integers(0, m - 1))}"
        used += 1
        return Parameter(
            name,
            coeff=draw(st.sampled_from([1.0, -1.0, 0.5, 2.0])),
            offset=draw(st.sampled_from([0.0, 0.25])),
        )

    for _ in range(draw(st.integers(1, max_gates))):
        two_q = draw(st.booleans())
        parametric = m > 0 and draw(st.booleans())
        if two_q:
            q0 = draw(st.integers(0, n - 1))
            q1 = draw(st.integers(0, n - 2))
            if q1 >= q0:
                q1 += 1
            if parametric:
                names = [g for g in _PARAM_2Q if not shift_rule or g in _SHIFT_RULE]
                circ.add(draw(st.sampled_from(names)), [q0, q1], parameter())
            elif draw(st.booleans()):
                circ.add(draw(st.sampled_from(_STATIC_2Q)), [q0, q1])
            elif draw(st.booleans()):
                circ.add(draw(st.sampled_from(_PARAM_2Q)), [q0, q1], draw(constant_angles))
            elif n >= 3 and draw(st.booleans()):
                q2 = next(q for q in range(n) if q not in (q0, q1))
                circ.add("ccx", [q0, q1, q2])
            else:
                matrix = _opaque_2q(draw(st.integers(0, 50)))
                circ.append(Gate("fused2", (q0, q1), (), matrix))
        else:
            q = draw(st.integers(0, n - 1))
            if parametric:
                if parametric_u3 and not shift_rule and draw(st.integers(0, 4)) == 0:
                    circ.add("u3", [q], parameter(), draw(angles), draw(angles))
                else:
                    circ.add(draw(st.sampled_from(_PARAM_1Q)), [q], parameter())
            elif draw(st.booleans()):
                circ.add(draw(st.sampled_from(_STATIC_1Q)), [q])
            elif draw(st.booleans()):
                circ.add(draw(st.sampled_from(_PARAM_1Q)), [q], draw(constant_angles))
            else:
                circ.add("u3", [q], draw(angles), draw(angles), draw(angles))
    return circ


def _naive_state(circuit, params):
    sim = StatevectorSimulator(circuit.num_qubits)
    bound = circuit.bind(list(params)) if circuit.num_parameters else circuit
    return sim.run(bound).copy()


def _every_kind_circuit(parametric_u3=True):
    """Five qubits holding every op kind a plan can carry — each in its
    own segment between parametric barrier gates so that fusion leaves it
    alone — and every parametric gate: rot (parametric and constant), x,
    cx, diag1, diag2, diag_full, dense on 1, 2 and 3 qubits, p, cp, crz
    and u3 (parametric only on request: the batched executor refuses a
    dense matrix per row).  The two high qubits are global under 4 ranks,
    so the distributed executor relocates."""
    circ = Circuit(5)
    circ.x(0).x(4)
    circ.add("p", [4], Parameter("a"))
    circ.h(3)  # dense on one qubit
    circ.add("cp", [3, 1], Parameter("b", coeff=0.5, offset=0.25))
    circ.cx(4, 2)
    circ.add("crz", [0, 4], Parameter("c"))
    circ.t(1)  # diag1
    circ.add("u3", [2], Parameter("d") if parametric_u3 else 0.9, 0.4, -1.1)
    circ.cz(0, 3).t(3)  # folds to one diag2
    circ.add("p", [0], Parameter("a", coeff=-1.0))
    circ.t(0).add("cp", [1, 2], 0.6).add("tdg", [4])  # three qubits wide: diag_full
    circ.add("crz", [2, 3], Parameter("b"))
    circ.append(Gate("fused2", (4, 1), (), _opaque_2q(3)))
    circ.add("cp", [4, 0], Parameter("c", coeff=2.0))
    circ.add("ccx", [3, 0, 4])
    circ.ry(Parameter("e"), 4).add("rxx", [1, 4], Parameter("e", coeff=0.5)).rx(0.3, 3)
    return circ


def _assert_executors_agree(circ, rows, batched=True):
    """Gate-by-gate ``run`` == ``plan.execute`` == each batched row ==
    distributed on 2 and 4 ranks, to 1e-12 including the global phase."""
    n = circ.num_qubits
    plan = compile_circuit(circ)
    expected = [_naive_state(circ, row) for row in rows]
    state = np.empty(plan.dim, dtype=np.complex128)
    for row, want in zip(rows, expected):
        plan.execute(state, row)
        np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)
    if batched:
        got = BatchedStatevectorSimulator(n, len(rows)).run_plan(plan, rows)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    for ranks in (2, 4):
        if n - ranks.bit_length() + 1 < 2:
            continue  # each rank keeps at least two local qubits
        dsv = DistributedStatevector(n, ranks)
        dsv.run_plan(plan, rows[0])
        np.testing.assert_allclose(dsv.gather(), expected[0], rtol=0, atol=1e-12)
    return plan


# -- equivalence --------------------------------------------------------------


class TestPlanEquivalence:
    @given(parameterized_circuits(), st.data(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_bind_run(self, circ, data, fold_full):
        plan = ExecutionPlan(circ, fold_full_diag=fold_full)
        state = np.empty(plan.dim, dtype=np.complex128)
        # several evaluations against one plan: some fresh vectors, some
        # single-parameter perturbations (the parameter-shift pattern)
        params = np.array(
            [data.draw(angles) for _ in range(plan.num_parameters)]
        )
        for _ in range(data.draw(st.integers(1, 4))):
            plan.execute(state, params)
            expected = _naive_state(circ, params)
            np.testing.assert_allclose(state, expected, atol=1e-10)
            params = params.copy()
            if plan.num_parameters and data.draw(st.booleans()):
                k = data.draw(st.integers(0, plan.num_parameters - 1))
                params[k] += data.draw(angles)
            else:
                params = np.array(
                    [data.draw(angles) for _ in range(plan.num_parameters)]
                )

    @given(parameterized_circuits(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_run_plan_matches_run(self, circ, data):
        params = [data.draw(angles) for _ in range(circ.num_parameters)]
        plan = compile_circuit(circ)
        sim = StatevectorSimulator(circ.num_qubits)
        got = sim.run_plan(plan, params).copy()
        np.testing.assert_allclose(got, _naive_state(circ, params), atol=1e-10)


# -- the Pauli-frame pass -----------------------------------------------------


def _random_observable(n, seed):
    rng = np.random.default_rng(seed)
    labels = {
        "".join(rng.choice(list("IXYZ")) for _ in range(n)): float(rng.uniform(-1, 1))
        for _ in range(4)
    }
    return PauliSum.from_label_dict(labels)


class TestFramePass:
    """One differential check of the frame pass and the rotation kernel
    under every executor, against gate-by-gate execution."""

    @given(parameterized_circuits(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_phase_exact_and_slices_compose(self, circ, data):
        plan = ExecutionPlan(circ)
        params = np.array([data.draw(angles) for _ in range(plan.num_parameters)])
        expected = _naive_state(circ, params)
        state = np.empty(plan.dim, dtype=np.complex128)
        plan.execute(state, params)
        # not up to a global phase: the same amplitudes
        np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)

    @given(parameterized_circuits(parametric_u3=False), st.data())
    @settings(max_examples=60, deadline=None)
    def test_batched_and_distributed_match_scalar(self, circ, data):
        rows = np.array(
            [[data.draw(angles) for _ in range(circ.num_parameters)] for _ in range(3)]
        ).reshape(3, circ.num_parameters)
        _assert_executors_agree(circ, rows)

    def test_every_kind_under_every_executor(self):
        """The fixed circuit: all seven kinds are in the plan, the
        distributed runs relocate, and the one op the batched executor
        refuses is refused by name."""
        rows = np.random.default_rng(11).uniform(-3, 3, (3, 5))
        plan = _assert_executors_agree(_every_kind_circuit(parametric_u3=False), rows[:, :4])
        assert {op.kind for op in plan.ops} == {
            "rot", "x", "cx", "diag1", "diag2", "diag_full", "dense", "gate"
        }
        assert {len(op.qubits) for op in plan.ops if op.kind == "dense"} == {1, 2, 3}
        assert {bool(op.param_refs) for op in plan.ops if op.kind == "rot"} == {True, False}
        dsv = DistributedStatevector(5, 4)
        dsv.run_plan(plan, rows[0, :4])
        assert dsv.layout != list(range(5)) and dsv.exchanges > 0

        circ = _every_kind_circuit()
        plan = _assert_executors_agree(circ, rows, batched=False)
        assert "u3" in {op.gate_name for op in plan.ops}
        with pytest.raises(ValueError, match=r"'u3' on qubits \(2,\).*p, cp, crz"):
            BatchedStatevectorSimulator(5, 3).run_plan(plan, rows)

    def test_diag_full_after_relocation(self):
        """A full-register diagonal reaches each rank through the
        logical-index table once barrier gates have permuted the layout
        — the plan a default ``compile_circuit`` used to be refused for."""
        circ = Circuit(4).h(0).h(1).h(2).h(3)
        circ.add("p", [3], Parameter("a")).t(0).t(2).add("cp", [3, 1], 0.8)
        circ.add("p", [2], Parameter("b")).s(3).cz(2, 0).t(1).ry(Parameter("a"), 3)
        plan = compile_circuit(circ)
        assert [op.kind for op in plan.ops].count("diag_full") == 2
        params = np.array([0.7, -1.9])
        for ranks in (2, 4):
            dsv = DistributedStatevector(4, ranks)
            dsv.run_plan(plan, params)
            assert dsv.layout != list(range(4))
            np.testing.assert_allclose(
                dsv.gather(), _naive_state(circ, params), rtol=0, atol=1e-12
            )

    def test_distributed_rotation_after_relocation(self):
        """Barrier gates on the global qubits relocate them between
        rotation steps: the steps then run under a permuted layout, and
        a step whose x-mask has a global bit pays one exchange."""
        n = 4
        circ = Circuit(n)
        for q in range(n):
            circ.h(q)
        circ.ry(Parameter("a"), 3).t(3).add("rzz", [1, 3], Parameter("b"))
        circ.t(2).cx(2, 0).rx(Parameter("c"), 2).add("ryy", [0, 3], Parameter("a", 0.5))
        circ.add("p", [3], Parameter("d")).add("rxx", [2, 3], 0.7).rz(Parameter("d"), 3)
        plan = compile_circuit(circ)
        assert plan.rotation_steps >= 5
        params = np.array([0.4, -1.3, 0.9, 2.1])
        for ranks in (2, 4):
            dsv = DistributedStatevector(n, ranks)
            dsv.run_plan(plan, params)
            assert dsv.layout != list(range(n)) and dsv.exchanges > 0
            np.testing.assert_allclose(
                dsv.gather(), _naive_state(circ, params), rtol=0, atol=1e-12
            )

    @given(parameterized_circuits(shift_rule=True), st.data())
    @settings(max_examples=40, deadline=None)
    def test_reverse_mode_gradient_is_the_two_term_shift(self, circ, data):
        from repro.opt.parameter_shift import parameter_shift_gradient

        h = _random_observable(circ.num_qubits, data.draw(st.integers(0, 99)))
        params = np.array([data.draw(angles) for _ in range(circ.num_parameters)])
        np.testing.assert_allclose(
            parameter_shift_gradient(circ, h, params),
            parameter_shift_gradient(
                circ, h, params, estimate=DirectEstimator().estimate
            ),
            atol=1e-10,
        )

    @pytest.mark.parametrize("spin_orbitals, ops", [(8, 30), (12, 96)])
    def test_uccsd_collapses_to_one_step_per_excitation(self, spin_orbitals, ops):
        from repro.chem.uccsd import build_uccsd_circuit

        ansatz = build_uccsd_circuit(spin_orbitals, 4)
        stats = compile_circuit(ansatz.circuit).stats()
        assert stats["ops"] == ops  # the steps plus the four reference x gates
        assert stats["rotation_steps"] == ansatz.num_parameters == ops - 4
        assert (
            stats["frame_gates_absorbed"] + stats["rotation_steps"]
            + stats["rotations_merged"] + 4 == stats["source_gates"]
        )

    def test_offset_split_compiles_with_obs_enabled(self):
        """A Parameter offset is split off as a constant step: two steps
        from one gate, nothing merged — a count that once went negative
        and made the obs counter refuse the compile."""
        from repro import obs

        circ = Circuit(2).h(0).rz(Parameter("a", offset=0.25), 0)
        circ.add("rzz", [0, 1], Parameter("b", coeff=2.0, offset=0.25))
        obs.configure(enabled=True)
        try:
            plan = ExecutionPlan(circ)
        finally:
            obs.disable()
            obs.reset()
        stats = plan.stats()
        assert (stats["rotation_steps"], stats["rotations_merged"]) == (4, 0)
        assert sum(op.source_gates for op in plan.ops if op.kind == "rot") == 2
        state = np.empty(plan.dim, dtype=np.complex128)
        plan.execute(state, [0.3, -0.8])
        np.testing.assert_allclose(
            state, _naive_state(circ, [0.3, -0.8]), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    def test_almost_clifford_constant_is_a_rotation_step(self, name):
        """pi/2 + 1e-10 passes conjugate_pauli's 1e-9 match; pulling later
        rotations through it as if it were the Clifford costs 1e-10."""
        circ = Circuit(2).h(0).add(name, [0], np.pi / 2 + 1e-10)
        circ.ry(Parameter("a"), 0).cx(0, 1).rx(Parameter("b"), 1)
        plan = ExecutionPlan(circ)
        assert plan.rotation_steps == 3
        state = np.empty(plan.dim, dtype=np.complex128)
        plan.execute(state, [1.1, -0.6])
        np.testing.assert_allclose(
            state, _naive_state(circ, [1.1, -0.6]), rtol=0, atol=1e-13
        )

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_frame_conjugation_matches_both_oracles(self, n, data):
        """M(P) = C^dag P C against gate-by-gate ``conjugate_pauli`` and
        against dense matrices built from the (X|Z) string convention
        (Y where both bits are set)."""
        from repro.ir.clifford import conjugate_through_circuit
        from repro.ir.pauli import PauliString
        from repro.sim.plan import _clifford_action, _Frame

        circ = Circuit(n)
        for _ in range(data.draw(st.integers(0, 12))):
            if n > 1 and data.draw(st.booleans()):
                q0, q1 = data.draw(st.permutations(range(n)))[:2]
                circ.add(data.draw(st.sampled_from(_STATIC_2Q)), [q0, q1])
            else:
                q = data.draw(st.integers(0, n - 1))
                if data.draw(st.booleans()):
                    name = data.draw(st.sampled_from(["h", "x", "y", "z", "s", "sdg", "sx"]))
                    circ.add(name, [q])
                else:
                    turns = data.draw(st.integers(-3, 3))
                    circ.add(data.draw(st.sampled_from(["rx", "ry", "rz"])), [q], turns * np.pi / 2)
        frame = _Frame(n)
        for g in circ.gates:
            frame.push(g, _clifford_action(g.name, g.params))
        assert not frame.opaque
        x, z = data.draw(st.integers(0, 2**n - 1)), data.draw(st.integers(0, 2**n - 1))
        fx, fz, fk = frame.image(range(n), 1.0, x, z)
        sign = {0: 1.0, 2: -1.0}[(fk - bin(fx & fz).count("1")) % 4]
        ref_sign, ref = conjugate_through_circuit(circ.inverse(), 1.0, PauliString(n, x, z))
        assert (sign, fx, fz) == (ref_sign, ref.x, ref.z)

        def dense(px, pz):
            single = {
                (0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]),
                (1, 1): np.array([[0, -1j], [1j, 0]]), (0, 1): np.diag([1, -1]),
            }
            out = np.eye(1)
            for q in range(n):  # qubit 0 is the low bit: rightmost factor
                out = np.kron(single[(px >> q) & 1, (pz >> q) & 1], out)
            return out

        c = circ.to_matrix()
        np.testing.assert_allclose(
            c.conj().T @ dense(x, z) @ c, sign * dense(fx, fz), atol=1e-12
        )


# -- the kernel set ------------------------------------------------------------

_LOWERED_KINDS = {"rot", "x", "cx", "diag1", "diag2", "diag_full", "dense"}


class TestKernelSet:
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_adjoint_undoes_every_kind(self, batch):
        """``apply_op(adjoint=True)`` after ``apply_op`` restores the
        block, on one state and on a (3, 2^n) block whose rows carry
        their own angles."""
        rng = np.random.default_rng(5)
        plan = compile_circuit(_every_kind_circuit(parametric_u3=not batch))
        params = rng.uniform(-3, 3, batch + (plan.num_parameters,))
        block = rng.normal(size=batch + (32,)) + 1j * rng.normal(size=batch + (32,))
        seen = set()
        for op in plan.ops:
            kind, payload = op.resolve(params)
            seen.add(kind)
            before = block.copy()
            kernels.apply_op(block, kind, payload, op.qubits, 5)
            assert not np.allclose(block, before)
            kernels.apply_op(block, kind, payload, op.qubits, 5, adjoint=True)
            np.testing.assert_allclose(block, before, rtol=0, atol=1e-12)
            kernels.apply_op(block, kind, payload, op.qubits, 5)  # walk on
        assert seen == _LOWERED_KINDS

    @pytest.mark.parametrize(
        "kind, payload, qubits",
        [
            ("x", None, (1,)),
            ("cx", None, (0, 2)),
            ("diag1", (1.0, 1j), (2,)),
            ("diag2", (1.0, 1j, -1.0, -1j), (2, 0)),
            ("dense", np.eye(2, dtype=complex)[::-1], (0,)),
        ],
    )
    def test_unpacked_block_is_refused(self, kind, payload, qubits):
        """The static kernels write through a reshaped view of the last
        axis; a block they cannot take says so, with shape and strides,
        instead of being copied and silently left unchanged."""
        strided = np.ones((8, 2), dtype=np.complex128)[:, 0]
        with pytest.raises(ValueError, match=r"shape \(8,\) with strides \(32,\)"):
            kernels.apply_op(strided, kind, payload, qubits, 3)
        columns = np.ones((8, 3), dtype=np.complex128).T  # (3, 8), rows strided
        with pytest.raises(ValueError, match=r"shape \(3, 8\) with strides \(16, 48\)"):
            kernels.apply_op(columns, kind, payload, qubits, 3)
        with pytest.raises(ValueError, match=r"2\^3 = 8 .* got shape \(6,\)"):
            kernels.apply_op(np.ones(6, dtype=np.complex128), kind, payload, qubits, 3)

    def test_unknown_kind_is_named(self):
        with pytest.raises(ValueError, match="unknown op kind 'swap'"):
            kernels.apply_op(np.ones(8, dtype=np.complex128), "swap", None, (0, 1), 3)


# -- invalidation -------------------------------------------------------------


def _shift_circuit(m=4, n=3):
    circ = Circuit(n)
    for k in range(m):
        circ.ry(Parameter(f"t{k}"), k % n)
        circ.cx(k % n, (k + 1) % n)
    return circ


class TestInvalidation:
    def test_mutation_forces_recompile(self):
        circ = _shift_circuit()
        plan = compile_circuit(circ)
        assert compile_circuit(circ) is plan  # memo hit
        circ.h(0)  # mutate the source
        assert plan.is_stale()
        plan2 = compile_circuit(circ)
        assert plan2 is not plan
        params = np.full(plan2.num_parameters, 0.3)
        state = np.empty(plan2.dim, dtype=np.complex128)
        plan2.execute(state, params)
        np.testing.assert_allclose(state, _naive_state(circ, params), atol=1e-10)

    def test_option_change_recompiles(self):
        circ = _shift_circuit()
        plan = compile_circuit(circ)
        other = compile_circuit(circ, fold_full_diag=False)
        assert other is not plan

    def test_stale_plan_never_served_after_inplace_edit(self):
        circ = Circuit(2).h(0)
        plan = compile_circuit(circ)
        sim = StatevectorSimulator(2)
        a = sim.run_plan(plan, []).copy()
        circ.cx(0, 1)
        b = StatevectorSimulator(2).run_plan(compile_circuit(circ), []).copy()
        np.testing.assert_allclose(a, _naive_state(Circuit(2).h(0), []), atol=1e-12)
        np.testing.assert_allclose(
            b, _naive_state(Circuit(2).h(0).cx(0, 1), []), atol=1e-12
        )


# -- >=3-qubit dense fallback (the apply_gate bugfix) ------------------------


class TestWideGateFallback:
    def test_ccx_through_apply_gate(self):
        sim = StatevectorSimulator(3)
        sim.run(Circuit(3).x(0).x(1))
        sim.apply_gate(Gate("ccx", (0, 1, 2)))
        state = sim.statevector()
        expected = np.zeros(8, dtype=np.complex128)
        expected[0b111] = 1.0  # both controls set -> target flips
        np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_ccx_matches_dense_matrix(self):
        circ = Circuit(3).h(0).h(1).h(2).add("ccx", [2, 0, 1])
        got = StatevectorSimulator(3).run(circ)
        init = np.zeros(8, dtype=np.complex128)
        init[0] = 1.0
        np.testing.assert_allclose(got, circ.to_matrix() @ init, atol=1e-12)

    def test_plan_handles_3q_gate(self):
        circ = Circuit(3).h(0).h(1).add("ccx", [0, 1, 2]).rz(Parameter("a"), 2)
        plan = compile_circuit(circ)
        state = np.empty(8, dtype=np.complex128)
        plan.execute(state, [0.7])
        np.testing.assert_allclose(state, _naive_state(circ, [0.7]), atol=1e-10)


# -- error reporting ----------------------------------------------------------


class TestUnboundErrors:
    def test_message_names_parameters(self):
        circ = Circuit(2).rx(Parameter("alpha"), 0).rz(Parameter("beta"), 1)
        msg = unbound_parameter_message(circ)
        assert "alpha" in msg and "beta" in msg
        assert "compile_circuit" in msg

    def test_run_raises_with_names(self):
        circ = Circuit(2).rx(Parameter("alpha"), 0)
        with pytest.raises(ValueError, match="alpha"):
            StatevectorSimulator(2).run(circ)

    def test_plan_rejects_wrong_param_count(self):
        plan = compile_circuit(Circuit(2).rx(Parameter("a"), 0))
        state = np.empty(4, dtype=np.complex128)
        with pytest.raises(ValueError, match="expects 1 parameter"):
            plan.execute(state, [0.1, 0.2])


# -- consumers ----------------------------------------------------------------


class TestConsumers:
    def _setup(self):
        circ = _shift_circuit(m=4, n=3)
        h = PauliSum.from_label_dict({"ZZI": 0.5, "IXX": 0.25, "ZIZ": -0.75})
        params = np.array([0.3, -0.4, 1.1, 0.2])
        return circ, h, params

    def test_estimate_plan_matches_estimate(self):
        circ, h, params = self._setup()
        est = DirectEstimator()
        plan = compile_circuit(circ)
        via_plan = est.estimate_plan(plan, params, h)
        naive = DirectEstimator().estimate(circ.bind(list(params)), h)
        assert abs(via_plan - naive) < 1e-10
        # the estimator holds one simulator: a second width replaces it
        assert est._simulator(circ.num_qubits + 1).num_qubits == circ.num_qubits + 1

    def test_batched_run_plan_matches_scalar(self):
        circ, h, params = self._setup()
        rows = np.stack([params, params + 0.5, params * -1.0])
        plan = compile_circuit(circ)
        sim = BatchedStatevectorSimulator(circ.num_qubits, 3)
        states = sim.run_plan(plan, rows)
        for b in range(3):
            np.testing.assert_allclose(
                states[b], _naive_state(circ, rows[b]), atol=1e-10
            )

    def test_distributed_run_plan_matches_scalar(self):
        circ, h, params = self._setup()
        plan = compile_circuit(circ)
        dsv = DistributedStatevector(circ.num_qubits, num_ranks=2)
        dsv.run_plan(plan, params)
        np.testing.assert_allclose(
            dsv.gather(), _naive_state(circ, params), atol=1e-10
        )

    def test_parameter_shift_plan_path_matches_custom_estimate(self):
        from repro.opt.parameter_shift import parameter_shift_gradient

        circ, h, params = self._setup()
        fast = parameter_shift_gradient(circ, h, params)
        slow = parameter_shift_gradient(
            circ, h, params, estimate=DirectEstimator().estimate
        )
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_parameter_shift_all_eligible_gates(self):
        from repro.opt.parameter_shift import parameter_shift_gradient

        circ = Circuit(3).h(0).h(1).h(2)
        for k, name in enumerate(["rx", "ry", "rz", "p", "rzz", "rxx", "ryy"]):
            nq = 2 if name in ("rzz", "rxx", "ryy") else 1
            p = Parameter(f"g{k}", coeff=0.5 if k % 2 else -1.5, offset=0.3)
            circ.add(name, [k % 3, (k + 1) % 3][:nq], p)
            circ.cx(k % 3, (k + 1) % 3)
        h = PauliSum.from_label_dict({"ZZZ": 1.0, "XIX": 0.5, "IYY": -0.25})
        params = np.linspace(-1.2, 1.3, circ.num_parameters)
        fast = parameter_shift_gradient(circ, h, params)
        slow = parameter_shift_gradient(
            circ, h, params, estimate=DirectEstimator().estimate
        )
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_block_sweep_matches(self):
        from repro.opt.parameter_shift import parameter_shift_gradient
        from repro.sim.batched import reverse_value_and_gradient

        circ, h, params = self._setup()
        rows = np.stack([params, params + 0.5, params * -1.0])
        _, grads = reverse_value_and_gradient(compile_circuit(circ), h, rows)
        for row, grad in zip(rows, grads):
            np.testing.assert_allclose(
                grad,
                parameter_shift_gradient(
                    circ, h, row, estimate=DirectEstimator().estimate
                ),
                atol=1e-10,
            )


# -- generator plans ----------------------------------------------------------


def _uccsd_problem(molecule):
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.molecule import h2, h4_chain, lih
    from repro.chem.scf import run_rhf

    mh = build_molecular_hamiltonian(
        run_rhf({"h2": h2, "h4": h4_chain, "lih": lih}[molecule]())
    )
    return mh.to_qubit(), mh.num_spin_orbitals, mh.num_electrons


def _full_register_oracle(gens, reference, hamiltonian, params):
    """State, energy and gradient of ``prod_k exp(theta_k A_k) |ref>`` on
    all 2^n amplitudes, one ``GeneratorEvolution`` per generator and the
    adjoint formula ``dE/dtheta_k = 2 Re <lam_k|A_k|phi_k>``."""
    from repro.ir.compiled import compile_observable
    from repro.sim.evolution import GeneratorEvolution

    evolutions = [GeneratorEvolution(a) for a in gens]
    psi = reference.astype(np.complex128)
    for ev, theta in zip(evolutions, params):
        psi = ev.apply(psi, theta)
    phi, lam = psi, compile_observable(hamiltonian).apply(psi)
    grad = np.empty(len(gens))
    for k in reversed(range(len(gens))):
        grad[k] = 2.0 * np.vdot(lam, evolutions[k].apply_generator(phi)).real
        phi = evolutions[k].apply(phi, -params[k])
        lam = evolutions[k].apply(lam, -params[k])
    return psi, float(np.vdot(psi, compile_observable(hamiltonian).apply(psi)).real), grad


class TestGeneratorPlan:
    """``ExecutionPlan.from_generators`` against the circuit it stands
    in for, the per-generator oracle and every executor, to 1e-12
    including the global phase.  A number-conserving ansatz runs on the
    (N, S_z) sector of its reference; embedded in the register it is
    the full-register state."""

    @pytest.mark.parametrize("molecule", ["h2", "h4"])
    def test_equals_compiled_uccsd_circuit(self, molecule, rng):
        from repro.chem.reference import hartree_fock_state
        from repro.chem.uccsd import build_uccsd_circuit, uccsd_generators
        from repro.sim.batched import reverse_value_and_gradient
        from repro.utils.bitops import sector_indices

        hq, n, ne = _uccsd_problem(molecule)
        plan = ExecutionPlan.from_generators(
            [a for _, a in uccsd_generators(n, ne)], hartree_fock_state(n, ne)
        )
        assert plan.index is sector_indices(n, ne, 0) and not plan.full_register
        assert not any(op.kind == "x" for op in plan.ops)
        circ = compile_circuit(build_uccsd_circuit(n, ne).circuit)
        assert circ.full_register
        by_name = [plan.parameters.index(name) for name in circ.parameters]
        rows = rng.normal(scale=0.3, size=(3, plan.num_parameters))
        got = np.empty(plan.dim, dtype=np.complex128)
        want = np.empty(circ.dim, dtype=np.complex128)
        for row in rows:
            plan.execute(got, row)
            circ.execute(want, row[by_name])
            np.testing.assert_allclose(plan.embed(got), want, rtol=0, atol=1e-12)
        values, grads = reverse_value_and_gradient(plan, hq, rows)
        circ_values, circ_grads = reverse_value_and_gradient(circ, hq, rows[:, by_name])
        np.testing.assert_allclose(values, circ_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[:, by_name], circ_grads, rtol=0, atol=1e-12)

    @pytest.fixture(scope="class")
    def h2o_pool_plan(self):
        """16 operators of the 12-qubit, 92-operator H2O UCCSD pool (the
        Fig. 5 ADAPT pool) on the Hartree-Fock reference."""
        from repro.chem.pools import uccsd_pool
        from repro.chem.reference import hartree_fock_state

        pool = uccsd_pool(12, 8)
        ops = [pool[k] for k in np.random.default_rng(5).choice(len(pool), 16, replace=False)]
        reference = hartree_fock_state(12, 8)
        gens = [op.generator for op in ops]
        return ExecutionPlan.from_generators(gens, reference), gens, reference

    def test_equals_generator_evolution_product(self, h2o_pool_plan, rng):
        plan, gens, reference = h2o_pool_plan
        assert plan.dim == 225
        params = rng.normal(scale=0.5, size=len(gens))
        # the observable need not conserve N: only P H P enters
        h = _random_observable(12, 3) + _random_observable(12, 4)
        want, value, grad = _full_register_oracle(gens, reference, h, params)
        got = plan.execute(np.empty(plan.dim, dtype=np.complex128), params)
        np.testing.assert_allclose(plan.embed(got), want, rtol=0, atol=1e-12)
        from repro.sim.batched import reverse_value_and_gradient

        values, grads = reverse_value_and_gradient(plan, h, params[None])
        np.testing.assert_allclose(values, [value], rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[0], grad, rtol=0, atol=1e-12)

    def test_sweep_rows_are_independent(self, h2o_pool_plan, rng):
        """R = 3 rows in one sector sweep are three R = 1 sweeps, bit
        for bit."""
        from repro.sim.batched import reverse_value_and_gradient

        plan, gens, _ = h2o_pool_plan
        h = _random_observable(12, 5)
        rows = rng.normal(scale=0.5, size=(3, len(gens)))
        values, grads = reverse_value_and_gradient(plan, h, rows)
        for r, row in enumerate(rows):
            value, grad = reverse_value_and_gradient(plan, h, row[None])
            assert np.array_equal(value, values[r:r + 1])
            assert np.array_equal(grad, grads[r:r + 1])

    def test_qubit_pool_and_hea_keep_full_register(self):
        from repro.chem.pools import qubit_pool
        from repro.chem.reference import hartree_fock_state
        from repro.ir.library import hardware_efficient_ansatz

        gens = [op.generator for op in qubit_pool(12, 8)[:16]]
        plan = ExecutionPlan.from_generators(gens, hartree_fock_state(12, 8))
        assert plan.full_register and plan.dim == 4096 and plan.origin == 0
        assert sum(op.kind == "x" for op in plan.ops) == 8
        assert compile_circuit(hardware_efficient_ansatz(6)).full_register

    def test_parity_set_lih_matches_full_register_oracle(self, rng):
        """LiH's UCCSD operators that keep the Hamiltonian's Z2 parities
        run on the reference's parity set (69 of the sector's 225
        amplitudes) and embed to the full-register state."""
        from repro.chem.pools import uccsd_pool
        from repro.chem.reference import hartree_fock_bitstring, hartree_fock_state
        from repro.ir.symplectic import find_z2_symmetries, parity_flips
        from repro.utils.bitops import sector_of

        hq, n, ne = _uccsd_problem("lih")
        masks = find_z2_symmetries(hq)
        kept = [op.generator for op in uccsd_pool(n, ne)
                if not any(parity_flips(op.generator, masks))]
        gens = kept[::4]
        reference = hartree_fock_state(n, ne)
        plan = ExecutionPlan.from_generators(gens, reference, masks)
        assert plan.index is sector_of(n, hartree_fock_bitstring(n, ne), masks)
        assert plan.dim == 69
        params = rng.normal(scale=0.4, size=len(gens))
        want, value, grad = _full_register_oracle(gens, reference, hq, params)
        got = plan.execute(np.empty(plan.dim, dtype=np.complex128), params)
        np.testing.assert_allclose(plan.embed(got), want, rtol=0, atol=1e-12)
        from repro.sim.batched import reverse_value_and_gradient

        values, grads = reverse_value_and_gradient(plan, hq, params[None])
        np.testing.assert_allclose(values, [value], rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[0], grad, rtol=0, atol=1e-12)

    def test_adapt_lih_matches_full_space_oracle(self):
        """Four ADAPT iterations on LiH: the parity-set screen and
        parity-set objectives pick the operators, and reach the energies, of a
        full-space loop written out here."""
        from repro.chem.pools import uccsd_pool
        from repro.chem.reference import hartree_fock_state
        from repro.core.adapt import AdaptVQE
        from repro.ir.compiled import compile_observable
        from repro.opt.scipy_wrap import LBFGSB

        hq, n, ne = _uccsd_problem("lih")
        pool, reference = uccsd_pool(n, ne), hartree_fock_state(n, ne)
        adapt = AdaptVQE(hq, pool, reference, max_iterations=4, gradient_tolerance=0.0)
        assert adapt.index.size == 69
        result = adapt.run()

        h = compile_observable(hq)
        chosen, params, energies = [], np.zeros(0), []
        psi = reference.astype(np.complex128)
        for _ in range(4):
            h_psi = h.apply(psi)
            screen = np.abs([2.0 * np.vdot(h_psi, compile_observable(op.generator).apply(psi)).real
                             for op in pool])
            # AdaptVQE's rule: spin partners tie exactly, so the lowest
            # index within 1e-10 of the largest wins, not the round-off
            chosen.append(int(np.flatnonzero(screen >= screen.max() * (1.0 - 1e-10))[0]))
            gens = [pool[k].generator for k in chosen]

            def energy(x, gens=gens):
                return _full_register_oracle(gens, reference, hq, x)[1]

            def gradient(x, gens=gens):
                return _full_register_oracle(gens, reference, hq, x)[2]

            res = LBFGSB(max_iterations=500).minimize(
                energy, np.concatenate([params, [0.0]]), gradient=gradient
            )
            params, psi = res.x, _full_register_oracle(gens, reference, hq, res.x)[0]
            energies.append(res.fun)
        assert result.operator_labels == [pool[k].label for k in chosen]
        np.testing.assert_allclose(
            [it.energy for it in result.iterations], energies, rtol=0, atol=1e-10
        )

    def test_pruned_operators_have_zero_gradient(self):
        """The ADAPT screen skips the LiH operators that break a Z2
        parity of H: their screened gradient is exactly 0.0, and on the
        full register at the ADAPT state it is zero to round-off."""
        from repro.chem.pools import uccsd_pool
        from repro.chem.reference import hartree_fock_state
        from repro.core.adapt import AdaptVQE
        from repro.ir.compiled import compile_observable

        hq, n, ne = _uccsd_problem("lih")
        pool = uccsd_pool(n, ne)
        adapt = AdaptVQE(hq, pool, hartree_fock_state(n, ne), gradient_tolerance=0.0)
        st = adapt.initial_state()
        for _ in range(2):
            adapt.step(st)
        pruned = sorted(set(range(len(pool))) - set(adapt._screened))
        assert len(pruned) == len(pool) - 34
        grads = adapt.pool_gradients(st.statevector)
        assert all(grads[k] == 0.0 for k in pruned)
        h_psi = compile_observable(hq).apply(st.statevector)
        for k in pruned:
            a_psi = compile_observable(pool[k].generator).apply(st.statevector)
            assert abs(2.0 * np.vdot(h_psi, a_psi).real) < 1e-12

    def test_batched_and_distributed_executors_agree(self, rng):
        """A qubit pool does not close on a sector, so its plan holds the
        full register and runs under every executor."""
        from repro.chem.pools import qubit_pool
        from repro.chem.reference import hartree_fock_state

        pool = qubit_pool(12, 8)
        gens = [pool[k].generator
                for k in np.random.default_rng(5).choice(len(pool), 16, replace=False)]
        plan = ExecutionPlan.from_generators(gens, hartree_fock_state(12, 8))
        assert plan.full_register
        rows = rng.normal(scale=0.5, size=(3, len(gens)))
        want = [plan.execute(np.empty(plan.dim, dtype=np.complex128), row) for row in rows]
        got = BatchedStatevectorSimulator(plan.num_qubits, len(rows)).run_plan(plan, rows)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for ranks in (2, 4):
            dsv = DistributedStatevector(plan.num_qubits, ranks)
            dsv.run_plan(plan, rows[0])
            np.testing.assert_allclose(dsv.gather(), want[0], rtol=0, atol=1e-12)
