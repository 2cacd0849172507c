"""Tests for the classical optimizers and the adjoint gradients."""

import numpy as np
import pytest

from repro.chem.reference import hartree_fock_state
from repro.chem.uccsd import uccsd_generators
from repro.ir.pauli import PauliSum
from repro.opt import (
    AnsatzObjective,
    LBFGSB,
    finite_difference_gradient,
)


def quadratic(x):
    return float(np.sum((x - np.array([1.0, -2.0])) ** 2))


def quadratic_grad(x):
    return 2.0 * (x - np.array([1.0, -2.0]))


class TestOptimizersOnQuadratic:
    def test_lbfgsb_with_gradient(self):
        res = LBFGSB().minimize(quadratic, np.zeros(2), gradient=quadratic_grad)
        assert np.allclose(res.x, [1.0, -2.0], atol=1e-6)
        assert res.nfev < 30

    def test_history_recorded(self):
        res = LBFGSB().minimize(quadratic, np.zeros(2), gradient=quadratic_grad)
        assert len(res.history) > 1
        assert res.history[-1] <= res.history[0]


class TestFiniteDifference:
    def test_matches_analytic(self):
        x = np.array([0.3, -0.7])
        fd = finite_difference_gradient(quadratic, x)
        assert np.allclose(fd, quadratic_grad(x), atol=1e-5)


@pytest.fixture(scope="module")
def h2_objective():
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.molecule import h2
    from repro.chem.scf import run_rhf

    scf = run_rhf(h2())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    gens = [a for _, a in uccsd_generators(4, 2)]
    ref = hartree_fock_state(4, 2)
    return AnsatzObjective(ref, gens, hq)


class TestAnsatzObjective:
    def test_zero_params_is_hf(self, h2_objective):
        from repro.chem.molecule import h2
        from repro.chem.scf import run_rhf

        e = h2_objective.energy(np.zeros(3))
        assert np.isclose(e, run_rhf(h2()).energy, atol=1e-8)

    def test_adjoint_matches_finite_difference(self, h2_objective, rng):
        for _ in range(3):
            x = rng.normal(scale=0.2, size=3)
            adj = h2_objective.gradient(x)
            fd = finite_difference_gradient(h2_objective.energy, x)
            assert np.allclose(adj, fd, atol=1e-5)

    def test_energy_and_gradient_consistent(self, h2_objective, rng):
        """energy() then gradient() at one point read one fused sweep;
        its value equals <H> on prepare_state, and its gradient the one
        re-swept when gradient() asks for a point the sweep left."""
        from repro.ir.compiled import compile_observable

        x, y = rng.normal(scale=0.1, size=(2, 3))
        e, g = h2_objective.energy(x), h2_objective.gradient(x)
        h2_objective.energy(y)  # fused: the kept gradient is now y's
        assert np.array_equal(h2_objective.gradient(x), g)
        psi = h2_objective.prepare_state(x)
        h = compile_observable(h2_objective.hamiltonian)
        assert np.isclose(e, h.expectation(psi).real, rtol=0, atol=1e-12)

    def test_parameter_count_checked(self, h2_objective):
        with pytest.raises(ValueError):
            h2_objective.prepare_state(np.zeros(5))

    def test_state_normalized(self, h2_objective, rng):
        st = h2_objective.prepare_state(rng.normal(scale=0.3, size=3))
        assert np.isclose(np.linalg.norm(st), 1.0, atol=1e-10)

    def test_lbfgs_reaches_fci(self, h2_objective):
        from repro.chem.fci import exact_ground_energy

        res = LBFGSB().minimize(
            h2_objective.energy, np.zeros(3), gradient=h2_objective.gradient
        )
        e_fci = exact_ground_energy(h2_objective.hamiltonian, num_particles=2, sz=0)
        assert abs(res.fun - e_fci) < 1e-6


class TestLBFGSInputs:
    """Bad starting points fail early; a non-finite value or gradient
    ends the run, not converged, at the last finite iterate."""

    def test_nan_value_is_not_converged(self):
        res = LBFGSB().minimize(
            lambda x: float("nan"), np.zeros(2), gradient=quadratic_grad
        )
        assert not res.converged
        assert res.nfev == 1 and res.nit == 0
        assert np.array_equal(res.x, np.zeros(2))

    def test_non_finite_x0_names_the_index(self):
        with pytest.raises(ValueError, match=r"x0\[1\] is nan"):
            LBFGSB().minimize(quadratic, np.array([0.0, np.nan]), gradient=quadratic_grad)
        with pytest.raises(ValueError, match=r"x0\[0\] is inf"):
            LBFGSB().minimize(quadratic, np.array([np.inf, 0.0]))

    def test_x0_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            LBFGSB().minimize(quadratic, np.zeros((1, 2)), gradient=quadratic_grad)

    def test_nan_during_line_search_keeps_last_finite_iterate(self):
        """The first trial (x = 1) is outside the domain: the run stops
        at x0 with its finite value."""

        def fun(x):
            return float((x[0] - 1.0) ** 2) if x[0] < 0.5 else float("nan")

        def grad(x):
            return np.array([2.0 * (x[0] - 1.0)])

        res = LBFGSB().minimize(fun, np.zeros(1), gradient=grad)
        assert not res.converged
        assert res.x.tolist() == [0.0] and res.fun == 1.0
        assert res.nfev == 2

    def test_non_finite_gradient_stops_the_run(self):
        res = LBFGSB().minimize(
            quadratic, np.zeros(2), gradient=lambda x: np.array([np.inf, 0.0])
        )
        assert not res.converged and res.nfev == 1

    def test_ask_tell_loop_equals_minimize(self):
        from repro.opt.lbfgs import LBFGSState

        state = LBFGSState(np.zeros(2), max_iterations=1000, tol=1e-10)
        while not state.done:
            x = state.ask()
            state.tell(quadratic(x), quadratic_grad(x))
        res = LBFGSB().minimize(quadratic, np.zeros(2), gradient=quadratic_grad)
        assert np.array_equal(state.x, res.x) and state.nit == res.nit
        assert state.converged and res.converged
        with pytest.raises(RuntimeError):
            state.ask()

    def test_iteration_limit_is_not_converged(self):
        res = LBFGSB(max_iterations=1).minimize(
            lambda x: float(np.sum(x**4)), np.ones(3), gradient=lambda x: 4 * x**3
        )
        assert res.nit == 1 and not res.converged


class TestGradientFreeDefault:
    """Circuit-mode VQE with an estimator that gives no gradient runs
    the default optimizer on forward differences (values recorded with
    the scipy L-BFGS-B the default replaced)."""

    @pytest.fixture(scope="class")
    def h2_circuit(self):
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.scf import run_rhf
        from repro.chem.uccsd import build_uccsd_circuit

        mh = build_molecular_hamiltonian(run_rhf(h2()))
        ansatz = build_uccsd_circuit(mh.num_spin_orbitals, mh.num_electrons).circuit
        return mh.to_qubit(), ansatz

    def test_caching_estimator(self, h2_circuit):
        from repro.core.estimator import CachingEstimator
        from repro.core.vqe import VQE

        hq, ansatz = h2_circuit
        result = VQE(hq, ansatz=ansatz, estimator=CachingEstimator()).run()
        assert abs(result.energy - -1.137270175242591) < 1e-10
        assert result.num_function_evaluations == 24
        assert result.converged

    def test_sampling_estimator(self, h2_circuit):
        from repro.core.estimator import SamplingEstimator
        from repro.core.vqe import VQE

        hq, ansatz = h2_circuit
        result = VQE(
            hq, ansatz=ansatz, estimator=SamplingEstimator(shots_per_group=4096, seed=7)
        ).run()
        assert abs(result.energy - -1.1144713918935858) < 1e-10
        assert result.num_function_evaluations == 124
