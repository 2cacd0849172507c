"""The numpy L-BFGS and the Lanczos FCI against scipy as the oracle.

``LBFGSB`` is L-BFGS-B restricted to unbounded problems, so on every
problem here it must find what ``scipy.optimize.minimize(method=
"L-BFGS-B")`` finds — the same minimizer, and on the VQE and ADAPT
problems the drivers run, the same evaluation and iteration counts.
The oracle is the scipy adapter ``ScipyOptimizer("L-BFGS-B")``
(``tests/scipy_oracle.py``), the default optimizer before the numpy
one.  Sector eigenvalues from ``exact_ground_state``'s Lanczos branch
are held to ``eigsh`` and ``eigh``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.chem import fci
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2, h2o, h4_chain
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.chem.uccsd import build_uccsd_circuit, uccsd_generators
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.opt.base import Optimizer
from repro.opt.lbfgs import LBFGSB
from repro.utils.bitops import sector_indices
from tests.scipy_oracle import ScipyOptimizer


def scipy_lbfgsb(max_iterations=1000, tol=1e-10):
    return ScipyOptimizer("L-BFGS-B", max_iterations=max_iterations, tol=tol)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rosenbrock_grad(x):
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return g


class TestAgainstScipyOnTestFunctions:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_spd_quadratic(self, n):
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(0.5, 50.0, n)) @ q.T
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)

        def fun(x):
            return float(0.5 * x @ a @ x - b @ x)

        def grad(x):
            return a @ x - b

        ours = LBFGSB().minimize(fun, x0, gradient=grad)
        theirs = scipy_lbfgsb().minimize(fun, x0, gradient=grad)
        assert ours.converged and theirs.converged
        assert np.abs(ours.x - theirs.x).max() < 1e-8

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("start", ["classic", "random"])
    def test_rosenbrock(self, n, start):
        x0 = np.full(n, -1.2) if start == "classic" else np.random.default_rng(n).normal(size=n)
        ours = LBFGSB().minimize(rosenbrock, x0, gradient=rosenbrock_grad)
        theirs = scipy_lbfgsb().minimize(rosenbrock, x0, gradient=rosenbrock_grad)
        assert np.abs(ours.x - theirs.x).max() < 1e-8
        assert (ours.nfev, ours.nit) == (theirs.nfev, theirs.nit)

    def test_forward_differences(self):
        """No gradient: the same forward differences as scipy's default."""
        x0 = np.full(2, -1.2)
        ours = LBFGSB().minimize(rosenbrock, x0)
        theirs = scipy_lbfgsb().minimize(rosenbrock, x0)
        assert (ours.nfev, ours.nit) == (theirs.nfev, theirs.nit)
        assert np.abs(ours.x - theirs.x).max() < 1e-8


def _qubit_problem(factory):
    mh = build_molecular_hamiltonian(run_rhf(factory()))
    return mh.to_qubit(), mh.num_spin_orbitals, mh.num_electrons


@pytest.fixture(scope="module", params=["h2", "h4"])
def uccsd_problem(request):
    return _qubit_problem({"h2": h2, "h4": h4_chain}[request.param])


def _same_run(ours, theirs):
    assert (ours.num_function_evaluations, ours.num_iterations) == (
        theirs.num_function_evaluations,
        theirs.num_iterations,
    )
    assert abs(ours.energy - theirs.energy) < 1e-12
    assert ours.converged == theirs.converged


class TestAgainstScipyOnVQE:
    @pytest.mark.parametrize("seed", range(4))
    def test_uccsd_exact_gradient(self, uccsd_problem, seed):
        from repro.core.vqe import VQE

        hq, n_so, n_e = uccsd_problem
        gens = [a for _, a in uccsd_generators(n_so, n_e)]
        ref = hartree_fock_state(n_so, n_e)
        x0 = 0.1 * np.random.default_rng(seed).standard_normal(len(gens)) if seed else None
        runs = [
            VQE(hq, generators=gens, reference_state=ref, optimizer=opt).run(x0)
            for opt in (LBFGSB(), scipy_lbfgsb())
        ]
        _same_run(*runs)

    def test_h4_circuit_finite_difference(self):
        """The circuit-mode VQE's central-difference gradient, as the
        gate-level H4 benchmark row runs it."""
        from repro.core.estimator import DirectEstimator
        from repro.core.vqe import VQE

        hq, n_so, n_e = _qubit_problem(h4_chain)
        ansatz = build_uccsd_circuit(n_so, n_e).circuit
        runs = [
            VQE(hq, ansatz=ansatz, estimator=DirectEstimator(), fd_gradient=True,
                optimizer=opt).run()
            for opt in (LBFGSB(), scipy_lbfgsb())
        ]
        _same_run(*runs)
        assert runs[0].num_function_evaluations == 12 and runs[0].num_iterations == 10


class _Counting(Optimizer):
    def __init__(self, inner):
        self.inner = inner
        self.runs = []

    def minimize(self, fun, x0, gradient=None):
        result = self.inner.minimize(fun, x0, gradient=gradient)
        self.runs.append((result.nfev, result.nit))
        return result


def test_quick_adapt_h2o_matches_scipy():
    """Downfolded 8-qubit H2O ADAPT-VQE to 1 mHa: the same operators,
    and each inner optimization with the same counts and energy."""
    from repro.chem.downfolding import hermitian_downfold
    from repro.chem.pools import uccsd_pool
    from repro.core.adapt import AdaptVQE

    scf = run_rhf(h2o())
    down = hermitian_downfold(
        build_molecular_hamiltonian(scf), scf.mo_energies,
        core_orbitals=[0, 1], active_orbitals=[2, 3, 4, 5],
    )
    heff = down.effective_hamiltonian.chop(1e-8)
    n_q, n_e = heff.num_qubits, down.num_electrons
    e_exact = fci.exact_ground_energy(heff, num_particles=n_e, sz=0)
    results, counts = [], []
    for inner in (LBFGSB(max_iterations=500), scipy_lbfgsb(max_iterations=500)):
        opt = _Counting(inner)
        results.append(AdaptVQE(
            heff, uccsd_pool(n_q, n_e), hartree_fock_state(n_q, n_e), optimizer=opt,
            max_iterations=25, reference_energy=e_exact, energy_tolerance=1e-3,
        ).run())
        counts.append(opt.runs)
    ours, theirs = results
    assert counts[0] == counts[1]
    assert [it.selected_label for it in ours.iterations] == [
        it.selected_label for it in theirs.iterations
    ]
    for a, b in zip(ours.iterations, theirs.iterations):
        assert abs(a.energy - b.energy) < 1e-12


class TestLanczosFCI:
    @pytest.fixture(scope="class")
    def h2o_14q(self):
        hq, _, n_e = _qubit_problem(h2o)
        return hq, n_e

    def test_full_h2o_equals_eigsh_and_eigh(self, h2o_14q):
        """441-row sector, above the dense limit: the Lanczos branch."""
        hq, n_e = h2o_14q
        keep = sector_indices(hq.num_qubits, n_e, 0)
        assert keep.size == 441 > fci.DENSE_LIMIT
        e, state = fci.exact_ground_state(hq, num_particles=n_e, sz=0)
        block = hq.matrix_block(keep, keep)
        e_eigsh = spla.eigsh(sp.csr_matrix(block), k=1, which="SA")[0][0]
        assert abs(e - e_eigsh) < 1e-10
        assert abs(e - np.linalg.eigvalsh(block)[0]) < 1e-10
        vector = state[keep]
        assert np.linalg.norm(block @ vector - e * vector) < 1e-8
        assert np.count_nonzero(np.delete(state, keep)) == 0

    @pytest.mark.parametrize("factory", [h2, h4_chain])
    def test_lanczos_equals_eigh_on_dense_sectors(self, factory):
        hq, _, n_e = _qubit_problem(factory)
        keep = sector_indices(hq.num_qubits, n_e, 0)
        e, vector = fci._lanczos(compile_observable(hq, keep).apply, keep.size)
        assert abs(e - np.linalg.eigvalsh(hq.matrix_block(keep, keep))[0]) < 1e-10
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-12

    def test_non_hermitian_rejected_on_the_lanczos_branch(self):
        """A 12-qubit sum whose 400-row (6, 0) block is not Hermitian:
        ``X0 X2`` moves an electron between two same-spin orbitals."""
        h = PauliSum.from_label_dict({"I" * 9 + "XIX": 0.5j, "Z" * 12: 1.0})
        with pytest.raises(ValueError, match=r"not Hermitian \(max .* 1\.000e\+00"):
            fci.exact_ground_state(h, num_particles=6, sz=0)
