"""Compiled circuit plans: per-gate bind+run vs plan.

The workload is the Fig. 5 system (12-qubit downfolded H2O) driven by
a hardware-efficient ansatz — the parameter-shift-eligible circuit the
VQE optimizer actually differentiates.  Two execution strategies are
compared on the two hot operations of one optimizer iteration:

* **per-gate** — ``bind()`` a full circuit copy, walk ``Gate`` objects
  through the ``apply_gate`` name dispatch, one expectation per shifted
  evaluation (the pre-plan path);
* **plan** — ``compile_circuit``: prepacked kernel ops, static-segment
  fusion and diagonal folding paid once, and the gradient read off one
  forward pass + one ``H|psi>`` + one backward sweep
  (``repro.opt.parameter_shift``'s reverse-mode default).

Run under pytest-benchmark for timing curves, or standalone in smoke
mode (used by CI) to check the >=5x gradient and >=2x VQE-iteration
floors at bit-identical energies:

    PYTHONPATH=src python benchmarks/bench_circuit_plan.py --smoke
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _util import write_table
from repro.core.estimator import DirectEstimator
from repro.ir.library import hardware_efficient_ansatz
from repro.opt.parameter_shift import parameter_shift_gradient
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator

MIN_GRAD_SPEEDUP = 5.0   # acceptance floor; reverse-mode measures ~50x
MIN_ITER_SPEEDUP = 2.0   # acceptance floor for energy+gradient together
LAYERS = 2


def _workload(h2o_hamiltonian):
    from repro.chem.downfolding import hermitian_downfold

    scf, mh = h2o_hamiltonian
    heff = hermitian_downfold(
        mh, scf.mo_energies, core_orbitals=[0],
        active_orbitals=[1, 2, 3, 4, 5, 6],
    ).effective_hamiltonian.chop(1e-8)
    circ = hardware_efficient_ansatz(heff.num_qubits, layers=LAYERS)
    params = np.random.default_rng(5).uniform(-1, 1, circ.num_parameters)
    return heff, circ, params


def _naive_gradient(circ, heff, params):
    return parameter_shift_gradient(
        circ, heff, params, estimate=DirectEstimator().estimate
    )


# -- pytest-benchmark entry points ------------------------------------------


def test_pergate_gradient_h2o(benchmark, h2o_hamiltonian):
    heff, circ, params = _workload(h2o_hamiltonian)
    grad = benchmark(_naive_gradient, circ, heff, params)
    assert np.all(np.isfinite(grad))


def test_plan_gradient_h2o(benchmark, h2o_hamiltonian):
    heff, circ, params = _workload(h2o_hamiltonian)
    compile_circuit(circ)  # compile outside the timer
    grad = benchmark(parameter_shift_gradient, circ, heff, params)
    assert np.max(np.abs(grad - _naive_gradient(circ, heff, params))) < 1e-10


def test_pergate_energy_h2o(benchmark, h2o_hamiltonian):
    heff, circ, params = _workload(h2o_hamiltonian)
    est = DirectEstimator()
    benchmark(lambda: est.estimate(circ.bind(list(params)), heff))


def test_plan_energy_h2o(benchmark, h2o_hamiltonian):
    heff, circ, params = _workload(h2o_hamiltonian)
    est = DirectEstimator()
    plan = compile_circuit(circ)
    e_plan = benchmark(lambda: est.estimate_plan(plan, params, heff))
    assert abs(e_plan - est.estimate(circ.bind(list(params)), heff)) < 1e-10


# -- smoke mode (CI) ---------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_smoke(repeats: int = 3) -> int:
    from bench_expectation_engine import build_h2o_effective_hamiltonian

    print("building 12-qubit downfolded H2O Hamiltonian ...")
    heff = build_h2o_effective_hamiltonian()
    circ = hardware_efficient_ansatz(heff.num_qubits, layers=LAYERS)
    params = np.random.default_rng(5).uniform(-1, 1, circ.num_parameters)
    est = DirectEstimator()

    t0 = time.perf_counter()
    plan = compile_circuit(circ)
    t_compile = time.perf_counter() - t0

    # correctness first: every strategy must agree to 1e-10
    g_naive = _naive_gradient(circ, heff, params)
    g_plan = parameter_shift_gradient(circ, heff, params)
    err_plan = float(np.max(np.abs(g_plan - g_naive)))
    e_naive = est.estimate(circ.bind(list(params)), heff)
    e_plan = est.estimate_plan(plan, params, heff)
    err_energy = abs(e_plan - e_naive)

    t_g_naive = _best_of(lambda: _naive_gradient(circ, heff, params), repeats)
    t_g_plan = _best_of(
        lambda: parameter_shift_gradient(circ, heff, params), repeats
    )
    t_e_naive = _best_of(
        lambda: est.estimate(circ.bind(list(params)), heff), repeats
    )
    t_e_plan = _best_of(
        lambda: est.estimate_plan(plan, params, heff), repeats
    )
    grad_speedup = t_g_naive / t_g_plan
    iter_speedup = (t_g_naive + t_e_naive) / (t_g_plan + t_e_plan)

    table = write_table(
        "circuit_plan",
        ["metric", "value"],
        [
            ("qubits", heff.num_qubits),
            ("source_gates", len(circ)),
            ("parameters", circ.num_parameters),
            ("plan_ops", plan.num_ops),
            ("fused_gates_removed", plan.fused_gates_removed),
            ("diag_gates_folded", plan.diag_gates_folded),
            ("compile_s", f"{t_compile:.4f}"),
            ("pergate_gradient_s", f"{t_g_naive:.4f}"),
            ("plan_gradient_s", f"{t_g_plan:.5f}"),
            ("gradient_speedup", f"{grad_speedup:.1f}x"),
            ("pergate_energy_s", f"{t_e_naive:.5f}"),
            ("plan_energy_s", f"{t_e_plan:.5f}"),
            ("vqe_iteration_speedup", f"{iter_speedup:.1f}x"),
            ("gradient_max_abs_err", f"{err_plan:.2e}"),
            ("energy_abs_err", f"{err_energy:.2e}"),
        ],
        caption="Compiled circuit plans vs per-gate bind+run "
        "(12-qubit downfolded H2O, hardware-efficient ansatz)",
    )
    print("\n" + table)

    failures = []
    if err_plan > 1e-10:
        failures.append(f"gradient mismatch: plan {err_plan:.3e} > 1e-10")
    if err_energy > 1e-10:
        failures.append(f"energy mismatch: {err_energy:.3e} > 1e-10")
    if grad_speedup < MIN_GRAD_SPEEDUP:
        failures.append(
            f"gradient speedup {grad_speedup:.1f}x < {MIN_GRAD_SPEEDUP}x"
        )
    if iter_speedup < MIN_ITER_SPEEDUP:
        failures.append(
            f"iteration speedup {iter_speedup:.1f}x < {MIN_ITER_SPEEDUP}x"
        )
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(
            f"OK: gradient {grad_speedup:.1f}x, iteration "
            f"{iter_speedup:.1f}x, energies/gradients identical to 1e-10"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_smoke())
