"""Benchmarks for the implemented §6 extensions: batched execution,
CAFQA Clifford bootstrap, warm-started scans, and ensemble gradients.

These are the paper's "future improvements" (§6.2) and related-work
integrations (§6.1) built out as working features; each benchmark
quantifies the win the paper anticipates.
"""

import numpy as np
import pytest

from _util import write_table
from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2
from repro.chem.scf import run_rhf
from repro.core.cafqa import cafqa_search
from repro.core.scan import scan_potential_energy_surface
from repro.hpc.ensemble import EnsembleExecutor
from repro.ir.library import hardware_efficient_ansatz
from repro.opt.parameter_shift import parameter_shift_gradient
from repro.sim.batched import reverse_value_and_gradient
from repro.sim.plan import compile_circuit


@pytest.fixture(scope="module")
def h2_problem(h2_hamiltonian):
    scf, mh = h2_hamiltonian
    return scf, mh.to_qubit()


def test_batched_gradient(benchmark, h2_problem):
    """§6.2 batch execution: energies and exact gradients of 8 parameter
    rows as one block reverse-mode sweep."""
    _, hq = h2_problem
    ansatz = hardware_efficient_ansatz(4, layers=2)
    rows = np.random.default_rng(0).normal(scale=0.2, size=(8, ansatz.num_parameters))
    plan = compile_circuit(ansatz)
    benchmark(lambda: reverse_value_and_gradient(plan, hq, rows))


def test_serial_gradient_baseline(benchmark, h2_problem):
    """One-row-at-a-time baseline for the batching comparison."""
    _, hq = h2_problem
    ansatz = hardware_efficient_ansatz(4, layers=2)
    rows = np.random.default_rng(0).normal(scale=0.2, size=(8, ansatz.num_parameters))
    g_serial = benchmark(
        lambda: [parameter_shift_gradient(ansatz, hq, x) for x in rows]
    )
    _, g_batched = reverse_value_and_gradient(compile_circuit(ansatz), hq, rows)
    assert np.array_equal(g_serial, g_batched)


def test_cafqa_bootstrap_quality(benchmark, h2_problem):
    """§6.1 CAFQA: the Clifford search must land at/below the HF energy
    starting from a state with ~zero correlation energy."""
    scf, hq = h2_problem
    ansatz = hardware_efficient_ansatz(4, layers=1)
    res = benchmark.pedantic(
        lambda: cafqa_search(ansatz, hq, restarts=3), rounds=1, iterations=1
    )
    e_zero_start = hq.expectation(
        np.eye(1, 16, 0, dtype=complex).ravel()
    ).real  # |0000>
    e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
    write_table(
        "cafqa_bootstrap",
        ["point", "energy_Ha"],
        [
            ("|0000> (zero angles)", f"{e_zero_start:+.6f}"),
            ("CAFQA best Clifford", f"{res.energy:+.6f}"),
            ("RHF", f"{scf.energy:+.6f}"),
            ("FCI", f"{e_fci:+.6f}"),
        ],
        caption=f"CAFQA Clifford bootstrap on H2 ({res.evaluations} "
        "stabilizer evaluations)",
    )
    assert res.energy <= scf.energy + 1e-9
    assert res.energy < e_zero_start - 0.5  # massive initialization gain


def test_warm_start_scan(benchmark):
    """§6.2 incremental optimization on a stretched-H2 scan."""
    lengths = [1.5, 1.55, 1.6, 1.65, 1.7]

    def run_both():
        warm = scan_potential_energy_surface(
            h2, lengths, warm_start=True, compute_exact=False
        )
        cold = scan_potential_energy_surface(
            h2, lengths, warm_start=False, compute_exact=False
        )
        return warm, cold

    warm, cold = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert np.allclose(warm.energies, cold.energies, atol=1e-7)
    rows = [
        (f"{p.parameter:.2f}", w.function_evaluations, c.function_evaluations)
        for p, w, c in zip(warm.points, warm.points, cold.points)
    ]
    write_table(
        "warm_start_scan",
        ["bond_A", "warm_evals", "cold_evals"],
        rows,
        caption="Warm-started vs cold-started VQE along the H2 curve",
    )
    warm_tail = sum(p.function_evaluations for p in warm.points[1:])
    cold_tail = sum(p.function_evaluations for p in cold.points[1:])
    assert warm_tail < cold_tail


def test_ensemble_gradient(benchmark, h2_problem):
    """EQC-style ensembling of the gradient workload over 8 devices."""
    _, hq = h2_problem
    ansatz = hardware_efficient_ansatz(4, layers=2)
    rng = np.random.default_rng(1)
    x = rng.normal(scale=0.2, size=ansatz.num_parameters)
    ex = EnsembleExecutor(num_devices=8)
    grad, res = benchmark.pedantic(
        lambda: ex.parameter_shift_gradient(ansatz, hq, x),
        rounds=1,
        iterations=1,
    )
    serial = parameter_shift_gradient(ansatz, hq, x)
    assert np.allclose(grad, serial, atol=1e-9)
    write_table(
        "ensemble_gradient",
        ["metric", "value"],
        [
            ("evaluations", 2 * ansatz.num_parameters),
            ("devices", 8),
            ("ensemble speedup", f"{res.speedup:.2f}x"),
            ("utilization", f"{100 * res.schedule.utilization:.1f}%"),
        ],
        caption="EQC-style ensemble execution of one parameter-shift gradient",
    )
    assert res.speedup > 5.0
