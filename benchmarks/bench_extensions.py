"""Benchmarks for the implemented §6.2 extensions: batched execution
and warm-started scans.

These are two of the paper's "future improvements" (§6.2) built out as
working features; each benchmark quantifies the win the paper
anticipates.
"""

import numpy as np
import pytest

from _util import write_table
from repro.chem.molecule import h2
from repro.core.scan import scan_potential_energy_surface
from repro.ir.library import hardware_efficient_ansatz
from repro.opt.parameter_shift import parameter_shift_gradient
from repro.sim.batched import reverse_value_and_gradient
from repro.sim.plan import compile_circuit


@pytest.fixture(scope="module")
def h2_qubit(h2_hamiltonian):
    return h2_hamiltonian[1].to_qubit()


def test_batched_gradient(benchmark, h2_qubit):
    """§6.2 batch execution: energies and exact gradients of 8 parameter
    rows as one block reverse-mode sweep."""
    hq = h2_qubit
    ansatz = hardware_efficient_ansatz(4, layers=2)
    rows = np.random.default_rng(0).normal(scale=0.2, size=(8, ansatz.num_parameters))
    plan = compile_circuit(ansatz)
    benchmark(lambda: reverse_value_and_gradient(plan, hq, rows))


def test_serial_gradient_baseline(benchmark, h2_qubit):
    """One-row-at-a-time baseline for the batching comparison."""
    hq = h2_qubit
    ansatz = hardware_efficient_ansatz(4, layers=2)
    rows = np.random.default_rng(0).normal(scale=0.2, size=(8, ansatz.num_parameters))
    g_serial = benchmark(
        lambda: [parameter_shift_gradient(ansatz, hq, x) for x in rows]
    )
    _, g_batched = reverse_value_and_gradient(compile_circuit(ansatz), hq, rows)
    assert np.array_equal(g_serial, g_batched)


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
