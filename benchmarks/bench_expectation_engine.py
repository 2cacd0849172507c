"""Compiled-observable engine: naive per-term vs x-mask-batched.

The direct expectation method (paper §4.2.2) pays one full-vector pass
per Hamiltonian term; ``repro.ir.compiled`` batches terms sharing an
x-mask into one gather + multiply + reduction per *distinct* mask.  On
the 12-qubit downfolded H2O Hamiltonian (the Fig. 5 system) that turns
~4.7k term passes into ~140 mask passes per energy/gradient call.

Run under pytest-benchmark for timing curves, or standalone in smoke
mode (used by CI) to check correctness, the pass-count reduction and
that the observable compiled on the (N = 8, S_z = 0) sector equals the
full-register one there, without the benchmark harness:

    PYTHONPATH=src python benchmarks/bench_expectation_engine.py --smoke
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _util import write_table
from repro.ir.compiled import CompiledPauliSum, compile_observable
from repro.ir.pauli import PauliSum
from repro.utils.linalg import random_statevector

# The naive reference must beat hand-written per-term loops, not a
# strawman: one vectorized pass per term, no H@psi materialization.
from repro.utils.bitops import I_POW, basis_indices, count_set_bits, popcount, sector_indices

MIN_PASS_REDUCTION = 5.0  # H2O actually achieves ~34x
MIN_SMOKE_SPEEDUP = 3.0   # acceptance floor; measured ~100x locally


def naive_expectation(state: np.ndarray, observable: PauliSum) -> complex:
    """<psi|H|psi> with one vectorized pass per term (the pre-compiled
    direct method, kept here as the timing/correctness reference)."""
    idx = basis_indices(observable.num_qubits)
    total = 0.0 + 0.0j
    for (x, z), coeff in observable.terms.items():
        src = idx ^ x
        signs = 1.0 - 2.0 * (count_set_bits(src & z) & 1)
        phase = I_POW[popcount(x & z) % 4]
        total += (coeff * phase) * np.vdot(state, state[src] * signs)
    return complex(total)


def naive_apply(state: np.ndarray, observable: PauliSum) -> np.ndarray:
    out = np.zeros_like(state, dtype=np.complex128)
    idx = basis_indices(observable.num_qubits)
    for (x, z), coeff in observable.terms.items():
        src = idx ^ x
        signs = 1.0 - 2.0 * (count_set_bits(src & z) & 1)
        phase = I_POW[popcount(x & z) % 4]
        out += (coeff * phase) * (state[src] * signs)
    return out


def build_h2o_effective_hamiltonian() -> PauliSum:
    """The Fig. 5 system: STO-3G H2O, O 1s downfolded out, 12 qubits."""
    from repro.chem.downfolding import hermitian_downfold
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.molecule import h2o
    from repro.chem.scf import run_rhf

    scf = run_rhf(h2o())
    mh = build_molecular_hamiltonian(scf)
    downfolded = hermitian_downfold(
        mh, scf.mo_energies, core_orbitals=[0],
        active_orbitals=[1, 2, 3, 4, 5, 6],
    )
    return downfolded.effective_hamiltonian.chop(1e-8)


# -- pytest-benchmark entry points ------------------------------------------


def test_naive_expectation_h2o(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    state = random_statevector(heff.num_qubits, np.random.default_rng(11))
    value = benchmark(naive_expectation, state, heff)
    assert abs(value.imag) < 1e-8


def test_compiled_expectation_h2o(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    state = random_statevector(heff.num_qubits, np.random.default_rng(11))
    compiled = compile_observable(heff)  # compile once, outside the timer
    value = benchmark(compiled.expectation, state)
    assert abs(value - naive_expectation(state, heff)) < 1e-10
    assert heff.num_terms >= MIN_PASS_REDUCTION * compiled.num_passes


def test_compiled_apply_h2o(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    state = random_statevector(heff.num_qubits, np.random.default_rng(11))
    compiled = compile_observable(heff)
    out = benchmark(compiled.apply, state)
    assert np.allclose(out, naive_apply(state, heff), atol=1e-10)


def _heff_from_fixture(h2o_hamiltonian):
    from repro.chem.downfolding import hermitian_downfold

    scf, mh = h2o_hamiltonian
    downfolded = hermitian_downfold(
        mh, scf.mo_energies, core_orbitals=[0],
        active_orbitals=[1, 2, 3, 4, 5, 6],
    )
    return downfolded.effective_hamiltonian.chop(1e-8)


# -- smoke mode (CI) ---------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_smoke(repeats: int = 3) -> int:
    print("building 12-qubit downfolded H2O Hamiltonian ...")
    heff = build_h2o_effective_hamiltonian()
    state = random_statevector(heff.num_qubits, np.random.default_rng(11))

    t0 = time.perf_counter()
    compiled = CompiledPauliSum(heff)
    t_compile = time.perf_counter() - t0

    # correctness first: compiled must match the per-term reference
    e_naive = naive_expectation(state, heff)
    e_compiled = compiled.expectation(state)
    err_exp = abs(e_compiled - e_naive)
    err_apply = float(
        np.max(np.abs(compiled.apply(state) - naive_apply(state, heff)))
    )

    # the same observable compiled on the (N = 8, S_z = 0) sector: on a
    # state that lives there it must equal the full-register engine
    index = sector_indices(heff.num_qubits, 8, 0)
    sector = CompiledPauliSum(heff, index)
    in_sector = np.zeros_like(state)
    in_sector[index] = state[index] / np.linalg.norm(state[index])
    err_sector_apply = float(np.max(np.abs(
        sector.apply(in_sector[index]) - compiled.apply(in_sector)[index]
    )))
    err_sector_exp = abs(sector.expectation(in_sector[index]) - compiled.expectation(in_sector))

    t_naive = _best_of(lambda: naive_expectation(state, heff), repeats)
    t_comp = _best_of(lambda: compiled.expectation(state), repeats)
    speedup = t_naive / t_comp
    reduction = heff.num_terms / max(1, compiled.num_passes)

    table = write_table(
        "expectation_engine",
        ["metric", "value"],
        [
            ("qubits", heff.num_qubits),
            ("terms", heff.num_terms),
            ("distinct_x_masks", compiled.num_passes),
            ("pass_reduction", f"{reduction:.1f}x"),
            ("compiled_bytes", compiled.nbytes()),
            ("compile_s", f"{t_compile:.4f}"),
            ("naive_expectation_s", f"{t_naive:.4f}"),
            ("compiled_expectation_s", f"{t_comp:.6f}"),
            ("speedup", f"{speedup:.1f}x"),
            ("expectation_abs_err", f"{err_exp:.2e}"),
            ("apply_max_abs_err", f"{err_apply:.2e}"),
            ("sector_passes_x_length", f"{sector.num_passes} x {sector.dim}"),
            ("sector_apply_max_abs_err", f"{err_sector_apply:.2e}"),
            ("sector_expectation_abs_err", f"{err_sector_exp:.2e}"),
        ],
        caption="Compiled-observable engine vs naive per-term direct method "
        "(12-qubit downfolded H2O)",
    )
    print("\n" + table)

    failures = []
    if err_exp > 1e-10:
        failures.append(f"expectation mismatch: {err_exp:.3e} > 1e-10")
    if err_apply > 1e-10:
        failures.append(f"apply mismatch: {err_apply:.3e} > 1e-10")
    if err_sector_apply > 1e-12:
        failures.append(f"sector apply mismatch: {err_sector_apply:.3e} > 1e-12")
    if err_sector_exp > 1e-12:
        failures.append(f"sector expectation mismatch: {err_sector_exp:.3e} > 1e-12")
    if reduction < MIN_PASS_REDUCTION:
        failures.append(
            f"pass reduction {reduction:.1f}x < {MIN_PASS_REDUCTION}x"
        )
    if speedup < MIN_SMOKE_SPEEDUP:
        failures.append(f"speedup {speedup:.1f}x < {MIN_SMOKE_SPEEDUP}x")
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(
            f"OK: {heff.num_terms} terms -> {compiled.num_passes} passes "
            f"({reduction:.1f}x), {speedup:.1f}x faster than naive; sector "
            f"{sector.num_passes} passes x {sector.dim} amplitudes equals full"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_smoke())
