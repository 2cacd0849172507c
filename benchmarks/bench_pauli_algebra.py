"""Symplectic Pauli-algebra engine: packed-bit kernels vs per-term loops.

``repro.ir.symplectic`` stores a whole Pauli sum as packed (X|Z) uint64
bit-matrices and is the only Pauli algebra ``PauliSum`` runs: sum x sum
products with popcount phase tracking, commutator adjacency,
qubitwise-commuting (QWC) grouping, and batched fermion-to-qubit
mapping.  The per-term dict loops it replaced are the baselines here,
imported from the test oracle (``tests/pauli_oracle.py``).
``find_z2_symmetries`` sits on top: the GF(2) kernel of the
Hamiltonian's X-block, whose parities narrow the Hartree-Fock
reference's (N, S_z) sector to its parity set.

Headline numbers come from the Fig. 5 system (12-qubit downfolded H2O,
4747 terms) and the full-space H2O / LiH Hamiltonians; the size sweep
uses synthetic two-body Hamiltonians at 8/12/16/20/28 qubits (same JW
term census as real active spaces of that size, per Fig. 1).

Run under pytest-benchmark for timing curves, or standalone in smoke
mode (used by CI) to check correctness and the speedup floors.  Smoke
mode also records the traced (tracemalloc) peak of the 4747^2 product,
which folds pair blocks into a running sum and must stay under
``MAX_PRODUCT_PEAK_MIB``, and checks, with no timing floor, that
``hermitian_downfold``
(which forms only the last-level commutator terms the reference
projection keeps) gives the oracle's "commute fully, then project"
effective Hamiltonian:

    PYTHONPATH=src python benchmarks/bench_pauli_algebra.py --smoke
"""

import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from _util import write_table
from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import (
    build_molecular_hamiltonian,
    synthetic_two_body_hamiltonian,
)
from repro.chem.mappings import map_fermion_operator, map_fermion_operators
from repro.chem.molecule import h2o, lih
from repro.chem.reference import hartree_fock_bitstring
from repro.chem.scf import run_rhf
from repro.chem.uccsd import excitation_generator, uccsd_excitations
from repro.ir.pauli import PauliSum
from repro.ir.symplectic import find_z2_symmetries
from repro.utils.bitops import clear_index_tables, sector_of
from tests.pauli_oracle import (
    commutator_per_term,
    dot_per_term,
    group_qwc_per_term,
    hermitian_downfold_oracle,
    map_fermion_operator_per_term,
)

# Acceptance floors (12-qubit downfolded H2O / full-space H2O).
MIN_PRODUCT_SPEEDUP = 10.0  # full 4747-term sum x sum; measured ~15x
MIN_QWC_SPEEDUP = 10.0      # full 4747-term grouping; measured ~25x
MIN_JW_SPEEDUP = 5.0        # full-space H2O mapping; measured ~20x
MIN_SYMMETRIES = 3          # LiH and H2O both have 4
MAX_PARITY_FRACTION = 1 / 3  # parity set / (N, S_z) sector; measured 69/225, 133/441
PARITY_ENERGY_TOL = 1e-8
POOL_MAP_TOL = 1e-12        # one-call pool mapping vs the per-operator oracle
DOWNFOLD_TOL = 1e-12        # packed H_eff vs commute-fully-then-project
MAX_PRODUCT_PEAK_MIB = 128  # traced peak of the 4747^2 product; measured ~74
FIG5_CORE, FIG5_ACTIVE = [0], [1, 2, 3, 4, 5, 6]

SWEEP_SPATIAL_ORBITALS = (4, 6, 8, 10, 14)  # -> 8/12/16/20/28 qubits


def build_h2o_effective_hamiltonian(failures=None) -> PauliSum:
    """The Fig. 5 system: STO-3G H2O, O 1s downfolded out, 12 qubits.

    With a ``failures`` list, also compare the unchopped H_eff with the
    oracle's: same term set, coefficients within ``DOWNFOLD_TOL``."""
    from repro.chem.downfolding import hermitian_downfold

    scf = run_rhf(h2o())
    mh = build_molecular_hamiltonian(scf)
    downfolded = hermitian_downfold(
        mh, scf.mo_energies, core_orbitals=FIG5_CORE,
        active_orbitals=FIG5_ACTIVE,
    )
    heff = downfolded.effective_hamiltonian
    if failures is not None:
        oracle = hermitian_downfold_oracle(
            mh, scf.mo_energies, FIG5_CORE, FIG5_ACTIVE
        )
        extra = len(set(heff.terms) ^ set(oracle.terms))
        err = _max_term_diff(oracle, heff)
        print(
            f"H_eff vs oracle: {heff.num_terms} / {oracle.num_terms} terms, "
            f"{extra} differ, max |dc| {err:.1e}"
        )
        if extra:
            failures.append(f"H_eff term set differs from the oracle's in {extra} terms")
        if err > DOWNFOLD_TOL:
            failures.append(f"H_eff vs oracle: {err:.3e} > {DOWNFOLD_TOL}")
    return heff.chop(1e-8)


def _top_slice(h: PauliSum, k: int) -> PauliSum:
    """The k largest-|coeff| terms of ``h`` as a new PauliSum."""
    terms = sorted(h, key=lambda t: -abs(t[0]))[:k]
    return PauliSum(h.num_qubits, {(p.x, p.z): c for c, p in terms})


def _max_term_diff(a: PauliSum, b: PauliSum) -> float:
    keys = set(a.terms) | set(b.terms)
    return max(
        (abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys),
        default=0.0,
    )


def _fresh_groups(h: PauliSum):
    """QWC grouping with the memoized result dropped first."""
    h.invalidate_caches()
    return h.group_qubitwise_commuting()


# -- pytest-benchmark entry points ------------------------------------------


def _heff_from_fixture(h2o_hamiltonian):
    from repro.chem.downfolding import hermitian_downfold

    scf, mh = h2o_hamiltonian
    downfolded = hermitian_downfold(
        mh, scf.mo_energies, core_orbitals=[0],
        active_orbitals=[1, 2, 3, 4, 5, 6],
    )
    return downfolded.effective_hamiltonian.chop(1e-8)


def test_product_per_term_h2o_slice(benchmark, h2o_hamiltonian):
    sl = _top_slice(_heff_from_fixture(h2o_hamiltonian), 1200)
    result = benchmark(dot_per_term, sl, sl)
    assert result.num_terms > 0


def test_product_engine_h2o_slice(benchmark, h2o_hamiltonian):
    sl = _top_slice(_heff_from_fixture(h2o_hamiltonian), 1200)
    symp = sl.to_symplectic()  # pack once, outside the timer
    result = benchmark(symp.mul, symp)
    reference = dot_per_term(sl, sl)
    engine = PauliSum(sl.num_qubits, result.to_terms_dict())
    assert _max_term_diff(reference, engine) < 1e-9


def test_product_engine_h2o_full(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    symp = heff.to_symplectic()
    result = benchmark(symp.mul, symp)
    assert result.num_terms > heff.num_terms


def test_commutator_per_term_h2o(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    probe = _top_slice(heff, 64)
    result = benchmark(commutator_per_term, heff, probe)
    assert result.num_qubits == heff.num_qubits


def test_commutator_engine_h2o(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    probe = _top_slice(heff, 64)
    sh, sp = heff.to_symplectic(), probe.to_symplectic()
    result = benchmark(sh.commutator, sp)
    reference = commutator_per_term(heff, probe)
    engine = PauliSum(heff.num_qubits, result.to_terms_dict())
    assert _max_term_diff(reference, engine) < 1e-9


def test_qwc_per_term_h2o(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    groups = benchmark(group_qwc_per_term, heff)
    assert sum(len(g) for g in groups) == heff.num_terms


def test_qwc_engine_h2o(benchmark, h2o_hamiltonian):
    heff = _heff_from_fixture(h2o_hamiltonian)
    groups = benchmark(_fresh_groups, heff)
    assert len(groups) == len(group_qwc_per_term(heff))


def test_jw_per_term_h2o(benchmark, h2o_hamiltonian):
    _, mh = h2o_hamiltonian
    fop = mh.to_fermion_operator()
    result = benchmark(map_fermion_operator_per_term, fop, 2 * mh.num_orbitals)
    assert result.num_terms > 0


def test_jw_engine_h2o(benchmark, h2o_hamiltonian):
    _, mh = h2o_hamiltonian
    fop = mh.to_fermion_operator()
    n = 2 * mh.num_orbitals
    result = benchmark(map_fermion_operator, fop, n)
    reference = map_fermion_operator_per_term(fop, n)
    assert _max_term_diff(reference, result) < 1e-10


def _parity_set(h: PauliSum, hf: int):
    """H's Z2 symmetries and the reference's parity set, from cold
    caches (both are memoized)."""
    h.invalidate_caches()
    clear_index_tables()
    return sector_of(h.num_qubits, hf, find_z2_symmetries(h))


def test_parity_set_h2o_full_space(benchmark, h2o_hamiltonian):
    _, mh = h2o_hamiltonian
    h = mh.to_qubit("jordan-wigner")
    hf = hartree_fock_bitstring(h.num_qubits, mh.num_electrons)
    index = benchmark(_parity_set, h, hf)
    assert len(find_z2_symmetries(h)) >= MIN_SYMMETRIES
    assert index.size <= MAX_PARITY_FRACTION * sector_of(h.num_qubits, hf).size


# -- smoke mode (CI) ---------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _parity_case(name, molecule, failures):
    """Narrow one molecule's HF sector to its parity set under the
    full-space Hamiltonian's Z2 symmetries and check the lowest
    eigenvalue on it against the sector's."""
    scf = run_rhf(molecule)
    mh = build_molecular_hamiltonian(scf)
    h = mh.to_qubit("jordan-wigner")
    hf = hartree_fock_bitstring(h.num_qubits, mh.num_electrons)
    t_parity = _best_of(lambda: _parity_set(h, hf), 3)
    symmetries = len(find_z2_symmetries(h))
    index, sector = _parity_set(h, hf), sector_of(h.num_qubits, hf)
    e_sector = exact_ground_energy(h, num_particles=mh.num_electrons, sz=0)
    e_parity = np.linalg.eigvalsh(h.matrix_block(index, index))[0]
    err = abs(e_sector - e_parity)
    if symmetries < MIN_SYMMETRIES:
        failures.append(f"{name}: only {symmetries} Z2 symmetries < {MIN_SYMMETRIES}")
    if index.size > MAX_PARITY_FRACTION * sector.size:
        failures.append(
            f"{name}: parity set holds {index.size} of the sector's {sector.size} "
            f"amplitudes, more than {MAX_PARITY_FRACTION:.3f} of it"
        )
    if err > PARITY_ENERGY_TOL:
        failures.append(
            f"{name}: parity-set ground energy off by {err:.2e} "
            f"> {PARITY_ENERGY_TOL}"
        )
    return (
        name,
        h.num_qubits,
        symmetries,
        sector.size,
        index.size,
        f"{t_parity:.4f}",
        f"{err:.2e}",
    )


def run_smoke() -> int:
    failures = []

    print("building 12-qubit downfolded H2O Hamiltonian ...")
    heff = build_h2o_effective_hamiltonian(failures)
    symp = heff.to_symplectic()

    # Sum x sum product: full 4747^2 pairs, per-term baseline run once.
    t0 = time.perf_counter()
    reference = dot_per_term(heff, heff)
    t_prod_pt = time.perf_counter() - t0
    t_prod_en = _best_of(lambda: symp.mul(symp), 3)
    prod_speedup = t_prod_pt / t_prod_en
    engine_prod = PauliSum(heff.num_qubits, symp.mul(symp).to_terms_dict())
    # The two paths accumulate in different orders; agreement is only
    # meaningful to the conditioning of the sums (coeffs up to ~80).
    prod_err = _max_term_diff(reference, engine_prod)
    if prod_err > 1e-8:
        failures.append(f"product mismatch: {prod_err:.3e} > 1e-8")
    if prod_speedup < MIN_PRODUCT_SPEEDUP:
        failures.append(
            f"product speedup {prod_speedup:.1f}x < {MIN_PRODUCT_SPEEDUP}x"
        )
    tracemalloc.start()
    try:
        symp.mul(symp)
        prod_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    if prod_peak_mib > MAX_PRODUCT_PEAK_MIB:
        failures.append(
            f"product traced peak {prod_peak_mib:.0f} MiB > {MAX_PRODUCT_PEAK_MIB} MiB"
        )

    # Commutator with a 64-term probe (the ADAPT gradient shape).
    probe = _top_slice(heff, 64)
    sprobe = probe.to_symplectic()
    t_comm_pt = _best_of(lambda: commutator_per_term(heff, probe), 1)
    t_comm_en = _best_of(lambda: symp.commutator(sprobe), 3)

    # QWC grouping of the full Hamiltonian.
    t_qwc_pt = _best_of(lambda: group_qwc_per_term(heff), 1)
    t_qwc_en = _best_of(lambda: _fresh_groups(heff), 3)
    qwc_speedup = t_qwc_pt / t_qwc_en
    n_groups = len(_fresh_groups(heff))
    if len(group_qwc_per_term(heff)) != n_groups:
        failures.append("QWC engine/per-term group counts differ")
    if qwc_speedup < MIN_QWC_SPEEDUP:
        failures.append(
            f"QWC speedup {qwc_speedup:.1f}x < {MIN_QWC_SPEEDUP}x"
        )

    # JW mapping of the full-space (14-mode) H2O fermionic Hamiltonian.
    scf = run_rhf(h2o())
    mh = build_molecular_hamiltonian(scf)
    fop = mh.to_fermion_operator()
    n_modes = 2 * mh.num_orbitals
    t_jw_pt = _best_of(
        lambda: map_fermion_operator_per_term(fop, n_modes), 2
    )
    t_jw_en = _best_of(lambda: map_fermion_operator(fop, n_modes), 3)
    jw_speedup = t_jw_pt / t_jw_en
    jw_err = _max_term_diff(
        map_fermion_operator_per_term(fop, n_modes),
        map_fermion_operator(fop, n_modes),
    )
    if jw_err > 1e-10:
        failures.append(f"JW mismatch: {jw_err:.3e} > 1e-10")
    if jw_speedup < MIN_JW_SPEEDUP:
        failures.append(f"JW speedup {jw_speedup:.1f}x < {MIN_JW_SPEEDUP}x")

    # Agreement row, no floor: the 12-qubit UCCSD generator list (the
    # Fig. 5 pool) through one map_fermion_operators call vs the oracle
    # operator by operator.
    singles, doubles = uccsd_excitations(12, 8)
    gens = [excitation_generator(e) for e in list(singles) + list(doubles)]
    t_pool_pt = _best_of(
        lambda: [map_fermion_operator_per_term(g, 12) for g in gens], 3
    )
    t_pool_en = _best_of(lambda: map_fermion_operators(gens, 12), 5)
    pool_err = max(
        _max_term_diff(map_fermion_operator_per_term(g, 12), a)
        for g, a in zip(gens, map_fermion_operators(gens, 12))
    )
    if pool_err > POOL_MAP_TOL:
        failures.append(
            f"UCCSD pool mapping mismatch: {pool_err:.3e} > {POOL_MAP_TOL}"
        )

    table = write_table(
        "pauli_algebra",
        ["operation", "workload", "per_term_s", "engine_s", "speedup"],
        [
            (
                "sum x sum product",
                f"{heff.num_terms}^2 pairs (12q H2O), traced peak {prod_peak_mib:.0f} MiB",
                f"{t_prod_pt:.3f}",
                f"{t_prod_en:.3f}",
                f"{prod_speedup:.1f}x",
            ),
            (
                "commutator",
                f"{heff.num_terms} x 64 (12q H2O)",
                f"{t_comm_pt:.3f}",
                f"{t_comm_en:.3f}",
                f"{t_comm_pt / t_comm_en:.1f}x",
            ),
            (
                "QWC grouping",
                f"{heff.num_terms} terms -> {n_groups} groups",
                f"{t_qwc_pt:.3f}",
                f"{t_qwc_en:.3f}",
                f"{qwc_speedup:.1f}x",
            ),
            (
                "JW mapping",
                f"{len(fop.terms)} fermionic terms (14 modes)",
                f"{t_jw_pt:.3f}",
                f"{t_jw_en:.3f}",
                f"{jw_speedup:.1f}x",
            ),
            (
                "UCCSD pool mapping (one call)",
                f"{len(gens)} generators, 12 modes, max |dc| {pool_err:.1e}",
                f"{t_pool_pt:.4f}",
                f"{t_pool_en:.4f}",
                f"{t_pool_pt / t_pool_en:.1f}x",
            ),
        ],
        caption="Symplectic engine vs per-term loops "
        "(12-qubit downfolded H2O and full-space H2O)",
    )
    print("\n" + table)

    # Z2 parity sets of full-space molecular Hamiltonians.
    parity_rows = [
        _parity_case("LiH", lih(), failures),
        _parity_case("H2O", h2o(), failures),
    ]
    table = write_table(
        "pauli_parity_set",
        ["molecule", "qubits", "symmetries", "sector", "parity_set", "parity_s",
         "dE_vs_sector"],
        parity_rows,
        caption="Z2 parity sets: the HF reference's (N, S_z) sector narrowed to "
        "its parity class, ground energy vs the sector eigensolve",
    )
    print("\n" + table)

    # Size sweep, engine paths only (per-term baselines are infeasible
    # beyond ~16 qubits; the head-to-head numbers above cover them).
    sweep_rows = []
    for nsp in SWEEP_SPATIAL_ORBITALS:
        smh = synthetic_two_body_hamiltonian(nsp)
        sfop = smh.to_fermion_operator()
        n = 2 * nsp
        t0 = time.perf_counter()
        sh = map_fermion_operator(sfop, n)
        t_jw = time.perf_counter() - t0
        t0 = time.perf_counter()
        groups = sh.group_qubitwise_commuting()
        t_qwc = time.perf_counter() - t0
        t0 = time.perf_counter()
        symmetries = find_z2_symmetries(sh)
        t_z2 = time.perf_counter() - t0
        sweep_rows.append(
            (
                n,
                sh.num_terms,
                len(groups),
                len(symmetries),
                f"{t_jw:.3f}",
                f"{t_qwc:.3f}",
                f"{t_z2:.3f}",
            )
        )
    table = write_table(
        "pauli_algebra_sweep",
        ["qubits", "terms", "groups", "symmetries", "jw_s", "qwc_s", "z2_s"],
        sweep_rows,
        caption="Engine scaling on synthetic two-body Hamiltonians "
        "(dense integrals carry exactly the two spin-parity symmetries)",
    )
    print("\n" + table)

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(
            f"OK: product {prod_speedup:.1f}x ({prod_peak_mib:.0f} MiB traced peak), "
            f"QWC {qwc_speedup:.1f}x, "
            f"JW {jw_speedup:.1f}x; LiH/H2O parity sets hold "
            f"{parity_rows[0][4]}/{parity_rows[1][4]} of "
            f"{parity_rows[0][3]}/{parity_rows[1][3]} sector amplitudes at "
            f"<= {PARITY_ENERGY_TOL} energy error"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_smoke())
