"""Design-choice ablations DESIGN.md calls out.

* Downfolding commutator order (0/1/2): how much accuracy each order
  of Eq. 2 buys on the LiH frozen-core problem (H2O-scale ablation is
  covered by the Fig. 5 bench).
* Qubit-mapping comparison: JW vs parity vs Bravyi–Kitaev term counts
  and Pauli weights for the same molecular Hamiltonian — the
  locality/term-count trade the mapping literature is about.
* Fusion max-block-size (1 vs 2 qubits): the paper's §4.3 design point
  that 2-qubit fusion is the sweet spot.
"""

import numpy as np
import pytest

from _util import write_table
from repro.chem.downfolding import hermitian_downfold
from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import lih
from repro.chem.scf import run_rhf
from repro.chem.uccsd import build_uccsd_circuit
from repro.sim.fusion import fuse_circuit


@pytest.fixture(scope="module")
def lih_problem():
    scf = run_rhf(lih())
    return scf, build_molecular_hamiltonian(scf)


def test_downfolding_order_ablation(benchmark, lih_problem):
    scf, mh = lih_problem
    core, active = [0], [1, 2, 3, 4, 5]
    e_full = exact_ground_energy(mh.to_qubit(), num_particles=4, sz=0)

    def sweep():
        out = {}
        for order in (0, 1, 2):
            res = hermitian_downfold(
                mh, scf.mo_energies, core, active, order=order
            )
            e = exact_ground_energy(
                res.effective_hamiltonian, num_particles=2, sz=0
            )
            out[order] = (e, res.effective_hamiltonian.num_terms)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (order, f"{e:+.8f}", f"{abs(e - e_full) * 1000:.4f}", terms)
        for order, (e, terms) in results.items()
    ]
    write_table(
        "downfolding_order",
        ["order", "E_eff_ground", "err_vs_full_mHa", "terms"],
        rows,
        caption=f"Downfolding order ablation, LiH frozen core "
        f"(full FCI {e_full:+.8f} Ha)",
    )
    errs = {k: abs(e - e_full) for k, (e, _) in results.items()}
    # each commutator order improves on the bare projection
    assert errs[2] < errs[0]
    assert errs[2] <= errs[1] + 1e-9


def test_mapping_comparison(benchmark, h2o_hamiltonian):
    """JW vs parity vs BK on the 12-qubit H2O active space."""
    _, mh = h2o_hamiltonian
    act = mh.active_space([0], [1, 2, 3, 4, 5, 6])

    def build_all():
        return {
            name: act.to_qubit(name)
            for name in ("jordan-wigner", "parity", "bravyi-kitaev")
        }

    mapped = benchmark.pedantic(build_all, rounds=1, iterations=1)
    rows = []
    spectra = {}
    for name, hq in mapped.items():
        weights = [p.weight for _, p in hq]
        rows.append(
            (
                name,
                hq.num_terms,
                f"{np.mean(weights):.2f}",
                int(np.max(weights)),
            )
        )
        spectra[name] = exact_ground_energy(hq)
    write_table(
        "mapping_comparison",
        ["mapping", "terms", "mean_weight", "max_weight"],
        rows,
        caption="Qubit-mapping ablation on the 12-qubit H2O active space",
    )
    # all mappings are spectrally identical
    vals = list(spectra.values())
    assert np.allclose(vals, vals[0], atol=1e-7)
    # BK trades JW's O(n) strings for O(log n): lower max weight than
    # parity which is maximally nonlocal in the other direction
    jw_max = dict((r[0], r[3]) for r in rows)["jordan-wigner"]
    bk_max = dict((r[0], r[3]) for r in rows)["bravyi-kitaev"]
    assert bk_max <= jw_max + 2  # same ballpark at 12 qubits


def test_fusion_block_size_ablation(benchmark):
    """§4.3: 2-qubit fusion beats 1-qubit-only fusion."""
    ansatz = build_uccsd_circuit(8, 4)
    rng = np.random.default_rng(3)
    bound = ansatz.circuit.bind(
        list(rng.normal(scale=0.1, size=ansatz.num_parameters))
    )

    def sweep():
        return {k: fuse_circuit(bound, max_qubits=k) for k in (1, 2)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (k, res.original_gates, res.fused_gates, f"{100 * res.reduction:.1f}%")
        for k, res in results.items()
    ]
    write_table(
        "fusion_block_size",
        ["max_block_qubits", "original", "fused", "reduction"],
        rows,
        caption="Fusion block-size ablation (8-qubit UCCSD)",
    )
    assert results[2].fused_gates < results[1].fused_gates


def test_determinant_vs_qubit_fci(benchmark, h2o_hamiltonian):
    """Classical-reference ablation: determinant-basis FCI
    (Slater-Condon + Davidson, 225 determinants) vs the same sector
    block read off the 12-qubit JW Hamiltonian's Pauli terms
    (``PauliSum.matrix_block``, dense eigh) on frozen-core H2O —
    identical energies and dimensions."""
    import time

    from repro.chem.ci import run_ci
    from repro.chem.fci import exact_ground_energy as qubit_fci
    from repro.chem.fci import sector_indices

    _, mh = h2o_hamiltonian
    act = mh.active_space([0], [1, 2, 3, 4, 5, 6])

    res = benchmark.pedantic(lambda: run_ci(act, "fci"), rounds=1, iterations=1)

    t0 = time.perf_counter()
    e_qubit = qubit_fci(act.to_qubit(), num_particles=8, sz=0)
    t_qubit = time.perf_counter() - t0
    write_table(
        "determinant_vs_qubit_fci",
        ["method", "dimension", "energy"],
        [
            ("determinant FCI (Davidson)", res.dimension, f"{res.energy:+.8f}"),
            (
                "qubit-Hamiltonian sector block (eigh)",
                sector_indices(12, num_particles=8, sz=0).size,
                f"{e_qubit:+.8f}",
            ),
        ],
        caption="Classical FCI reference: determinant basis vs (N, S_z) block "
        f"of the qubit Hamiltonian (qubit path took {t_qubit:.2f}s incl. JW build)",
    )
    assert np.isclose(res.energy, e_qubit, atol=1e-7)
    assert res.dimension == 225
