"""Measurement-strategy ablation: per-term vs qubit-wise groups vs
general commuting groups with Clifford diagonalization.

The paper's caching scheme (§4.1) pays one basis rotation per
qubit-wise group.  General commuting groups need entangling Clifford
rotations but there are far fewer of them — the classic measurement-
reduction trade.  This benchmark counts bases and basis-change gates
for each strategy on the H2O active-space Hamiltonian, and verifies
all strategies produce the identical energy on the HF state.
"""

import numpy as np
import pytest

from _util import write_table
from repro.chem.reference import hartree_fock_state
from repro.sim.expectation import (
    expectation_basis_rotated,
    expectation_direct,
    measure_general_group,
)


def test_measurement_strategy_ablation(benchmark, h2o_hamiltonian):
    _, mh = h2o_hamiltonian
    hq = mh.active_space([0], [1, 2, 3, 4, 5, 6]).to_qubit()
    n = hq.num_qubits
    state = hartree_fock_state(12, 8)
    exact = expectation_direct(state, hq)

    def census():
        per_term = sum(1 for _, p in hq if not p.is_identity)
        qwc = hq.group_qubitwise_commuting()
        gen = hq.group_general_commuting()
        return per_term, qwc, gen

    per_term, qwc, gen = benchmark.pedantic(census, rounds=1, iterations=1)

    # qubit-wise: single-qubit basis gates per group
    qwc_value, qwc_gates = expectation_basis_rotated(state, hq, return_gate_count=True)

    # general groups: Clifford rotations
    gen_gates = 0
    gen_value = 0.0
    for group in gen:
        val, gates = measure_general_group(state, group, n)
        gen_value += val
        gen_gates += gates

    rows = [
        ("per-term", per_term, "-", "-"),
        ("qubit-wise (paper §4.1)", len(qwc), qwc_gates, f"{qwc_value:+.8f}"),
        ("general commuting", len(gen), gen_gates, f"{gen_value:+.8f}"),
    ]
    table = write_table(
        "measurement_strategies",
        ["strategy", "bases", "rotation_gates", "energy"],
        rows,
        caption=f"Measurement grouping ablation, 12-qubit H2O active "
        f"space ({hq.num_terms} terms; exact HF energy {exact:+.8f})",
    )
    print("\n" + table)
    assert np.isclose(qwc_value, exact, atol=1e-8)
    assert np.isclose(gen_value, exact, atol=1e-8)
    # strictly decreasing number of measured bases
    assert len(gen) < len(qwc) < per_term
