"""Differential test of the measured expectation,
:func:`repro.sim.expectation.measure`.

Exact mode must equal ``expectation_direct`` for every grouping that is
measured: qubit-wise commuting (QWC) groups, one-term groups, and
general commuting groups rotated by a Clifford circuit.  ``PINNED``
holds golden values recorded from the reference implementation (one
rotate-and-reduce loop per caller) on the same inputs: exact values,
basis-change gate counts, every ``GateLedger`` field, and seeded
sampled estimates — so a fixed seed must keep drawing the same shots
in the same group order.

The systems are H2 (4 qubits), the H4 chain (8) and Fig. 5's downfolded
H2O (12), each in the state of a small seeded ansatz.  General grouping
runs on the 40 largest-|c| terms: Clifford conjugation is dense per
gate and takes seconds on a whole 8-qubit Hamiltonian.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from repro.chem.downfolding import hermitian_downfold
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2, h2o, h4_chain
from repro.chem.scf import run_rhf
from repro.core.cache import CachedEnergyEvaluator
from repro.core.estimator import make_estimator
from repro.ir.circuit import Circuit
from repro.ir.library import hardware_efficient_ansatz
from repro.ir.pauli import PauliSum
from repro.sim.expectation import (
    expectation_basis_rotated,
    expectation_direct,
    expectation_sampled,
    measure,
    measure_general_group,
    measurement_table,
)
from repro.sim.statevector import StatevectorSimulator

PINNED = {
    'h2': {
        'qwc': (-0.5158854621511801, 24),
        'one_term': (-0.5158854621511801, 24),
        'general': (-0.51588546215118, 6),
        ('ledger', True, True): (-0.5158854621511801, (1, 17, 48, 1, 1)),
        ('ledger', True, False): (-0.5158854621511801, (1, 17, 48, 1, 1)),
        ('ledger', False, True): (-0.5158854621511801, (5, 85, 24, 0, 0)),
        ('ledger', False, False): (-0.5158854621511801, (14, 238, 24, 0, 0)),
        'sampled': -0.5115097330465065,
        'sampling_estimator': (-0.5145873186357901, -0.5200501043836065),
        'caching_estimator_gates': 24,
    },
    'h4': {
        'qwc': (-0.5395690733300399, 513),
        'one_term': (-0.53956907333004, 720),
        'general': (-0.5372098950768189, 6),
        ('ledger', True, True): (-0.5395690733300399, (1, 35, 1026, 1, 1)),
        ('ledger', True, False): (-0.53956907333004, (1, 35, 1440, 1, 1)),
        ('ledger', False, True): (-0.5395690733300399, (77, 2695, 513, 0, 0)),
        ('ledger', False, False): (-0.53956907333004, (184, 6440, 720, 0, 0)),
        'sampled': -0.5461774214832015,
        'sampling_estimator': (-0.5747491124628609, -0.5784227327737397),
        'caching_estimator_gates': 513,
    },
    'h2o': {
        'qwc': (-68.7520200288723, 12461),
        'one_term': (-68.7520200288723, 29916),
        'general': (-70.39169962121792, 20),
        ('ledger', True, True): (-68.7520200288723, (1, 55, 24922, 1, 1)),
        ('ledger', True, False): (-68.7520200288723, (1, 55, 59832, 1, 1)),
        ('ledger', False, True): (-68.7520200288723, (1308, 71940, 12461, 0, 0)),
        ('ledger', False, False): (-68.7520200288723, (4746, 261030, 29916, 0, 0)),
        'sampled': -68.8123787365308,
        'sampling_estimator': (-68.75572311228972, -68.83708765139811),
        'caching_estimator_gates': 12461,
    },
}


def _h2o_downfolded() -> PauliSum:
    scf = run_rhf(h2o())
    return hermitian_downfold(
        build_molecular_hamiltonian(scf), scf.mo_energies, [0], [1, 2, 3, 4, 5, 6]
    ).effective_hamiltonian.chop(1e-8)


SYSTEMS = {
    "h2": (lambda: build_molecular_hamiltonian(run_rhf(h2())).to_qubit(), 2),
    "h4": (lambda: build_molecular_hamiltonian(run_rhf(h4_chain())).to_qubit(), 4),
    "h2o": (_h2o_downfolded, 8),
}


class System(NamedTuple):
    name: str
    hamiltonian: PauliSum
    ansatz: Circuit
    params: np.ndarray
    bound: Circuit
    state: np.ndarray


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request) -> System:
    build, electrons = SYSTEMS[request.param]
    h = build()
    n = h.num_qubits
    ansatz = Circuit(n)
    for q in range(electrons):
        ansatz.x(q)
    ansatz.compose(hardware_efficient_ansatz(n, layers=1))
    params = np.random.default_rng(11).normal(scale=0.3, size=ansatz.num_parameters)
    bound = ansatz.bind(list(params))
    state = StatevectorSimulator(n).run(bound).copy()
    return System(request.param, h, ansatz, params, bound, state)


def _largest_terms(h: PauliSum, count: int) -> PauliSum:
    kept = sorted(h.terms.items(), key=lambda kv: -abs(kv[1]))[:count]
    return PauliSum(h.num_qubits, dict(kept))


@pytest.mark.parametrize("grouping", ["qwc", "one_term", "general"])
def test_exact_equals_direct_and_pinned(system, grouping):
    h, n, state = system.hamiltonian, system.hamiltonian.num_qubits, system.state
    if grouping == "qwc":
        value, gates = expectation_basis_rotated(state, h, return_gate_count=True)
    elif grouping == "one_term":
        table = measurement_table([[term] for term in h], n)
        value, gates = measure(state, table, StatevectorSimulator(n))
    else:
        h = _largest_terms(h, 40)
        parts = [measure_general_group(state, g, n) for g in h.group_general_commuting()]
        value, gates = sum(v for v, _ in parts), sum(g for _, g in parts)
    assert abs(value - expectation_direct(state, h)) < 1e-10
    pinned_value, pinned_gates = PINNED[system.name][grouping]
    assert abs(value - pinned_value) < 1e-12
    assert gates == pinned_gates


@pytest.mark.parametrize("group_terms", [True, False])
@pytest.mark.parametrize("caching", [True, False])
def test_evaluator_energy_and_ledger_pinned(system, caching, group_terms):
    """With caching the second evaluation hits the post-ansatz cache."""
    ev = CachedEnergyEvaluator(
        system.ansatz, system.hamiltonian, use_caching=caching, group_terms=group_terms
    )
    energies = [ev.energy(system.params) for _ in range(1 + caching)]
    pinned_energy, pinned_ledger = PINNED[system.name][("ledger", caching, group_terms)]
    assert max(abs(e - pinned_energy) for e in energies) < 1e-12
    assert dataclasses.astuple(ev.ledger) == pinned_ledger


def test_estimators_pinned(system):
    pinned = PINNED[system.name]
    sampling = make_estimator("sampling", shots_per_group=500, seed=9)
    for expected in pinned["sampling_estimator"]:  # the generator carries over
        assert abs(sampling.estimate(system.bound, system.hamiltonian) - expected) < 1e-12
    caching = make_estimator("caching")
    caching.estimate(system.bound, system.hamiltonian)
    assert caching.extra_gates == pinned["caching_estimator_gates"]


def test_sampled_pinned(system):
    value = expectation_sampled(
        system.state, system.hamiltonian, 500, rng=np.random.default_rng(5)
    )
    assert abs(value - PINNED[system.name]["sampled"]) < 1e-12
