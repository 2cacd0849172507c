"""The six ladder workloads: seeded inputs, the timed region, the checks.

Each workload is three functions:

``generate(rng, seed, size)``
    the inputs as plain JSON data, from the seed alone (numpy only, no
    ``repro``).  Seed 0 is the paper configuration; other seeds jitter
    geometries, start points or campaign seeds.  The program only ever
    sees these generated inputs.
``timed(inputs, size, run)``
    what the clock covers, written against ``repro``'s public entry
    points only.  ``run.solve()`` brackets the optimizer loop (or the
    submits and ticks), ``run.operation()`` one operation; everything
    else is set-up.
``check(state, inputs, size)``
    run after the clock stops: ``(attempted, failures, counts)`` where
    an operation is one run, scan point, sweep evaluation or job.

``repro`` imports live inside the functions so that the tracer has
already rebound the public callables when a workload looks them up.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

# Size constants.  "full" is what BENCHMARK.json and the recorded
# baselines measure; "quick" only has to drive every code path and
# check (test_ladder.py runs all six in under a minute).
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "adapt_h2o": {
            "core": [0], "active": [1, 2, 3, 4, 5, 6], "max_iterations": 25,
            "min_iterations": 10, "oh_jitter": 0.002, "angle_jitter": 0.2,
        },
        "workflow_lih_scan": {"points": 3, "core": [0], "active": [1, 2, 3, 4, 5], "qubits": 10},
        "uccsd_circuit_h4": {
            "molecule": "h4", "num_parameters": 26, "geometry_jitter": 0.002, "x0_scale": 1e-4,
        },
        "serve_fleet_h4": {"molecule": "h4", "jobs": 8, "tenants": 3, "ranks": 2},
        "serve_scan_h2": {"geometries": 200, "tenants": 3, "ranks": 2},
        "dist_sweep_lih": {"molecule": "lih", "num_parameters": 92, "evaluations": 24, "ranks": 4},
    },
    "quick": {
        "adapt_h2o": {
            "core": [0, 1], "active": [2, 3, 4, 5], "max_iterations": 25,
            "min_iterations": 1, "oh_jitter": 0.002, "angle_jitter": 0.2,
        },
        "workflow_lih_scan": {"points": 1, "core": [0], "active": [1, 2, 3, 4], "qubits": 8},
        "uccsd_circuit_h4": {
            "molecule": "h2", "num_parameters": 3, "geometry_jitter": 0.002, "x0_scale": 1e-4,
        },
        "serve_fleet_h4": {"molecule": "h2", "jobs": 4, "tenants": 3, "ranks": 2},
        "serve_scan_h2": {"geometries": 8, "tenants": 3, "ranks": 2},
        "dist_sweep_lih": {"molecule": "h4", "num_parameters": 26, "evaluations": 3, "ranks": 4},
    },
}

# Where the serve workloads keep their state directories: inside the
# benchmark's own directory, since a run may write nowhere else.
STATE_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".state")

Check = Tuple[int, List[str], Dict[str, float]]


def _molecule(name: str, geometry: float):
    from repro.chem.molecule import h2, h4_chain, lih

    return {"h2": h2, "h4": h4_chain, "lih": lih}[name](geometry)


_DEFAULT_GEOMETRY = {"h2": 0.7414, "h4": 0.9, "lih": 1.5949}


def _qubit_problem(name: str, geometry: float):
    """Molecule -> (qubit Hamiltonian, spin orbitals, electrons)."""
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.scf import run_rhf

    mh = build_molecular_hamiltonian(run_rhf(_molecule(name, geometry)))
    return mh.to_qubit(), mh.num_spin_orbitals, mh.num_electrons


def _delegating_optimizer(inner, run=None):
    """``inner`` behind the public ``optimizer=`` argument, tallying
    evaluations and iterations and, given ``run``, timing each call as
    solve time (the only seam ``run_vqe_workflow`` offers between its
    front end and its optimizer loop).  The class is created here, after
    the tracer is installed, so it is not itself a traced optimizer."""
    from repro.opt.base import Optimizer

    class Delegating(Optimizer):
        evaluations = 0
        iterations = 0

        def minimize(self, fun, x0, gradient=None):
            with run.solve() if run is not None else nullcontext():
                result = inner.minimize(fun, x0, gradient=gradient)
            self.evaluations += result.nfev
            self.iterations += result.nit
            return result

    return Delegating()


def _observable_counts(hq) -> Dict[str, float]:
    from repro.ir.compiled import compile_observable

    return {
        "chem.qubits": hq.num_qubits,
        "chem.qubit_terms": hq.num_terms,
        "ir.observable_passes": compile_observable(hq).num_passes,
    }


def _plan_counts(plan) -> Dict[str, float]:
    stats = plan.stats()
    return {
        "sim.plan_ops": stats["ops"],
        "sim.plan_fused_gates_removed": stats["fused_gates_removed"],
    }


# -- adapt_h2o ----------------------------------------------------------------


def _adapt_generate(rng, seed, size):
    jitter = rng.uniform(-1.0, 1.0, 2) if seed else np.zeros(2)
    return {
        "oh_angstrom": round(0.9572 + size["oh_jitter"] * float(jitter[0]), 6),
        "angle_deg": round(104.52 + size["angle_jitter"] * float(jitter[1]), 4),
    }


def _adapt_timed(inputs, size, run):
    from repro.chem.downfolding import hermitian_downfold
    from repro.chem.fci import exact_ground_energy
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.molecule import h2o
    from repro.chem.pools import uccsd_pool
    from repro.chem.reference import hartree_fock_state
    from repro.chem.scf import run_rhf
    from repro.core.adapt import AdaptVQE
    from repro.opt.scipy_wrap import LBFGSB

    scf = run_rhf(h2o(inputs["oh_angstrom"], inputs["angle_deg"]))
    downfolded = hermitian_downfold(
        build_molecular_hamiltonian(scf), scf.mo_energies,
        core_orbitals=size["core"], active_orbitals=size["active"],
    )
    heff = downfolded.effective_hamiltonian.chop(1e-8)
    n_q, n_e = heff.num_qubits, downfolded.num_electrons
    e_exact = exact_ground_energy(heff, num_particles=n_e, sz=0)
    # AdaptVQE's own default inner optimizer, made countable
    optimizer = _delegating_optimizer(LBFGSB(max_iterations=500))
    adapt = AdaptVQE(
        heff, uccsd_pool(n_q, n_e), hartree_fock_state(n_q, n_e),
        optimizer=optimizer, max_iterations=size["max_iterations"],
        reference_energy=e_exact, energy_tolerance=1e-3,
    )
    with run.solve(), run.operation():
        result = adapt.run()
    return {"result": result, "e_exact": e_exact, "heff": heff, "optimizer": optimizer}


def _adapt_check(state, inputs, size) -> Check:
    result = state["result"]
    failures = []
    hit = result.iterations_to_accuracy(1e-3)
    if hit is None or not size["min_iterations"] <= hit <= size["max_iterations"]:
        failures.append(f"adapt_h2o: 1 mHa reached at iteration {hit}")
    if any(it.num_parameters != k for k, it in enumerate(result.iterations, start=1)):
        failures.append("adapt_h2o: not one parameter per iteration")
    energies = [it.energy for it in result.iterations]
    if any(b > a + 1e-9 for a, b in zip(energies, energies[1:])):
        failures.append("adapt_h2o: energies not monotone")
    counts = {
        "core.adapt_iterations": len(result.iterations),
        "opt.evaluations": state["optimizer"].evaluations,
        "opt.iterations": state["optimizer"].iterations,
    }
    counts.update(_observable_counts(state["heff"]))
    return 1, failures, counts


# -- workflow_lih_scan --------------------------------------------------------


def _workflow_generate(rng, seed, size):
    return {"bond_lengths": [round(float(r), 4) for r in rng.uniform(1.3, 2.0, size["points"])]}


def _workflow_timed(inputs, size, run):
    from repro.chem.molecule import lih
    from repro.core.workflow import run_vqe_workflow
    from repro.opt.scipy_wrap import LBFGSB

    optimizer = _delegating_optimizer(LBFGSB(), run)  # the workflow's default, timed
    results = []
    for r in inputs["bond_lengths"]:
        with run.operation():
            results.append(
                run_vqe_workflow(
                    lih(r), core_orbitals=size["core"], active_orbitals=size["active"],
                    optimizer=optimizer,
                )
            )
    return {"results": results, "optimizer": optimizer}


def _workflow_check(state, inputs, size) -> Check:
    failures = []
    for r, res in zip(inputs["bond_lengths"], state["results"]):
        if res.num_qubits != size["qubits"] or not res.error_vs_exact < 1e-4:
            failures.append(
                f"workflow_lih_scan: r={r} qubits={res.num_qubits} "
                f"error_vs_exact={res.error_vs_exact}"
            )
    counts = {
        "opt.evaluations": state["optimizer"].evaluations,
        "opt.iterations": state["optimizer"].iterations,
    }
    counts.update(_observable_counts(state["results"][-1].qubit_hamiltonian))
    return len(inputs["bond_lengths"]), failures, counts


# -- uccsd_circuit_h4 ---------------------------------------------------------


def _circuit_generate(rng, seed, size):
    p = size["num_parameters"]
    jitter = float(rng.uniform(-1.0, 1.0)) if seed else 0.0
    x0 = size["x0_scale"] * rng.standard_normal(p) if seed else np.zeros(p)
    return {
        "geometry": round(
            _DEFAULT_GEOMETRY[size["molecule"]] + size["geometry_jitter"] * jitter, 6
        ),
        "x0": [float(x) for x in x0],
    }


def _circuit_timed(inputs, size, run):
    from repro.chem.uccsd import build_uccsd_circuit
    from repro.core.estimator import DirectEstimator
    from repro.core.vqe import VQE
    from repro.sim.plan import compile_circuit

    hq, n_so, n_e = _qubit_problem(size["molecule"], inputs["geometry"])
    ansatz = build_uccsd_circuit(n_so, n_e).circuit
    plan = compile_circuit(ansatz)
    vqe = VQE(hq, ansatz=ansatz, estimator=DirectEstimator(), fd_gradient=True)
    with run.solve(), run.operation():
        result = vqe.run(np.asarray(inputs["x0"]))
    return {"result": result, "hq": hq, "n_e": n_e, "plan": plan}


def _circuit_check(state, inputs, size) -> Check:
    from repro.chem.fci import exact_ground_energy

    result = state["result"]
    e_fci = exact_ground_energy(state["hq"], num_particles=state["n_e"], sz=0)
    failures = []
    if not abs(result.energy - e_fci) < 1e-4:
        failures.append(f"uccsd_circuit_h4: E-FCI = {result.energy - e_fci:.3e}")
    counts = {
        "opt.evaluations": result.num_function_evaluations,
        "opt.iterations": result.num_iterations,
    }
    counts.update(_observable_counts(state["hq"]))
    counts.update(_plan_counts(state["plan"]))
    return 1, failures, counts


# -- the two serve workloads --------------------------------------------------


def _serve_drain(server, specs, run) -> List[str]:
    """Closed loop, one client: submit everything up front, then tick
    until idle.  A job's latency runs from its submit call to the first
    tick boundary at which a polling client sees it terminal."""
    import time

    submitted = {}
    for spec in specs:
        t = time.perf_counter()
        submitted[server.submit(spec).job_id] = t
    job_ids = list(submitted)
    while submitted:
        if server.idle:
            break  # refused at submit, or nothing left that can run
        server.tick()
        now = time.perf_counter()
        jobs = server.jobs
        for job_id in [j for j in submitted if jobs[j].terminal]:
            run.latencies.append(now - submitted.pop(job_id))
    return job_ids


def _serve_counts(server, health) -> Dict[str, float]:
    from repro.serve import JobState

    batch = health["batch"]
    jobs = list(server.jobs.values())
    results = [server.store.get_result(j.spec.content_key()) for j in jobs if not j.dedup_hit]
    return {
        "serve.ticks": health["ticks"],
        "serve.journal_records": health["journal_seq"],
        "serve.dedup_hits": health["dedup_hits"],
        "serve.warm_starts": sum(j.warm_started for j in jobs),
        "serve.waves": batch["waves"],
        "serve.batched_rows": batch["batched_evals"],
        "serve.solo_rows": batch["solo_evals"],
        "serve.mean_occupancy": batch["mean_occupancy"],
        "serve.refused": sum(j.state in (JobState.REJECTED, JobState.SHED) for j in jobs),
        "opt.evaluations": sum(r.get("evaluations", 0) for r in results if r),
    }


def _not_succeeded(workload, server, job_ids) -> Dict[str, str]:
    """job id -> message, for every job that is not SUCCEEDED (REJECTED,
    SHED, FAILED and TIMED_OUT jobs are failed operations)."""
    from repro.serve import JobState

    return {
        j: f"{workload}: job {j} is {server.jobs[j].state} ({server.jobs[j].detail})"
        for j in job_ids
        if server.jobs[j].state != JobState.SUCCEEDED
    }


def _fleet_generate(rng, seed, size):
    base = 1000 * seed  # seed 0: campaign seeds 0..n-1
    return {
        "jobs": [
            {"tenant": f"tenant{k % size['tenants']}", "seed": base + k}
            for k in range(size["jobs"])
        ]
    }


def _fleet_timed(inputs, size, run):
    from repro.serve import CampaignServer, JobSpec, ServerConfig

    specs = [
        JobSpec(tenant=j["tenant"], kind="vqe", molecule=size["molecule"], seed=j["seed"])
        for j in inputs["jobs"]
    ]
    server = CampaignServer(run.state_dir, ServerConfig(num_ranks=size["ranks"]))
    with run.solve():
        job_ids = _serve_drain(server, specs, run)
    return {"server": server, "job_ids": job_ids, "specs": specs}


def _fleet_check(state, inputs, size) -> Check:
    from repro.chem.fci import exact_ground_energy
    from repro.sim.plan import compile_circuit

    server, job_ids = state["server"], state["job_ids"]
    failed = _not_succeeded("serve_fleet_h4", server, job_ids)
    hq, _, n_e = _qubit_problem(size["molecule"], _DEFAULT_GEOMETRY[size["molecule"]])
    e_fci = exact_ground_energy(hq, num_particles=n_e, sz=0)
    energies = {j: server.jobs[j].energy for j in job_ids if server.jobs[j].energy is not None}
    lowest = min(energies.values(), default=e_fci)
    for j, e in energies.items():
        if not (abs(e - lowest) < 1e-6 and abs(e - e_fci) < 1e-4):
            failed.setdefault(j, f"serve_fleet_h4: job {j} E-FCI = {e - e_fci:.3e}")
    counts = _serve_counts(server, server.health())
    counts.update(_observable_counts(hq))
    # the physics-shared plan every campaign executed (a memo hit)
    counts.update(_plan_counts(compile_circuit(server.problems.get(state["specs"][0])["ansatz"])))
    server.close()
    return len(job_ids), list(failed.values()), counts


def _scan_generate(rng, seed, size):
    geometries = [round(float(g), 4) for g in rng.uniform(0.5, 1.5, size["geometries"])]
    return {
        "jobs": [
            {"tenant": f"tenant{t}", "geometry": g}
            for g in geometries
            for t in range(size["tenants"])
        ]
    }


def _scan_timed(inputs, size, run):
    from repro.serve import CampaignServer, JobSpec, ServerConfig, TenantPolicy

    specs = [
        JobSpec(tenant=j["tenant"], kind="vqe", molecule="h2", geometry=j["geometry"])
        for j in inputs["jobs"]
    ]
    # quotas raised so that no job of the scan is refused
    config = ServerConfig(
        num_ranks=size["ranks"],
        global_queue_limit=len(specs),
        default_tenant_policy=TenantPolicy(max_queued=len(specs)),
    )
    server = CampaignServer(run.state_dir, config)
    with run.solve():
        job_ids = _serve_drain(server, specs, run)
        health = server.health()
        server.close()
        reopened = CampaignServer(run.state_dir, config)  # replays the journal
    return {"server": server, "health": health, "reopened": reopened, "job_ids": job_ids}


def _scan_check(state, inputs, size) -> Check:
    server, reopened, job_ids = state["server"], state["reopened"], state["job_ids"]
    failed = _not_succeeded("serve_scan_h2", server, job_ids)
    for j in job_ids:
        replayed = reopened.jobs.get(j)
        if replayed is None or replayed.state != server.jobs[j].state:
            failed.setdefault(
                j, f"serve_scan_h2: job {j} replayed as {getattr(replayed, 'state', None)}"
            )
    failures = list(failed.values())
    # rounded geometries can collide, so the expected count comes from
    # the generated inputs, not from tenants x geometries
    distinct = len({j["geometry"] for j in inputs["jobs"]})
    health = state["health"]
    if health["dedup_hits"] != len(job_ids) - distinct:
        failures.append(
            f"serve_scan_h2: {health['dedup_hits']} dedup hits, "
            f"expected {len(job_ids) - distinct}"
        )
    after = reopened.health()
    if not reopened.idle or after["stored_results"] != health["stored_results"]:
        failures.append("serve_scan_h2: reopened server would re-run jobs")
    reopened.close()
    return len(job_ids), failures, _serve_counts(server, health)


# -- dist_sweep_lih -----------------------------------------------------------


def _dist_generate(rng, seed, size):
    rows = 0.05 * rng.standard_normal((size["evaluations"] + 1, size["num_parameters"]))
    rows = [[float(x) for x in row] for row in rows]
    return {"warm_parameters": rows[0], "parameters": rows[1:]}


def _dist_timed(inputs, size, run):
    from repro.chem.uccsd import build_uccsd_circuit
    from repro.hpc.distributed import DistributedStatevector
    from repro.sim.plan import compile_circuit

    name = size["molecule"]
    hq, n_so, n_e = _qubit_problem(name, _DEFAULT_GEOMETRY[name])
    ansatz = build_uccsd_circuit(n_so, n_e).circuit
    # per-slice execution cannot apply full-register diagonal folds
    plan = compile_circuit(ansatz, fold_full_diag=False)
    dsv = DistributedStatevector(n_so, size["ranks"])
    dsv.run_plan(plan, inputs["warm_parameters"])
    dsv.expectation(hq)
    dsv.comm.stats.reset()  # count the sweep's traffic only
    energies, exchanges = [], 0
    with run.solve():
        for row in inputs["parameters"]:
            with run.operation():
                dsv.run_plan(plan, row)
                energies.append(dsv.expectation(hq))
            exchanges += dsv.exchanges
    return {"dsv": dsv, "plan": plan, "hq": hq, "energies": energies, "exchanges": exchanges}


def _dist_check(state, inputs, size) -> Check:
    from repro.ir.compiled import compile_observable
    from repro.sim.statevector import StatevectorSimulator

    hq, plan, dsv = state["hq"], state["plan"], state["dsv"]
    serial = StatevectorSimulator(hq.num_qubits)
    observable = compile_observable(hq)
    failures = []
    for k, (row, e) in enumerate(zip(inputs["parameters"], state["energies"])):
        reference = float(np.real(observable.expectation(serial.run_plan(plan, row))))
        if not abs(e - reference) < 1e-10:
            failures.append(f"dist_sweep_lih: evaluation {k} off by {e - reference:.3e}")
    stats = dsv.comm.stats
    counts = {
        "hpc.exchanges": state["exchanges"],
        "hpc.p2p_messages": stats.point_to_point_messages,
        "hpc.p2p_bytes": stats.point_to_point_bytes,
        "hpc.allreduce_calls": stats.allreduce_calls,
        "hpc.bytes_per_rank": dsv.memory_per_rank_bytes(),
    }
    counts.update(_observable_counts(hq))
    counts.update(_plan_counts(plan))
    return len(inputs["parameters"]), failures, counts


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    generate: Callable
    timed: Callable
    check: Callable


WORKLOADS: Dict[str, Workload] = {
    "adapt_h2o": Workload(_adapt_generate, _adapt_timed, _adapt_check),
    "workflow_lih_scan": Workload(_workflow_generate, _workflow_timed, _workflow_check),
    "uccsd_circuit_h4": Workload(_circuit_generate, _circuit_timed, _circuit_check),
    "serve_fleet_h4": Workload(_fleet_generate, _fleet_timed, _fleet_check),
    "serve_scan_h2": Workload(_scan_generate, _scan_timed, _scan_check),
    "dist_sweep_lih": Workload(_dist_generate, _dist_timed, _dist_check),
}


def generate_inputs(workload: str, seed: int, size_name: str = "full") -> Dict[str, Any]:
    """The workload's inputs for ``seed``: same seed, same bytes."""
    seed = abs(int(seed))
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload].generate(rng, seed, SIZES[size_name][workload])
