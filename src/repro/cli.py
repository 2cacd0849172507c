"""Command-line interface: ``python -m repro <command>``.

The commands cover the workflows the paper demonstrates:

* ``vqe``   — the Fig. 2 pipeline on a named molecule (optionally with
  frozen-core downfolding),
* ``adapt`` — the Fig. 5 ADAPT-VQE experiment,
* ``qpe``   — phase estimation on the same Hamiltonians,
* ``counts`` — the Fig. 1/3 resource-counting sweeps,
* ``faults`` — the fault-injection/recovery demo: a distributed run
  surviving transient exchange faults via retries, a checkpointed
  ADAPT campaign surviving an injected rank crash, and a batch
  schedule degrading around a dead rank,
* ``report`` — pretty-print a run report saved with ``--report-out``,
* ``analyze`` — the performance observatory: per-rank timelines, the
  communication matrix, load imbalance, and the critical path, read
  from a saved run report or Chrome trace,
* ``serve`` / ``submit`` / ``status`` — the crash-safe multi-tenant
  campaign server (``repro.serve``): spool submissions into a server's
  inbox, run the server (kill it, restart it, it resumes), inspect
  job states read-only.

Every run command accepts the observability flags:

* ``--profile``      — enable tracing/metrics and print a run report,
* ``--trace-out F``  — write a Chrome trace-event JSON (Perfetto),
* ``--metrics-out F``— write metrics (Prometheus text, or JSONL when
  the filename ends in ``.jsonl``),
* ``--report-out F`` — write the aggregated run report as JSON,

and ``vqe`` / ``adapt`` / ``counts`` / ``faults`` take ``--json`` to
emit machine-readable results on stdout instead of aligned text.

Everything else prints plain aligned text; exit code 0 means the run
completed and (where an exact reference exists) matched it to the
requested tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro import obs
from repro.chem.molecule import Molecule, h2, h2o, h4_chain, lih

_MOLECULES = {"h2": h2, "h2o": h2o, "h4": h4_chain, "lih": lih}

# extra report context stashed by the command that just ran (ledgers,
# convergence traces, command-specific meta) and consumed by
# ``_finalize_obs``
_REPORT_EXTRAS: Dict[str, Any] = {}


def _get_molecule(name: str) -> Molecule:
    try:
        return _MOLECULES[name.lower()]()
    except KeyError:
        raise SystemExit(
            f"unknown molecule {name!r}; choose from {sorted(_MOLECULES)}"
        )


def _note_report(
    meta: Optional[Dict[str, Any]] = None,
    comm_stats: Optional[object] = None,
    cache_stats: Optional[object] = None,
    fault_ledger: Optional[object] = None,
    convergence: Optional[Dict[str, List[float]]] = None,
) -> None:
    """Record command-level context for the final run report."""
    if meta:
        _REPORT_EXTRAS.setdefault("meta", {}).update(meta)
    for key, value in (
        ("comm_stats", comm_stats),
        ("cache_stats", cache_stats),
        ("fault_ledger", fault_ledger),
        ("convergence", convergence),
    ):
        if value is not None:
            _REPORT_EXTRAS[key] = value


def _emit_json(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_vqe(args: argparse.Namespace) -> int:
    from repro.core.workflow import run_vqe_workflow

    molecule = _get_molecule(args.molecule)
    core = [int(x) for x in args.core.split(",")] if args.core else None
    active = [int(x) for x in args.active.split(",")] if args.active else None
    t0 = time.perf_counter()
    result = run_vqe_workflow(
        molecule,
        core_orbitals=core,
        active_orbitals=active,
        downfold=not args.no_downfold,
        compute_exact=not args.no_exact,
        taper=args.taper,
    )
    dt = time.perf_counter() - t0
    _note_report(
        meta={
            "molecule": args.molecule,
            "qubits": result.num_qubits,
            "pauli_terms": result.qubit_hamiltonian.num_terms,
            "vqe_energy": result.vqe.energy,
            "tapered_qubits": (
                result.tapering.qubits_removed
                if result.tapering is not None
                else 0
            ),
        },
        convergence={"energy": list(result.vqe.history)},
    )
    failed = (
        result.exact_energy is not None and result.error_vs_exact > args.tol
    )
    if args.json:
        _emit_json(
            {
                "command": "vqe",
                "molecule": args.molecule,
                "qubits": result.num_qubits,
                "pauli_terms": result.qubit_hamiltonian.num_terms,
                "rhf_energy": result.scf.energy,
                "vqe_energy": result.vqe.energy,
                "exact_energy": result.exact_energy,
                "error_mha": (
                    result.error_vs_exact * 1000
                    if result.exact_energy is not None
                    else None
                ),
                "converged": result.vqe.converged,
                "num_function_evaluations": result.vqe.num_function_evaluations,
                "wall_time_s": dt,
                "tapering": (
                    {
                        "symmetries": len(result.tapering.symmetries),
                        "qubits_removed": result.tapering.qubits_removed,
                        "sector": result.tapering.sector,
                    }
                    if result.tapering is not None
                    else None
                ),
                "passed": not failed,
            }
        )
        return 1 if failed else 0
    print(f"molecule:        {molecule}")
    print(f"qubits:          {result.num_qubits}")
    if result.tapering is not None:
        print(f"tapering:        {result.tapering.describe()}")
    print(f"Pauli terms:     {result.qubit_hamiltonian.num_terms}")
    print(f"RHF energy:      {result.scf.energy:+.8f} Ha")
    if result.downfolding is not None:
        print(f"|sigma_ext|_1:   {result.downfolding.sigma_norm1:.5f}")
    print(f"VQE energy:      {result.vqe.energy:+.8f} Ha")
    if result.exact_energy is not None:
        print(f"exact energy:    {result.exact_energy:+.8f} Ha")
        print(f"error:           {result.error_vs_exact * 1000:.5f} mHa")
    print(f"wall time:       {dt:.1f} s")
    if failed:
        print(f"FAILED: error above tolerance {args.tol}")
        return 1
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.chem.downfolding import hermitian_downfold
    from repro.chem.fci import exact_ground_energy
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.pools import taper_pool, uccsd_pool
    from repro.chem.reference import hartree_fock_bitstring, hartree_fock_state
    from repro.chem.scf import run_rhf
    from repro.chem.tapering import taper_hamiltonian
    from repro.core.adapt import AdaptVQE, convergence_traces

    molecule = _get_molecule(args.molecule)
    scf = run_rhf(molecule)
    hamiltonian = build_molecular_hamiltonian(scf)
    if args.core:
        core = [int(x) for x in args.core.split(",")]
        active = [int(x) for x in args.active.split(",")]
        down = hermitian_downfold(hamiltonian, scf.mo_energies, core, active)
        heff = down.effective_hamiltonian.chop(1e-8)
        n_elec = down.num_electrons
    else:
        heff = hamiltonian.to_qubit()
        n_elec = hamiltonian.num_electrons
    n_qubits = heff.num_qubits
    e_ref = exact_ground_energy(heff, num_particles=n_elec, sz=0)
    pool = uccsd_pool(n_qubits, n_elec)
    reference = hartree_fock_state(n_qubits, n_elec)
    tapering = None
    if args.taper:
        import numpy as np

        hf_index = hartree_fock_bitstring(n_qubits, n_elec)
        tapering = taper_hamiltonian(heff, reference_index=hf_index)
        heff = tapering.hamiltonian
        pool = taper_pool(pool, tapering)
        n_qubits = heff.num_qubits
        reference = np.zeros(1 << n_qubits, dtype=np.complex128)
        reference[tapering.taper_index(hf_index)] = 1.0
        if not args.json:
            print(f"tapering: {tapering.describe()}")
    adapt = AdaptVQE(
        heff,
        pool,
        reference,
        max_iterations=args.max_iterations,
        reference_energy=e_ref,
        energy_tolerance=1e-3,
    )
    result = adapt.run(verbose=not args.json)
    hit = result.iterations_to_accuracy(1e-3)
    _note_report(
        meta={
            "molecule": args.molecule,
            "qubits": n_qubits,
            "adapt_energy": result.energy,
            "iterations": len(result.iterations),
        },
        convergence=convergence_traces(result.iterations),
    )
    if args.json:
        _emit_json(
            {
                "command": "adapt",
                "molecule": args.molecule,
                "qubits": n_qubits,
                "exact_energy": e_ref,
                "final_energy": result.energy,
                "converged": result.converged,
                "mha_at_iteration": hit,
                "tapering": (
                    {
                        "symmetries": len(tapering.symmetries),
                        "qubits_removed": tapering.qubits_removed,
                        "sector": tapering.sector,
                    }
                    if tapering is not None
                    else None
                ),
                "iterations": [
                    {
                        "iteration": it.iteration,
                        "selected_label": it.selected_label,
                        "max_gradient": it.max_gradient,
                        "energy": it.energy,
                        "error_vs_reference": it.error_vs_reference,
                        "num_parameters": it.num_parameters,
                    }
                    for it in result.iterations
                ],
                "passed": hit is not None,
            }
        )
        return 0 if hit is not None else 1
    print(f"exact:   {e_ref:+.8f} Ha")
    print(f"final:   {result.energy:+.8f} Ha")
    print(f"1 mHa at iteration: {hit}")
    return 0 if hit is not None else 1


def _cmd_qpe(args: argparse.Namespace) -> int:
    from repro.chem.fci import exact_ground_energy
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.reference import hartree_fock_state
    from repro.chem.scf import run_rhf
    from repro.core.qpe import run_qpe

    molecule = _get_molecule(args.molecule)
    scf = run_rhf(molecule)
    hq = build_molecular_hamiltonian(scf).to_qubit()
    n_so = hq.num_qubits
    n_e = scf.num_electrons
    e_exact = exact_ground_energy(hq, num_particles=n_e, sz=0)
    window = (e_exact - abs(e_exact), e_exact + abs(e_exact) * 0.5)
    res = run_qpe(
        hq,
        hartree_fock_state(n_so, n_e),
        num_ancillas=args.ancillas,
        energy_window=window,
    )
    _note_report(
        meta={"molecule": args.molecule, "qpe_energy": res.energy}
    )
    print(f"QPE energy:   {res.energy:+.8f} Ha")
    print(f"exact:        {e_exact:+.8f} Ha")
    print(f"resolution:   {res.resolution * 1000:.4f} mHa")
    print(f"success prob: {res.success_probability:.3f}")
    return 0 if abs(res.energy - e_exact) <= 2 * res.resolution else 1


def _cmd_counts(args: argparse.Namespace) -> int:
    from repro.core.counting import (
        energy_evaluation_gate_counts,
        jw_pauli_term_count,
        statevector_memory_bytes,
        tapered_qubit_count,
        tapered_statevector_memory_bytes,
        uccsd_gate_count,
    )

    rows = []
    for n in range(args.min_qubits, args.max_qubits + 1, 2):
        cost = energy_evaluation_gate_counts(n)
        rows.append(
            {
                "qubits": n,
                "uccsd_gates": uccsd_gate_count(n),
                "pauli_terms": jw_pauli_term_count(n),
                "memory_gib": statevector_memory_bytes(n) / (1 << 30),
                "tapered_qubits": tapered_qubit_count(n),
                "tapered_memory_gib": (
                    tapered_statevector_memory_bytes(n) / (1 << 30)
                ),
                "non_caching_gates": cost.non_caching_gates,
                "caching_gates": cost.caching_gates,
            }
        )
    _note_report(meta={"rows": len(rows)})
    if args.json:
        _emit_json({"command": "counts", "rows": rows})
        return 0
    print(
        f"{'qubits':>7} {'uccsd_gates':>12} {'pauli_terms':>12} "
        f"{'memory_GiB':>11} {'tapered_q':>9} {'tapered_GiB':>11} "
        f"{'non_caching':>12} {'caching':>10}"
    )
    for r in rows:
        print(
            f"{r['qubits']:>7} {r['uccsd_gates']:>12,} {r['pauli_terms']:>12,} "
            f"{r['memory_gib']:>11.4f} "
            f"{r['tapered_qubits']:>9} {r['tapered_memory_gib']:>11.4f} "
            f"{r['non_caching_gates']:>12.2e} {r['caching_gates']:>10.2e}"
        )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import tempfile

    import numpy as np

    from repro.chem.fci import exact_ground_energy
    from repro.chem.hamiltonian import build_molecular_hamiltonian
    from repro.chem.pools import uccsd_pool
    from repro.chem.reference import hartree_fock_state
    from repro.chem.scf import run_rhf
    from repro.core.adapt import AdaptVQE
    from repro.core.campaign import CampaignRunner
    from repro.hpc.distributed import DistributedStatevector
    from repro.hpc.faults import FaultInjector, FaultSpec
    from repro.hpc.scheduler import BatchScheduler, Job
    from repro.ir.circuit import Circuit
    from repro.utils.retry import RetryPolicy

    molecule = _get_molecule(args.molecule)
    scf = run_rhf(molecule)
    hq = build_molecular_hamiltonian(scf).to_qubit()
    n = hq.num_qubits
    n_e = scf.num_electrons
    e_ref = exact_ground_energy(hq, num_particles=n_e, sz=0)

    # -- 1. distributed execution through a faulty, retried link -------------
    rng = np.random.default_rng(args.seed)
    circuit = Circuit(n)
    for _ in range(6 * n):
        q = int(rng.integers(n))
        circuit.h(q).rz(float(rng.uniform(0, 3.14)), q)
        circuit.cx(q, (q + 1) % n)
    clean = DistributedStatevector(n, args.ranks)
    clean.run(circuit)
    injector = FaultInjector(
        [
            FaultSpec("transient_exchange", probability=args.transient_rate),
            FaultSpec("corruption", probability=args.corruption_rate, bit_flips=2),
        ],
        seed=args.seed,
    )
    faulty = DistributedStatevector(
        n,
        args.ranks,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=10, seed=args.seed),
    )
    faulty.run(circuit)
    stats = faulty.comm.stats
    identical = bool(np.allclose(faulty.gather(), clean.gather(), atol=1e-12))
    if not args.json:
        print(f"distributed run:  {n} qubits over {args.ranks} ranks, "
              f"{faulty.gates_applied} gates, {faulty.exchanges} exchanges")
        print(f"  transient faults: {stats.transient_errors:3d}   "
              f"corrupted msgs: {stats.corrupted_messages}")
        print(f"  retries:          {stats.retries:3d}   "
              f"simulated backoff: {stats.retry_backoff_s * 1e3:.3f} ms")
        print(f"  state identical to fault-free run: {identical}")

    # -- 2. checkpointed ADAPT campaign surviving a rank crash ---------------
    def make_adapt() -> AdaptVQE:
        return AdaptVQE(
            hq,
            uccsd_pool(n, n_e),
            hartree_fock_state(n, n_e),
            max_iterations=args.max_iterations,
            reference_energy=e_ref,
            energy_tolerance=1e-6,
        )

    baseline = make_adapt().run()
    campaign_injector = FaultInjector(
        [
            FaultSpec("rank_crash", scope="campaign", at_step=args.crash_iteration),
            FaultSpec("transient_exchange", probability=args.transient_rate),
        ],
        seed=args.seed,
    )
    with tempfile.TemporaryDirectory() as ckpt_dir:
        runner = CampaignRunner(
            ckpt_dir,
            checkpoint_period=args.checkpoint_period,
            fault_injector=campaign_injector,
            retry_policy=RetryPolicy(max_attempts=10, seed=args.seed),
            distributed_ranks=args.ranks,
        )
        campaign = runner.run_adapt(make_adapt())
    drift = abs(campaign.energy - baseline.energy)
    _note_report(
        comm_stats=runner.comm_stats,
        fault_ledger=campaign.fault_ledger,
        meta={
            "molecule": args.molecule,
            "restarts": campaign.restarts,
            "recovered_energy": campaign.energy,
        },
    )
    if not args.json:
        print(f"adapt campaign:   crash injected at iteration {args.crash_iteration}, "
              f"checkpoint period {args.checkpoint_period}")
        print(f"  restarts: {campaign.restarts}   iterations recomputed: "
              f"{campaign.iterations_recomputed}   checkpoints: "
              f"{campaign.checkpoints_written}")
        print(f"  {campaign.fault_ledger.summary()}")
        print(f"  fault-free energy: {baseline.energy:+.10f} Ha")
        print(f"  recovered energy:  {campaign.energy:+.10f} Ha  "
              f"(drift {drift:.2e} Ha)")

    # -- 3. batch schedule degrading around a dead rank ----------------------
    scheduler = BatchScheduler(args.ranks)
    jobs = [Job(f"job_{k}", n, 500 * (k % 4 + 1)) for k in range(4 * args.ranks)]
    healthy = scheduler.schedule(jobs)
    degraded = scheduler.reschedule_after_failure(
        healthy, dead_rank=0, completed=[j.name for j in healthy.assignments[0][:1]]
    )
    ok = identical and drift < 1e-8
    if args.json:
        _emit_json(
            {
                "command": "faults",
                "molecule": args.molecule,
                "distributed": {
                    "qubits": n,
                    "ranks": args.ranks,
                    "gates": faulty.gates_applied,
                    "exchanges": faulty.exchanges,
                    "transient_faults": stats.transient_errors,
                    "corrupted_messages": stats.corrupted_messages,
                    "retries": stats.retries,
                    "retry_backoff_s": stats.retry_backoff_s,
                    "state_identical": identical,
                },
                "campaign": {
                    "crash_iteration": args.crash_iteration,
                    "checkpoint_period": args.checkpoint_period,
                    "restarts": campaign.restarts,
                    "iterations_recomputed": campaign.iterations_recomputed,
                    "checkpoints_written": campaign.checkpoints_written,
                    "fault_free_energy": baseline.energy,
                    "recovered_energy": campaign.energy,
                    "drift_ha": drift,
                },
                "schedule": {
                    "jobs": len(jobs),
                    "ranks": args.ranks,
                    "healthy_makespan_s": healthy.makespan,
                    "healthy_speedup": healthy.speedup,
                    "degraded_makespan_s": degraded.makespan,
                    "degraded_speedup": degraded.speedup,
                    "survivors": degraded.num_survivors,
                },
                "passed": ok,
            }
        )
        return 0 if ok else 1
    print(f"batch schedule:   {len(jobs)} jobs on {args.ranks} ranks, rank 0 dies")
    print(f"  healthy : makespan {healthy.makespan:.4f} s  "
          f"speedup {healthy.speedup:.2f}x")
    print(f"  degraded: makespan {degraded.makespan:.4f} s  "
          f"speedup {degraded.speedup:.2f}x  "
          f"(survivors: {degraded.num_survivors})")

    print("PASS" if ok else "FAILED: recovery drifted from the fault-free run")
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import RunReport

    report = RunReport.load(args.path)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.perf import PerfAnalysis
    from repro.obs.report import RunReport

    with open(args.path) as fh:
        payload = json.load(fh)
    if args.memory:
        if "traceEvents" in payload:
            print(
                "--memory needs a run report (--report-out); Chrome traces "
                "carry spans, not the allocation ledger",
                file=sys.stderr,
            )
            return 1
        report = RunReport.from_dict(payload)
        if not report.memory:
            print(
                "no memory data in this report (record with observability "
                "enabled so the allocation ledger is populated)",
                file=sys.stderr,
            )
            return 1
        if args.json:
            _emit_json(report.memory)
        else:
            print(f"=== memory observatory ({args.path}) ===")
            print(report.memory_summary())
        return 0
    if "traceEvents" in payload:  # Chrome trace written with --trace-out
        analysis = PerfAnalysis.from_chrome_trace(payload, top_k=args.top_k)
        source = "chrome trace"
    else:  # run report written with --report-out
        report = RunReport.from_dict(payload)
        if not report.perf:
            print(
                "no performance data in this report (profile a run that "
                "exercises the HPC layer, or analyze its --trace-out file)",
                file=sys.stderr,
            )
            return 1
        analysis = PerfAnalysis.from_dict(report.perf)
        source = "run report"
    if args.json:
        _emit_json(analysis.to_dict())
        return 0
    print(f"=== performance analysis ({source}: {args.path}) ===")
    print(analysis.render(top_k=args.top_k))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.hpc.faults import FaultSpec
    from repro.serve import CampaignServer, ServerConfig, TenantPolicy

    fault_specs = []
    for spec in args.crash_rank or []:
        # "rank[:dispatch_index]" — batch-scope rank crash; without an
        # index the rank dies on the first dispatch that lands on it
        rank_s, _, at_s = spec.partition(":")
        fault_specs.append(
            FaultSpec(
                kind="rank_crash",
                rank=int(rank_s),
                at_step=int(at_s) if at_s else None,
                probability=0.0 if at_s else 1.0,
                scope="batch",
            )
        )
    config = ServerConfig(
        num_ranks=args.ranks,
        checkpoint_period=args.checkpoint_period,
        max_job_attempts=args.max_attempts,
        global_queue_limit=args.queue_limit,
        default_tenant_policy=TenantPolicy(max_queued=args.tenant_queue_limit),
        default_timeout_s=args.timeout,
        warm_start=not args.no_warm_start,
        fault_specs=fault_specs,
        fault_seed=args.seed,
        fsync=args.fsync,
        rank_memory_bytes=args.rank_memory_bytes,
        batch_enabled=not args.no_batch,
        batch_size=args.batch_size,
    )
    server = CampaignServer(args.state_dir, config)
    try:
        server.run(
            max_ticks=args.max_ticks,
            stop_when_idle=args.stop_when_idle,
            tick_sleep_s=args.tick_sleep,
        )
    finally:
        server.close()
    health = server.health()
    if args.json:
        _emit_json({"command": "serve", **health})
        return 0
    print(f"campaign server on {args.state_dir}: {health['status']}")
    print(f"  ticks: {health['ticks']}   journal seq: {health['journal_seq']}")
    print(f"  ranks: {len(health['alive_ranks'])}/{args.ranks} alive "
          f"(lost: {health['lost_ranks'] or 'none'})")
    for state, count in sorted(health["jobs"].items()):
        print(f"  {state:10s} {count}")
    if health["dedup_hits"]:
        print(f"  dedup hits: {health['dedup_hits']}")
    if health["shed"]:
        print(f"  shed: {health['shed']}")
    batch = health.get("batch", {})
    if batch.get("enabled") and batch.get("groups_executed"):
        print(
            f"  batching: {batch['batched_evals']} batched / "
            f"{batch['solo_evals']} solo evals in "
            f"{batch['groups_executed']} groups "
            f"(mean occupancy {batch['mean_occupancy']}, "
            f"max {batch['max_occupancy']})"
        )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import uuid

    from repro.serve.spec import JobSpec, SpecError

    try:
        spec = JobSpec(
            tenant=args.tenant,
            kind=args.kind,
            molecule=args.molecule,
            geometry=args.geometry,
            max_iterations=args.max_iterations,
            seed=args.seed,
            priority=args.priority,
            deadline_s=args.deadline,
            timeout_s=args.timeout,
        )
    except SpecError as err:
        print(f"invalid job spec: {err}", file=sys.stderr)
        return 1
    inbox = os.path.join(args.state_dir, "inbox")
    os.makedirs(inbox, exist_ok=True)
    submission_id = args.submission_id or uuid.uuid4().hex[:12]
    # atomic spool write: the server never sees a half-written file
    path = os.path.join(inbox, f"{submission_id}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(spec.to_dict(), fh)
    os.replace(tmp, path)
    if args.json:
        _emit_json(
            {
                "command": "submit",
                "submission_id": submission_id,
                "spooled": path,
                "content_key": spec.content_key(),
            }
        )
    else:
        print(f"spooled submission {submission_id} ({args.kind} {args.molecule} "
              f"for tenant {args.tenant!r}) -> {path}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.serve.server import load_state_view

    if not os.path.isdir(args.state_dir):
        print(f"no server state at {args.state_dir}", file=sys.stderr)
        return 1
    view = load_state_view(args.state_dir)
    if args.json:
        _emit_json({"command": "status", **view})
        return 0
    health = view.get("health") or {}
    print(f"campaign server state at {args.state_dir}")
    print(f"  status: {health.get('status', 'unknown')}   "
          f"journal seq: {view['journal_seq']}   "
          f"draining: {view['draining']}")
    if view["lost_ranks"]:
        print(f"  lost ranks: {view['lost_ranks']}")
    for state, count in sorted(view["by_state"].items()):
        print(f"  {state:10s} {count}")
    if args.jobs:
        for job in view["jobs"]:
            energy = (
                f"{job['energy']:+.10f}" if job["energy"] is not None else "-"
            )
            flags = "".join(
                f" [{f}]"
                for f in ("dedup_hit", "warm_started", "resumed")
                if job.get(f)
            )
            print(f"  {job['job_id']}  {job['tenant']:8s} {job['kind']:5s} "
                  f"{job['molecule']:4s} {job['state']:10s} {energy}{flags}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import Dashboard
    from repro.obs.slo import SLOConfig

    if not os.path.isdir(args.state_dir):
        print(f"no server state at {args.state_dir}", file=sys.stderr)
        return 1
    try:
        slo_config = (
            SLOConfig.load(args.slo_config) if args.slo_config else SLOConfig()
        )
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bad SLO config {args.slo_config!r}: {err}", file=sys.stderr)
        return 1
    dash = Dashboard(args.state_dir, slo_config=slo_config)
    if args.json:
        _emit_json({"command": "top", **dash.snapshot()})
        return 0
    if args.once:
        print(dash.render())
        return 0
    return dash.run(interval_s=args.interval)


# -- observability plumbing ---------------------------------------------------


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("observability")
    g.add_argument(
        "--profile",
        action="store_true",
        help="enable tracing/metrics and print a run report",
    )
    g.add_argument(
        "--trace-out",
        default="",
        metavar="FILE",
        help="write a Chrome trace-event JSON (view in Perfetto)",
    )
    g.add_argument(
        "--metrics-out",
        default="",
        metavar="FILE",
        help="write metrics (Prometheus text; JSONL if FILE ends in .jsonl)",
    )
    g.add_argument(
        "--report-out",
        default="",
        metavar="FILE",
        help="write the aggregated run report as JSON",
    )


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "profile", False)
        or getattr(args, "plan_stats", False)
        or getattr(args, "trace_out", "")
        or getattr(args, "metrics_out", "")
        or getattr(args, "report_out", "")
    )


_PLAN_STAT_ROWS = [
    ("repro_plan_compile_total", "plans compiled"),
    ("repro_plan_ops_total", "compiled ops emitted"),
    ("repro_plan_frame_gates_absorbed_total", "gates cancelled in the frame"),
    ("repro_plan_rotation_steps_total", "rotation steps"),
    ("repro_plan_rotations_merged_total", "rotations merged into steps"),
    ("repro_plan_fused_gates_removed_total", "gates removed by fusion"),
    ("repro_plan_diag_gates_folded_total", "diagonal gates folded"),
    ("repro_plan_executions_total", "plan executions"),
    ("repro_plan_ops_executed_total", "kernel ops executed"),
    ("repro_plan_prefix_resumes_total", "prefix-state resumes"),
    ("repro_plan_prefix_ops_skipped_total", "ops skipped via prefix reuse"),
]


def _plan_stats_lines() -> List[str]:
    """Human-readable view of the compiled-plan counters (summed over
    label sets, e.g. the circuit and generator prefix engines)."""
    totals: Dict[str, float] = {}
    for snap in obs.get_registry().snapshot():
        name = snap["name"]
        if isinstance(name, str) and name.startswith("repro_plan_"):
            totals[name] = totals.get(name, 0.0) + float(snap["value"])  # type: ignore[arg-type]
    lines = ["compiled-plan stats:"]
    if not totals:
        lines.append("  (no compiled-plan activity recorded)")
        return lines
    for name, label in _PLAN_STAT_ROWS:
        if name in totals:
            lines.append(f"  {label + ':':32s}{totals.pop(name):12.0f}")
    for name in sorted(totals):  # future counters show up unformatted
        lines.append(f"  {name}: {totals[name]:.0f}")
    return lines


def _setup_obs(args: argparse.Namespace) -> bool:
    if not _obs_requested(args):
        return False
    obs.reset()
    obs.configure(enabled=True)
    _REPORT_EXTRAS.clear()
    return True


def _finalize_obs(args: argparse.Namespace, wall_time_s: float) -> None:
    """Write the requested artifacts and (under --profile) the summary."""
    meta = {"command": f"repro {args.command}"}
    meta.update(_REPORT_EXTRAS.get("meta", {}))
    report = obs.collect_report(
        meta=meta,
        comm_stats=_REPORT_EXTRAS.get("comm_stats"),
        cache_stats=_REPORT_EXTRAS.get("cache_stats"),
        fault_ledger=_REPORT_EXTRAS.get("fault_ledger"),
        convergence=_REPORT_EXTRAS.get("convergence"),
        wall_time_s=wall_time_s,
    )
    notices = []
    if args.trace_out:
        obs.get_tracer().write_chrome_trace(args.trace_out)
        notices.append(f"trace written to {args.trace_out}")
    if args.metrics_out:
        registry = obs.get_registry()
        if args.metrics_out.endswith(".jsonl"):
            registry.write_jsonl(args.metrics_out)
        else:
            registry.write_prometheus(args.metrics_out)
        notices.append(f"metrics written to {args.metrics_out}")
    if args.report_out:
        report.save(args.report_out)
        notices.append(f"report written to {args.report_out}")
    # keep stdout machine-readable under --json
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    for line in notices:
        print(line, file=stream)
    if getattr(args, "plan_stats", False):
        for line in _plan_stats_lines():
            print(line, file=stream)
    if args.profile:
        print(report.summary(), file=stream)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable VQE simulation workflow (SC-W 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vqe = sub.add_parser("vqe", help="run the Fig. 2 VQE pipeline")
    p_vqe.add_argument("molecule", help="h2 | h2o | h4 | lih")
    p_vqe.add_argument("--core", default="", help="comma-separated core orbitals")
    p_vqe.add_argument("--active", default="", help="comma-separated active orbitals")
    p_vqe.add_argument("--no-downfold", action="store_true")
    p_vqe.add_argument(
        "--taper",
        action="store_true",
        help="remove Z2 symmetry qubits before VQE (HF sector)",
    )
    p_vqe.add_argument("--no-exact", action="store_true")
    p_vqe.add_argument("--tol", type=float, default=1e-4)
    p_vqe.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_vqe.add_argument(
        "--plan-stats",
        action="store_true",
        help="print compiled-circuit-plan counters (ops, fusion, prefix reuse)",
    )
    _add_obs_args(p_vqe)
    p_vqe.set_defaults(func=_cmd_vqe)

    p_adapt = sub.add_parser("adapt", help="run ADAPT-VQE (Fig. 5)")
    p_adapt.add_argument("molecule")
    p_adapt.add_argument("--core", default="")
    p_adapt.add_argument("--active", default="")
    p_adapt.add_argument("--max-iterations", type=int, default=25)
    p_adapt.add_argument(
        "--taper",
        action="store_true",
        help="remove Z2 symmetry qubits before ADAPT (HF sector)",
    )
    p_adapt.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_adapt.add_argument(
        "--plan-stats",
        action="store_true",
        help="print compiled-circuit-plan counters (ops, fusion, prefix reuse)",
    )
    _add_obs_args(p_adapt)
    p_adapt.set_defaults(func=_cmd_adapt)

    p_qpe = sub.add_parser("qpe", help="run quantum phase estimation")
    p_qpe.add_argument("molecule")
    p_qpe.add_argument("--ancillas", type=int, default=10)
    _add_obs_args(p_qpe)
    p_qpe.set_defaults(func=_cmd_qpe)

    p_counts = sub.add_parser("counts", help="Fig. 1/3 resource sweeps")
    p_counts.add_argument("--min-qubits", type=int, default=12)
    p_counts.add_argument("--max-qubits", type=int, default=30)
    p_counts.add_argument("--json", action="store_true", help="emit JSON on stdout")
    _add_obs_args(p_counts)
    p_counts.set_defaults(func=_cmd_counts)

    p_faults = sub.add_parser(
        "faults", help="fault-injection and recovery demo"
    )
    p_faults.add_argument("molecule", nargs="?", default="h2")
    p_faults.add_argument("--ranks", type=int, default=2)
    p_faults.add_argument("--seed", type=int, default=7)
    p_faults.add_argument("--transient-rate", type=float, default=0.1)
    p_faults.add_argument("--corruption-rate", type=float, default=0.02)
    p_faults.add_argument("--crash-iteration", type=int, default=1)
    p_faults.add_argument("--checkpoint-period", type=int, default=1)
    p_faults.add_argument("--max-iterations", type=int, default=10)
    p_faults.add_argument("--json", action="store_true", help="emit JSON on stdout")
    _add_obs_args(p_faults)
    p_faults.set_defaults(func=_cmd_faults)

    p_report = sub.add_parser(
        "report", help="pretty-print a saved run report (--report-out)"
    )
    p_report.add_argument("path", help="run-report JSON file")
    p_report.add_argument(
        "--json", action="store_true", help="dump the raw report JSON"
    )
    p_report.set_defaults(func=_cmd_report)

    p_analyze = sub.add_parser(
        "analyze",
        help="per-rank timelines, comm matrix, and critical path from a "
        "saved run report or Chrome trace",
    )
    p_analyze.add_argument(
        "path", help="run-report JSON (--report-out) or Chrome trace (--trace-out)"
    )
    p_analyze.add_argument(
        "--top-k", type=int, default=10, help="critical-path spans to list"
    )
    p_analyze.add_argument(
        "--json", action="store_true", help="emit the analysis as JSON"
    )
    p_analyze.add_argument(
        "--memory",
        action="store_true",
        help="show the allocation-ledger section of a run report "
        "(per-category peaks, per-rank peaks, top allocating spans)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_serve = sub.add_parser(
        "serve",
        help="run the crash-safe multi-tenant campaign server",
    )
    p_serve.add_argument(
        "--state-dir",
        default="serve-state",
        help="server state root (journal, store, inbox, checkpoints)",
    )
    p_serve.add_argument("--ranks", type=int, default=4)
    p_serve.add_argument("--max-ticks", type=int, default=None)
    p_serve.add_argument(
        "--stop-when-idle",
        action="store_true",
        help="exit once every job reached a terminal state",
    )
    p_serve.add_argument(
        "--tick-sleep", type=float, default=0.05, metavar="S",
        help="sleep between scheduling rounds (seconds)",
    )
    p_serve.add_argument("--checkpoint-period", type=int, default=1)
    p_serve.add_argument("--max-attempts", type=int, default=3)
    p_serve.add_argument("--queue-limit", type=int, default=64)
    p_serve.add_argument(
        "--rank-memory-bytes",
        type=int,
        default=16 << 30,
        help="memory budget of one worker rank; jobs predicted to "
        "exceed it are rejected at admission (default 16 GiB)",
    )
    p_serve.add_argument("--tenant-queue-limit", type=int, default=16)
    p_serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job execution budget (seconds)",
    )
    p_serve.add_argument("--no-warm-start", action="store_true")
    p_serve.add_argument(
        "--crash-rank",
        action="append",
        metavar="RANK[:DISPATCH]",
        help="inject a deterministic rank crash at the Nth dispatch "
        "(repeatable)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--batch-size", type=int, default=32,
        help="max campaigns stacked into one batched evaluation sweep",
    )
    p_serve.add_argument(
        "--no-batch", action="store_true",
        help="disable the cross-campaign evaluation broker (solo ticks)",
    )
    p_serve.add_argument(
        "--fsync", action="store_true",
        help="fsync every journal append (durable, slower)",
    )
    p_serve.add_argument("--json", action="store_true", help="emit JSON on stdout")
    _add_obs_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="spool a job submission into a server's inbox"
    )
    p_submit.add_argument("--state-dir", default="serve-state")
    p_submit.add_argument("--tenant", required=True)
    p_submit.add_argument("--kind", choices=("vqe", "adapt"), default="vqe")
    p_submit.add_argument("--molecule", default="h2", help="h2 | h4 | lih | h2o")
    p_submit.add_argument(
        "--geometry", type=float, default=None,
        help="scan parameter (bond length / spacing, Angstrom)",
    )
    p_submit.add_argument("--max-iterations", type=int, default=8)
    p_submit.add_argument(
        "--seed", type=int, default=0,
        help="determinism seed (distinct seeds = distinct campaigns "
        "that still batch together)",
    )
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget from admission (seconds)",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None,
        help="execution-time budget (seconds)",
    )
    p_submit.add_argument(
        "--submission-id", default="",
        help="idempotency key (resubmitting the same id is a no-op)",
    )
    p_submit.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="read-only view of a campaign server's state"
    )
    p_status.add_argument("--state-dir", default="serve-state")
    p_status.add_argument(
        "--jobs", action="store_true", help="list every job, not just counts"
    )
    p_status.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_status.set_defaults(func=_cmd_status)

    p_top = sub.add_parser(
        "top",
        help="live operator dashboard over a server state dir "
        "(reads status.json + events.jsonl + metrics.jsonl only)",
    )
    p_top.add_argument("--state-dir", default="serve-state")
    p_top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="redraw period for the live view (seconds)",
    )
    p_top.add_argument(
        "--slo-config", default="",
        help="JSON file of SLO objectives (see repro.obs.slo.SLOConfig)",
    )
    p_top.add_argument(
        "--json", action="store_true",
        help="emit one JSON snapshot on stdout (implies --once)",
    )
    p_top.set_defaults(func=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    profiling = _setup_obs(args)
    t0 = time.perf_counter()
    try:
        rc = args.func(args)
    finally:
        if profiling:
            _finalize_obs(args, wall_time_s=time.perf_counter() - t0)
            obs.disable()
    return rc


if __name__ == "__main__":
    sys.exit(main())
