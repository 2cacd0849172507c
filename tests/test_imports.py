"""Import layering: ``import repro`` and each molecule -> energy path load
only what they run, and nothing is first imported inside a solve.

Every check runs in a fresh interpreter, so what this test process has
already imported does not hide a load.  The checks are structural
(which modules are in ``sys.modules``), with no timing threshold.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = (
    "repro",
    "repro.ir",
    "repro.sim",
    "repro.hpc",
    "repro.chem",
    "repro.core",
    "repro.opt",
    "repro.utils",
    "repro.obs",
    "repro.serve",
)


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_SCIPY = "sorted(m for m in sys.modules if m.startswith('scipy.'))"


def test_import_repro_loads_no_scipy_submodule():
    assert _run(f"import sys, repro; print({_SCIPY})") == "[]"


def test_distributed_path_loads_no_scipy_submodule():
    """molecule -> run_rhf -> to_qubit -> UCCSD circuit -> plan ->
    DistributedStatevector energy, as the distributed ladder row runs it."""
    out = _run(f"""
        import sys
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.scf import run_rhf
        from repro.chem.uccsd import build_uccsd_circuit
        from repro.hpc.distributed import DistributedStatevector
        from repro.sim.plan import compile_circuit

        mh = build_molecular_hamiltonian(run_rhf(h2()))
        hq = mh.to_qubit()
        plan = compile_circuit(
            build_uccsd_circuit(mh.num_spin_orbitals, mh.num_electrons).circuit,
            fold_full_diag=False,
        )
        dsv = DistributedStatevector(hq.num_qubits, 2)
        dsv.run_plan(plan, [0.05] * plan.num_parameters)
        assert dsv.expectation(hq) < 0.0
        print({_SCIPY})
    """)
    assert out == "[]"


def test_served_job_imports_nothing_after_construction(tmp_path):
    """One H2 VQE job through the campaign server, ticked to idle."""
    out = _run(f"""
        import sys
        from repro.serve import CampaignServer, JobSpec, ServerConfig

        server = CampaignServer({str(tmp_path)!r}, ServerConfig(num_ranks=1))
        before = set(sys.modules)
        job = server.submit(JobSpec(tenant="t", kind="vqe", molecule="h2"))
        for _ in range(200):
            if server.idle:
                break
            server.tick()
        assert server.jobs[job.job_id].state == "succeeded", server.jobs[job.job_id]
        print(sorted(set(sys.modules) - before))
    """)
    assert out == "[]"


def test_adapt_run_imports_nothing_after_construction():
    out = _run("""
        import sys
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.pools import uccsd_pool
        from repro.chem.reference import hartree_fock_state
        from repro.chem.scf import run_rhf
        from repro.core.adapt import AdaptVQE

        mh = build_molecular_hamiltonian(run_rhf(h2()))
        n, ne = mh.num_spin_orbitals, mh.num_electrons
        adapt = AdaptVQE(mh.to_qubit(), uccsd_pool(n, ne), hartree_fock_state(n, ne))
        before = set(sys.modules)
        result = adapt.run()
        assert result.energy < -1.13
        print(sorted(set(sys.modules) - before))
    """)
    assert out == "[]"


SOLVE_MODULES = (
    "repro.core.vqe, repro.core.adapt, repro.core.workflow, repro.serve, "
    "repro.chem.fci, repro.opt.scipy_wrap"
)


def test_solve_modules_load_no_scipy_submodule():
    """The drivers, their default optimizer and the FCI reference."""
    assert _run(f"import sys, {SOLVE_MODULES}; print({_SCIPY})") == "[]"


# molecule -> energy on the default optimizer and FCI, one per driver
SCIPY_FREE_RUNS = {
    "circuit_vqe": """
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.scf import run_rhf
        from repro.chem.uccsd import build_uccsd_circuit
        from repro.core.vqe import VQE

        mh = build_molecular_hamiltonian(run_rhf(h2()))
        ansatz = build_uccsd_circuit(mh.num_spin_orbitals, mh.num_electrons).circuit
        assert VQE(mh.to_qubit(), ansatz=ansatz).run().energy < -1.13
    """,
    "adapt_with_fci_reference": """
        from repro.chem.fci import exact_ground_energy
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.pools import uccsd_pool
        from repro.chem.reference import hartree_fock_state
        from repro.chem.scf import run_rhf
        from repro.core.adapt import AdaptVQE

        mh = build_molecular_hamiltonian(run_rhf(h2()))
        hq, n, ne = mh.to_qubit(), mh.num_spin_orbitals, mh.num_electrons
        e_fci = exact_ground_energy(hq, num_particles=ne, sz=0)
        adapt = AdaptVQE(hq, uccsd_pool(n, ne), hartree_fock_state(n, ne),
                         reference_energy=e_fci)
        assert abs(adapt.run().energy - e_fci) < 1e-6
    """,
    "workflow": """
        from repro.chem.molecule import h2
        from repro.core.workflow import run_vqe_workflow

        assert run_vqe_workflow(h2()).error_vs_exact < 1e-6
    """,
    "served_job": """
        import tempfile
        from repro.serve import CampaignServer, JobSpec, ServerConfig

        with tempfile.TemporaryDirectory() as root:
            server = CampaignServer(root, ServerConfig(num_ranks=1))
            job = server.submit(JobSpec(tenant="t", kind="vqe", molecule="h2"))
            for _ in range(200):
                if server.idle:
                    break
                server.tick()
            assert server.jobs[job.job_id].state == "succeeded"
            server.close()
    """,
}


@pytest.mark.parametrize("name", sorted(SCIPY_FREE_RUNS))
def test_default_solve_loads_no_scipy_submodule(name):
    code = textwrap.dedent(SCIPY_FREE_RUNS[name])
    assert _run(f"import sys\n{code}\nprint({_SCIPY})") == "[]"


def test_every_exported_name_and_submodule_resolves():
    """Each ``__all__`` name resolves and is listed by ``dir()``, and
    each submodule is reachable as an attribute of its package."""
    out = _run(f"""
        import importlib, pkgutil
        problems = {{}}
        for package in {PACKAGES!r}:
            pkg = importlib.import_module(package)
            listed = set(dir(pkg))
            bad = [n for n in pkg.__all__ if n not in listed]
            for name in pkg.__all__:
                getattr(pkg, name)
            for info in pkgutil.iter_modules(pkg.__path__):
                if info.name != "__main__":
                    sub = getattr(pkg, info.name)
                    if sub.__name__ != package + "." + info.name:
                        bad.append(info.name)
            if bad:
                problems[package] = bad
        print(problems)
    """)
    assert out == "{}"
