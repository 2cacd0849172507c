"""repro — a from-scratch reproduction of "Enabling Scalable VQE
Simulation on Leading HPC Systems" (SC-W 2023).

Layers (bottom-up):

* :mod:`repro.ir` — circuit IR, gate library, Pauli algebra (XACC role)
* :mod:`repro.sim` — statevector simulators, execution plans, gate
  fusion, direct expectation (NWQ-Sim role)
* :mod:`repro.hpc` — distributed partitioned statevector, simulated
  communicator, machine performance models (Perlmutter/Summit role)
* :mod:`repro.chem` — Gaussian integrals, RHF, MP2, fermionic algebra,
  qubit mappings, CC downfolding, UCCSD/ADAPT pools (chemistry role)
* :mod:`repro.opt` — classical optimizers and gradients
* :mod:`repro.core` — the paper's optimized VQE flow: caching,
  estimation strategies, VQE/ADAPT drivers, resource counting, and the
  end-to-end workflow of Fig. 2
* :mod:`repro.obs` — unified observability: span tracing (Chrome
  trace-event export), metrics (Prometheus exposition), run reports

Every package ``__init__`` is a name table (:mod:`repro._lazy`): a name
imports the submodule that defines it on first access.
"""

from repro._lazy import name_table

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "ir": ["Circuit", "Gate", "Parameter", "PauliString", "PauliSum"],
        "obs": ["MetricsRegistry", "RunReport", "Tracer"],
        "sim": ["StatevectorSimulator", "fuse_circuit"],
    },
)
__all__ = ["__version__", "obs", *__all__]
