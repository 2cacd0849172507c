"""Job specifications for the campaign server.

A :class:`JobSpec` is everything a tenant submits: the physics problem
(molecule family + geometry + basis), the driver (plain VQE or
ADAPT-VQE), the solver knobs (iterations, seed), and the service-level
fields (tenant, priority, deadline).  Four hashes are derived from it,
one per role:

* :meth:`JobSpec.content_key` — **dedup**: SHA-256 over the
  problem-relevant fields only.  Two tenants submitting the same
  problem collide on this key, which is exactly what the
  content-addressed result store wants: the second submission
  completes from the first one's stored result, regardless of who
  asked.
* :meth:`JobSpec.family_key` — **warm start**: the content key with the
  geometry parameter removed.  Jobs in one family are the same
  molecule scanned across geometries, so a converged parameter vector
  at a nearby geometry is an excellent warm start (``repro.core.scan``'s
  incremental-optimization insight, applied fleet-wide).
* :meth:`JobSpec.physics_key` — **problem alias**: (kind, molecule,
  geometry, basis), the unit ``ProblemCache`` builds a Hamiltonian for;
  seeds and solver knobs share it.
* :meth:`JobSpec.plan_key` — **batching**: (kind, molecule, basis).
  Every geometry of a molecule runs one ``ExecutionPlan``, so the
  evaluation broker stacks a whole scan's rows into one sweep per wave.

Specs serialize to plain JSON with a schema version so the write-ahead
journal and the submission inbox survive software upgrades with a
clear error instead of a silent misparse.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.chem.molecule import h2, h2o, h4_chain, lih

__all__ = [
    "SPEC_VERSION",
    "JobState",
    "TERMINAL_STATES",
    "JobSpec",
    "SpecError",
    "qubits_for_molecule",
    "estimate_job_memory",
    "estimate_group_memory",
]

SPEC_VERSION = 1

# Fields that define the *problem* (shared across tenants -> dedup) as
# opposed to the service-level envelope (tenant, priority, deadline).
_CONTENT_FIELDS = (
    "kind",
    "molecule",
    "geometry",
    "basis",
    "optimizer",
    "max_iterations",
    "seed",
)
_FAMILY_FIELDS = tuple(f for f in _CONTENT_FIELDS if f != "geometry")
_PHYSICS_FIELDS = ("kind", "molecule", "geometry", "basis")
_PLAN_FIELDS = tuple(f for f in _PHYSICS_FIELDS if f != "geometry")


class SpecError(ValueError):
    """A submitted job spec is malformed or from an unknown schema."""


class JobState:
    """Lifecycle states of a job inside the server.

    ``QUEUED -> RUNNING -> {SUCCEEDED, FAILED, TIMED_OUT}`` is the
    normal path; ``REJECTED`` (admission control) and ``SHED``
    (overload) are terminal without ever running.
    """

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    REJECTED = "rejected"
    SHED = "shed"


TERMINAL_STATES = frozenset(
    {
        JobState.SUCCEEDED,
        JobState.FAILED,
        JobState.TIMED_OUT,
        JobState.REJECTED,
        JobState.SHED,
    }
)


@dataclass(frozen=True)
class JobSpec:
    """One VQE/ADAPT campaign request.

    Parameters
    ----------
    tenant:
        Submitting tenant; admission control and metrics are per-tenant.
    kind:
        ``"vqe"`` (plain UCCSD VQE campaign) or ``"adapt"`` (ADAPT-VQE).
    molecule:
        Molecule family name (``h2``, ``h4``, ``lih``, ``h2o``).
    geometry:
        Optional scan parameter (bond length / spacing in Angstrom)
        passed to the molecule factory; ``None`` = family default.
    basis:
        Basis set name (informational; the factories are STO-3G).
    optimizer:
        Optimizer name (informational; drivers pick their defaults).
    max_iterations:
        ADAPT iteration cap (ignored for plain VQE).
    seed:
        Determinism seed threaded into the drivers.
    priority:
        Higher = more important; overload sheds the lowest first.
    deadline_s:
        Wall-clock budget from *admission*; exceeded -> ``TIMED_OUT``.
    timeout_s:
        Budget on cumulative *execution* time; exceeded -> ``TIMED_OUT``.
    """

    tenant: str
    kind: str = "vqe"
    molecule: str = "h2"
    geometry: Optional[float] = None
    basis: str = "sto-3g"
    optimizer: str = "default"
    max_iterations: int = 8
    seed: int = 0
    priority: int = 0
    deadline_s: Optional[float] = None
    timeout_s: Optional[float] = None
    version: int = field(default=SPEC_VERSION)

    def __post_init__(self) -> None:
        if self.kind not in ("vqe", "adapt"):
            raise SpecError(f"unknown job kind {self.kind!r}; 'vqe' or 'adapt'")
        if not self.tenant:
            raise SpecError("tenant must be non-empty")
        if self.max_iterations < 1:
            raise SpecError("max_iterations must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SpecError("deadline_s must be positive")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecError("timeout_s must be positive")
        # nan would iterate the SCF to its cap and return energy=nan, 0
        # puts two nuclei on one point, and a negative length is a
        # second content key for the physics of its absolute value
        if self.geometry is not None and not (
            math.isfinite(self.geometry) and self.geometry > 0
        ):
            raise SpecError(
                f"geometry must be a finite positive length in Angstrom, "
                f"got {self.geometry!r}"
            )

    # -- content addressing ---------------------------------------------------

    def _key(self, name: str, fields: Tuple[str, ...]) -> str:
        """SHA-256 over the named fields, computed on first use: the
        spec is frozen, and the server asks for every key of every
        queued job on every tick."""
        key = self.__dict__.get(name)
        if key is None:
            blob = json.dumps({f: getattr(self, f) for f in fields}, sort_keys=True)
            # straight into __dict__: a cache, not a field (asdict,
            # equality and from_dict see dataclass fields only)
            key = self.__dict__[name] = hashlib.sha256(blob.encode()).hexdigest()
        return key

    def content_key(self) -> str:
        """SHA-256 over the physics fields — the dedup/store address."""
        return self._key("_content_key", _CONTENT_FIELDS)

    def family_key(self) -> str:
        """Content key minus geometry — the warm-start neighborhood."""
        return self._key("_family_key", _FAMILY_FIELDS)

    def physics_key(self) -> str:
        """Problem-alias key: jobs whose (kind, molecule, geometry,
        basis) agree share one Hamiltonian, reference state and ansatz
        (``ProblemCache`` builds them once), even when seeds, optimizers
        or tenants differ."""
        return self._key("_physics_key", _PHYSICS_FIELDS)

    def plan_key(self) -> str:
        """Batching key: jobs whose (kind, molecule, basis) agree run one
        ``ExecutionPlan`` at any geometry, so the broker stacks their
        parameter rows into one sweep, each row with its own Hamiltonian.
        Coarser than :meth:`physics_key` on purpose — the whole point of
        the evaluation broker is that *distinct* campaigns, a scan's
        geometries included, batch together."""
        return self._key("_plan_key", _PLAN_FIELDS)

    def class_key(self) -> str:
        """Failure-domain key for the circuit breaker: jobs of one
        (kind, molecule, basis) class fail together when e.g. the
        chemistry stage for that molecule is broken."""
        return f"{self.kind}:{self.molecule}:{self.basis}"

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise SpecError("job spec must be a JSON object")
        version = payload.get("version", None)
        if version != SPEC_VERSION:
            raise SpecError(
                f"job spec version {version!r} not supported "
                f"(this server speaks version {SPEC_VERSION})"
            )
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(payload) - known
        if unknown:
            raise SpecError(f"job spec has unknown field(s): {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as err:
            raise SpecError(f"malformed job spec: {err}") from err


_QUBITS_BY_MOLECULE = {"h2": 4, "h4": 8, "lih": 12, "h2o": 14}
# Measured compiled-observable pass counts on the serve build path
# (STO-3G, no downfolding); drive the dominant term of the capacity
# model (see repro.obs.memory).
_PASSES_BY_MOLECULE = {"h2": 2, "h4": 27, "lih": 84, "h2o": 162}
# Measured (parity-set amplitudes, screened pool operators) of an ADAPT
# job: the Hartree-Fock reference's (N, S_z) sector narrowed to its
# parity class under the Hamiltonian's Z2 symmetries, and the UCCSD
# operators that commute with them (repro.core.adapt).  Families with no
# entry are priced on the sector and the full pool, an upper bound.
_ADAPT_BY_MOLECULE = {"h2": (2, 1), "h4": (20, 14), "lih": (69, 34), "h2o": (133, 48)}
_ELECTRONS_BY_MOLECULE = {"h2": 2, "h4": 4, "lih": 4, "h2o": 10}
# UCCSD generator counts (== pool size) per family: a VQE plan holds
# one rotation step (2^n bytes) per generator, and ADAPT lowers each
# screened pool operator to one rotation step on its parity set the same
# way.  Unknown molecules use 0 — for the oversized-job rejection path
# the Hamiltonian term alone is already orders of magnitude over any
# rank budget.
_GENERATORS_BY_MOLECULE = {"h2": 3, "h4": 26, "lih": 92, "h2o": 140}
# Qubit Hamiltonian term counts on the same path: a batch group holding
# several geometries holds one term dict per geometry.
_TERMS_BY_MOLECULE = {"h2": 15, "h4": 185, "lih": 631, "h2o": 1086}


def qubits_for_molecule(name: str) -> int:
    """Register width of a molecule family on the serve build path
    (STO-3G, no downfolding: one qubit per spin orbital).

    Hydrogen chains follow the ``h<N>`` -> 2N-qubit rule (N atoms, one
    STO-3G spatial orbital each), so capacity planning can price chains
    the factories don't build yet — an ``h17`` submission estimates as
    34 qubits and is rejected by memory-aware admission long before the
    chemistry stage would reject the name.  Unknown names fall back to
    8 qubits (the historical server default).
    """
    key = name.lower()
    known = _QUBITS_BY_MOLECULE.get(key)
    if known is not None:
        return known
    if key.startswith("h") and key[1:].isdigit():
        return 2 * int(key[1:])
    return 8


def sector_dim_for_molecule(name: str) -> Optional[int]:
    """Amplitudes of the (N, S_z) sector of a molecule family's
    Hartree-Fock reference on the serve build path, ``None`` when its
    electron count is unknown.  The UCCSD pool and generators conserve
    N and S_z, so a serve job's reference and generators close on this
    sector and its ansatz runs there."""
    key = name.lower()
    electrons = _ELECTRONS_BY_MOLECULE.get(key)
    if electrons is None and key.startswith("h") and key[1:].isdigit():
        electrons = int(key[1:])
    if electrons is None:
        return None
    orbitals = qubits_for_molecule(name) // 2
    return math.comb(orbitals, (electrons + 1) // 2) * math.comb(orbitals, electrons // 2)


def _model_inputs(molecule: str, kind: str) -> Dict[str, Any]:
    """Capacity-model inputs of a serve job.  An ADAPT job screens the
    UCCSD operators that keep its reference's Z2 parities, on the
    reference's parity set; a VQE job runs the shared UCCSD circuit plan
    (circuit plans hold the full register) through the fused
    value-and-gradient sweep."""
    inputs: Dict[str, Any] = {
        "compiled_passes": _PASSES_BY_MOLECULE.get(molecule),
        "generator_terms": _GENERATORS_BY_MOLECULE.get(molecule, 0),
    }
    if kind == "adapt":
        inputs["sector_dim"], inputs["generator_terms"] = _ADAPT_BY_MOLECULE.get(
            molecule, (sector_dim_for_molecule(molecule), inputs["generator_terms"])
        )
    return inputs


def estimate_job_memory(spec: "JobSpec") -> int:
    """Predicted peak resident bytes of one job (capacity model).

    Wraps :func:`repro.obs.memory.estimate_statevector_job_bytes` with
    the serve-path calibration: register width from the molecule table,
    the measured compiled-observable pass count where known, and for an
    ADAPT job the size of the parity set it runs on and of the pool it
    screens.  Validated against measured ledger peaks in
    ``tests/test_memory.py`` (±10% at 8–14 qubits).
    """
    from repro.obs.memory import estimate_statevector_job_bytes

    n = qubits_for_molecule(spec.molecule)
    inputs = _model_inputs(spec.molecule.lower(), spec.kind)
    return int(estimate_statevector_job_bytes(n, kind=spec.kind, **inputs)["total"])


def estimate_group_memory(specs) -> int:
    """Predicted peak bytes of a same-plan batch group (the unit the
    group-aware scheduler places).  The members share one compiled
    plan, so the batch costs one job's total plus the extra rows of its
    reverse-mode sweep block, plus one Hamiltonian (terms and compiled
    passes) per further distinct geometry — see
    :func:`repro.obs.memory.estimate_batched_group_bytes`."""
    specs = list(specs)
    if not specs:
        return 0
    hamiltonians = len({s.physics_key() for s in specs})
    return _group_memory(specs[0].molecule.lower(), specs[0].kind, len(specs), hamiltonians)


@functools.lru_cache(maxsize=None)
def _group_memory(molecule: str, kind: str, size: int, hamiltonians: int) -> int:
    """The group estimate depends only on (molecule, kind, size,
    Hamiltonians), and the server prices every queued group on every
    tick."""
    from repro.obs.memory import estimate_batched_group_bytes

    return estimate_batched_group_bytes(
        qubits_for_molecule(molecule),
        size,
        kind=kind,
        hamiltonians=hamiltonians,
        hamiltonian_terms=_TERMS_BY_MOLECULE.get(molecule, 0),
        **_model_inputs(molecule, kind),
    )


def resolve_molecule(name: str, geometry: Optional[float] = None):
    """Build the molecule for a spec (factories take one scan param)."""
    factories = {"h2": h2, "h2o": h2o, "h4": h4_chain, "lih": lih}
    try:
        factory = factories[name.lower()]
    except KeyError:
        raise SpecError(
            f"unknown molecule {name!r}; choose from {sorted(factories)}"
        ) from None
    if geometry is None:
        return factory()
    if name.lower() == "h2o":
        raise SpecError("h2o does not take a scalar geometry parameter")
    return factory(float(geometry))
