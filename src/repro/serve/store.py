"""Content-addressed store backing the campaign server.

Three tiers, addressed by the hashes of :mod:`repro.serve.spec`:

* **Results** (disk, ``results.jsonl``): the terminal output of a job
  keyed by its physics content, one ``{"key", "result"}`` line appended
  and flushed per completed job.  A second submission of the same
  problem — same or different tenant — completes immediately from the
  stored result (a *dedup hit*): replaying work the fleet has already
  paid for would be the opposite of throughput.  The log is folded at
  open (the last line that parses per key wins) into a key → byte range
  index, so memory does not grow with the results' size; a torn or
  garbled line reads as absent and its job recomputes.  Re-putting a
  key appends a line that wins, so journal replay can re-put a result
  without harm.
* **Warm starts** (disk, ``warm/<family_key>.json``): converged
  parameter vectors indexed by geometry within a molecule family.
  A new geometry starts from its nearest converged neighbor —
  ``repro.core.scan``'s incremental optimization, applied across jobs
  and tenants instead of within one scan loop.  The family file is
  append-only JSON lines, one ``{"geometry", "parameters"}`` object
  per completion; :func:`read_warm_family` folds it (last line per
  geometry wins, unparseable lines such as a torn tail are skipped).
* **Compiled artifacts** (memory): per content key, the built problem
  (Hamiltonian, pool/generators, reference state) is constructed once
  and shared by every job at that key.  Because the compiled-plan
  (``repro.sim.plan``) and compiled-observable (``repro.ir.compiled``)
  engines memoize on the *object*, sharing the objects is what makes
  their caches hit across jobs — the expensive compile happens once
  per distinct problem per server process.  What does not depend on
  the geometry (UCCSD generators, the ansatz circuit and so its plan)
  is built once per (spin orbitals, electrons) and shared by every
  problem of that shape: a bond scan pays per point only for numbers,
  and the evaluation broker runs the whole scan on one plan.  A VQE
  plan the broker's reverse-mode sweep cannot differentiate is refused
  at build, naming the molecule.

The results log and every warm family file stay open, for appends,
until :meth:`ContentStore.close`: a completed job costs appended lines,
never a file creation.  The per-tick question "is this queued job
already solved?" is a lookup in the results index, and only a hit
reads the disk.
"""

from __future__ import annotations

import json
import os
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.pools import uccsd_pool
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.chem.uccsd import build_uccsd_circuit, uccsd_generators
from repro.obs.memory import TERM_BYTES
from repro.serve.spec import JobSpec, resolve_molecule
from repro.sim.batched import reverse_mode_blocker
from repro.sim.plan import compile_circuit
from repro.utils.jsonl import KeyedLog, open_append, parse_lines

__all__ = ["ContentStore", "ProblemCache", "read_warm_family"]

# one warm-start family: geometry -> converged parameters, in the order
# each geometry was last written
WarmFamily = Dict[Optional[float], List[float]]


def _result_key(line: Dict[str, Any]) -> str:
    return line["key"]


def read_warm_family(path: str) -> WarmFamily:
    """Fold a warm-start family file: the last entry per geometry wins.

    A line holding a JSON list (the file format before the family became
    append-only) folds entry by entry; a missing file is an empty family.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return {}
    family: WarmFamily = {}
    for value in parse_lines(data):
        for entry in value if isinstance(value, list) else [value]:
            if isinstance(entry, dict) and "parameters" in entry:
                geometry = entry.get("geometry")
                family.pop(geometry, None)  # re-inserted last: newest order
                family[geometry] = entry["parameters"]
    return family


class ContentStore:
    """Disk-backed, content-addressed results + warm-start index."""

    def __init__(self, root: str):
        self.root = root
        self._warm_dir = os.path.join(root, "warm")
        os.makedirs(self._warm_dir, exist_ok=True)
        # content key -> byte range of its result line: whatever an
        # earlier server left here, plus every put_result of this one.
        # The dispatch loop asks about every queued job on every tick,
        # and nearly all of those are misses; they are answered here.
        self._results = KeyedLog(os.path.join(root, "results.jsonl"), _result_key)
        # family key -> folded warm-start family, read from disk on first
        # use and appended through on every add
        self._warm: Dict[str, WarmFamily] = {}
        # family key -> append handle on its file, open until close()
        self._warm_handles: Dict[str, BinaryIO] = {}

    def close(self) -> None:
        """Release the open log handles (a later write reopens them)."""
        self._results.close()
        for fh in self._warm_handles.values():
            fh.close()
        self._warm_handles.clear()

    # -- results --------------------------------------------------------------

    def get_result(self, content_key: str) -> Optional[Dict[str, Any]]:
        # a torn or garbled result line is treated as absent: the
        # journal still holds the lifecycle, the job will simply recompute
        line = self._results.get(content_key)
        result = None if line is None else line.get("result")
        return result if isinstance(result, dict) else None

    def put_result(self, content_key: str, result: Dict[str, Any]) -> None:
        """Idempotent: re-putting the same key appends a line with the
        same content, which wins (journal replay safety)."""
        self._results.append({"key": content_key, "result": result})

    def has_result(self, content_key: str) -> bool:
        return content_key in self._results

    def num_results(self) -> int:
        return len(self._results)

    # -- warm starts ----------------------------------------------------------

    def _warm_path(self, family_key: str) -> str:
        return os.path.join(self._warm_dir, f"{family_key}.json")

    def _load_warm(self, family_key: str) -> WarmFamily:
        family = self._warm.get(family_key)
        if family is None:
            family = self._warm[family_key] = read_warm_family(
                self._warm_path(family_key)
            )
        return family

    def add_warm_start(
        self, family_key: str, geometry: Optional[float], parameters: np.ndarray
    ) -> None:
        """Record a converged parameter vector for its geometry (one
        entry per geometry, last write wins): one appended line."""
        family = self._load_warm(family_key)
        values = [float(x) for x in np.atleast_1d(parameters)]
        line = json.dumps({"geometry": geometry, "parameters": values})
        fh = self._warm_handles.get(family_key)
        if fh is None:
            fh = self._warm_handles[family_key] = open_append(self._warm_path(family_key))
        fh.write(line.encode() + b"\n")
        fh.flush()
        family.pop(geometry, None)
        family[geometry] = values
    def has_warm_start(self, family_key: str) -> bool:
        """Whether any geometry of the family has converged."""
        return bool(self._load_warm(family_key))

    def warm_start(
        self, family_key: str, geometry: Optional[float], num_parameters: int
    ) -> Optional[np.ndarray]:
        """Nearest-geometry converged parameters with a matching length,
        or None if the family is empty."""
        entries = [
            (g, p)
            for g, p in self._load_warm(family_key).items()
            if len(p) == num_parameters
        ]
        if not entries:
            return None
        if geometry is None:
            best = entries[-1]
        else:
            best = min(
                entries,
                key=lambda e: abs(e[0] - geometry) if e[0] is not None else float("inf"),
            )
        return np.asarray(best[1], dtype=float)


class ProblemCache:
    """In-memory cache of built problems, keyed by spec content.

    ``get(spec)`` returns a dict holding the qubit Hamiltonian, the
    reference state, and (per kind) the UCCSD generators or the ADAPT
    pool — built once per distinct content key and shared, so the
    compiled-observable/compiled-plan memoization downstream hits
    across every job of the same problem.
    """

    def __init__(self) -> None:
        self._cache: Dict[str, Dict[str, Any]] = {}
        # second tier, keyed by JobSpec.physics_key(): distinct content
        # keys (different seeds / solver knobs) whose physics agree
        # share ONE problem dict, hence one Hamiltonian object and one
        # compiled observable.
        self._physics: Dict[str, Dict[str, Any]] = {}
        # third tier, keyed by (spin orbitals, electrons): the UCCSD
        # generators and the trotterized circuit do not depend on the
        # geometry, so every point of a scan carries the SAME Circuit
        # and, through compile_circuit's memo on it, one ExecutionPlan
        # — which is what lets the evaluation broker stack a whole
        # scan's parameter rows into one sweep
        self._uccsd: Dict[Tuple[int, int], Tuple[List[Any], Any]] = {}
        self.builds = 0
        self.hits = 0
        self.physics_hits = 0
        self.total_bytes = 0
        self._mem = 0

    @staticmethod
    def _problem_bytes(problem: Dict[str, Any]) -> int:
        """Resident bytes of one built problem: the dense reference
        state plus the Hamiltonian's term dictionary (``TERM_BYTES`` per
        packed (mask, coeff) entry)."""
        total = 0
        for value in problem.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
        hq = problem.get("hamiltonian")
        if hq is not None:
            total += TERM_BYTES * getattr(hq, "num_terms", 0)
        return total

    def get(self, spec: JobSpec) -> Dict[str, Any]:
        key = spec.content_key()
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        pkey = spec.physics_key()
        shared = self._physics.get(pkey)
        if shared is not None:
            # same physics under a different content key (e.g. another
            # seed): alias the shared problem, no rebuild, no new bytes
            self._cache[key] = shared
            self.physics_hits += 1
            return shared
        problem = self._build(spec)
        self._cache[key] = problem
        self._physics[pkey] = problem
        self.builds += 1
        self.total_bytes += self._problem_bytes(problem)
        if not self._mem:  # late-bound: obs may be enabled after init
            self._mem = obs.mem_track(self, "problem_cache", 0)
        obs.mem_resize(self._mem, self.total_bytes)
        return problem

    def _build(self, spec: JobSpec) -> Dict[str, Any]:
        with obs.span(
            "serve.build_problem", molecule=spec.molecule, kind=spec.kind
        ):
            molecule = resolve_molecule(spec.molecule, spec.geometry)
            scf = run_rhf(molecule)
            hamiltonian = build_molecular_hamiltonian(scf)
            hq = hamiltonian.to_qubit()
            n_so = hamiltonian.num_spin_orbitals
            n_e = hamiltonian.num_electrons
            problem: Dict[str, Any] = {
                "hamiltonian": hq,
                "num_qubits": n_so,
                "num_electrons": n_e,
                "reference": hartree_fock_state(n_so, n_e),
                "scf_energy": scf.energy,
            }
            if spec.kind == "adapt":
                problem["pool"] = uccsd_pool(n_so, n_e)
            else:
                structure = self._uccsd.get((n_so, n_e))
                if structure is None:
                    circuit = build_uccsd_circuit(n_so, n_e).circuit
                    # compile_circuit memoizes on the circuit object, so
                    # every job carrying it executes the SAME
                    # ExecutionPlan — the compatibility unit the
                    # evaluation broker batches on (one group per plan
                    # key; each row brings its own geometry's
                    # Hamiltonian).  The broker takes every value with
                    # its gradient from one reverse-mode sweep, so a
                    # plan that sweep cannot differentiate is refused
                    # here, before any job runs it.
                    blocker = reverse_mode_blocker(compile_circuit(circuit))
                    if blocker is not None:
                        raise ValueError(
                            f"served VQE on {spec.molecule!r}: the UCCSD plan has a "
                            f"{blocker.gate_name!r} gate the reverse-mode sweep "
                            "cannot differentiate"
                        )
                    structure = self._uccsd[n_so, n_e] = (
                        [a for _, a in uccsd_generators(n_so, n_e)],
                        circuit,
                    )
                problem["generators"], problem["ansatz"] = structure
        return problem

    def __len__(self) -> int:
        return len(self._cache)
