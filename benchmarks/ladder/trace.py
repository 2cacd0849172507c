"""Span tracer that attributes a ladder run to ``repro``'s layers from outside.

Nothing in ``src/`` is edited or imported from ``repro.obs``: the tracer
wraps a table of *public* callables (``TARGETS``), keeps every span in
memory as ``[name, start, end, parent]`` on a per-thread list, and
aggregates them into the per-layer table once the run has ended.

A span's self time is its duration minus the durations of its direct
child spans.  Self times are summed only on the thread that drives the
workload, so they tile that thread's wall time exactly; spans on other
threads (the campaign server's workers) contribute to ``calls`` and,
for the names in ``WAITING``, to a waiting total.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

# A span name with more calls than this is not a layer boundary but an
# inner loop (per-term Pauli products and the like); it is left out of
# the table and its time is folded into the enclosing span.
MAX_CALLS_PER_SPAN = 100_000

# span name -> public callables, as "module:function" or "module:Class.method".
# "Class.*method" wraps ``method`` on every subclass that defines it.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "chem.scf": ("repro.chem.scf:run_rhf",),
    "chem.hamiltonian": ("repro.chem.hamiltonian:build_molecular_hamiltonian",),
    "chem.downfold": ("repro.chem.downfolding:hermitian_downfold",),
    "chem.to_qubit": ("repro.chem.hamiltonian:MolecularHamiltonian.to_qubit",),
    "chem.fci": ("repro.chem.fci:exact_ground_energy",),
    "chem.ansatz_build": (
        "repro.chem.pools:uccsd_pool",
        "repro.chem.uccsd:uccsd_generators",
        "repro.chem.uccsd:build_uccsd_circuit",
    ),
    "ir.compile_observable": ("repro.ir.compiled:compile_observable",),
    "ir.apply": ("repro.ir.compiled:CompiledPauliSum.apply",),
    "ir.expectation": (
        "repro.ir.compiled:CompiledPauliSum.expectation",
        "repro.ir.compiled:CompiledPauliSum.expectations",
    ),
    "sim.compile_circuit": ("repro.sim.plan:compile_circuit",),
    "sim.run_plan": ("repro.sim.statevector:StatevectorSimulator.run_plan",),
    "sim.batched_run_plan": ("repro.sim.batched:BatchedStatevectorSimulator.run_plan",),
    "sim.batched_expectations": (
        "repro.sim.batched:BatchedStatevectorSimulator.expectations",
    ),
    "sim.evolution_apply": (
        "repro.sim.evolution:GeneratorEvolution.apply",
        "repro.sim.evolution:GeneratorEvolution.apply_generator",
    ),
    "opt.minimize": ("repro.opt.base:Optimizer.*minimize",),
    "opt.objective": (
        "repro.opt.gradient:AnsatzObjective.__init__",
        "repro.opt.gradient:AnsatzObjective.energy",
        "repro.opt.gradient:AnsatzObjective.gradient",
        "repro.opt.gradient:AnsatzObjective.prepare_state",
    ),
    "core.workflow": ("repro.core.workflow:run_vqe_workflow",),
    "core.driver_init": (
        "repro.core.vqe:VQE.__init__",
        "repro.core.adapt:AdaptVQE.__init__",
    ),
    "core.vqe_run": ("repro.core.vqe:VQE.run",),
    "core.adapt_step": ("repro.core.adapt:AdaptVQE.step",),
    "core.pool_screening": ("repro.core.adapt:AdaptVQE.pool_gradients",),
    "core.estimate": (
        "repro.core.estimator:Estimator.estimate_plan",
        "repro.core.estimator:Estimator.estimate_plan_many",
    ),
    "hpc.dist_run_plan": ("repro.hpc.distributed:DistributedStatevector.run_plan",),
    "hpc.dist_expectation": ("repro.hpc.distributed:DistributedStatevector.expectation",),
    "serve.server_init": ("repro.serve.server:CampaignServer.__init__",),
    "serve.submit": ("repro.serve.server:CampaignServer.submit",),
    "serve.tick": ("repro.serve.server:CampaignServer.tick",),
    "serve.admission": ("repro.serve.admission:AdmissionController.decide",),
    "serve.problem_get": ("repro.serve.store:ProblemCache.get",),
    "serve.journal_append": ("repro.serve.journal:Journal.append",),
    "serve.journal_replay": ("repro.serve.journal:Journal.replay",),
    "serve.store_io": (
        "repro.serve.store:ContentStore.put_result",
        "repro.serve.store:ContentStore.get_result",
        "repro.serve.store:ContentStore.add_warm_start",
        "repro.serve.store:ContentStore.warm_start",
    ),
    "serve.broker_pump": ("repro.serve.broker:EvaluationBroker.pump",),
    "serve.batch_wait": (
        "repro.serve.broker:BrokeredEstimator.estimate_plan",
        "repro.serve.broker:BrokeredEstimator.estimate_plan_many",
    ),
}

# Spans whose time on a non-driving thread is waiting for the driving
# thread's batched sweep, reported as ``<name>_s``.
WAITING = ("serve.batch_wait",)


class Tracer:
    """In-memory span recorder; inert until :meth:`install` is called."""

    def __init__(self, targets: Optional[Dict[str, Tuple[str, ...]]] = None):
        self.targets = TARGETS if targets is None else targets
        self.enabled = False
        self.missing_targets: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # (thread ident, that thread's span list); a list, not a dict,
        # because idents are reused once a server worker thread exits
        self._threads: List[Tuple[int, List[list]]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _state(self) -> Tuple[List[list], List[int]]:
        try:
            return self._local.state
        except AttributeError:
            state = ([], [])
            with self._lock:
                self._threads.append((threading.get_ident(), state[0]))
            self._local.state = state
            return state

    def _open(self, name: str) -> Tuple[list, List[int]]:
        """Start a span on the calling thread; the caller stamps the end
        time and pops the stack."""
        spans, stack = self._state()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        return record, stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        open_span = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record, stack = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span the harness opens itself around a phase of the run."""
        if not self.enabled:
            yield
            return
        record, stack = self._open(name)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def add_root(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span after the fact: the import
        span begins at the child's first line, before this module
        could have been imported."""
        self._state()[0].append([name, start, end, -1])

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target; the rest go to ``missing_targets``."""
        self.enabled = True
        # id(original function) -> (original, wrapper)
        functions: Dict[int, Tuple[Callable, Callable]] = {}
        for name, specs in self.targets.items():
            for spec in specs:
                try:
                    self._install_one(name, spec, functions)
                except (ImportError, AttributeError):
                    self.missing_targets.append(spec)
        # ``from module import f`` copied the original into other modules
        # of the package before we got here: rebind every alias, now that
        # the resolution above has imported every module a target lives in
        packages = {
            spec.partition(":")[0].split(".")[0]
            for specs in self.targets.values()
            for spec in specs
        }
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] not in packages:
                continue
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, attr, entry[1])

    def _install_one(self, name: str, spec: str, functions: dict) -> None:
        mod_name, _, path = spec.partition(":")
        module = importlib.import_module(mod_name)
        if "." not in path:
            original = getattr(module, path)
            functions[id(original)] = (original, self._wrap(name, original))
            return
        cls_name, method = path.split(".", 1)
        cls = getattr(module, cls_name)
        if method.startswith("*"):
            method = method[1:]
            classes = [cls]
            for c in classes:
                classes.extend(c.__subclasses__())
            owners = [c for c in classes if method in vars(c)]
            if not owners:
                raise AttributeError(spec)
        else:
            if method not in vars(cls):
                raise AttributeError(spec)
            owners = [cls]
        for owner in owners:
            original = vars(owner)[method]
            if getattr(original, "__isabstractmethod__", False):
                continue
            self._set(owner, method, self._wrap(name, original))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back (tests install more than one tracer)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.enabled = False

    # -- aggregation ----------------------------------------------------------

    def aggregate(self, driving_thread: Optional[int] = None) -> Dict[str, Any]:
        """Fold the recorded spans into the per-layer table.

        Returns ``{"layers": {name: {"self_s", "calls"}}, "waiting":
        {name: seconds}, "dropped_spans": [...], "missing_targets":
        [...]}``.  ``self_s`` sums over the driving thread only.
        """
        if driving_thread is None:
            driving_thread = threading.main_thread().ident
        with self._lock:
            threads = [(ident, list(spans)) for ident, spans in self._threads]
        calls: Dict[str, int] = {}
        for _, spans in threads:
            for record in spans:
                calls[record[0]] = calls.get(record[0], 0) + 1
        dropped = sorted(n for n, c in calls.items() if c > MAX_CALLS_PER_SPAN)
        layers: Dict[str, Dict[str, float]] = {
            n: {"self_s": 0.0, "calls": c} for n, c in calls.items() if n not in dropped
        }
        waiting = {n: 0.0 for n in WAITING if n in layers}
        for ident, spans in threads:
            child_s = [0.0] * len(spans)
            for record in spans:
                name, start, end, parent = record
                if name in dropped:
                    continue
                # charge the nearest ancestor that is in the table
                while parent >= 0 and spans[parent][0] in dropped:
                    parent = spans[parent][3]
                if parent >= 0:
                    child_s[parent] += end - start
                if ident != driving_thread and name in waiting:
                    waiting[name] += end - start
            if ident != driving_thread:
                continue
            for i, (name, start, end, _) in enumerate(spans):
                if name not in dropped:
                    layers[name]["self_s"] += (end - start) - child_s[i]
        return {
            "layers": layers,
            "waiting": waiting,
            "dropped_spans": dropped,
            "missing_targets": list(self.missing_targets),
        }
