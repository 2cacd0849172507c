"""Checkpoint/restart for long simulations.

Multi-hour VQE campaigns on shared HPC systems live inside batch-queue
walltime limits; checkpointing the simulator state (and the optimizer
position) between gates or iterations is table stakes.  Statevectors
are stored as compressed ``.npz`` with integrity metadata (register
width, gate counter, norm) that is verified on load; the distributed
simulator checkpoints per-rank slices plus the qubit layout, mirroring
how each rank would write its own shard on a parallel filesystem.

All writes are *atomic*: payloads land in a temporary file (or
directory) first and are ``os.replace``d into place, so a crash
mid-write — the exact scenario the fault-tolerance layer
(``repro.core.campaign``) recovers from — can never leave a
half-written checkpoint that exists but fails to load.  Loads verify
everything they can (format version, shard census, shapes, norm) and
always raise ``ValueError`` with a descriptive message on corruption.
"""

from __future__ import annotations

import json
import os
import shutil
import zipfile
from typing import List

import numpy as np

from repro.hpc.distributed import DistributedStatevector
from repro.sim.statevector import StatevectorSimulator

__all__ = [
    "save_statevector",
    "load_statevector",
    "save_distributed",
    "load_distributed",
]

_FORMAT_VERSION = 1


def _npz_path(path: str) -> str:
    """``np.savez`` appends ``.npz`` when absent; normalize up front so
    the atomic rename targets the real final name."""
    return path if path.endswith(".npz") else path + ".npz"


def save_statevector(sim: StatevectorSimulator, path: str) -> None:
    """Write a single-device simulator checkpoint (atomically)."""
    final = _npz_path(path)
    tmp = final + ".tmp.npz"
    try:
        np.savez_compressed(
            tmp,
            state=sim.state,
            meta=json.dumps(
                {
                    "version": _FORMAT_VERSION,
                    "num_qubits": sim.num_qubits,
                    "gates_applied": sim.gates_applied,
                }
            ),
        )
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_statevector(path: str) -> StatevectorSimulator:
    """Restore a single-device simulator checkpoint (verifies shape
    and normalization)."""
    final = _npz_path(path)
    try:
        with np.load(final, allow_pickle=False) as data:
            keys = set(data.files)
            meta_raw = str(data["meta"]) if "meta" in keys else None
            state = data["state"] if "state" in keys else None
    except (zipfile.BadZipFile, OSError, EOFError, ValueError) as err:
        # ValueError covers np.load rejecting non-.npy payloads (it
        # mistakes arbitrary bytes for pickled data)
        raise ValueError(
            f"corrupt or truncated checkpoint {final!r}: {err}"
        ) from err
    if meta_raw is None or state is None:
        raise ValueError(
            f"corrupt checkpoint {final!r}: missing 'state'/'meta' entries"
        )
    try:
        meta = json.loads(meta_raw)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"corrupt checkpoint {final!r}: unreadable metadata: {err}"
        ) from err
    if meta.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {meta.get('version')}")
    n = int(meta["num_qubits"])
    if state.shape != (1 << n,):
        raise ValueError("checkpoint state shape does not match metadata")
    norm = float(np.linalg.norm(state))
    if not np.isclose(norm, 1.0, atol=1e-6):
        raise ValueError(f"corrupt checkpoint: |state| = {norm}")
    sim = StatevectorSimulator(n)
    sim.set_state(state, copy=False)
    sim.gates_applied = int(meta["gates_applied"])
    return sim


def save_distributed(dsv: DistributedStatevector, directory: str) -> None:
    """Write one shard per rank plus a manifest (parallel-FS style).

    The whole checkpoint is assembled in a sibling temp directory and
    swapped into place, so ``directory`` only ever holds a complete,
    self-consistent set of shards.  Any previous checkpoint at the same
    path is replaced.
    """
    directory = os.path.normpath(directory)
    tmp = directory + ".tmp"
    old = directory + ".old"
    for stale in (tmp, old):
        if os.path.isdir(stale):
            shutil.rmtree(stale)
    os.makedirs(tmp)
    try:
        manifest = {
            "version": _FORMAT_VERSION,
            "num_qubits": dsv.num_qubits,
            "num_ranks": dsv.num_ranks,
            "layout": dsv.layout,
            "exchanges": dsv.exchanges,
            "gates_applied": dsv.gates_applied,
        }
        for k, s in enumerate(dsv.slices):
            np.save(os.path.join(tmp, f"rank_{k:05d}.npy"), s)
        # manifest last: a directory without one is visibly incomplete
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        if os.path.isdir(directory):
            os.replace(directory, old)
        os.replace(tmp, directory)
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        # only discard the displaced previous checkpoint once the new
        # one is in place; otherwise restore it
        if os.path.isdir(old):
            if os.path.isdir(directory):
                shutil.rmtree(old)
            else:
                os.replace(old, directory)


def load_distributed(directory: str) -> DistributedStatevector:
    """Restore a distributed checkpoint, verifying shard consistency.

    The manifest's rank count is validated against the shards actually
    present before anything is read, so a lost or partially copied
    shard surfaces as a clear ``ValueError`` naming the missing ranks
    rather than a bare ``FileNotFoundError`` deep in ``np.load``.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ValueError(
            f"not a distributed checkpoint: {directory!r} has no manifest.json"
        )
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, OSError) as err:
        raise ValueError(f"corrupt checkpoint manifest in {directory!r}: {err}") from err
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError("unsupported checkpoint version")
    num_ranks = int(manifest["num_ranks"])
    missing: List[int] = [
        k
        for k in range(num_ranks)
        if not os.path.isfile(os.path.join(directory, f"rank_{k:05d}.npy"))
    ]
    if missing:
        shown = ", ".join(str(k) for k in missing[:8])
        more = "" if len(missing) <= 8 else f" (+{len(missing) - 8} more)"
        raise ValueError(
            f"distributed checkpoint {directory!r} is missing shard(s) "
            f"{shown}{more} of {num_ranks} declared in the manifest"
        )
    present = sorted(
        f for f in os.listdir(directory) if f.startswith("rank_") and f.endswith(".npy")
    )
    if len(present) != num_ranks:
        raise ValueError(
            f"distributed checkpoint {directory!r} holds {len(present)} shards "
            f"but the manifest declares num_ranks={num_ranks}"
        )
    dsv = DistributedStatevector(int(manifest["num_qubits"]), num_ranks)
    for k in range(dsv.num_ranks):
        shard_path = os.path.join(directory, f"rank_{k:05d}.npy")
        try:
            shard = np.load(shard_path)
        except (ValueError, OSError, EOFError) as err:
            raise ValueError(
                f"corrupt or truncated shard {k} in {directory!r}: {err}"
            ) from err
        if shard.shape != (dsv.local_dim,):
            raise ValueError(f"shard {k} has wrong shape")
        dsv.slices[k] = shard.astype(np.complex128)
    total = sum(float(np.vdot(s, s).real) for s in dsv.slices)
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"corrupt checkpoint: total norm^2 = {total}")
    dsv.layout = [int(x) for x in manifest["layout"]]
    dsv.exchanges = int(manifest["exchanges"])
    dsv.gates_applied = int(manifest["gates_applied"])
    return dsv
