"""Crash-safe checkpointing for the incremental engine.

A dynamic ranking service must survive restarts without re-solving its
whole history. A checkpoint directory holds the engine's dataset
(JSONL), its numeric state (scores and per-edge time weights, ``.npz``),
its configuration (JSON), and a manifest with per-file SHA-256
checksums; :func:`load_engine` reconstructs an engine that continues
exactly where the saved one stopped — without re-running the initial
TWPR solve.

Crash safety: :func:`save_engine` never touches an existing checkpoint
in place. It writes every file into a hidden sibling temp directory,
seals the manifest last, and only then swaps the temp directory into
place with directory renames — a crash at *any* point leaves either the
old intact checkpoint or the new intact checkpoint, never a torn mix.
:func:`load_engine` verifies sizes and checksums against the manifest
and converts every low-level failure mode (truncated ``.npz``, missing
files, corrupt gzip, mangled JSON) into a :class:`StorageError` whose
message says what to do, instead of leaking raw ``numpy``/``zipfile``
exceptions. ``docs/OPERATIONS.md`` documents the on-disk format.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.errors import StorageError
from repro.core.time_weight import exponential_decay
from repro.data.columns import ArticleColumns
from repro.data.io import load_dataset_jsonl, save_dataset_jsonl
from repro.engine.incremental import IncrementalEngine
from repro.resilience import FaultPlan

PathLike = Union[str, Path]

_DATASET_FILE = "dataset.jsonl.gz"
_ARRAYS_FILE = "state.npz"
_CONFIG_FILE = "engine.json"
_MANIFEST_FILE = "MANIFEST.json"
# v2 adds the checksum manifest; v1 checkpoints (no manifest) still load,
# just without integrity verification.
_FORMAT_VERSION = 2


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_engine(engine: IncrementalEngine, directory: PathLike,
                fault_plan: Optional[FaultPlan] = None) -> Path:
    """Atomically write ``engine`` to ``directory`` (created if missing).

    The checkpoint is staged in a hidden temp directory next to the
    target and renamed into place only once every file and the manifest
    are on disk, so a crash mid-save can never corrupt an existing
    checkpoint. ``fault_plan`` is the test harness's hook for injecting
    crashes between writes and post-write truncation; leave it ``None``
    outside the fault-injection suite.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.parent / f".{directory.name}.tmp"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()

    def wrote(name: str) -> None:
        if fault_plan is not None:
            fault_plan.on_file_written(name)

    save_dataset_jsonl(engine.dataset, staging / _DATASET_FILE)
    wrote(_DATASET_FILE)
    np.savez_compressed(
        staging / _ARRAYS_FILE,
        scores=engine.scores,
        years=engine.columns.years,
        edge_weights=engine._edge_weights,
        node_ids=engine.graph.node_ids,
        indptr=engine.graph.indptr,
        indices=engine.graph.indices,
        graph_weights=engine.graph.weights,
    )
    wrote(_ARRAYS_FILE)
    config = {
        "format_version": _FORMAT_VERSION,
        "damping": engine.damping,
        "delta_threshold": engine.delta_threshold,
        "tol": engine.tol,
        "max_iter": engine.max_iter,
        "decay_rate": getattr(engine.decay, "_repro_rate", None),
    }
    (staging / _CONFIG_FILE).write_text(json.dumps(config, indent=2),
                                        encoding="utf-8")
    wrote(_CONFIG_FILE)

    manifest = {
        "format_version": _FORMAT_VERSION,
        "files": {
            name: {"sha256": _sha256(staging / name),
                   "bytes": (staging / name).stat().st_size}
            for name in (_DATASET_FILE, _ARRAYS_FILE, _CONFIG_FILE)
        },
    }
    (staging / _MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8")
    wrote(_MANIFEST_FILE)

    if fault_plan is not None:
        # Post-manifest corruption (torn page, bit rot): checksums were
        # computed from the intact content, so load detects the damage.
        for name in (_DATASET_FILE, _ARRAYS_FILE, _CONFIG_FILE):
            keep = fault_plan.truncation_for(name)
            if keep is not None:
                with open(staging / name, "r+b") as handle:
                    handle.truncate(keep)

    # Publish: directory renames are atomic within a filesystem. If a
    # previous checkpoint exists it is parked aside first, so the only
    # crash window leaves a complete old copy next to a complete new one.
    if directory.exists():
        parked = directory.parent / f".{directory.name}.old"
        if parked.exists():
            shutil.rmtree(parked)
        os.rename(directory, parked)
        os.rename(staging, directory)
        shutil.rmtree(parked)
    else:
        os.rename(staging, directory)
    return directory


def verify_checkpoint(directory: PathLike) -> List[str]:
    """Integrity problems of a checkpoint (empty list = healthy).

    Checks directory existence, manifest readability, and every
    manifest-listed file's presence, size, and SHA-256. Legacy v1
    checkpoints (no manifest) report a single advisory problem only if
    their core files are missing.
    """
    directory = Path(directory)
    problems: List[str] = []
    if not directory.is_dir():
        return [f"{directory} is not a checkpoint directory"]
    manifest_path = directory / _MANIFEST_FILE
    if not manifest_path.exists():
        for name in (_CONFIG_FILE, _ARRAYS_FILE, _DATASET_FILE):
            if not (directory / name).exists():
                problems.append(f"missing {name} (and no manifest)")
        return problems
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        files: Dict[str, Dict] = manifest["files"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable manifest: {exc}"]
    for name, expected in files.items():
        path = directory / name
        if not path.exists():
            problems.append(f"missing {name}")
            continue
        size = path.stat().st_size
        if size != expected.get("bytes"):
            problems.append(
                f"{name} is {size} bytes, manifest says "
                f"{expected.get('bytes')} (truncated or torn write)")
            continue
        digest = _sha256(path)
        if digest != expected.get("sha256"):
            problems.append(
                f"{name} checksum mismatch (expected "
                f"{str(expected.get('sha256'))[:12]}…, got "
                f"{digest[:12]}…): file is corrupt")
    return problems


def load_engine(directory: PathLike) -> IncrementalEngine:
    """Reconstruct an engine saved by :func:`save_engine`.

    Verifies the manifest checksums first and raises
    :class:`StorageError` with an actionable message on any truncation
    or corruption — restore from an earlier checkpoint rotation in that
    case. The decay kernel is restored only for exponential kernels
    created by :func:`repro.core.time_weight.exponential_decay`;
    checkpoints of engines with custom kernels refuse to load (the
    kernel cannot be serialized faithfully).
    """
    directory = Path(directory)
    config_path = directory / _CONFIG_FILE
    if not config_path.exists():
        raise StorageError(f"no engine checkpoint in {directory}")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as exc:
        raise StorageError(
            f"checkpoint config {config_path} is unreadable ({exc}); "
            "restore from an earlier rotation") from exc
    version = config.get("format_version")
    if version not in (1, _FORMAT_VERSION):
        raise StorageError(
            f"unsupported checkpoint version {version!r}")
    if version >= 2:
        problems = verify_checkpoint(directory)
        if problems:
            raise StorageError(
                f"checkpoint {directory} failed integrity verification: "
                + "; ".join(problems)
                + ". Restore from an earlier rotation.")
    if config.get("decay_rate") is None:
        raise StorageError(
            "checkpoint was saved with a non-exponential decay kernel; "
            "reconstruct the engine manually")

    try:
        dataset = load_dataset_jsonl(directory / _DATASET_FILE)
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(
            f"checkpoint dataset {directory / _DATASET_FILE} is "
            f"unreadable ({exc.__class__.__name__}: {exc}); restore "
            "from an earlier rotation") from exc
    required = ("scores", "years", "edge_weights", "node_ids", "indptr",
                "indices", "graph_weights")
    try:
        with np.load(directory / _ARRAYS_FILE) as arrays:
            loaded = {name: arrays[name] for name in required}
    except Exception as exc:
        raise StorageError(
            f"checkpoint arrays {directory / _ARRAYS_FILE} are "
            f"unreadable or truncated ({exc.__class__.__name__}: {exc});"
            " restore from an earlier rotation") from exc

    engine = IncrementalEngine.__new__(IncrementalEngine)
    engine.damping = float(config["damping"])
    engine.decay = exponential_decay(float(config["decay_rate"]))
    engine.delta_threshold = float(config["delta_threshold"])
    engine.tol = float(config["tol"])
    engine.max_iter = int(config["max_iter"])
    # Telemetry/observability recorders are in-memory observers, never
    # checkpointed; a restored engine starts unobserved (assign
    # engine.telemetry / engine.obs to re-attach them).
    engine.telemetry = None
    engine.obs = None
    engine.dataset = dataset

    from repro.graph.csr import CSRGraph

    engine.graph = CSRGraph(loaded["indptr"], loaded["indices"],
                            loaded["graph_weights"], loaded["node_ids"])
    # The columns are derived data: rebuilt from the restored dataset,
    # then checked against the saved node order and years.
    engine.columns = ArticleColumns.of(dataset)
    engine.scores = loaded["scores"]
    engine._edge_weights = loaded["edge_weights"]
    engine._structure_cache = None
    if not (np.array_equal(engine.columns.ids, engine.graph.node_ids)
            and np.array_equal(engine.columns.years, loaded["years"])):
        raise StorageError("checkpoint arrays do not match its dataset")
    return engine
