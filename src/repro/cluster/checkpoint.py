"""Cluster-consistent checkpoints: one atomic document, per-shard inside.

A cluster checkpoint is a *single* JSON document written with the same
tmp-write + fsync + ``os.replace`` protocol as the single-service
checkpoint (the writer is literally
:class:`~repro.runtime.checkpoint.CheckpointManager` with the document
builder swapped out), so the on-disk state is always one internally
consistent cluster cut — never shard 3 at chunk 12 next to shard 0 at
chunk 11.

Inside, every shard's section is **self-contained** (its pipeline,
fault-plan state, and progress counters serialise independently via the
PR 4 leaf serialisers): :func:`restore_shard` rebuilds any single shard
without touching the others, which is what makes per-shard crash
recovery and fault post-mortems possible, while :func:`restore_cluster`
rebuilds the whole service + report for ``repro resume``.

``repro resume`` dispatches on the ``schema`` field —
``repro.checkpoint/v1`` resumes the single service,
``repro.cluster-checkpoint/v1`` the cluster — via
:func:`load_any_checkpoint`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Optional, Tuple

from repro.cluster.service import ClusterService
from repro.cluster.shm import unlink_segment
from repro.cluster.worker import ShardWorker
from repro.runtime.checkpoint import (
    SCHEMA as SERVICE_SCHEMA,
    CheckpointManager,
    PathLike,
    _monitor_from_obj,
    _monitor_to_obj,
    _pipeline_from_obj,
    _read_checkpoint,
    _retrainer_from_obj,
    _retrainer_to_obj,
    report_from_dict,
    report_to_dict,
    restore_fault_plan,
)
from repro.runtime.service import RuntimeConfig, ServeReport

CLUSTER_SCHEMA = "repro.cluster-checkpoint/v1"


# --------------------------------------------------------------------------
# Whole-cluster snapshot
# --------------------------------------------------------------------------


def cluster_to_dict(
    service: ClusterService,
    report: ServeReport,
    meta: Optional[Dict] = None,
) -> dict:
    """One self-contained document capturing the full cluster state."""
    return {
        "schema": CLUSTER_SCHEMA,
        "meta": dict(meta or {}),
        "config": asdict(service.config),
        "n_shards": service.n_shards,
        "executor": service.executor_kind,
        # The live shared-segment name (shm executor only): a resumed
        # run re-maps the surviving segment instead of re-allocating.
        "shm_name": service.shm_segment_name,
        "router_salt": service.router.salt,
        "faults_spec": service.faults_spec,
        "coordinator_faults": None
        if service.faults is None
        else service.faults.state_dict(),
        "report": report_to_dict(report),
        "retrainer": _retrainer_to_obj(service.retrainer),
        "monitor": _monitor_to_obj(service.monitor),
        "shards": service.shard_snapshots(),
    }


def restore_shard(
    doc: dict,
    shard_id: int,
    mode: str = "batch",
    keep_decisions: bool = True,
    with_faults: bool = True,
) -> ShardWorker:
    """Rebuild one shard's worker from a cluster checkpoint document.

    Reads only ``doc["shards"][shard_id]`` — shard sections are
    self-contained, so one crashed shard can be reconstructed (or
    inspected post-mortem) without deserialising the rest of the
    cluster.  The shard's fault plan is rebuilt with its own fan-out
    seed and checkpointed injector states (so the resumed schedule
    continues the uninterrupted one), or dropped when not
    ``with_faults``.
    """
    shard_doc = doc["shards"][shard_id]
    if int(shard_doc["shard_id"]) != shard_id:
        raise ValueError(
            f"shard section {shard_id} claims id {shard_doc['shard_id']}"
        )
    worker = ShardWorker(
        shard_id,
        _pipeline_from_obj(shard_doc["pipeline"]),
        mode=mode,
        faults=restore_fault_plan(
            shard_doc.get("faults"),
            "auto" if with_faults else None,
            seed=shard_doc.get("faults_seed"),
        ),
        keep_decisions=keep_decisions,
    )
    worker.chunks_processed = int(shard_doc["chunks_processed"])
    worker.packets_processed = int(shard_doc["packets_processed"])
    return worker


def restore_cluster(
    doc: dict,
    model_factory=None,
    executor: Optional[str] = None,
    faults: object = "auto",
) -> Tuple[ClusterService, ServeReport]:
    """Rebuild ``(service, report)`` from a cluster checkpoint document.

    ``executor`` overrides the checkpointed executor kind (a run started
    multiprocess can resume in-process and vice versa — shard state is
    executor-agnostic).  ``faults="auto"`` restores every plan — the
    coordinator's and each shard's — from its stored spec + state;
    otherwise the shards resume fault-free and the coordinator gets
    :func:`~repro.runtime.checkpoint.restore_fault_plan`'s choice
    (``None`` resumes fault-free throughout).
    """
    if not isinstance(doc, dict) or doc.get("schema") != CLUSTER_SCHEMA:
        raise ValueError(f"not a {CLUSTER_SCHEMA} checkpoint document")
    kind = executor or doc["executor"]
    shm_name = doc.get("shm_name")
    if shm_name is not None and kind != "shm":
        # The checkpointed run owned a shared segment but the resumed
        # one won't adopt it — reap the orphan now (a SIGKILLed shm
        # coordinator deliberately leaves its segment behind for us).
        unlink_segment(shm_name)
        shm_name = None
    keep = kind == "inprocess"
    n_shards = int(doc["n_shards"])
    config = RuntimeConfig(**doc["config"])

    workers = [
        restore_shard(doc, k, config.mode, keep, with_faults=faults == "auto")
        for k in range(n_shards)
    ]

    service = ClusterService(
        workers=workers,
        config=config,
        executor=kind,
        retrainer=_retrainer_from_obj(doc["retrainer"], model_factory=model_factory),
        monitor=_monitor_from_obj(doc["monitor"]),
        coordinator_faults=restore_fault_plan(doc.get("coordinator_faults"), faults),
        faults_spec=doc.get("faults_spec"),
        router_salt=int(doc["router_salt"]),
        shm_name=shm_name,
    )
    return service, report_from_dict(doc["report"])


# --------------------------------------------------------------------------
# Durable checkpoint files
# --------------------------------------------------------------------------


class ClusterCheckpointManager(CheckpointManager):
    """The PR 4 journaled atomic-replace writer, emitting cluster docs.

    Only the document builder differs; the durability protocol, journal,
    and ``every``-th-chunk thinning are inherited unchanged — one
    ``checkpoint.json`` per cluster, always a consistent cut."""

    SCHEMAS = (CLUSTER_SCHEMA,)

    def _document(self, service: ClusterService, report: ServeReport) -> dict:
        return cluster_to_dict(service, report, meta=self.meta)


def load_any_checkpoint(directory: PathLike) -> dict:
    """Load a checkpoint of either schema (``repro resume`` dispatches
    on the returned document's ``schema`` field)."""
    return _read_checkpoint(directory, (SERVICE_SCHEMA, CLUSTER_SCHEMA))
