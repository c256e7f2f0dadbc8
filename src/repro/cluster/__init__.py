"""Sharded cluster runtime: horizontal scale-out of the serving loop.

Layout:

* :mod:`repro.cluster.router` — canonical-flow-hash partitioning
  (:class:`FlowShardRouter`), the invariant that keeps per-flow
  semantics exact across shards;
* :mod:`repro.cluster.worker` — one pipeline per shard plus the
  coordinator-driven verbs (:class:`ShardWorker`);
* :mod:`repro.cluster.shm` — the zero-copy transport: one shared
  segment holding the trace columns, per-shard SPSC descriptor rings,
  and fixed-layout verdict/counter return blocks;
* :mod:`repro.cluster.executor` — in-process (deterministic),
  multiprocess (pipe+pickle), and shared-memory (descriptor-passing)
  execution of the shard fleet;
* :mod:`repro.cluster.service` — the coordinator
  (:class:`ClusterService`): merged telemetry, cluster-wide drift →
  retrain → two-phase hot swap;
* :mod:`repro.cluster.checkpoint` — cluster-consistent atomic
  checkpoints with self-contained per-shard sections.
"""

from repro.cluster.checkpoint import (
    CLUSTER_SCHEMA,
    ClusterCheckpointManager,
    cluster_to_dict,
    load_any_checkpoint,
    restore_cluster,
    restore_shard,
)
from repro.cluster.executor import (
    EXECUTOR_KINDS,
    InProcessExecutor,
    MultiprocessExecutor,
    SharedMemoryExecutor,
    ShardError,
    make_executor,
)
from repro.cluster.router import ROUTER_SALT, FlowShardRouter, ShardPartition
from repro.cluster.service import (
    ClusterReplayResult,
    ClusterService,
    RowPartition,
    shard_fault_plans,
)
from repro.cluster.shm import (
    SHM_PREFIX,
    ClusterShm,
    ShmArena,
    SpscRing,
    TornReadError,
    make_segment_name,
    unlink_segment,
)
from repro.cluster.worker import (
    ShardChunkOutcome,
    ShardWorker,
    clone_pipeline,
    pack_packets,
    unpack_packets,
)

__all__ = [
    "CLUSTER_SCHEMA",
    "EXECUTOR_KINDS",
    "ROUTER_SALT",
    "SHM_PREFIX",
    "ClusterCheckpointManager",
    "ClusterReplayResult",
    "ClusterService",
    "ClusterShm",
    "FlowShardRouter",
    "InProcessExecutor",
    "MultiprocessExecutor",
    "RowPartition",
    "SharedMemoryExecutor",
    "ShardChunkOutcome",
    "ShardError",
    "ShardPartition",
    "ShardWorker",
    "ShmArena",
    "SpscRing",
    "TornReadError",
    "clone_pipeline",
    "cluster_to_dict",
    "load_any_checkpoint",
    "make_executor",
    "make_segment_name",
    "pack_packets",
    "restore_cluster",
    "restore_shard",
    "shard_fault_plans",
    "unlink_segment",
]
