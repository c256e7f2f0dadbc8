"""Online serving runtime: streaming ingestion, drift monitoring, and
staged whitelist hot-swap.

The evaluation harness exercises one train → compile → quantise → replay
pass; a deployed iGuard is a *service* — the data plane keeps classifying
at line rate while the control plane watches the traffic distribution,
refits the AE-guided forest on recent traffic, and pushes recompiled
whitelist tables into the running pipeline.  This package is that
control loop over the simulator:

* :class:`~repro.runtime.stream.StreamDriver` — feeds a trace through
  the batch replay engine in fixed-size chunks, carrying flow/blacklist
  state across chunks (chunked replay with no swaps is bit-identical to
  one replay call; the differential suite asserts it).
* :class:`~repro.runtime.drift.DriftMonitor` — sliding-window
  benign-rate and path-distribution statistics; raises a retrain signal
  on distribution shift.
* :class:`~repro.runtime.retrain.Retrainer` — reservoir-samples recent
  flows, refits the model, and recompiles install-ready artifacts via
  :func:`repro.core.deployment.compile_switch_artifacts`.
* :class:`~repro.runtime.control.OpsControlMixin` — the one serve loop
  (drift/cadence gating, retrain, swap telemetry, ops verbs,
  checkpoints) both services run, producing a
  :class:`~repro.runtime.control.ServeReport`.
* :class:`~repro.runtime.service.OnlineDetectionService` — that loop
  over one pipeline, installing generations via
  :meth:`SwitchPipeline.stage_tables` /
  :meth:`~repro.switch.pipeline.SwitchPipeline.hot_swap`, with the state
  machine SERVING → STAGING → SWAP (→ ROLLBACK on validation failure).

* :class:`~repro.runtime.checkpoint.CheckpointManager` /
  :func:`~repro.runtime.checkpoint.restore_service` — journaled,
  atomically-replaced snapshots of the whole service; a killed serve
  loop resumes bit-identically from the last chunk boundary
  (``repro resume``).

Surfaced on the command line as ``repro serve`` / ``repro resume``.
"""

from repro.runtime.checkpoint import (
    CheckpointManager,
    report_from_dict,
    report_to_dict,
    restore_service,
    service_to_dict,
)
from repro.runtime.drift import DriftMonitor
from repro.runtime.retrain import FlowReservoir, Retrainer, default_model_factory
from repro.runtime.service import (
    OnlineDetectionService,
    RuntimeConfig,
    ServeReport,
    SwapEvent,
)
from repro.runtime.stream import (
    ChunkResult,
    ChunkStats,
    PacketSource,
    StreamDriver,
    as_chunk_iter,
    iter_chunks,
)

__all__ = [
    "CheckpointManager",
    "ChunkResult",
    "ChunkStats",
    "DriftMonitor",
    "FlowReservoir",
    "OnlineDetectionService",
    "PacketSource",
    "Retrainer",
    "RuntimeConfig",
    "ServeReport",
    "StreamDriver",
    "SwapEvent",
    "as_chunk_iter",
    "default_model_factory",
    "iter_chunks",
    "report_from_dict",
    "report_to_dict",
    "restore_service",
    "service_to_dict",
]
