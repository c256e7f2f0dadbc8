"""Where the traced run puts its spans: around each layer's entry points.

Module- and class-level hooks stay on for a traced deployment (setup
and serve); instance hooks go on the service, stream and managers the
benchmark built for one serve.  Span names are the per-layer metric
names without their ``_s`` suffix.
"""

from __future__ import annotations

import repro.cluster.service as cluster_service
import repro.core.deployment as deployment
import repro.runtime.stream as runtime_stream
import repro.switch.batch as batch
from repro.cluster.shm import ClusterShm
from repro.core.iguard import IGuard


def instrument_modules(tracer) -> None:
    tracer.wrap(IGuard, "fit", "core.fit")
    tracer.wrap(IGuard, "to_rules", "core.rules")
    tracer.wrap(deployment, "compile_pl_artifacts", "core.pl_rules")
    tracer.wrap(deployment, "quantize_ruleset", "switch.quantize")
    for module in (runtime_stream, cluster_service):
        tracer.wrap(module, "as_chunk_iter", "runtime.stream.rechunk", generator=True)
    tracer.wrap(runtime_stream, "replay_trace", "switch.replay")
    tracer.wrap(batch, "replay_trace_batch", "switch.egress")
    tracer.wrap(batch, "replay_arrays", "switch.state_loop")
    tracer.wrap(batch.TraceArrays, "from_trace", "switch.columns")
    tracer.wrap(batch.TraceColumns, "from_trace", "switch.columns")
    tracer.wrap(batch.RangeIntervalMatcher, "__init__", "switch.matcher_build")
    tracer.wrap(ClusterShm, "write_columns", "cluster.arena_write")


def instrument_serve(tracer, service, source, manager) -> None:
    """Hooks on one serve's own objects (call after instrument_modules)."""
    if hasattr(source, "iter_chunks"):
        tracer.wrap(source, "iter_chunks", "scenarios.generate", generator=True)
    tracer.wrap(service.retrainer, "observe", "runtime.retrain.observe")
    tracer.wrap(service.retrainer, "retrain", "runtime.retrain.retrain")
    if service.monitor is not None:
        tracer.wrap(service.monitor, "observe", "runtime.drift.observe")
    if manager is not None:
        tracer.wrap(manager, "save", "runtime.checkpoint.save")
    pipeline = getattr(service, "pipeline", None)
    if pipeline is not None:
        tracer.wrap(pipeline, "stage_tables", "switch.install")
        tracer.wrap(pipeline, "hot_swap", "switch.install")
        engine = getattr(pipeline.controller, "policy", None)
        if engine is not None:
            tracer.wrap(engine, "tick", "mitigation.tick")
    if isinstance(service, cluster_service.ClusterService):
        executor = getattr(service, "_executor", None)
        tracer.wrap(service.router, "shard_indices_fields", "cluster.route")
        tracer.wrap(service, "_merge_outcomes", "cluster.merge")
        tracer.wrap(executor, "ensure_arena", "cluster.arena_write")
        tracer.wrap(executor, "dispatch_descriptor", "cluster.dispatch")
        tracer.wrap(executor, "collect_completion", "cluster.shard_wait")
