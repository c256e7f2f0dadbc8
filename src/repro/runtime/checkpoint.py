"""Crash-safe checkpoint/restore for the online detection service.

A checkpoint captures *everything* the serving loop's future depends on:
the live (and previous) whitelist table generations, every flow-store
slot with its streaming accumulators, the blacklist in eviction order,
all pipeline/controller counters, the retrainer's reservoir and RNG
states, the drift monitor's windows, the serve report so far, and the
fault plan's injector states.  Restoring from it and replaying the
remaining chunks therefore produces decisions and counters
*bit-identical* to the uninterrupted run — the invariant the
kill-and-resume tests assert.

Durability protocol: :class:`CheckpointManager` serialises to JSON,
writes a temp file, fsyncs, and ``os.replace``\\ s it over
``checkpoint.json`` — a crash mid-write leaves the previous checkpoint
intact.  Each save also appends one line to ``journal.jsonl`` (chunk
count, packet count, verdict totals, status) so post-mortems can see
the save history without parsing full checkpoints.

Floats round-trip exactly: JSON decimal repr of a double is re-read to
the same bits (Python emits ``repr``-faithful floats), and ±Infinity in
the Welford min/max accumulators is emitted natively via
``allow_nan=True``.  NumPy RNGs round-trip through
``Generator.bit_generator.state`` (plain dicts of ints).

Not persisted: :attr:`ServeReport.decisions` (the per-packet
:class:`PacketDecision` objects — evaluation sugar, unbounded in size)
and the retrainer's ``last_model_`` (the compiled tables it produced
are already live).  A resumed report has ``decisions == []``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.datasets.packet import FiveTuple, Packet
from repro.features.streaming import StreamingFlowStats, _Welford
from repro.io import quantizer_from_dict, quantizer_to_dict, ruleset_from_dict, ruleset_to_dict
from repro.runtime.drift import DriftMonitor
from repro.runtime.retrain import Retrainer
from repro.runtime.service import (
    OnlineDetectionService,
    RuntimeConfig,
    ServeReport,
    SwapEvent,
)
from repro.runtime.stream import ChunkStats
from repro.switch.controller import Controller, ControllerStats
from repro.switch.hashing import Slot
from repro.switch.pipeline import PipelineConfig, SwitchPipeline, _TableSet
from repro.switch.storage import FlowState

SCHEMA = "repro.checkpoint/v1"

PathLike = Union[str, Path]


# --------------------------------------------------------------------------
# Leaf serialisers
# --------------------------------------------------------------------------


def _packet_to_obj(pkt: Packet) -> list:
    ft = pkt.five_tuple
    return [
        ft.src_ip,
        ft.dst_ip,
        ft.src_port,
        ft.dst_port,
        ft.protocol,
        pkt.timestamp,
        pkt.size,
        pkt.ttl,
        pkt.tcp_flags,
        int(pkt.malicious),
    ]


def _packet_from_obj(obj: list) -> Packet:
    return Packet(
        five_tuple=FiveTuple(*(int(v) for v in obj[:5])),
        timestamp=float(obj[5]),
        size=int(obj[6]),
        ttl=int(obj[7]),
        tcp_flags=int(obj[8]),
        malicious=bool(obj[9]),
    )


def _welford_to_obj(w: _Welford) -> list:
    return [w.count, w.mean, w.m2, w.minimum, w.maximum, w.total]


def _welford_from_obj(obj: list) -> _Welford:
    # No float() coercion: min/max keep whatever numeric type update()
    # gave them (an all-int size stream leaves them int), and JSON
    # preserves the int/float distinction — coercing would make a
    # restored accumulator re-serialise differently than the original.
    return _Welford(
        count=int(obj[0]),
        mean=obj[1],
        m2=obj[2],
        minimum=obj[3],
        maximum=obj[4],
        total=obj[5],
    )


def _stats_to_obj(stats: StreamingFlowStats) -> dict:
    return {
        "sizes": _welford_to_obj(stats.sizes),
        "ipds": _welford_to_obj(stats.ipds),
        "first_time": stats.first_time,
        "last_time": stats.last_time,
    }


def _stats_from_obj(obj: dict) -> StreamingFlowStats:
    stats = StreamingFlowStats(
        sizes=_welford_from_obj(obj["sizes"]),
        ipds=_welford_from_obj(obj["ipds"]),
    )
    stats.first_time = obj["first_time"]
    stats.last_time = obj["last_time"]
    return stats


def _flow_state_to_obj(state: FlowState) -> dict:
    return {"label": state.label, "stats": _stats_to_obj(state.stats)}


def _flow_state_from_obj(obj: dict) -> FlowState:
    return FlowState(label=int(obj["label"]), stats=_stats_from_obj(obj["stats"]))


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _rng_from_state(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _tableset_to_obj(tables: Optional[_TableSet]) -> Optional[dict]:
    if tables is None:
        return None
    return {
        "fl_rules": ruleset_to_dict(tables.fl_rules),
        "fl_quantizer": quantizer_to_dict(tables.fl_quantizer),
        "pl_rules": None
        if tables.pl_rules is None
        else ruleset_to_dict(tables.pl_rules),
        "pl_quantizer": None
        if tables.pl_quantizer is None
        else quantizer_to_dict(tables.pl_quantizer),
    }


def _tableset_from_obj(obj: Optional[dict]) -> Optional[_TableSet]:
    if obj is None:
        return None
    return _TableSet(
        fl_rules=ruleset_from_dict(obj["fl_rules"]),
        fl_quantizer=quantizer_from_dict(obj["fl_quantizer"]),
        pl_rules=None
        if obj["pl_rules"] is None
        else ruleset_from_dict(obj["pl_rules"]),
        pl_quantizer=None
        if obj["pl_quantizer"] is None
        else quantizer_from_dict(obj["pl_quantizer"]),
    )


# --------------------------------------------------------------------------
# Pipeline (tables + flow store + blacklist + counters)
# --------------------------------------------------------------------------


def _pipeline_to_obj(pipeline: SwitchPipeline) -> dict:
    store = pipeline.store
    slots = [
        [t, pos, list(slot.flow_id.as_tuple()), _flow_state_to_obj(slot.state)]
        for t, table in enumerate(store.table._tables)
        for pos, slot in enumerate(table)
        if slot is not None
    ]
    blacklist = pipeline.blacklist
    controller = None
    if pipeline.controller is not None:
        engine = getattr(pipeline.controller, "policy", None)
        controller = {
            "install_blacklist": pipeline.controller.install_blacklist,
            "stats": asdict(pipeline.controller.stats),
            "policy": None if engine is None else engine.state_dict(),
        }
    limiter = pipeline.rate_limiter
    rate_limiter = None
    if limiter is not None:
        rate_limiter = {
            "keep_one_in": limiter.keep_one_in,
            "entries": limiter.state_obj(),
            "installs": limiter.installs,
            "forwarded": limiter.forwarded,
            "dropped": limiter.dropped,
        }
    return {
        "config": asdict(pipeline.config),
        "live": _tableset_to_obj(pipeline._live_tables()),
        "previous": _tableset_to_obj(pipeline._previous),
        "fl_lookups": pipeline.fl_table.lookup_count,
        "pl_lookups": None
        if pipeline.pl_table is None
        else pipeline.pl_table.lookup_count,
        "path_counts": dict(pipeline.path_counts),
        "mirrored_packets": pipeline.mirrored_packets,
        "digests_emitted": pipeline.digests_emitted,
        "degraded_packets": pipeline.degraded_packets,
        "table_swaps": pipeline.table_swaps,
        "table_rollbacks": pipeline.table_rollbacks,
        "store": {
            "slots": slots,
            "collisions": store.table.collision_count,
            "evictions": store.table.eviction_count,
            "forced_evictions": store.forced_evictions,
            "label_wipes": store.label_wipes,
        },
        "blacklist": {
            "entries": [list(ft.as_tuple()) for ft in blacklist._entries],
            "installs": blacklist.installs,
            "evictions": blacklist.evictions,
            "version": blacklist.version,
            "track_hits": blacklist.track_hits,
            "last_hit": [
                [list(ft.as_tuple()), ts] for ft, ts in blacklist.last_hit.items()
            ],
        },
        "rate_limiter": rate_limiter,
        "controller": controller,
    }


def _pipeline_from_obj(obj: dict) -> SwitchPipeline:
    live = _tableset_from_obj(obj["live"])
    pipeline = SwitchPipeline(
        fl_rules=live.fl_rules,
        fl_quantizer=live.fl_quantizer,
        pl_rules=live.pl_rules,
        pl_quantizer=live.pl_quantizer,
        config=PipelineConfig(**obj["config"]),
    )
    pipeline._previous = _tableset_from_obj(obj["previous"])
    pipeline.fl_table.lookup_count = int(obj["fl_lookups"])
    if pipeline.pl_table is not None and obj["pl_lookups"] is not None:
        pipeline.pl_table.lookup_count = int(obj["pl_lookups"])
    pipeline.path_counts.update({k: int(v) for k, v in obj["path_counts"].items()})
    pipeline.mirrored_packets = int(obj["mirrored_packets"])
    pipeline.digests_emitted = int(obj["digests_emitted"])
    pipeline.degraded_packets = int(obj["degraded_packets"])
    pipeline.table_swaps = int(obj["table_swaps"])
    pipeline.table_rollbacks = int(obj["table_rollbacks"])

    store_doc = obj["store"]
    for t, pos, ft, state in store_doc["slots"]:
        flow_id = FiveTuple(*(int(v) for v in ft))
        pipeline.store.table._tables[int(t)][int(pos)] = Slot(
            flow_id=flow_id, state=_flow_state_from_obj(state)
        )
    pipeline.store.table.collision_count = int(store_doc["collisions"])
    pipeline.store.table.eviction_count = int(store_doc["evictions"])
    pipeline.store.forced_evictions = int(store_doc["forced_evictions"])
    pipeline.store.label_wipes = int(store_doc["label_wipes"])

    bl_doc = obj["blacklist"]
    for ft in bl_doc["entries"]:
        pipeline.blacklist._entries[FiveTuple(*(int(v) for v in ft))] = True
    pipeline.blacklist.installs = int(bl_doc["installs"])
    pipeline.blacklist.evictions = int(bl_doc["evictions"])
    pipeline.blacklist.version = int(bl_doc["version"])
    # .get: checkpoints written before the mitigation engine existed.
    pipeline.blacklist.track_hits = bool(bl_doc.get("track_hits", False))
    for ft, ts in bl_doc.get("last_hit", []):
        pipeline.blacklist.last_hit[FiveTuple(*(int(v) for v in ft))] = float(ts)

    rl_doc = obj.get("rate_limiter")
    if rl_doc is not None:
        from repro.switch.tables import RateLimitTable

        limiter = RateLimitTable(keep_one_in=int(rl_doc["keep_one_in"]))
        limiter.load_state(rl_doc["entries"])
        limiter.installs = int(rl_doc["installs"])
        limiter.forwarded = int(rl_doc["forwarded"])
        limiter.dropped = int(rl_doc["dropped"])
        pipeline.rate_limiter = limiter

    if obj["controller"] is not None:
        controller = Controller(
            pipeline, install_blacklist=bool(obj["controller"]["install_blacklist"])
        )
        controller.stats = ControllerStats(
            **{k: int(v) for k, v in obj["controller"]["stats"].items()}
        )
        policy_doc = obj["controller"].get("policy")
        if policy_doc is not None:
            from repro.mitigation import PolicyEngine

            # Restore the engine state first, then attach: the restored
            # rate limiter above is already in place, so attach() leaves
            # it (and its counters) untouched.
            PolicyEngine.from_state(policy_doc).attach(pipeline)
    return pipeline


# --------------------------------------------------------------------------
# Retrainer / drift monitor / report
# --------------------------------------------------------------------------


def _retrainer_to_obj(retrainer: Retrainer) -> dict:
    reservoir = retrainer.reservoir
    return {
        "pkt_count_threshold": retrainer.pkt_count_threshold,
        "timeout": retrainer.timeout,
        "quantizer_bits": retrainer.quantizer_bits,
        "rule_cells": retrainer.rule_cells,
        "use_pl_model": retrainer.use_pl_model,
        "retrains": retrainer.retrains,
        "rng": _rng_state(retrainer._rng),
        "reservoir": {
            "capacity": reservoir.capacity,
            "seen": reservoir.seen,
            "rng": _rng_state(reservoir._rng),
            "flows": [
                [_packet_to_obj(p) for p in flow] for flow in reservoir._flows
            ],
        },
    }


def _retrainer_from_obj(obj: dict, model_factory=None) -> Retrainer:
    retrainer = Retrainer(
        pkt_count_threshold=int(obj["pkt_count_threshold"]),
        timeout=float(obj["timeout"]),
        quantizer_bits=int(obj["quantizer_bits"]),
        rule_cells=int(obj["rule_cells"]),
        use_pl_model=bool(obj["use_pl_model"]),
        reservoir_size=int(obj["reservoir"]["capacity"]),
        model_factory=model_factory,
        seed=0,
    )
    retrainer.retrains = int(obj["retrains"])
    retrainer._rng = _rng_from_state(obj["rng"])
    reservoir_doc = obj["reservoir"]
    retrainer.reservoir.seen = int(reservoir_doc["seen"])
    retrainer.reservoir._rng = _rng_from_state(reservoir_doc["rng"])
    retrainer.reservoir._flows = [
        [_packet_from_obj(p) for p in flow] for flow in reservoir_doc["flows"]
    ]
    return retrainer


def _chunk_stats_to_obj(stats: ChunkStats) -> dict:
    return {
        "n_packets": stats.n_packets,
        "malicious_rate": stats.malicious_rate,
        "path_fractions": dict(stats.path_fractions),
    }


def _chunk_stats_from_obj(obj: dict) -> ChunkStats:
    return ChunkStats(
        n_packets=int(obj["n_packets"]),
        malicious_rate=float(obj["malicious_rate"]),
        path_fractions={k: float(v) for k, v in obj["path_fractions"].items()},
    )


def _monitor_to_obj(monitor: Optional[DriftMonitor]) -> Optional[dict]:
    if monitor is None:
        return None
    return {
        "window": monitor.window,
        "baseline_window": monitor.baseline_window,
        "threshold": monitor.threshold,
        "min_packets": monitor.min_packets,
        "warmup_chunks": monitor.warmup_chunks,
        "seen": monitor._seen,
        "baseline": [_chunk_stats_to_obj(s) for s in monitor._baseline],
        "recent": [_chunk_stats_to_obj(s) for s in monitor._recent],
        "last_score": monitor.last_score,
        "last_rate": monitor.last_rate,
        "signals": monitor.signals,
    }


def _monitor_from_obj(obj: Optional[dict]) -> Optional[DriftMonitor]:
    if obj is None:
        return None
    monitor = DriftMonitor(
        window=int(obj["window"]),
        baseline_window=int(obj["baseline_window"]),
        threshold=float(obj["threshold"]),
        min_packets=int(obj["min_packets"]),
        warmup_chunks=int(obj.get("warmup_chunks", 0)),
    )
    # Checkpoints written before warm-up existed carry no "seen"; any
    # resumed monitor has already served past its warm-up, so treat the
    # warm-up as spent rather than re-applying it mid-stream.
    monitor._seen = int(obj.get("seen", monitor.warmup_chunks))
    monitor._baseline.extend(_chunk_stats_from_obj(s) for s in obj["baseline"])
    monitor._recent.extend(_chunk_stats_from_obj(s) for s in obj["recent"])
    monitor.last_score = float(obj["last_score"])
    monitor.last_rate = float(obj["last_rate"])
    monitor.signals = int(obj["signals"])
    return monitor


def report_to_dict(report: ServeReport) -> dict:
    """Serialise either service's serve report (``decisions`` excluded,
    see module doc)."""
    return {
        "n_shards": report.n_shards,
        "n_chunks": report.n_chunks,
        "n_packets": report.n_packets,
        "drift_signals": report.drift_signals,
        "retrains": report.retrains,
        "retrain_failures": report.retrain_failures,
        "fault_counts": dict(report.fault_counts),
        "shard_fault_counts": [dict(c) for c in report.shard_fault_counts],
        "shard_packets": list(report.shard_packets),
        "swap_events": [asdict(e) for e in report.swap_events],
        "chunk_stats": [_chunk_stats_to_obj(s) for s in report.chunk_stats],
        "chunk_offsets": list(report.chunk_offsets),
        "control_events": [dict(t) for t in report.control_events],
        "y_true": [int(v) for v in report.y_true],
        "y_pred": [int(v) for v in report.y_pred],
    }


def report_from_dict(obj: dict) -> ServeReport:
    """Rebuild a serve report; reads single-service and cluster reports
    of every v1 checkpoint (older single-service documents carry no
    shard sections, older swap events no shard fields)."""
    return ServeReport(
        n_shards=int(obj.get("n_shards", 1)),
        n_chunks=int(obj["n_chunks"]),
        n_packets=int(obj["n_packets"]),
        drift_signals=int(obj["drift_signals"]),
        retrains=int(obj["retrains"]),
        retrain_failures=int(obj["retrain_failures"]),
        fault_counts={k: int(v) for k, v in obj["fault_counts"].items()},
        shard_fault_counts=[
            {k: int(v) for k, v in c.items()} for c in obj.get("shard_fault_counts", [])
        ],
        shard_packets=[int(v) for v in obj.get("shard_packets", [])],
        swap_events=[SwapEvent(**e) for e in obj["swap_events"]],
        chunk_stats=[_chunk_stats_from_obj(s) for s in obj["chunk_stats"]],
        chunk_offsets=[int(v) for v in obj["chunk_offsets"]],
        # .get: checkpoints written before the ops surface lack the key.
        control_events=[dict(t) for t in obj.get("control_events", [])],
        y_true=np.asarray(obj["y_true"], dtype=int),
        y_pred=np.asarray(obj["y_pred"], dtype=int),
    )


# --------------------------------------------------------------------------
# Whole-service snapshot
# --------------------------------------------------------------------------


def service_to_dict(
    service: OnlineDetectionService,
    report: ServeReport,
    meta: Optional[Dict] = None,
) -> dict:
    """One self-contained document capturing the full serving state."""
    faults = None
    if service.faults is not None:
        faults = service.faults.state_dict()
    return {
        "schema": SCHEMA,
        "meta": dict(meta or {}),
        "config": asdict(service.config),
        "report": report_to_dict(report),
        "pipeline": _pipeline_to_obj(service.pipeline),
        "retrainer": _retrainer_to_obj(service.retrainer),
        "monitor": _monitor_to_obj(service.monitor),
        "faults": faults,
    }


def restore_fault_plan(state: Optional[dict], faults="auto", seed=None):
    """The fault plan a restored service (or shard) serves with.

    *state* is a checkpointed :meth:`~repro.faults.FaultPlan.state_dict`
    (or ``None`` when the run had no plan).  ``faults="auto"`` rebuilds
    the plan from the spec stored in *state* — with *seed* overriding
    the spec's own, as a cluster shard's fanned-out plan needs — and
    restores its injector states, so the resumed run continues the
    uninterrupted fault schedule; an explicit
    :class:`~repro.faults.FaultPlan` is substituted (with the stored
    state loaded into it); ``None`` resumes fault-free.
    """
    if faults is None:
        return None
    if faults == "auto":
        if state is None:
            return None
        if state.get("spec") is None:
            raise ValueError(
                "checkpoint holds a fault plan built without a spec; pass "
                "the plan object via faults=plan"
            )
        from repro.faults import FaultPlan

        faults = FaultPlan.from_spec(state["spec"], seed=seed)
    if state is not None:
        faults.load_state(state)
    return faults


def restore_service(
    doc: dict,
    model_factory=None,
    faults="auto",
) -> Tuple[OnlineDetectionService, ServeReport]:
    """Rebuild ``(service, report)`` from a checkpoint document.

    ``model_factory`` re-attaches the retrainer's model builder
    (callables cannot be persisted; None selects the default serving
    factory).  ``faults`` controls the fault plan, see
    :func:`restore_fault_plan`.
    """
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} checkpoint document")
    service = OnlineDetectionService(
        _pipeline_from_obj(doc["pipeline"]),
        retrainer=_retrainer_from_obj(doc["retrainer"], model_factory=model_factory),
        monitor=_monitor_from_obj(doc["monitor"]),
        config=RuntimeConfig(**doc["config"]),
        faults=restore_fault_plan(doc.get("faults"), faults),
    )
    return service, report_from_dict(doc["report"])


# --------------------------------------------------------------------------
# Durable checkpoint files
# --------------------------------------------------------------------------


class CheckpointManager:
    """Journaled, atomically-replaced checkpoints in one directory.

    ``checkpoint.json`` always holds the latest consistent snapshot
    (tmp-write + fsync + ``os.replace``); ``journal.jsonl`` accumulates
    one line per save.  ``every`` thins saves to every N-th chunk
    boundary (the final save of a completed serve always happens).
    """

    FILENAME = "checkpoint.json"
    JOURNAL = "journal.jsonl"
    #: Schemas :meth:`load` accepts.
    SCHEMAS: Tuple[str, ...] = (SCHEMA,)

    def __init__(
        self, directory: PathLike, every: int = 1, meta: Optional[Dict] = None
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = every
        self.meta = dict(meta or {})
        self.saves = 0

    def maybe_save(self, service: OnlineDetectionService, report: ServeReport) -> bool:
        """Save when the report sits on an ``every``-th chunk boundary."""
        if report.n_chunks % self.every != 0:
            return False
        self.save(service, report)
        return True

    def _document(self, service, report) -> dict:
        """Build the snapshot document; subclasses (the cluster manager)
        swap this out while inheriting the durability protocol."""
        return service_to_dict(service, report, meta=self.meta)

    def save(
        self,
        service: OnlineDetectionService,
        report: ServeReport,
        complete: bool = False,
    ) -> Path:
        doc = self._document(service, report)
        doc["status"] = "complete" if complete else "in_progress"
        path = self.directory / self.FILENAME
        tmp = self.directory / (self.FILENAME + ".tmp")
        payload = json.dumps(doc, allow_nan=True)
        with open(tmp, "w") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        entry = {
            "n_chunks": report.n_chunks,
            "n_packets": report.n_packets,
            "benign": int(np.sum(report.y_pred == 0)),
            "malicious": int(np.sum(report.y_pred == 1)),
            "status": doc["status"],
        }
        with open(self.directory / self.JOURNAL, "a") as fh:
            fh.write(json.dumps(entry) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self.saves += 1
        return path

    @staticmethod
    def exists(directory: PathLike) -> bool:
        return (Path(directory) / CheckpointManager.FILENAME).is_file()

    @classmethod
    def load(cls, directory: PathLike) -> dict:
        """The latest checkpoint document of *directory* (raw dict)."""
        return _read_checkpoint(directory, cls.SCHEMAS)


def _read_checkpoint(directory: PathLike, schemas: Tuple[str, ...]) -> dict:
    """Read *directory*'s checkpoint, refused unless its schema is one of
    *schemas*."""
    path = Path(directory) / CheckpointManager.FILENAME
    doc = json.loads(path.read_text())
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in schemas:
        raise ValueError(
            f"{path} is not a {' or '.join(schemas)} checkpoint (schema {schema!r})"
        )
    return doc
