"""One shard of the cluster: a pipeline plus its control-plane verbs.

A :class:`ShardWorker` owns one :class:`~repro.switch.pipeline.SwitchPipeline`
(with controller) and exposes exactly the operations the coordinator
drives, each usable both in-process and behind a queue in a worker
process:

* :meth:`replay_chunk` — serve one routed chunk slice through the live
  tables and return the per-packet verdicts plus this chunk's counter
  deltas (the shard-local equivalent of one
  :class:`~repro.runtime.stream.StreamDriver` iteration, including the
  chunk-boundary fault hook);
* :meth:`stage` / :meth:`commit` / :meth:`abort` — the shard-side half
  of the cluster's two-phase table swap, reusing
  ``stage_tables`` / ``hot_swap`` / ``reject_staged`` and the PR 4
  retry-with-backoff install path;
* :meth:`snapshot` — the shard's full serialised state for cluster
  checkpoints.

Workers deliberately publish **nothing** to the telemetry registry:
replays, fault hooks and stages run under a scoped null registry and
only return counter deltas — ``faults.*`` firings included — so the
coordinator is the single writer of cluster telemetry on every
transport (in a forked worker process a registry write would land in a
throwaway copy anyway).

For the multiprocess transport, packets cross the process boundary as a
struct-of-numpy-arrays wire format (:func:`pack_packets` /
:func:`unpack_packets`) — pickling six arrays is a memcpy, pickling
100k :class:`Packet` dataclasses is not.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional

import numpy as np

from repro.datasets.packet import FiveTuple, Packet
from repro.datasets.trace import Trace
from repro.faults.errors import TransientFaultError
from repro.faults.retry import retry_with_backoff
from repro.switch.batch import TraceColumns, replay_columns
from repro.switch.controller import Controller
from repro.switch.pipeline import PacketDecision, SwitchPipeline
from repro.switch.runner import replay_trace
from repro.telemetry import use_registry


# --------------------------------------------------------------------------
# Wire format
# --------------------------------------------------------------------------

_WIRE_FIELDS = operator.attrgetter(
    "five_tuple.src_ip",
    "five_tuple.dst_ip",
    "five_tuple.src_port",
    "five_tuple.dst_port",
    "five_tuple.protocol",
    "timestamp",
    "size",
    "ttl",
    "tcp_flags",
    "malicious",
)


def pack_packets(packets: List[Packet]) -> dict:
    """Struct-of-arrays form of *packets* — cheap to pickle, lossless.

    Every field is exactly representable in float64 (32-bit IPs, 16-bit
    ports, small ints, bools), so one ``fromiter`` pass captures the
    lot; integer columns are restored to int64 and the bool bit to bool
    on unpack, giving packets that compare equal to the originals.
    """
    n = len(packets)
    flat = np.fromiter(
        chain.from_iterable(map(_WIRE_FIELDS, packets)),
        dtype=np.float64,
        count=10 * n,
    ).reshape(n, 10)
    return {
        "tuples": flat[:, :5].astype(np.int64),
        "timestamps": flat[:, 5].copy(),
        "meta": flat[:, 6:9].astype(np.int64),  # size, ttl, tcp_flags
        "malicious": flat[:, 9].astype(bool),
    }


def unpack_packets(doc: dict) -> List[Packet]:
    """Rebuild the packet list from :func:`pack_packets` output."""
    tuples = doc["tuples"]
    timestamps = doc["timestamps"]
    meta = doc["meta"]
    malicious = doc["malicious"]
    return [
        Packet(
            five_tuple=FiveTuple(
                int(t[0]), int(t[1]), int(t[2]), int(t[3]), int(t[4])
            ),
            timestamp=float(timestamps[i]),
            size=int(meta[i, 0]),
            ttl=int(meta[i, 1]),
            tcp_flags=int(meta[i, 2]),
            malicious=bool(malicious[i]),
        )
        for i, t in enumerate(tuples)
    ]


# --------------------------------------------------------------------------
# Shard worker
# --------------------------------------------------------------------------


@dataclass
class ShardChunkOutcome:
    """One shard's share of one served chunk."""

    shard_id: int
    n_packets: int
    y_true: np.ndarray
    y_pred: np.ndarray
    #: This chunk's deltas of every pipeline + controller counter, plus
    #: the ``faults.*`` firings of the shard's plan.
    counter_deltas: Dict[str, int]
    #: Every pipeline gauge (:meth:`SwitchPipeline.telemetry_gauges`).
    gauges: Dict[str, float] = field(default_factory=dict)
    #: Per-packet decisions in shard order (None when the worker was
    #: built with ``keep_decisions=False``, e.g. across a process
    #: boundary where shipping decision objects would dominate).
    decisions: Optional[List[PacketDecision]] = None


def clone_pipeline(pipeline: SwitchPipeline) -> SwitchPipeline:
    """A fresh pipeline serving *pipeline*'s live table generation.

    Table objects (rule sets, quantisers) are shared — they are
    read-only at serve time and each clone wraps them in its own lookup
    tables — while all mutable serving state (flow store, blacklist,
    counters, staged generations) starts empty.  This is how the
    coordinator turns one trained pipeline into ``n_shards`` identical
    shards; under the multiprocess executor each worker process gets its
    own deep copy via pickling anyway.
    """
    live = pipeline._live_tables()
    clone = SwitchPipeline(
        fl_rules=live.fl_rules,
        fl_quantizer=live.fl_quantizer,
        pl_rules=live.pl_rules,
        pl_quantizer=live.pl_quantizer,
        config=pipeline.config,
    )
    if pipeline.controller is not None:
        Controller(clone, install_blacklist=pipeline.controller.install_blacklist)
        engine = getattr(pipeline.controller, "policy", None)
        if engine is not None:
            # Each shard runs its own engine over its own flow
            # partition: same policy, fresh ladder/quota/guard state.
            engine.clone_fresh().attach(clone)
    return clone


class ShardWorker:
    """One shard's pipeline plus the verbs the coordinator drives."""

    def __init__(
        self,
        shard_id: int,
        pipeline: SwitchPipeline,
        mode: str = "batch",
        faults=None,
        keep_decisions: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.pipeline = pipeline
        self.mode = mode
        self.faults = faults
        self.keep_decisions = keep_decisions
        self.chunks_processed = 0
        self.packets_processed = 0
        #: Fault counts already handed to the coordinator (a restored
        #: plan's firings were published by the run that checkpointed).
        self._faults_reported = faults.counts() if faults is not None else {}

    # -- serving ------------------------------------------------------------

    def start_serving(self) -> None:
        """Serve-start hook: wire the fault plan's digest channel in."""
        if self.faults is not None:
            self.faults.install(self.pipeline)

    def _counters(self) -> Dict[str, int]:
        counters = dict(self.pipeline.telemetry_counters())
        if self.pipeline.controller is not None:
            counters.update(self.pipeline.controller.telemetry_counters())
        return counters

    def _fault_deltas(self) -> Dict[str, int]:
        """``faults.*`` firings since the last call (nonzero only)."""
        if self.faults is None:
            return {}
        counts = self.faults.counts()
        deltas = {
            name: n - self._faults_reported.get(name, 0) for name, n in counts.items()
        }
        self._faults_reported = counts
        return {name: d for name, d in deltas.items() if d}

    def _end_chunk(
        self,
        before: Dict[str, int],
        chunk_index: int,
        y_true: np.ndarray,
        y_pred: np.ndarray,
        decisions: Optional[List[PacketDecision]],
    ) -> ShardChunkOutcome:
        """Close one served chunk: its counter deltas, then the
        chunk-boundary fault hook, whose firings join the deltas."""
        after = self._counters()
        deltas = {k: after[k] - before.get(k, 0) for k in after}
        if self.faults is not None:
            with use_registry(None):
                self.faults.on_chunk_end(self.pipeline, chunk_index)
            deltas.update(self._fault_deltas())
        self.chunks_processed += 1
        self.packets_processed += len(y_pred)
        return ShardChunkOutcome(
            shard_id=self.shard_id,
            n_packets=len(y_pred),
            y_true=y_true,
            y_pred=y_pred,
            counter_deltas=deltas,
            gauges=self.pipeline.telemetry_gauges(),
            decisions=decisions,
        )

    def replay_chunk(self, packets, chunk_index: int) -> ShardChunkOutcome:
        """Serve this shard's slice of global chunk *chunk_index*.

        *packets* is a packet list or a :func:`pack_packets` document
        (the multiprocess wire form).  An empty slice still advances the
        chunk-boundary fault hooks, so index-scheduled injectors stay
        aligned with the global chunk clock on every shard.
        """
        if isinstance(packets, dict):
            packets = unpack_packets(packets)
        before = self._counters()
        # The worker never publishes: the coordinator owns telemetry.
        with use_registry(None):
            # Router slices keep the chunk's arrival order.
            replay = replay_trace(
                Trace.from_sorted(packets), self.pipeline, mode=self.mode
            )
            self._policy_tick(packets[-1].timestamp if packets else None)
        return self._end_chunk(
            before,
            chunk_index,
            replay.y_true,
            replay.y_pred,
            replay.decisions if self.keep_decisions else None,
        )

    def replay_chunk_columns(
        self, cols: TraceColumns, chunk_index: int
    ) -> ShardChunkOutcome:
        """Serve a columnar slice of global chunk *chunk_index* — the
        shared-memory transport's twin of :meth:`replay_chunk`.

        In batch mode the slice goes straight through
        :func:`~repro.switch.batch.replay_columns`, so no
        :class:`Packet` objects exist on the hot path (only the rare
        digest-emitting blue-path packets materialise lazily).  In
        scalar mode the columns are rehydrated and replayed exactly as
        a packet list would be — same verdicts, same counters, either
        way.
        """
        before = self._counters()
        decisions: Optional[List[PacketDecision]] = None
        # The worker never publishes: the coordinator owns telemetry.
        with use_registry(None):
            if self.mode == "batch" and type(self.pipeline).process is (
                SwitchPipeline.process
            ):
                outcome = replay_columns(cols, self.pipeline)
                y_true, y_pred = outcome.y_true, outcome.y_pred
            else:
                replay = replay_trace(
                    Trace.from_sorted(cols.to_packets()), self.pipeline, mode=self.mode
                )
                y_true, y_pred = replay.y_true, replay.y_pred
                if self.keep_decisions:
                    decisions = replay.decisions
            self._policy_tick(float(cols.timestamps[-1]) if len(cols) else None)
        return self._end_chunk(before, chunk_index, y_true, y_pred, decisions)

    def _policy_tick(self, now: Optional[float]) -> None:
        """Mitigation TTL tick at this shard's chunk boundary.

        Runs inside the replay's null-registry scope and *before* the
        ``after`` counter snapshot, so expiry counter increments ride
        the chunk's counter deltas back to the coordinator (the single
        writer) instead of vanishing into a worker-process registry.
        """
        engine = getattr(self.pipeline.controller, "policy", None)
        if engine is not None:
            engine.tick(now)

    # -- mitigation verbs ----------------------------------------------------

    def unblock(self, flow: str) -> dict:
        """Ops verb: pardon *flow* (a ``repro.mitigation.flow_key``
        string) on this shard's policy engine."""
        engine = getattr(self.pipeline.controller, "policy", None)
        if engine is None:
            return {"shard_id": self.shard_id, "outcome": "skipped:no_policy"}
        from repro.mitigation import parse_flow_key

        try:
            five_tuple = parse_flow_key(flow or "")
        except ValueError:
            return {"shard_id": self.shard_id, "outcome": "rejected:bad_flow_key"}
        return {"shard_id": self.shard_id, "outcome": engine.unblock(five_tuple)}

    def mitigation_status(self) -> Optional[dict]:
        """This shard's :meth:`~repro.mitigation.PolicyEngine.status`,
        or ``None`` when no engine is attached."""
        engine = getattr(self.pipeline.controller, "policy", None)
        return None if engine is None else engine.status()

    def finish(self) -> Dict[str, int]:
        """End of stream: flush the fault channel, return fault counts."""
        if self.faults is not None:
            self.faults.finalize()
            return self.faults.counts()
        return {}

    # -- two-phase swap ------------------------------------------------------

    def stage(
        self,
        artifacts,
        retries: int = 2,
        base_delay: float = 0.02,
        deadline_s: Optional[float] = None,
    ) -> dict:
        """Phase 1: validate and stage a new generation on this shard.

        Runs the shard's install-fault hook plus ``stage_tables`` under
        the PR 4 retry budget.  Never raises: the outcome dict carries
        ``ok``, the attempt count, the failure class (``validation``
        for deterministic rejections, ``transient`` for an exhausted
        retry budget) so the coordinator can decide the cluster-wide
        verdict, and the install flakes that fired (``fault_deltas``).
        """
        attempts = 0

        def _stage() -> None:
            nonlocal attempts
            attempts += 1
            if self.faults is not None:
                self.faults.before_table_install()
            self.pipeline.stage_tables(
                artifacts.fl_rules,
                artifacts.fl_quantizer,
                pl_rules=artifacts.pl_rules,
                pl_quantizer=artifacts.pl_quantizer,
            )

        error = None
        try:
            with use_registry(None):
                retry_with_backoff(
                    _stage,
                    retries=retries,
                    base_delay=base_delay,
                    deadline_s=deadline_s,
                )
        except ValueError:
            error = "validation"
        except TransientFaultError:
            error = "transient"
        return {
            "shard_id": self.shard_id,
            "ok": error is None,
            "attempts": attempts,
            "error": error,
            "fault_deltas": self._fault_deltas(),
        }

    def commit(self) -> dict:
        """Phase 2: flip the staged generation live.

        ``hot_swap`` re-validates before touching anything, so a failure
        here leaves this shard fully on the old generation with the
        candidate still staged; the coordinator then aborts cluster-wide.
        """
        start = time.perf_counter()
        try:
            self.pipeline.hot_swap()
        except (ValueError, RuntimeError):
            return {"shard_id": self.shard_id, "ok": False,
                    "duration_s": time.perf_counter() - start}
        return {"shard_id": self.shard_id, "ok": True,
                "duration_s": time.perf_counter() - start}

    def abort(self, swapped: bool = False) -> None:
        """Cluster-wide abort: undo this shard's part of the attempt.

        A shard that already committed rolls its tables back; one that
        only staged (or failed to stage) rejects the candidate.  Either
        way the shard ends on the pre-swap generation and records one
        rollback, so an aborted cluster swap counts exactly
        ``n_shards`` table rollbacks.
        """
        if swapped:
            self.pipeline.rollback()
        else:
            self.pipeline.reject_staged()

    def rollback(self) -> dict:
        """Ops verb: restore the generation the last committed swap
        displaced.  Shards flip in lockstep (two-phase commit), so either
        every shard can roll back or none can — the coordinator checks
        the per-shard ``ok`` flags all agree before mirroring telemetry.
        """
        if not self.pipeline.can_rollback:
            return {"shard_id": self.shard_id, "ok": False,
                    "error": "no_previous_generation"}
        self.pipeline.rollback()
        return {"shard_id": self.shard_id, "ok": True, "error": None}

    # -- state --------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return self._counters()

    def snapshot(self) -> dict:
        """Self-contained serialised state for cluster checkpoints."""
        from repro.runtime.checkpoint import _pipeline_to_obj

        doc = {
            "shard_id": self.shard_id,
            "pipeline": _pipeline_to_obj(self.pipeline),
            "chunks_processed": self.chunks_processed,
            "packets_processed": self.packets_processed,
            "faults": None,
            "faults_seed": None,
            "faults_spec": None,
        }
        if self.faults is not None:
            doc["faults"] = self.faults.state_dict()
            doc["faults_seed"] = self.faults.seed
            doc["faults_spec"] = self.faults.spec
        return doc
