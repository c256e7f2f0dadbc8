"""Cluster coordinator: sharded serving with a cluster-wide control loop.

:class:`ClusterService` scales the PR 3 serving loop horizontally: a
:class:`~repro.cluster.router.FlowShardRouter` splits each global chunk
by canonical flow hash, every shard's
:class:`~repro.cluster.worker.ShardWorker` replays its slice through
its own :class:`~repro.switch.pipeline.SwitchPipeline`, and the
coordinator merges verdicts back into global arrival order, feeds the
*merged* stream to one cluster-level drift monitor + retrainer, and
publishes all telemetry itself (aggregated totals plus shard-tagged
``cluster.shard.<k>.*`` counters).

Table updates use a **two-phase protocol** so no packet is ever served
by a mixed-generation cluster:

1. *Stage* the new generation on every shard (per-shard
   ``retry_with_backoff`` around ``stage_tables``, same budget as the
   single-pipeline service).  If **any** shard fails — validation or an
   exhausted transient-retry budget — the swap aborts everywhere:
   every shard rejects the candidate and keeps serving the old tables.
2. *Commit* (``hot_swap``) on every shard only once all stages
   succeeded.  Should a commit still fail (install-time re-validation),
   shards that already flipped are rolled back and the rest reject, so
   the cluster uniformly lands back on the old generation.

Faults and checkpoints are threaded **per shard**: each worker carries
its own :class:`~repro.faults.FaultPlan` (independent seeds fanned out
from the cluster seed, so one shard's schedule never perturbs
another's) and cluster checkpoints embed one self-contained snapshot
per shard (see :mod:`repro.cluster.checkpoint`).

With ``n_shards=1`` — or any shard count under the in-process executor,
absent cross-flow hash-table couplings — the cluster is bit-identical
to single-pipeline replay; the differential suite in
``tests/cluster/test_cluster_differential.py`` locks that equivalence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.executor import EXECUTOR_KINDS, make_executor
from repro.cluster.router import ROUTER_SALT, FlowShardRouter, ShardPartition
from repro.cluster.worker import (
    ShardChunkOutcome,
    ShardWorker,
    clone_pipeline,
    pack_packets,
)
from repro.datasets.trace import Trace
from repro.faults.plan import FaultPlan, parse_fault_spec
from repro.runtime.control import OpsControlMixin, ServeReport, SwapEvent
from repro.runtime.drift import DriftMonitor
from repro.runtime.retrain import Retrainer
from repro.runtime.service import RuntimeConfig
from repro.runtime.stream import (
    ChunkResult,
    ChunkStats,
    PacketSource,
    as_chunk_iter,
    chunk_ranges,
)
from repro.switch.batch import TraceColumns, canonical_flow_index
from repro.switch.pipeline import PacketDecision, SwitchPipeline
from repro.switch.runner import DecisionView
from repro.telemetry import get_registry, span
from repro.utils.rng import SeedLike, as_rng, spawn_seeds


def shard_fault_plans(spec: str, n_shards: int) -> List[FaultPlan]:
    """One independently-seeded :class:`FaultPlan` per shard from *spec*.

    All plans share the spec's injector clauses; their generator seeds
    fan out from the spec seed, so per-shard fault schedules are
    decorrelated yet the whole cluster's fault behaviour replays from
    one spec string (fault isolation: shard k's schedule is a pure
    function of ``(spec, k)``).
    """
    seed, _ = parse_fault_spec(spec)
    shard_seeds = spawn_seeds(as_rng(0 if seed is None else seed), n_shards)
    return [FaultPlan.from_spec(spec, seed=s) for s in shard_seeds]


@dataclass(frozen=True)
class RowPartition:
    """A routed chunk in row space — the shm transport's partition.

    Shape-compatible with :class:`~repro.cluster.router.ShardPartition`
    where the merge path looks (``indices``, ``n_packets``,
    ``shard_sizes``), but carries no packet lists: shard *k*'s slice is
    the contiguous arena rows ``[offsets[k], offsets[k] + lengths[k])``
    and ``indices[k]`` maps them back to chunk-local arrival order.
    """

    indices: List[np.ndarray]
    offsets: np.ndarray  #: per-shard start row in the shared arena
    lengths: np.ndarray  #: per-shard row count
    n_packets: int

    def shard_sizes(self) -> List[int]:
        return [int(n) for n in self.lengths]


class GatheredDecisions(DecisionView):
    """Global-order view over per-shard decision sequences.

    Position *i* of the chunk is ``parts[shard[i]][local[i]]``; nothing
    is copied or built until a decision is read.
    """

    __slots__ = ("_parts", "_shard", "_local")

    def __init__(self, parts: List, indices: List[np.ndarray], n: int) -> None:
        self._parts = parts
        self._shard = np.empty(n, dtype=np.int64)
        self._local = np.empty(n, dtype=np.int64)
        for k, idx in enumerate(indices):
            self._shard[idx] = k
            self._local[idx] = np.arange(idx.size)

    def __len__(self) -> int:
        return int(self._shard.shape[0])

    def _at(self, i: int) -> PacketDecision:
        return self._parts[self._shard[i]][self._local[i]]


@dataclass
class ClusterReplayResult:
    """Merged outcome of one cluster replay, in global arrival order."""

    y_true: np.ndarray
    y_pred: np.ndarray
    #: Global-order decisions (a lazy view over the shards' own); empty
    #: when workers ran with ``keep_decisions=False`` (multiprocess and
    #: shm executors).
    decisions: Sequence = field(default_factory=list)
    #: Summed pipeline+controller counter deltas across shards.
    counters: Dict[str, int] = field(default_factory=dict)
    shard_sizes: List[int] = field(default_factory=list)
    #: Canonical flow label per packet (the reservoir's grouping); set
    #: by the serve loop's chunk source.
    flow_idx: Optional[np.ndarray] = None

    @property
    def n_packets(self) -> int:
        return int(self.y_true.size)


class ClusterService(OpsControlMixin):
    """N sharded pipelines behaving as one big switch.

    Serves through the shared loop of :mod:`repro.runtime.control`: its
    chunk source routes, ships and merges each chunk across the shard
    fleet, and :meth:`swap` installs a generation with the two-phase
    barrier.

    Parameters
    ----------
    pipeline:
        Template pipeline; every shard serves a fresh clone of its live
        table generation (state starts empty per shard — the router
        guarantees each flow's packets meet only its own shard's state).
    n_shards / executor:
        Cluster width and where workers run (``"inprocess"`` for
        deterministic tests, ``"multiprocess"`` for real parallelism).
    retrainer / monitor / config / seed:
        Exactly the single-service control-plane knobs; drift detection
        and retraining run once, cluster-wide, over the merged stream.
    faults_spec / shard_faults:
        Per-shard fault plans — either derived from a spec string via
        :func:`shard_fault_plans`, or given explicitly (one per shard;
        ``None`` entries mean fault-free shards).  The coordinator keeps
        its own plan for the global retrain/artifact hooks.
    workers:
        Pre-built workers (checkpoint restore path); overrides
        ``pipeline``-based construction.
    """

    _SWAP_EVENT = "cluster.swap"

    def __init__(
        self,
        pipeline: Optional[SwitchPipeline] = None,
        n_shards: int = 2,
        retrainer: Optional[Retrainer] = None,
        monitor: Optional[DriftMonitor] = None,
        config: Optional[RuntimeConfig] = None,
        executor: str = "inprocess",
        seed: SeedLike = None,
        faults_spec: Optional[str] = None,
        shard_faults: Optional[List[Optional[FaultPlan]]] = None,
        coordinator_faults: Optional[FaultPlan] = None,
        workers: Optional[List[ShardWorker]] = None,
        router_salt: int = ROUTER_SALT,
        shm_name: Optional[str] = None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}"
            )
        self.config = config or RuntimeConfig()
        self.executor_kind = executor
        self.faults_spec = faults_spec
        #: Pinned shared-segment name for the ``shm`` executor (resume
        #: re-maps by this name); ``None`` → a fresh name per executor.
        self.shm_name = shm_name

        if coordinator_faults is None and faults_spec is not None:
            coordinator_faults = FaultPlan.from_spec(faults_spec)
        self.faults = coordinator_faults

        if workers is not None:
            self.workers = list(workers)
            n_shards = len(self.workers)
        else:
            if shard_faults is None and faults_spec is not None:
                shard_faults = shard_fault_plans(faults_spec, n_shards)
            if pipeline is None:
                raise ValueError("either a template pipeline or workers required")
            if n_shards < 1:
                raise ValueError(f"n_shards must be >= 1, got {n_shards}")
            if shard_faults is not None and len(shard_faults) != n_shards:
                raise ValueError(
                    f"{len(shard_faults)} shard fault plans for {n_shards} shards"
                )
            # Per-packet decision objects only survive the in-process
            # executor; shipping them back over a pipe would dominate.
            keep = executor == "inprocess"
            self.workers = [
                ShardWorker(
                    k,
                    clone_pipeline(pipeline),
                    mode=self.config.mode,
                    faults=shard_faults[k] if shard_faults is not None else None,
                    keep_decisions=keep,
                )
                for k in range(n_shards)
            ]
        self.n_shards = n_shards
        self.router = FlowShardRouter(n_shards, salt=router_salt)

        template = pipeline if pipeline is not None else self.workers[0].pipeline
        self._init_control_plane(template, retrainer, monitor, seed)
        self._executor = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterService":
        """Bring the shard fleet up (forks worker processes under the
        multiprocess executor); idempotent."""
        if self._executor is None:
            self._executor = make_executor(
                self.executor_kind, self.workers, shm_name=self.shm_name
            )
        return self

    @property
    def shm_segment_name(self) -> Optional[str]:
        """Name of the live shared segment (``shm`` executor only) —
        recorded in cluster checkpoints so resume can re-map it."""
        if self.executor_kind != "shm":
            return None
        if self._executor is not None:
            return self._executor.segment_name
        return self.shm_name

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "ClusterService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _ship(self, packets: List) -> object:
        """Per-shard packet payload in the executor's cheapest form."""
        if self.executor_kind == "multiprocess":
            return pack_packets(packets)
        return packets

    # -- merged replay -------------------------------------------------------

    def _merge_outcomes(
        self, partition, outcomes: List[ShardChunkOutcome]
    ) -> ClusterReplayResult:
        """Scatter per-shard results back into global arrival order.

        *partition* is a :class:`~repro.cluster.router.ShardPartition`
        or a :class:`RowPartition` — only ``indices`` / ``n_packets`` /
        ``shard_sizes()`` are touched, which both provide."""
        n = partition.n_packets
        y_true = np.empty(n, dtype=int)
        y_pred = np.empty(n, dtype=int)
        counters: Dict[str, int] = {}
        decisions: Sequence = []
        if all(o.decisions is not None for o in outcomes):
            decisions = GatheredDecisions(
                [o.decisions for o in outcomes], partition.indices, n
            )
        for k, out in enumerate(outcomes):
            idx = partition.indices[k]
            y_true[idx] = out.y_true
            y_pred[idx] = out.y_pred
            for name, delta in out.counter_deltas.items():
                counters[name] = counters.get(name, 0) + delta
        return ClusterReplayResult(
            y_true=y_true,
            y_pred=y_pred,
            decisions=decisions,
            counters=counters,
            shard_sizes=partition.shard_sizes(),
        )

    def _publish_chunk(
        self, merged: ClusterReplayResult, outcomes: List[ShardChunkOutcome]
    ) -> None:
        """Publish one routed chunk the way single-pipeline replay would.

        Aggregated counter deltas telescope to the same totals a single
        pipeline serving the same packets publishes (the differential
        invariant); shard-tagged copies land under ``cluster.shard.<k>.*``.
        """
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("replay.packets").inc(merged.n_packets)
        levels: Dict[str, float] = {}
        for out in outcomes:
            self._publish_shard_counters(registry, out.shard_id, out.counter_deltas)
            for name, value in out.gauges.items():
                registry.gauge(f"cluster.shard.{out.shard_id}.{name}").set(value)
                # Levels are additive across shards (each owns a
                # disjoint flow partition) — except the guard budget,
                # where the tightest shard is the story.
                if name == "mitigation.guard_budget_remaining":
                    levels[name] = min(levels.get(name, value), value)
                else:
                    levels[name] = levels.get(name, 0.0) + value
        if "switch.store.fill_fraction" in levels:
            levels["switch.store.fill_fraction"] /= len(outcomes)
        for name, value in levels.items():
            registry.gauge(name).set(value)

    # -- chunk iteration (both transports) -----------------------------------

    def _iter_routed_chunks(
        self,
        source: PacketSource,
        chunk_size: int,
        start_index: int,
        skip_packets: int = 0,
    ):
        """Packet-list transport: route each chunk, ship per-shard
        packet payloads, collect outcomes.  Yields
        ``(chunk, partition, outcomes, tuples)`` per global chunk, where
        *tuples* are the ``(n, 5)`` packet tuples routing extracted (the
        reservoir groups flows from them).  *source* may
        be a materialised trace or a streaming packet source — routing
        consumes one chunk at a time either way, so streaming scenarios
        serve in O(chunk) memory."""
        for offset, chunk in enumerate(
            as_chunk_iter(source, chunk_size, skip_packets=skip_packets)
        ):
            partition, outcomes = self._route_and_replay(chunk, start_index + offset)
            yield chunk, partition, outcomes, partition.fields

    def _route_and_replay(self, chunk: Trace, index: int):
        """Route one chunk, ship each shard its slice, collect outcomes."""
        partition = self.router.partition(chunk)
        for k in range(self.n_shards):
            self._executor.dispatch(
                k, "replay_chunk", self._ship(partition.shards[k]), index
            )
        return partition, [self._executor.collect(k) for k in range(self.n_shards)]

    def _iter_shm_chunks(self, trace: Trace, ranges, start_index: int):
        """Shared-memory transport: write the whole trace into the
        arena **once**, then dispatch each chunk as per-shard
        ``(offset, length, chunk_id)`` descriptors.

        The arena holds the trace under a global permutation that
        stable-sorts each chunk's rows by shard assignment, so every
        shard's share of every chunk is one contiguous row range (a
        single descriptor) while within-shard arrival order — the order
        the packet-list transport's router preserves — is untouched.
        Yields the same ``(chunk, partition, outcomes, tuples)`` as
        :meth:`_iter_routed_chunks`, *tuples* being the chunk's rows of
        the column build's tuple array.
        """
        ex = self._executor
        packets = trace.packets
        cols = TraceColumns.from_trace(trace)
        n = len(cols)
        assignments = self.router.shard_indices_fields(cols.tuples)
        perm = np.empty(n, dtype=np.int64)
        plans = []
        for start, stop in ranges:
            local = assignments[start:stop]
            order = np.argsort(local, kind="stable")
            perm[start:stop] = start + order
            lengths = np.bincount(local, minlength=self.n_shards).astype(np.int64)
            bounds = np.concatenate(([0], np.cumsum(lengths)))
            offsets = start + bounds[:-1]
            indices = [
                order[bounds[k] : bounds[k + 1]] for k in range(self.n_shards)
            ]
            plans.append(
                RowPartition(
                    indices=indices,
                    offsets=offsets,
                    lengths=lengths,
                    n_packets=stop - start,
                )
            )
        ex.ensure_arena(n)
        ex.shm.write_columns(cols.take(perm))
        row = 0
        for offset_i, partition in enumerate(plans):
            index = start_index + offset_i
            stop = row + partition.n_packets
            chunk = Trace.from_sorted(packets[row:stop])
            for k in range(self.n_shards):
                ex.dispatch_descriptor(
                    k, int(partition.offsets[k]), int(partition.lengths[k]), index
                )
            outcomes = [
                self._collect_shm_outcome(
                    k, int(partition.offsets[k]), int(partition.lengths[k])
                )
                for k in range(self.n_shards)
            ]
            yield chunk, partition, outcomes, cols.tuples[row:stop]
            row = stop

    def _collect_shm_outcome(
        self, shard_id: int, offset: int, length: int
    ) -> ShardChunkOutcome:
        """Await one shard's completion and read its results in place:
        verdicts from the shared column at the descriptor's own rows,
        ground truth from the coordinator-side malicious column (never
        shipped), counters/gauges from the fixed-layout blocks.  Counter
        names outside the pre-fork layout (grown by a hot-swapped
        generation) arrive as the doorbell ack's spill and are merged
        back in — spill names are disjoint from the block's by
        construction."""
        ex = self._executor
        _, _, spill = ex.collect_completion(shard_id)
        deltas = ex.shm.read_counter_deltas(shard_id)
        deltas.update(spill)
        return ShardChunkOutcome(
            shard_id=shard_id,
            n_packets=length,
            y_true=ex.shm.read_truth(offset, length),
            y_pred=ex.shm.read_verdicts(offset, length),
            counter_deltas=deltas,
            gauges=ex.shm.read_gauges(shard_id),
            decisions=None,
        )

    def replay(self, trace: Trace) -> ClusterReplayResult:
        """Route and replay *trace* across all shards, one shot.

        Returns merged global-order verdicts plus summed counter deltas
        — the cluster-side subject of the differential suite.
        """
        self.start()
        with span("cluster.replay", shards=self.n_shards, packets=len(trace.packets)):
            if self.executor_kind == "shm":
                # One chunk spanning the whole trace; an empty trace
                # still dispatches one empty descriptor per shard so
                # chunk-boundary hooks advance exactly as the packet
                # transport's empty-chunk dispatch does.
                _, partition, outcomes, _ = next(
                    self._iter_shm_chunks(trace, [(0, len(trace.packets))], 0)
                )
            else:
                partition, outcomes = self._route_and_replay(trace, 0)
        merged = self._merge_outcomes(partition, outcomes)
        self._publish_chunk(merged, outcomes)
        return merged

    # -- two-phase swap ------------------------------------------------------

    def swap(
        self,
        artifacts,
        chunk_index: int = -1,
        reason: str = "manual",
    ) -> SwapEvent:
        """Install *artifacts* cluster-wide via the two-phase protocol.

        Either every shard ends on the new generation or every shard
        ends on the old one — never a mix.  Returns the barrier event;
        telemetry mirrors the per-shard swap/rollback counters (swaps
        happen between replays, so per-chunk counter deltas never
        observe them).
        """
        self.start()
        cfg = self.config
        registry = get_registry()
        start = time.perf_counter()

        staged = self._executor.broadcast(
            "stage",
            artifacts,
            retries=cfg.stage_retries,
            base_delay=cfg.stage_backoff_s,
            deadline_s=cfg.stage_deadline_s,
        )
        failed = [r for r in staged if not r["ok"]]
        transient_abort = any(r["error"] == "transient" for r in failed)
        rolled_back = False
        if failed:
            # Phase 1 failed somewhere: abort everywhere.  Shards that
            # staged fine reject their candidate; the failing shard's
            # candidate was already cleared by stage_tables — its abort
            # just records the rollback.  No shard ever flipped.
            self._executor.broadcast("abort", swapped=False)
            rolled_back = True
        else:
            committed = self._executor.broadcast("commit")
            if any(not r["ok"] for r in committed):
                # Phase 2 failed somewhere: shards that flipped roll
                # back, the rest reject — uniform old generation.
                self._executor.broadcast(
                    "abort",
                    per_shard_args=[(bool(r["ok"]),) for r in committed],
                )
                failed = [r for r in committed if not r["ok"]]
                rolled_back = True
        duration = time.perf_counter() - start

        shard_attempts = [r["attempts"] for r in staged]
        event = SwapEvent(
            chunk_index=chunk_index,
            reason=reason,
            duration_s=duration,
            rolled_back=rolled_back,
            attempts=max(shard_attempts),
            shard_attempts=shard_attempts,
            failed_shards=sorted(r["shard_id"] for r in failed),
        )
        if registry.enabled:
            registry.histogram("cluster.swap_barrier_s").observe(duration)
            for r in staged:
                self._publish_shard_counters(
                    registry, r["shard_id"], r["fault_deltas"]
                )
        return self._record_swap(
            event,
            transient_abort,
            shards=self.n_shards,
            failed_shards=event.failed_shards,
        )

    def _count_flip(self, registry, what: str) -> None:
        # Shards flip in lockstep: one flip per shard, tagged per shard.
        registry.counter(f"switch.table.{what}").inc(self.n_shards)
        for k in range(self.n_shards):
            registry.counter(f"cluster.shard.{k}.switch.table.{what}").inc()

    @staticmethod
    def _publish_shard_counters(
        registry, shard_id: int, deltas: Dict[str, int]
    ) -> None:
        """Publish one shard's counter deltas into the aggregate names
        and the ``cluster.shard.<k>.*`` tagged copies."""
        for name, delta in deltas.items():
            if delta:
                registry.counter(name).inc(delta)
                registry.counter(f"cluster.shard.{shard_id}.{name}").inc(delta)

    # -- operator control (see repro.runtime.control / repro.ops) ------------

    def _rollback_tables(self) -> bool:
        self.start()
        # Shards flip in lockstep, so a shard without a previous
        # generation means none have one: nothing to undo.
        return all(r["ok"] for r in self._executor.broadcast("rollback"))

    def _drain(self, ticket: Dict) -> str:
        shard = ticket.get("shard")
        if shard is None:
            return "skipped:no_shard_given"
        if self.executor_kind == "shm":
            # The shm transport routes the whole trace up front, so a
            # mid-serve drain could not take effect; refuse loudly
            # rather than pretend — and name the way out.
            return (
                "unsupported:drain_on_shm_transport "
                "(the arena is routed up front; use "
                "executor='inprocess' or 'multiprocess' to drain "
                "the last shard mid-serve)"
            )
        try:
            self.router.drain(int(shard))
        except ValueError as err:
            return f"skipped:{err}"
        registry = get_registry()
        if registry.enabled:
            registry.counter("ops.drains").inc()
            registry.gauge("cluster.drained_shards").set(
                float(len(self.router.drained))
            )
        return "drained"

    def _unblock(self, five_tuple, flow: str) -> str:
        # The flow's ladder state lives on exactly one shard — the one
        # the router assigns it to.
        self.start()
        shard = self.router.shard_of(five_tuple)
        return self._executor.call(shard, "unblock", flow)["outcome"]

    def mitigation_status(self) -> Optional[Dict]:
        """Cluster mitigation view: per-shard engine status plus summed
        totals; ``None`` when no shard runs a policy engine.

        While serving, the executor belongs to the serving thread, so
        an HTTP-thread poll gets the coordinator-side summary (policy
        plus the mitigation gauges published at the last chunk) instead
        of querying shards.
        """
        engine = getattr(self.workers[0].pipeline.controller, "policy", None)
        if engine is None:
            return None
        if self._serving:
            registry = get_registry()
            gauges = registry.gauges_dict() if registry.enabled else {}
            return {
                "kind": "cluster",
                "live": True,
                "policy": engine.policy.to_spec(),
                "gauges": {
                    k: v for k, v in gauges.items() if k.startswith("mitigation.")
                },
            }
        self.start()
        shard_docs = self._executor.broadcast("mitigation_status")
        if all(doc is None for doc in shard_docs):
            return None
        totals = {
            "active_blocks": 0,
            "active_rate_limits": 0,
            "attack_leaked_packets": 0,
            "benign_dropped_packets": 0,
            "attack_dropped_packets": 0,
        }
        for doc in shard_docs:
            if doc is None:
                continue
            totals["active_blocks"] += doc["active"]["drop"]
            totals["active_rate_limits"] += doc["active"]["rate_limit"]
            for key in (
                "attack_leaked_packets",
                "benign_dropped_packets",
                "attack_dropped_packets",
            ):
                totals[key] += doc["meter"][key]
        return {
            "kind": "cluster",
            "totals": totals,
            "shards": shard_docs,
        }

    def _ops_extra(self) -> Dict:
        report = self._live_report
        # Coordinator-side template only — ops_status must never touch
        # the executor (HTTP-thread reads cannot perturb the run).
        engine = getattr(self.workers[0].pipeline.controller, "policy", None)
        return {
            "kind": "cluster",
            "n_shards": self.n_shards,
            "executor": self.executor_kind,
            "mitigation": (
                None if engine is None else {"policy": engine.policy.name}
            ),
            "drained_shards": sorted(self.router.drained),
            "shard_packets": (
                list(report.shard_packets) if report is not None else []
            ),
        }

    # -- the serve loop's service half (see repro.runtime.control) -----------

    def _serve_start(self, report: ServeReport) -> None:
        report.n_shards = self.n_shards
        if not report.shard_packets:
            report.shard_packets = [0] * self.n_shards
        self.start()
        self._executor.broadcast("start_serving")
        registry = get_registry()
        if registry.enabled:
            registry.gauge("cluster.n_shards").set(float(self.n_shards))

    def _serve_span(self):
        return span(
            "cluster.serve",
            shards=self.n_shards,
            executor=self.executor_kind,
            chunk_size=self.config.chunk_size,
        )

    def _chunks(self, source: PacketSource, report: ServeReport):
        """Route, ship and replay each global chunk across the shards,
        then merge the verdicts back into arrival order and publish the
        chunk's telemetry.  The packet-list transports accept streaming
        sources and serve them in O(chunk) memory; the shm transport
        needs a materialised :class:`Trace` and raises ``ValueError``
        otherwise."""
        size, skip = self.config.chunk_size, report.n_packets
        if self.executor_kind == "shm":
            # The shm transport writes the whole trace into the arena up
            # front — fundamentally a materialised-input design.  Refuse
            # streaming sources loudly rather than silently buffering an
            # unbounded stream into RAM.
            if not isinstance(source, Trace):
                raise ValueError(
                    "streaming sources are unsupported on the shm transport: "
                    "it writes the full trace into the shared arena up "
                    "front; use executor='inprocess' or "
                    "executor='multiprocess' for streaming sources, or "
                    "materialise() the scenario first"
                )
            trace = Trace.from_sorted(source.packets[skip:]) if skip else source
            replays = self._iter_shm_chunks(
                trace, chunk_ranges(len(trace.packets), size), report.n_chunks
            )
        else:
            replays = self._iter_routed_chunks(
                source, size, report.n_chunks, skip_packets=skip
            )
        for chunk, partition, outcomes, tuples in replays:
            merged = self._merge_outcomes(partition, outcomes)
            self._publish_chunk(merged, outcomes)
            merged.flow_idx = canonical_flow_index(tuples)
            yield ChunkResult(
                index=report.n_chunks,
                trace=chunk,
                replay=merged,
                counters=merged.counters,
                stats=ChunkStats.of_chunk(merged.y_pred, merged.counters),
                shard_sizes=merged.shard_sizes,
            )

    def _serve_finish(self, report: ServeReport) -> None:
        shard_counts = self._executor.broadcast("finish")
        report.shard_fault_counts = [dict(c) for c in shard_counts]
        merged_counts: Dict[str, int] = {}
        if self.faults is not None:
            merged_counts.update(self.faults.counts())
        for counts in shard_counts:
            for name, fired in counts.items():
                merged_counts[name] = merged_counts.get(name, 0) + fired
        report.fault_counts = merged_counts

    # -- checkpointing hooks -------------------------------------------------

    def shard_snapshots(self) -> List[dict]:
        """Self-contained per-shard state documents (executor-agnostic:
        under multiprocess the truth lives in the worker processes)."""
        self.start()
        return self._executor.broadcast("snapshot")
