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
from repro.faults.errors import RetrainFaultError
from repro.faults.plan import INJECTOR_TYPES, FaultPlan, parse_fault_spec
from repro.runtime.control import OpsControlMixin
from repro.runtime.drift import DriftMonitor
from repro.runtime.retrain import Retrainer
from repro.runtime.service import RuntimeConfig
from repro.runtime.stream import (
    ChunkStats,
    PacketSource,
    _path_fractions,
    as_chunk_iter,
    chunk_ranges,
)
from repro.switch.batch import TraceColumns, canonical_flow_index
from repro.switch.pipeline import PacketDecision, SwitchPipeline
from repro.switch.runner import ChainedDecisions, DecisionView
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
    seed, clauses = parse_fault_spec(spec)
    shard_seeds = spawn_seeds(as_rng(0 if seed is None else seed), n_shards)
    return [
        FaultPlan(
            [INJECTOR_TYPES[name](**params) for name, params in clauses],
            seed=s,
            spec=spec,
        )
        for s in shard_seeds
    ]


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


@dataclass(frozen=True)
class ClusterSwapEvent:
    """One cluster-wide two-phase table update attempt."""

    chunk_index: int
    reason: str  # "drift", "cadence", or "manual"
    #: Wall clock of the full barrier: stage-everywhere + commit (or abort).
    duration_s: float
    rolled_back: bool
    #: Worst-case per-shard install attempts (>1 ⇒ transient flakes retried).
    attempts: int = 1
    #: Install attempts per shard, indexed by shard id.
    shard_attempts: List[int] = field(default_factory=list)
    #: Shards whose stage/commit failed and triggered the cluster abort.
    failed_shards: List[int] = field(default_factory=list)


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

    @property
    def n_packets(self) -> int:
        return int(self.y_true.size)


@dataclass
class ClusterServeReport:
    """Outcome of one :meth:`ClusterService.serve` call.

    Field-compatible with :class:`~repro.runtime.service.ServeReport`
    where the meaning coincides (the CLI summary renders either), plus
    the cluster-only sections: per-shard packet counts and per-shard
    fault counts.
    """

    n_shards: int = 1
    n_chunks: int = 0
    n_packets: int = 0
    drift_signals: int = 0
    retrains: int = 0
    retrain_failures: int = 0
    #: Coordinator-plan + all shard-plan ``faults.*`` totals, summed.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-shard ``faults.*`` totals, indexed by shard id.
    shard_fault_counts: List[Dict[str, int]] = field(default_factory=list)
    #: Packets served by each shard, indexed by shard id.
    shard_packets: List[int] = field(default_factory=list)
    swap_events: List[ClusterSwapEvent] = field(default_factory=list)
    chunk_stats: List[ChunkStats] = field(default_factory=list)
    chunk_offsets: List[int] = field(default_factory=list)
    #: Operator control tickets applied during the run (ops surface).
    control_events: List[Dict] = field(default_factory=list)
    #: One lazy view per chunk, as on :class:`~repro.runtime.service.ServeReport`.
    decisions: ChainedDecisions = field(default_factory=ChainedDecisions)
    y_true: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    y_pred: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_swaps(self) -> int:
        return sum(1 for e in self.swap_events if not e.rolled_back)

    @property
    def n_rollbacks(self) -> int:
        return sum(1 for e in self.swap_events if e.rolled_back)

    def packet_offset_of_chunk(self, chunk_index: int) -> int:
        return self.chunk_offsets[chunk_index]


class ClusterService(OpsControlMixin):
    """N sharded pipelines behaving as one big switch.

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
        self._init_control_plane()
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
        self.retrainer = retrainer if retrainer is not None else Retrainer(
            pkt_count_threshold=template.config.pkt_count_threshold,
            timeout=template.config.timeout,
            use_pl_model=template.pl_table is not None,
            seed=seed,
        )
        if monitor is not None:
            self.monitor: Optional[DriftMonitor] = monitor
        elif self.config.drift_threshold > 0:
            self.monitor = DriftMonitor(
                window=self.config.drift_window,
                baseline_window=self.config.baseline_window,
                threshold=self.config.drift_threshold,
                min_packets=self.config.min_drift_packets,
                warmup_chunks=self.config.drift_warmup_chunks,
            )
        else:
            self.monitor = None

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
        for name, delta in sorted(merged.counters.items()):
            if delta:
                registry.counter(name).inc(delta)
        registry.counter("replay.packets").inc(merged.n_packets)
        occupancy = 0.0
        fill = 0.0
        bl_size = 0.0
        mitigation: Dict[str, float] = {}
        for out in outcomes:
            k = out.shard_id
            for name, delta in out.counter_deltas.items():
                if delta:
                    registry.counter(f"cluster.shard.{k}.{name}").inc(delta)
            for name, value in out.gauges.items():
                registry.gauge(f"cluster.shard.{k}.{name}").set(value)
                # Mitigation levels are additive across shards (each
                # engine owns a disjoint flow partition) — except the
                # guard budget, where the tightest shard is the story.
                if name.startswith("mitigation."):
                    if name == "mitigation.guard_budget_remaining":
                        mitigation[name] = min(
                            mitigation.get(name, value), value
                        )
                    else:
                        mitigation[name] = mitigation.get(name, 0.0) + value
            occupancy += out.gauges.get("switch.store.occupancy", 0.0)
            fill += out.gauges.get("switch.store.fill_fraction", 0.0)
            bl_size += out.gauges.get("switch.blacklist.size", 0.0)
        registry.gauge("switch.store.occupancy").set(occupancy)
        registry.gauge("switch.store.fill_fraction").set(fill / len(outcomes))
        registry.gauge("switch.blacklist.size").set(bl_size)
        for name, value in mitigation.items():
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
            index = start_index + offset
            partition = self.router.partition(chunk)
            for k in range(self.n_shards):
                self._executor.dispatch(
                    k, "replay_chunk", self._ship(partition.shards[k]), index
                )
            outcomes = [self._executor.collect(k) for k in range(self.n_shards)]
            yield chunk, partition, outcomes, partition.fields

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

    def _iter_chunk_replays(
        self,
        source: PacketSource,
        chunk_size: int,
        start_index: int,
        skip_packets: int = 0,
    ):
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
            trace = source
            if skip_packets:
                trace = Trace.from_sorted(source.packets[skip_packets:])
            return self._iter_shm_chunks(
                trace, chunk_ranges(len(trace.packets), chunk_size), start_index
            )
        return self._iter_routed_chunks(
            source, chunk_size, start_index, skip_packets=skip_packets
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
                replays = self._iter_shm_chunks(
                    trace, [(0, len(trace.packets))], start_index=0
                )
            else:
                partition = self.router.partition(trace)
                for k in range(self.n_shards):
                    self._executor.dispatch(
                        k, "replay_chunk", self._ship(partition.shards[k]), 0
                    )
                outcomes = [self._executor.collect(k) for k in range(self.n_shards)]
                replays = iter([(trace, partition, outcomes, partition.fields)])
            _, partition, outcomes, _ = next(replays)
        merged = self._merge_outcomes(partition, outcomes)
        self._publish_chunk(merged, outcomes)
        return merged

    # -- two-phase swap ------------------------------------------------------

    def swap(
        self,
        artifacts,
        chunk_index: int = -1,
        reason: str = "manual",
    ) -> ClusterSwapEvent:
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
        event = ClusterSwapEvent(
            chunk_index=chunk_index,
            reason=reason,
            duration_s=duration,
            rolled_back=rolled_back,
            attempts=max(shard_attempts),
            shard_attempts=shard_attempts,
            failed_shards=sorted(r["shard_id"] for r in failed),
        )

        if registry.enabled:
            retries = sum(a - 1 for a in shard_attempts)
            if retries:
                registry.counter("runtime.stage_retries").inc(retries)
            registry.histogram("runtime.swap_pause_s").observe(duration)
            registry.histogram("cluster.swap_barrier_s").observe(duration)
            if rolled_back:
                registry.counter("runtime.rollbacks").inc()
                registry.counter("switch.table.rollbacks").inc(self.n_shards)
                for k in range(self.n_shards):
                    registry.counter(f"cluster.shard.{k}.switch.table.rollbacks").inc()
                if transient_abort:
                    registry.counter("degraded.swap_aborted").inc()
            else:
                registry.counter("runtime.swaps").inc()
                registry.counter("switch.table.swaps").inc(self.n_shards)
                for k in range(self.n_shards):
                    registry.counter(f"cluster.shard.{k}.switch.table.swaps").inc()
            registry.event(
                "cluster.swap",
                chunk=chunk_index,
                reason=reason,
                rolled_back=rolled_back,
                shards=self.n_shards,
                failed_shards=event.failed_shards,
                duration_s=round(duration, 6),
            )
        if not rolled_back and self.monitor is not None:
            self.monitor.reset()
        return event

    def _retrain_and_swap(self, chunk_index, reason, report) -> None:
        registry = get_registry()
        try:
            if self.faults is not None:
                self.faults.before_retrain()
            with span("retrain", reason=reason, chunk=chunk_index):
                artifacts = self.retrainer.retrain()
        except RetrainFaultError:
            report.retrain_failures += 1
            if registry.enabled:
                registry.counter("degraded.retrain_skipped").inc()
            return
        report.retrains += 1
        if registry.enabled:
            registry.counter("runtime.retrains").inc()
        if self.faults is not None:
            artifacts = self.faults.corrupt_artifacts(artifacts)
        report.swap_events.append(self.swap(artifacts, chunk_index, reason))

    # -- operator control (see repro.runtime.control / repro.ops) ------------

    def _apply_control(self, ticket: Dict, chunk_index: int, report) -> str:
        """Route one queued ops verb through the cluster control plane.

        Runs on the serving thread between chunks — the only thread that
        may touch the executor — so verbs reuse the exact machinery the
        drift loop drives (two-phase swap, worker rollback, router).
        """
        verb = ticket["verb"]
        registry = get_registry()
        if verb == "retrain":
            if not self._swap_allowed(report):
                return "skipped:max_swaps"
            if len(self.retrainer) < self.config.min_retrain_flows:
                return "skipped:reservoir_too_small"
            before = len(report.swap_events)
            self._retrain_and_swap(chunk_index, "manual", report)
            if len(report.swap_events) == before:
                return "skipped:retrain_failed"
            return (
                "rolled_back" if report.swap_events[-1].rolled_back else "swapped"
            )
        if verb == "rollback":
            self.start()
            results = self._executor.broadcast("rollback")
            if any(not r["ok"] for r in results):
                # Shards flip in lockstep, so a shard without a previous
                # generation means none have one: nothing to undo.
                return "skipped:no_previous_generation"
            if registry.enabled:
                registry.counter("ops.rollbacks").inc()
                registry.counter("switch.table.rollbacks").inc(self.n_shards)
                for k in range(self.n_shards):
                    registry.counter(f"cluster.shard.{k}.switch.table.rollbacks").inc()
            if self.monitor is not None:
                self.monitor.reset()
            return "rolled_back"
        if verb == "drain":
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
            if registry.enabled:
                registry.counter("ops.drains").inc()
                registry.gauge("cluster.drained_shards").set(
                    float(len(self.router.drained))
                )
            return "drained"
        if verb == "unblock":
            flow = ticket.get("flow")
            from repro.mitigation import parse_flow_key

            try:
                five_tuple = parse_flow_key(flow or "")
            except ValueError:
                return "rejected:bad_flow_key"
            # The flow's ladder state lives on exactly one shard — the
            # one the router assigns it to.
            self.start()
            shard = self.router.shard_of(five_tuple)
            result = self._executor.call(shard, "unblock", flow)
            return result["outcome"]
        return f"unsupported:{verb}"

    def mitigation_status(self) -> Optional[Dict]:
        """Cluster mitigation view: per-shard engine status plus summed
        totals; ``None`` when no shard runs a policy engine.

        While serving, the executor belongs to the serving thread, so
        an HTTP-thread poll gets the coordinator-side summary (policy
        plus the mitigation gauges published at the last chunk) instead
        of querying shards.
        """
        engine = (
            getattr(self.workers[0].pipeline.controller, "policy", None)
            if self.workers and self.workers[0].pipeline.controller is not None
            else None
        )
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
        engine = (
            getattr(self.workers[0].pipeline.controller, "policy", None)
            if self.workers and self.workers[0].pipeline.controller is not None
            else None
        )
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
            "reservoir_flows": len(self.retrainer),
            "drift_score": (
                self.monitor.last_score if self.monitor is not None else None
            ),
        }

    # -- serving -------------------------------------------------------------

    def _swap_allowed(self, report: ClusterServeReport) -> bool:
        cap = self.config.max_swaps
        return cap is None or report.n_swaps < cap

    def serve(
        self,
        trace: PacketSource,
        checkpoint=None,
        resume_report: Optional[ClusterServeReport] = None,
    ) -> ClusterServeReport:
        """Stream *trace* through the cluster with the full control loop.

        The global chunk clock, drift/cadence gating, and checkpoint
        cadence all mirror
        :meth:`~repro.runtime.service.OnlineDetectionService.serve`; the
        differences are that every chunk is routed across shards and
        table updates go through the two-phase barrier.  The packet-list
        transports accept streaming sources (scenario streams) and serve
        them in O(chunk) memory; the shm transport needs a materialised
        :class:`Trace` and raises ``ValueError`` otherwise.
        """
        cfg = self.config
        report = resume_report if resume_report is not None else ClusterServeReport(
            n_shards=self.n_shards
        )
        if not report.shard_packets:
            report.shard_packets = [0] * self.n_shards
        skip_packets = report.n_packets
        registry = get_registry()
        self.start()
        self._executor.broadcast("start_serving")
        self._serve_begin(report)
        try:
            self._serve_loop(trace, cfg, report, registry, checkpoint, skip_packets)
        finally:
            self._serve_end()

        shard_counts = self._executor.broadcast("finish")
        report.shard_fault_counts = [dict(c) for c in shard_counts]
        merged_counts: Dict[str, int] = {}
        if self.faults is not None:
            merged_counts.update(self.faults.counts())
        for counts in shard_counts:
            for name, fired in counts.items():
                merged_counts[name] = merged_counts.get(name, 0) + fired
        report.fault_counts = merged_counts
        if checkpoint is not None:
            checkpoint.save(self, report, complete=True)
        return report

    def _serve_loop(
        self, trace, cfg, report, registry, checkpoint, skip_packets: int = 0
    ) -> None:
        with span(
            "cluster.serve",
            shards=self.n_shards,
            executor=self.executor_kind,
            chunk_size=cfg.chunk_size,
        ):
            if registry.enabled:
                registry.gauge("cluster.n_shards").set(float(self.n_shards))
            chunk_start = time.perf_counter()
            for chunk, partition, outcomes, tuples in self._iter_chunk_replays(
                trace, cfg.chunk_size, report.n_chunks, skip_packets=skip_packets
            ):
                index = report.n_chunks  # == start_index + offset
                merged = self._merge_outcomes(partition, outcomes)
                self._publish_chunk(merged, outcomes)

                n = merged.n_packets
                stats = ChunkStats(
                    n_packets=n,
                    malicious_rate=float(np.mean(merged.y_pred)) if n else 0.0,
                    path_fractions=_path_fractions(merged.counters, n),
                )
                report.chunk_offsets.append(report.n_packets)
                report.n_chunks += 1
                report.n_packets += n
                for k, size in enumerate(merged.shard_sizes):
                    report.shard_packets[k] += size
                report.chunk_stats.append(stats)
                report.decisions.extend(merged.decisions)
                report.y_true = np.concatenate([report.y_true, merged.y_true])
                report.y_pred = np.concatenate([report.y_pred, merged.y_pred])
                self.retrainer.observe(chunk.packets, canonical_flow_index(tuples))

                drifted = False
                if self.monitor is not None:
                    drifted = self.monitor.observe(stats)
                    if drifted:
                        report.drift_signals += 1
                if registry.enabled:
                    registry.counter("runtime.chunks").inc()
                    registry.counter("runtime.packets").inc(n)
                    if self.monitor is not None:
                        registry.gauge("runtime.drift.score").set(
                            self.monitor.last_score
                        )
                        registry.gauge("runtime.drift.malicious_rate").set(
                            stats.malicious_rate
                        )
                        if drifted:
                            registry.counter("runtime.drift.signals").inc()

                cadence_due = cfg.cadence > 0 and (index + 1) % cfg.cadence == 0
                if (
                    (drifted or cadence_due)
                    and self._swap_allowed(report)
                    and len(self.retrainer) >= cfg.min_retrain_flows
                ):
                    self._retrain_and_swap(
                        index, "drift" if drifted else "cadence", report
                    )
                self._apply_pending_controls(index, report)
                self._note_chunk(index, n, time.perf_counter() - chunk_start)
                if checkpoint is not None:
                    checkpoint.maybe_save(self, report)
                chunk_start = time.perf_counter()

    # -- checkpointing hooks -------------------------------------------------

    def shard_snapshots(self) -> List[dict]:
        """Self-contained per-shard state documents (executor-agnostic:
        under multiprocess the truth lives in the worker processes)."""
        self.start()
        return self._executor.broadcast("snapshot")
