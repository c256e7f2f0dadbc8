"""The serve loop and operator control plane shared by both services.

iGuard has one control plane however many pipelines it feeds, and so
does this runtime: :class:`OpsControlMixin` owns the whole chunk loop of
``serve()`` for the single-pipeline
:class:`~repro.runtime.service.OnlineDetectionService` and the sharded
:class:`~repro.cluster.service.ClusterService` alike — report
accounting, the reservoir feed, drift observation, cadence/``max_swaps``
/``min_retrain_flows`` gating, retrain, swap telemetry, the shared
control verbs and checkpoint calls.  A service supplies only what
differs (see the class docstring): where its chunks come from and how
it installs or rolls back a table generation.

The live ops surface (:mod:`repro.ops`) runs on background HTTP threads
while ``serve()`` owns the pipeline on the serving thread, so control
verbs can never act on the service directly — a mid-chunk table flip
would break the "swap between replay calls" contract every generation
invariant rests on.  Instead the mixin gives both services a thread-safe
**command queue**: :meth:`request_control` enqueues a ticket from any
thread, and the serving loop drains the queue at chunk boundaries —
exactly where the drift loop itself acts — routing each verb through the
same retrain/rollback machinery a drift signal would use.  Applied
tickets are appended to the serve report (``control_events``) and
recorded in the telemetry event log (``ops.control``), so a run's
control history survives into ``telemetry.json`` and checkpoints.

A service that is not serving still accepts tickets; they apply at the
first chunk boundary of the next ``serve()`` call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.faults.errors import RetrainFaultError
from repro.runtime.drift import DriftMonitor
from repro.runtime.retrain import Retrainer
from repro.runtime.stream import ChunkStats, PacketSource
from repro.switch.runner import ChainedDecisions
from repro.telemetry import get_registry, span
from repro.utils.rng import SeedLike

#: Verbs the ops surface may enqueue.
CONTROL_VERBS = ("retrain", "rollback", "drain", "unblock")


@dataclass(frozen=True)
class SwapEvent:
    """One table update attempt: why, how long the install paused
    serving, and whether it was rolled back."""

    chunk_index: int
    reason: str  # "drift", "cadence" or "manual"
    #: Wall clock of the install (the cluster's full two-phase barrier).
    duration_s: float
    rolled_back: bool
    #: Table-install attempts made (>1 means transient flakes were
    #: retried); on a cluster, the worst shard's count.
    attempts: int = 1
    #: Install attempts per shard, indexed by shard id (cluster only).
    shard_attempts: List[int] = field(default_factory=list)
    #: Shards whose stage/commit failed and aborted the swap (cluster only).
    failed_shards: List[int] = field(default_factory=list)


@dataclass
class ServeReport:
    """Outcome of one ``serve()`` call of either service.

    The shard sections (``shard_packets``, ``shard_fault_counts``) are
    filled by the cluster only; the single service leaves them empty.
    """

    n_chunks: int = 0
    n_packets: int = 0
    drift_signals: int = 0
    retrains: int = 0
    #: Retrain attempts aborted by an injected/observed retrain fault.
    retrain_failures: int = 0
    #: ``faults.* -> fired`` totals of every fault plan of the run (the
    #: cluster sums its coordinator's and all shards'); empty when no
    #: plan was attached or nothing fired.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Pipelines the run served through.
    n_shards: int = 1
    #: Packets served by each shard, indexed by shard id.
    shard_packets: List[int] = field(default_factory=list)
    #: Per-shard ``faults.*`` totals, indexed by shard id.
    shard_fault_counts: List[Dict[str, int]] = field(default_factory=list)
    swap_events: List[SwapEvent] = field(default_factory=list)
    chunk_stats: List[ChunkStats] = field(default_factory=list)
    #: Start offset of each chunk in the concatenated decision arrays.
    chunk_offsets: List[int] = field(default_factory=list)
    #: Operator control tickets applied during the run (ops surface).
    control_events: List[Dict] = field(default_factory=list)
    #: Every served decision, in order: one lazy view per chunk
    #: (:class:`~repro.switch.runner.ChainedDecisions`); a cluster whose
    #: workers drop decisions (multiprocess, shm) contributes none.
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
        """Concatenated-array offset where *chunk_index* begins."""
        return self.chunk_offsets[chunk_index]


class OpsControlMixin:
    """The serve loop, the queue-and-apply control plane, and the live
    status snapshot.

    A service sets ``config`` and ``faults``, calls
    :meth:`_init_control_plane` in ``__init__``, and implements:

    * ``_serve_start(report)`` / ``_serve_finish(report)`` — bring its
      data path up before the first chunk, and fill ``fault_counts``
      once the stream ends;
    * ``_serve_span()`` — the span the chunk loop runs in;
    * ``_chunks(source, report)`` — its chunk source, yielding one
      :class:`~repro.runtime.stream.ChunkResult` per served chunk;
    * ``swap(artifacts, chunk_index, reason) -> SwapEvent`` — install a
      generation, recording it through :meth:`_record_swap`;
    * ``_rollback_tables() -> bool`` and ``_unblock(five_tuple, flow)``
      — the table and mitigation halves of the ``rollback`` and
      ``unblock`` verbs;
    * optionally ``_drain(ticket)``, ``_count_flip(registry, what)`` and
      ``_ops_extra()`` for service-specific verbs, counters and status.
    """

    #: Telemetry event kind recorded for each swap attempt.
    _SWAP_EVENT = "runtime.swap"

    def _init_control_plane(
        self,
        template,
        retrainer: Optional[Retrainer] = None,
        monitor: Optional[DriftMonitor] = None,
        seed: SeedLike = None,
    ) -> None:
        """Set up the command queue and the cluster-wide (or only)
        retrainer and drift monitor, built from ``self.config`` and the
        *template* pipeline unless given."""
        self._control_lock = threading.Lock()
        self._pending_controls: List[Dict] = []
        self._control_seq = 0
        self._live_report = None
        self._serving = False
        self._serve_started_at: Optional[float] = None
        self._last_chunk: Dict = {}
        cfg = self.config
        # ``is not None`` rather than ``or``: Retrainer defines __len__
        # (reservoir size), so a freshly-built one with an empty
        # reservoir is falsy and ``or`` would silently discard it.
        self.retrainer = retrainer if retrainer is not None else Retrainer(
            pkt_count_threshold=template.config.pkt_count_threshold,
            timeout=template.config.timeout,
            use_pl_model=template.pl_table is not None,
            seed=seed,
        )
        if monitor is None and cfg.drift_threshold > 0:
            monitor = DriftMonitor(
                window=cfg.drift_window,
                baseline_window=cfg.baseline_window,
                threshold=cfg.drift_threshold,
                min_packets=cfg.min_drift_packets,
                warmup_chunks=cfg.drift_warmup_chunks,
            )
        self.monitor: Optional[DriftMonitor] = monitor

    # -- the serve loop --------------------------------------------------------

    def serve(
        self,
        trace: PacketSource,
        checkpoint=None,
        resume_report: Optional[ServeReport] = None,
    ) -> ServeReport:
        """Stream *trace* through the service with the full control loop.

        *trace* may be a materialised :class:`~repro.datasets.trace.Trace`
        or any streaming packet source (e.g. a
        :class:`repro.scenarios.ScenarioStream`); streaming sources are
        served one chunk at a time, in bounded memory, with chunk
        boundaries matching the materialised path packet-for-packet.
        (The cluster's shm transport needs a materialised trace.)

        Between chunks the loop feeds the retrainer, consults the drift
        monitor and the retrain cadence, and on a signal runs retrain →
        :meth:`swap`; queued ops verbs apply right after.

        ``checkpoint`` (a :class:`repro.runtime.checkpoint.CheckpointManager`
        or its cluster twin) journals the full service state at chunk
        boundaries; pass the restored report as ``resume_report`` to
        continue a killed run — *trace* must be the same full trace (or a
        fresh stream of the same scenario + seed), and serving picks up at
        the first chunk the checkpoint had not yet covered.
        """
        cfg = self.config
        report = resume_report if resume_report is not None else ServeReport()
        registry = get_registry()
        self._serve_start(report)
        self._serve_begin(report)
        try:
            with self._serve_span():
                chunk_start = time.perf_counter()
                for chunk in self._chunks(trace, report):
                    stats = chunk.stats
                    report.chunk_offsets.append(report.n_packets)
                    report.n_chunks += 1
                    report.n_packets += stats.n_packets
                    for k, size in enumerate(chunk.shard_sizes):
                        report.shard_packets[k] += size
                    report.chunk_stats.append(stats)
                    report.decisions.extend(chunk.replay.decisions)
                    report.y_true = np.concatenate([report.y_true, chunk.replay.y_true])
                    report.y_pred = np.concatenate([report.y_pred, chunk.replay.y_pred])
                    self.retrainer.observe(chunk.trace.packets, chunk.replay.flow_idx)

                    drifted = False
                    if self.monitor is not None:
                        drifted = self.monitor.observe(stats)
                        if drifted:
                            report.drift_signals += 1
                    if registry.enabled:
                        registry.counter("runtime.chunks").inc()
                        registry.counter("runtime.packets").inc(stats.n_packets)
                        if self.monitor is not None:
                            registry.gauge("runtime.drift.score").set(
                                self.monitor.last_score
                            )
                            registry.gauge("runtime.drift.malicious_rate").set(
                                stats.malicious_rate
                            )
                            if drifted:
                                registry.counter("runtime.drift.signals").inc()

                    cadence_due = (
                        cfg.cadence > 0 and (chunk.index + 1) % cfg.cadence == 0
                    )
                    if (
                        (drifted or cadence_due)
                        and self._swap_allowed(report)
                        and len(self.retrainer) >= cfg.min_retrain_flows
                    ):
                        self._retrain_and_swap(
                            chunk.index, "drift" if drifted else "cadence", report
                        )
                    self._apply_pending_controls(chunk.index, report)
                    self._note_chunk(
                        chunk.index, stats.n_packets, time.perf_counter() - chunk_start
                    )
                    if checkpoint is not None:
                        checkpoint.maybe_save(self, report)
                    chunk_start = time.perf_counter()
        finally:
            self._serve_end()
        self._serve_finish(report)
        if checkpoint is not None:
            checkpoint.save(self, report, complete=True)
        return report

    def _swap_allowed(self, report: ServeReport) -> bool:
        cap = self.config.max_swaps
        return cap is None or report.n_swaps < cap

    def _retrain_and_swap(
        self, chunk_index: int, reason: str, report: ServeReport
    ) -> None:
        registry = get_registry()
        try:
            if self.faults is not None:
                self.faults.before_retrain()
            with span("retrain", reason=reason, chunk=chunk_index):
                artifacts = self.retrainer.retrain()
        except RetrainFaultError:
            # The retrain job died; nothing was staged, the live tables
            # keep serving, and the next signal will try again.
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

    def _record_swap(self, event: SwapEvent, aborted: bool, **detail) -> SwapEvent:
        """Publish one install attempt and, after a flip, re-form the
        drift baseline under the new generation.

        *aborted* marks a rollback forced by exhausted transient retries
        (``degraded.swap_aborted``); *detail* rides the swap event.
        """
        registry = get_registry()
        if registry.enabled:
            retries = sum(a - 1 for a in event.shard_attempts or [event.attempts])
            if retries:
                registry.counter("runtime.stage_retries").inc(retries)
            registry.histogram("runtime.swap_pause_s").observe(event.duration_s)
            if event.rolled_back:
                registry.counter("runtime.rollbacks").inc()
                self._count_flip(registry, "rollbacks")
                if aborted:
                    registry.counter("degraded.swap_aborted").inc()
            else:
                registry.counter("runtime.swaps").inc()
                self._count_flip(registry, "swaps")
            registry.event(
                self._SWAP_EVENT,
                chunk=event.chunk_index,
                reason=event.reason,
                rolled_back=event.rolled_back,
                duration_s=round(event.duration_s, 6),
                **detail,
            )
        if not event.rolled_back and self.monitor is not None:
            # The old reference distribution described the displaced
            # tables; re-form the baseline under the new generation.
            self.monitor.reset()
        return event

    def _count_flip(self, registry, what: str) -> None:
        """Mirror a table ``swaps``/``rollbacks`` flip in the registry:
        flips happen between replay calls, so the per-replay counter
        deltas never observe them."""
        registry.counter(f"switch.table.{what}").inc()

    # -- enqueue (any thread) ------------------------------------------------

    def request_control(
        self,
        verb: str,
        shard: Optional[int] = None,
        source: str = "api",
        flow: Optional[str] = None,
    ) -> Dict:
        """Queue *verb* for the next chunk boundary; returns the ticket.

        The returned dict is a copy — the queued ticket itself is updated
        in place when applied (status/outcome/chunk), and surfaces in the
        report's ``control_events``.  ``flow`` carries the operand of
        flow-addressed verbs (``unblock``) as a
        :func:`repro.mitigation.flow_key` string.
        """
        if verb not in CONTROL_VERBS:
            raise ValueError(f"unknown control verb {verb!r}; expected {CONTROL_VERBS}")
        with self._control_lock:
            ticket = {
                "id": self._control_seq,
                "verb": verb,
                "shard": shard,
                "source": source,
                "flow": flow,
                "status": "queued",
            }
            self._control_seq += 1
            self._pending_controls.append(ticket)
        return dict(ticket)

    def pending_controls(self) -> List[Dict]:
        with self._control_lock:
            return [dict(t) for t in self._pending_controls]

    # -- apply (serving thread, chunk boundaries) ----------------------------

    def _apply_pending_controls(self, chunk_index: int, report) -> None:
        with self._control_lock:
            taken, self._pending_controls = self._pending_controls, []
        registry = get_registry()
        for ticket in taken:
            outcome = self._apply_control(ticket, chunk_index, report)
            ticket.update(status="applied", outcome=outcome, chunk=chunk_index)
            report.control_events.append(dict(ticket))
            if registry.enabled:
                registry.event(
                    "ops.control",
                    verb=ticket["verb"],
                    shard=ticket["shard"],
                    flow=ticket.get("flow"),
                    outcome=outcome,
                    chunk=chunk_index,
                    source=ticket["source"],
                )

    def _apply_control(self, ticket: Dict, chunk_index: int, report) -> str:
        """Route one queued ops verb through the drift loop's own paths.

        Runs on the serving thread between chunks — the only thread that
        may touch the pipelines — so verbs reuse the exact machinery the
        drift loop drives.
        """
        verb = ticket["verb"]
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
            if not self._rollback_tables():
                return "skipped:no_previous_generation"
            registry = get_registry()
            if registry.enabled:
                self._count_flip(registry, "rollbacks")
                registry.counter("ops.rollbacks").inc()
            if self.monitor is not None:
                # The baseline described the rolled-forward generation.
                self.monitor.reset()
            return "rolled_back"
        if verb == "drain":
            return self._drain(ticket)
        if verb == "unblock":
            from repro.mitigation import parse_flow_key

            try:
                five_tuple = parse_flow_key(ticket.get("flow") or "")
            except ValueError:
                return "rejected:bad_flow_key"
            return self._unblock(five_tuple, ticket["flow"])
        return f"unsupported:{verb}"

    def _drain(self, ticket: Dict) -> str:
        return "unsupported:not_a_cluster"

    # -- live status ---------------------------------------------------------

    def _serve_begin(self, report) -> None:
        self._live_report = report
        self._serving = True
        self._serve_started_at = time.time()

    def _serve_end(self) -> None:
        self._serving = False

    def _note_chunk(self, index: int, n_packets: int, duration_s: float) -> None:
        self._last_chunk = {
            "index": index,
            "n_packets": n_packets,
            "duration_s": duration_s,
        }

    def ops_status(self) -> Dict:
        """Point-in-time service state for the ops surface.

        Read from HTTP threads while the serving thread appends — every
        field is either an immutable scalar or copied here, and list
        reads under the GIL see a prefix of the live list, so the
        snapshot is safe (if momentarily behind).  Touches no registry
        instruments and no executor: a status poll can never perturb the
        run it is watching.
        """
        report = self._live_report
        status = {
            "serving": self._serving,
            "uptime_s": (
                time.time() - self._serve_started_at
                if self._serve_started_at is not None
                else 0.0
            ),
            "n_chunks": report.n_chunks if report is not None else 0,
            "n_packets": report.n_packets if report is not None else 0,
            "drift_signals": report.drift_signals if report is not None else 0,
            "retrains": report.retrains if report is not None else 0,
            "swaps": report.n_swaps if report is not None else 0,
            "rollbacks": report.n_rollbacks if report is not None else 0,
            "last_chunk": dict(self._last_chunk),
            "swap_events": (
                [asdict(e) for e in list(report.swap_events)]
                if report is not None
                else []
            ),
            "control_events": (
                [dict(t) for t in list(report.control_events)]
                if report is not None
                else []
            ),
            "pending_controls": self.pending_controls(),
            "reservoir_flows": len(self.retrainer),
            "drift_score": (
                self.monitor.last_score if self.monitor is not None else None
            ),
        }
        status.update(self._ops_extra())
        return status

    def _ops_extra(self) -> Dict:
        """Subclass hook: service-kind-specific status fields."""
        return {}
