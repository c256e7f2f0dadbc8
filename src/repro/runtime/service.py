"""The online detection service: serve, watch, retrain, hot-swap.

State machine per serving loop (documented in DESIGN.md §"Serving
runtime"):

    SERVING --(drift signal / cadence due)--> STAGING
    STAGING --(install-time checks pass)----> SWAP  --> SERVING
    STAGING --(validation fails)------------> ROLLBACK --> SERVING

SERVING replays chunks through the live tables; STAGING compiles and
validates a new table generation while the live tables keep serving;
SWAP flips the staged generation in between chunks (flow state, the
blacklist, and verdict registers all survive); ROLLBACK rejects a
generation that fails the install-time checks, keeping the current
tables.  Swap pause — the wall-clock cost of stage+flip, what a Tofino
control plane would spend writing TCAM entries — is measured around the
table flip and reported both in telemetry
(``runtime.swap_pause_s``) and in the serve report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.datasets.trace import Trace
from repro.faults.errors import RetrainFaultError, TransientFaultError
from repro.faults.retry import retry_with_backoff
from repro.runtime.control import OpsControlMixin
from repro.runtime.drift import DriftMonitor
from repro.runtime.retrain import Retrainer
from repro.runtime.stream import ChunkStats, PacketSource, StreamDriver
from repro.switch.pipeline import SwitchPipeline
from repro.switch.runner import ChainedDecisions
from repro.telemetry import get_registry, span
from repro.utils.rng import SeedLike


@dataclass
class RuntimeConfig:
    """Knobs of the serving loop.

    chunk_size / mode:
        Streaming granularity and replay engine.
    drift_threshold:
        Drift score that triggers a retrain; 0 disables drift-triggered
        retrains entirely.
    drift_window / baseline_window / min_drift_packets:
        :class:`~repro.runtime.drift.DriftMonitor` shape.
    drift_warmup_chunks:
        Chunks discarded before the drift baseline forms, so a cold
        flow store's maturation transient (pending slots draining into
        decided paths over the first seconds of a realistic-IPD stream)
        is not frozen into the reference distribution.  0 keeps the
        historical immediate-baseline behaviour.
    cadence:
        Retrain every N chunks regardless of drift; 0 disables.
    min_retrain_flows:
        Reservoir size below which retrain requests are deferred (a
        forest fitted on a handful of flows whitelists almost nothing).
    max_swaps:
        Hard cap on table swaps per :meth:`OnlineDetectionService.serve`
        call (None = unlimited); the CI smoke uses 1.
    stage_retries / stage_backoff_s / stage_deadline_s:
        Retry budget for the stage+flip control-plane operation: up to
        ``stage_retries`` re-attempts after a transient install failure,
        exponential backoff starting at ``stage_backoff_s`` seconds,
        aborted once ``stage_deadline_s`` of wall clock would be
        exceeded (None = no deadline).  Deterministic validation
        rejections are never retried — they roll back immediately.
    """

    chunk_size: int = 2048
    mode: str = "batch"
    drift_threshold: float = 0.25
    drift_window: int = 4
    baseline_window: int = 4
    min_drift_packets: int = 64
    drift_warmup_chunks: int = 0
    cadence: int = 0
    min_retrain_flows: int = 24
    max_swaps: Optional[int] = None
    stage_retries: int = 2
    stage_backoff_s: float = 0.02
    stage_deadline_s: Optional[float] = None


@dataclass(frozen=True)
class SwapEvent:
    """One staged table update: why, how long the flip paused serving,
    and whether validation rejected it."""

    chunk_index: int
    reason: str  # "drift" or "cadence"
    duration_s: float
    rolled_back: bool
    #: Table-install attempts made (>1 means transient flakes were retried).
    attempts: int = 1


@dataclass
class ServeReport:
    """Outcome of one :meth:`OnlineDetectionService.serve` call."""

    n_chunks: int = 0
    n_packets: int = 0
    drift_signals: int = 0
    retrains: int = 0
    #: Retrain attempts aborted by an injected/observed retrain fault.
    retrain_failures: int = 0
    #: ``faults.* -> fired`` totals from the run's FaultPlan (empty
    #: when no plan was attached or nothing fired).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    swap_events: List[SwapEvent] = field(default_factory=list)
    chunk_stats: List[ChunkStats] = field(default_factory=list)
    #: Start offset of each chunk in the concatenated decision arrays.
    chunk_offsets: List[int] = field(default_factory=list)
    #: Operator control tickets applied during the run (ops surface).
    control_events: List[Dict] = field(default_factory=list)
    #: Every served decision, in order: one lazy view per chunk
    #: (:class:`~repro.switch.runner.ChainedDecisions`).
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


class OnlineDetectionService(OpsControlMixin):
    """Continuous serving loop around one :class:`SwitchPipeline`.

    The pipeline serves every chunk through its live tables; between
    chunks the service consults the drift monitor and the retrain
    cadence, and on a signal runs retrain → stage → hot-swap.  A staged
    generation that fails the install-time checks is rolled back (the
    live tables are never touched) and serving continues.

    ``faults`` attaches a :class:`repro.faults.FaultPlan`: its digest
    channel is installed on the pipeline at serve start, chunk injectors
    fire at chunk boundaries, and the retrain/artifact/install hooks
    wrap the control-plane path.  Transient install failures are retried
    with exponential backoff (``stage_retries``/``stage_backoff_s``);
    exhausted retries degrade to a rollback and serving continues on the
    old generation.
    """

    def __init__(
        self,
        pipeline: SwitchPipeline,
        retrainer: Optional[Retrainer] = None,
        monitor: Optional[DriftMonitor] = None,
        config: Optional[RuntimeConfig] = None,
        seed: SeedLike = None,
        faults=None,
        policy=None,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.pipeline = pipeline
        self.faults = faults
        if policy is not None:
            # A policy spec/Policy/PolicyEngine attaches the graduated
            # mitigation engine (repro.mitigation) to the pipeline's
            # controller; an engine already attached (e.g. by a
            # checkpoint restore) is left alone.
            from repro.mitigation import attach_policy

            if getattr(pipeline.controller, "policy", None) is None:
                attach_policy(pipeline, policy)
        self._init_control_plane()
        # ``is not None`` rather than ``or``: Retrainer defines __len__
        # (reservoir size), so a freshly-built one with an empty
        # reservoir is falsy and ``or`` would silently discard it.
        self.retrainer = retrainer if retrainer is not None else Retrainer(
            pkt_count_threshold=pipeline.config.pkt_count_threshold,
            timeout=pipeline.config.timeout,
            use_pl_model=pipeline.pl_table is not None,
            seed=seed,
        )
        drift_on = self.config.drift_threshold > 0
        if monitor is not None:
            self.monitor = monitor
        else:
            self.monitor = (
                DriftMonitor(
                    window=self.config.drift_window,
                    baseline_window=self.config.baseline_window,
                    threshold=self.config.drift_threshold,
                    min_packets=self.config.min_drift_packets,
                    warmup_chunks=self.config.drift_warmup_chunks,
                )
                if drift_on
                else None
            )

    def _swap_allowed(self, report: ServeReport) -> bool:
        cap = self.config.max_swaps
        return cap is None or report.n_swaps < cap

    def _retrain_and_swap(
        self, chunk_index: int, reason: str, report: ServeReport
    ) -> None:
        cfg = self.config
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

        attempts = 0

        def _install() -> None:
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
            self.pipeline.hot_swap()

        def _on_retry(attempt: int, err: Exception) -> None:
            if registry.enabled:
                registry.counter("runtime.stage_retries").inc()

        rolled_back = False
        start = time.perf_counter()
        try:
            retry_with_backoff(
                _install,
                retries=cfg.stage_retries,
                base_delay=cfg.stage_backoff_s,
                deadline_s=cfg.stage_deadline_s,
                on_retry=_on_retry,
            )
        except ValueError:
            # Install-time validation rejected the staged generation —
            # deterministic, so never retried.  Drop the candidate; the
            # live tables were never touched and keep serving.
            self.pipeline.reject_staged()
            rolled_back = True
            if registry.enabled:
                registry.counter("switch.table.rollbacks").inc()
        except TransientFaultError:
            # Retries/deadline exhausted on a flaky install.  Degrade:
            # abandon this generation and keep serving the old one.
            self.pipeline.reject_staged()
            rolled_back = True
            if registry.enabled:
                registry.counter("switch.table.rollbacks").inc()
                registry.counter("degraded.swap_aborted").inc()
        duration = time.perf_counter() - start

        report.swap_events.append(
            SwapEvent(
                chunk_index=chunk_index,
                reason=reason,
                duration_s=duration,
                rolled_back=rolled_back,
                attempts=attempts,
            )
        )
        if registry.enabled:
            registry.histogram("runtime.swap_pause_s").observe(duration)
            if rolled_back:
                registry.counter("runtime.rollbacks").inc()
            else:
                registry.counter("runtime.swaps").inc()
                # Mirror the pipeline's own swap counter: swaps happen
                # between replay calls, so the per-replay counter-delta
                # publication never observes them.
                registry.counter("switch.table.swaps").inc()
            registry.event(
                "runtime.swap",
                chunk=chunk_index,
                reason=reason,
                rolled_back=rolled_back,
                duration_s=round(duration, 6),
                n_fl_rules=artifacts.n_fl_rules,
            )
        if not rolled_back and self.monitor is not None:
            # The old reference distribution described the displaced
            # tables; re-form the baseline under the new generation.
            self.monitor.reset()

    # -- operator control (see repro.runtime.control / repro.ops) ------------

    def _apply_control(self, ticket: Dict, chunk_index: int, report) -> str:
        """Route one queued ops verb through the drift loop's own paths."""
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
            if not self.pipeline.can_rollback:
                return "skipped:no_previous_generation"
            self.pipeline.rollback()
            registry = get_registry()
            if registry.enabled:
                # Mirror the pipeline counter: the flip happens between
                # replay calls, invisible to per-replay delta publication.
                registry.counter("switch.table.rollbacks").inc()
                registry.counter("ops.rollbacks").inc()
            if self.monitor is not None:
                # The baseline described the rolled-forward generation.
                self.monitor.reset()
            return "rolled_back"
        if verb == "drain":
            return "unsupported:not_a_cluster"
        if verb == "unblock":
            engine = getattr(self.pipeline.controller, "policy", None)
            if engine is None:
                return "skipped:no_policy"
            from repro.mitigation import parse_flow_key

            try:
                five_tuple = parse_flow_key(ticket.get("flow") or "")
            except ValueError:
                return "rejected:bad_flow_key"
            return engine.unblock(five_tuple)
        return f"unsupported:{verb}"

    def mitigation_status(self) -> Optional[Dict]:
        """Live :meth:`~repro.mitigation.PolicyEngine.status` snapshot,
        or ``None`` when no policy engine is attached."""
        engine = getattr(self.pipeline.controller, "policy", None)
        return None if engine is None else engine.status()

    def _ops_extra(self) -> Dict:
        engine = getattr(self.pipeline.controller, "policy", None)
        return {
            "kind": "service",
            "generation": self.pipeline.table_swaps,
            "can_rollback": self.pipeline.can_rollback,
            "reservoir_flows": len(self.retrainer),
            "drift_score": (
                self.monitor.last_score if self.monitor is not None else None
            ),
            "mitigation": (
                None
                if engine is None
                else {
                    "policy": engine.policy.name,
                    "active_blocks": engine.active_blocks,
                    "active_rate_limits": engine.active_rate_limits,
                    "guard_tripped": engine.guard_tripped,
                }
            ),
        }

    def serve(
        self,
        trace: PacketSource,
        checkpoint=None,
        resume_report: Optional[ServeReport] = None,
    ) -> ServeReport:
        """Stream *trace* through the pipeline with the full control loop.

        *trace* may be a materialised :class:`Trace` or any streaming
        packet source (e.g. a :class:`repro.scenarios.ScenarioStream`) —
        the streaming path holds only one chunk in memory at a time, so
        arbitrarily long scenarios serve in bounded RSS, and chunk
        boundaries match the materialised path packet-for-packet.

        ``checkpoint`` (a :class:`repro.runtime.checkpoint.CheckpointManager`)
        journals the full service state at chunk boundaries; pass the
        restored report as ``resume_report`` to continue a killed run —
        *trace* must be the same full trace (or a fresh stream of the
        same scenario + seed), and serving picks up at the first chunk
        the checkpoint had not yet covered.
        """
        cfg = self.config
        report = resume_report if resume_report is not None else ServeReport()
        # Skip the packets a checkpointed run already served; chunk
        # boundaries are packet-count-aligned so this resumes exactly at
        # the next chunk edge.
        skip_packets = report.n_packets
        registry = get_registry()
        driver = StreamDriver(
            self.pipeline,
            chunk_size=cfg.chunk_size,
            mode=cfg.mode,
            faults=self.faults,
            start_index=report.n_chunks,
        )
        if self.faults is not None:
            self.faults.install(self.pipeline)
        self._serve_begin(report)
        try:
            with span("serve", chunk_size=cfg.chunk_size, mode=cfg.mode):
                chunk_start = time.perf_counter()
                for chunk in driver.run(trace, skip_packets=skip_packets):
                    report.chunk_offsets.append(report.n_packets)
                    report.n_chunks += 1
                    report.n_packets += chunk.stats.n_packets
                    report.chunk_stats.append(chunk.stats)
                    report.decisions.extend(chunk.replay.decisions)
                    report.y_true = np.concatenate([report.y_true, chunk.replay.y_true])
                    report.y_pred = np.concatenate([report.y_pred, chunk.replay.y_pred])
                    self.retrainer.observe(chunk.trace.packets, chunk.replay.flow_idx)

                    drifted = False
                    if self.monitor is not None:
                        drifted = self.monitor.observe(chunk.stats)
                        if drifted:
                            report.drift_signals += 1
                    if registry.enabled:
                        registry.counter("runtime.chunks").inc()
                        registry.counter("runtime.packets").inc(chunk.stats.n_packets)
                        if self.monitor is not None:
                            registry.gauge("runtime.drift.score").set(
                                self.monitor.last_score
                            )
                            registry.gauge("runtime.drift.malicious_rate").set(
                                chunk.stats.malicious_rate
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
                        chunk.index,
                        chunk.stats.n_packets,
                        time.perf_counter() - chunk_start,
                    )
                    if checkpoint is not None:
                        checkpoint.maybe_save(self, report)
                    chunk_start = time.perf_counter()
        finally:
            self._serve_end()
        if self.faults is not None:
            self.faults.finalize()
            report.fault_counts = self.faults.counts()
        if checkpoint is not None:
            checkpoint.save(self, report, complete=True)
        return report
