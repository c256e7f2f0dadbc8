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
from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.errors import TransientFaultError
from repro.faults.retry import retry_with_backoff
from repro.runtime.control import OpsControlMixin, ServeReport, SwapEvent
from repro.runtime.drift import DriftMonitor
from repro.runtime.retrain import Retrainer
from repro.runtime.stream import PacketSource, StreamDriver
from repro.switch.pipeline import SwitchPipeline
from repro.telemetry import span
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
        Hard cap on table swaps per ``serve`` call of either service —
        :class:`OnlineDetectionService` or
        :class:`~repro.cluster.service.ClusterService` (None =
        unlimited); the CI smoke uses 1.
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


class OnlineDetectionService(OpsControlMixin):
    """Continuous serving loop around one :class:`SwitchPipeline`.

    The pipeline serves every chunk through its live tables (the chunk
    source is a :class:`~repro.runtime.stream.StreamDriver`); between
    chunks the shared serve loop (:mod:`repro.runtime.control`) consults
    the drift monitor and the retrain cadence, and on a signal runs
    retrain → :meth:`swap` (stage → hot-swap).  A staged
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
        self._init_control_plane(pipeline, retrainer, monitor, seed)

    # -- the serve loop's service half (see repro.runtime.control) -----------

    def _serve_start(self, report: ServeReport) -> None:
        if self.faults is not None:
            self.faults.install(self.pipeline)

    def _serve_span(self):
        return span("serve", chunk_size=self.config.chunk_size, mode=self.config.mode)

    def _chunks(self, source: PacketSource, report: ServeReport):
        """The stream driver over the one pipeline, resuming at the first
        chunk *report* has not covered (chunk boundaries are
        packet-count-aligned, so skipping ``n_packets`` lands exactly on
        the next chunk edge)."""
        driver = StreamDriver(
            self.pipeline,
            chunk_size=self.config.chunk_size,
            mode=self.config.mode,
            faults=self.faults,
            start_index=report.n_chunks,
        )
        return driver.run(source, skip_packets=report.n_packets)

    def _serve_finish(self, report: ServeReport) -> None:
        if self.faults is not None:
            self.faults.finalize()
            report.fault_counts = self.faults.counts()

    def swap(
        self, artifacts, chunk_index: int = -1, reason: str = "manual"
    ) -> SwapEvent:
        """Stage *artifacts* and flip them live between chunks.

        Transient install failures are retried with backoff; a
        validation rejection (never retried) or an exhausted retry
        budget drops the candidate and the live tables keep serving.
        """
        cfg = self.config
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

        rolled_back = aborted = False
        start = time.perf_counter()
        try:
            retry_with_backoff(
                _install,
                retries=cfg.stage_retries,
                base_delay=cfg.stage_backoff_s,
                deadline_s=cfg.stage_deadline_s,
            )
        except (ValueError, TransientFaultError) as err:
            # Validation rejected the generation (deterministic, so never
            # retried) or the retries ran out on a flaky install: drop
            # the candidate, the live tables were never touched.
            self.pipeline.reject_staged()
            rolled_back = True
            aborted = isinstance(err, TransientFaultError)
        event = SwapEvent(
            chunk_index=chunk_index,
            reason=reason,
            duration_s=time.perf_counter() - start,
            rolled_back=rolled_back,
            attempts=attempts,
        )
        return self._record_swap(event, aborted, n_fl_rules=artifacts.n_fl_rules)

    def _rollback_tables(self) -> bool:
        if not self.pipeline.can_rollback:
            return False
        self.pipeline.rollback()
        return True

    def _unblock(self, five_tuple, flow: str) -> str:
        engine = getattr(self.pipeline.controller, "policy", None)
        if engine is None:
            return "skipped:no_policy"
        return engine.unblock(five_tuple)

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
