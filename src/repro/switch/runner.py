"""Trace replay and testbed-style measurement (§4.2, App. B.1).

:func:`replay_trace` drives a packet trace through a
:class:`~repro.switch.pipeline.SwitchPipeline` and collects per-packet
ground truth vs verdicts — the paper's per-packet metrics [2].  Two
engines are available behind ``mode=``: the scalar per-packet walk
(``"scalar"``, the reference semantics) and the numpy-vectorised batch
engine (``"batch"``, :mod:`repro.switch.batch`), which produces
bit-identical results and is locked to the scalar engine by the
differential suite in ``tests/switch/test_batch_differential.py``.

:func:`throughput_latency_model` is the line-rate service model standing
in for the 40 Gbps tcpreplay measurement: packets that stay in the data
plane cost one fixed pipeline traversal; designs that detour flows to
the control plane for detection (HorusEye-style) stall those flows on
the controller round trip, which is what the paper's 66.47% throughput
advantage reflects.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional

import numpy as np

from repro.datasets.trace import Trace
from repro.switch.pipeline import ACTION_DROP, PacketDecision, SwitchPipeline
from repro.telemetry import get_registry, span

#: Fixed pipeline traversal latency (the paper measures ~532.8 ns).
PIPELINE_LATENCY_NS = 532.8
#: Controller round-trip for control-plane detection designs (a LAN
#: round trip to a co-located controller).
CONTROL_PLANE_RTT_NS = 50_000.0


class DecisionView(Sequence):
    """Read-only sequence of :class:`PacketDecision` built on demand.

    Subclasses hold outcome columns (or other sequences) and implement
    ``__len__`` and ``_at(i)``; a decision object exists only while it
    is being read.  Views index, slice (into a list), iterate and
    compare equal to lists and to other views element by element, so
    they stand in for the eager decision list everywhere it is read.
    """

    __slots__ = ()

    def _at(self, i: int) -> PacketDecision:
        raise NotImplementedError

    def __getitem__(self, idx):
        n = len(self)
        if isinstance(idx, slice):
            return [self._at(i) for i in range(*idx.indices(n))]
        i = operator.index(idx)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("decision index out of range")
        return self._at(i)

    def __iter__(self):
        return map(self._at, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, DecisionView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} decisions>"


class ChainedDecisions(DecisionView):
    """Decision sequences joined end to end without copying.

    :meth:`extend` keeps a reference to the part (O(1) per chunk), so a
    serve report holds its chunks' views rather than a list of every
    decision; parts must not change after they are added.
    """

    __slots__ = ("_parts", "_ends")

    def __init__(self, parts=()) -> None:
        self._parts: List[Sequence] = []
        self._ends: List[int] = []
        for part in parts:
            self.extend(part)

    def extend(self, part: Sequence) -> None:
        if isinstance(part, ChainedDecisions):
            for p in part._parts:
                self.extend(p)
            return
        if len(part):
            self._parts.append(part)
            self._ends.append(len(self) + len(part))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _at(self, i: int) -> PacketDecision:
        k = bisect_right(self._ends, i)
        return self._parts[k][i - (self._ends[k - 1] if k else 0)]

    def __iter__(self):
        return chain.from_iterable(self._parts)


@dataclass
class ReplayResult:
    """Per-packet outcomes of one replay.

    ``decisions`` is a list on the scalar engine and a lazy
    :class:`DecisionView` on the batch engine.  ``flow_idx`` (batch
    engine only) labels each packet with its canonical flow, the
    grouping the reservoir reuses instead of regrouping the chunk.

    ``path_counts`` and ``dropped_fraction`` are derived aggregates over
    every decision; they are computed once on first access and cached
    (the batch engine seeds them from its vectorised outcome), so
    repeated calls — the throughput model, reporting, telemetry — stay
    O(1) instead of re-walking the decision list.
    """

    decisions: Sequence
    y_true: np.ndarray
    y_pred: np.ndarray
    flow_idx: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _path_counts: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _dropped_fraction: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_packets(self) -> int:
        return len(self.decisions)

    def path_counts(self) -> Dict[str, int]:
        if self._path_counts is None:
            counts: Dict[str, int] = {}
            for d in self.decisions:
                counts[d.path] = counts.get(d.path, 0) + 1
            self._path_counts = counts
        return dict(self._path_counts)

    def dropped_fraction(self) -> float:
        if self._dropped_fraction is None:
            if not self.decisions:
                self._dropped_fraction = 0.0
            else:
                self._dropped_fraction = sum(
                    d.action == ACTION_DROP for d in self.decisions
                ) / len(self.decisions)
        return self._dropped_fraction

    def merge(self, others: List["ReplayResult"]) -> "ReplayResult":
        """Concatenate this result with *others*, in order.

        The combined result reads as one replay of the concatenated
        traces: decisions (a lazy :class:`ChainedDecisions`, no copy)
        and verdict arrays are joined end-to-end, and if every input
        already has its ``path_counts`` cache the merged cache is the
        summed counts (so chunked offline analyses don't re-walk
        millions of decisions).  ``self`` and *others* are left
        untouched.
        """
        results = [self, *others]
        merged = ReplayResult(
            decisions=ChainedDecisions(r.decisions for r in results),
            y_true=np.concatenate([r.y_true for r in results]),
            y_pred=np.concatenate([r.y_pred for r in results]),
        )
        if all(r._path_counts is not None for r in results):
            counts: Dict[str, int] = {}
            for r in results:
                for path, c in r._path_counts.items():
                    counts[path] = counts.get(path, 0) + c
            merged._path_counts = counts
        return merged


#: Replay engine names accepted by :func:`replay_trace`.
REPLAY_MODES = ("scalar", "batch")


def _account_mitigation(
    pipeline: SwitchPipeline, decisions: List[PacketDecision]
) -> None:
    """Scalar-path efficacy metering for an attached mitigation engine:
    the same per-replay ground-truth sums the batch engine computes at
    the end of :func:`repro.switch.batch._replay_sequential`."""
    controller = pipeline.controller
    engine = getattr(controller, "policy", None)
    if engine is None:
        return
    attack_leaked = benign_dropped = attack_dropped = 0
    for d in decisions:
        mitigated = d.path == "red" or d.rate_limited
        if d.packet.malicious:
            if mitigated:
                attack_dropped += 1
            elif d.action != ACTION_DROP:
                attack_leaked += 1
        elif mitigated:
            benign_dropped += 1
    engine.account(
        attack_leaked=attack_leaked,
        benign_dropped=benign_dropped,
        attack_dropped=attack_dropped,
    )


def _publish_replay_telemetry(
    registry,
    pipeline: SwitchPipeline,
    before: Dict[str, int],
) -> None:
    """Emit this replay's data-plane counter deltas plus level gauges.

    Counters come from :meth:`SwitchPipeline.telemetry_counters` (and
    the attached controller's), diffed against the pre-replay snapshot
    so multiple replays on one pipeline accumulate correctly.  Both
    engines mutate the same pipeline objects, so the emitted values are
    engine-independent by construction.
    """
    after = dict(pipeline.telemetry_counters())
    if pipeline.controller is not None:
        after.update(pipeline.controller.telemetry_counters())
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            registry.counter(name).inc(delta)
    for name, value in pipeline.telemetry_gauges().items():
        registry.gauge(name).set(value)


def replay_trace(
    trace: Trace, pipeline: SwitchPipeline, mode: str = "scalar"
) -> ReplayResult:
    """Run every packet of *trace* through *pipeline* in arrival order.

    ``mode="scalar"`` walks the six-path pipeline one packet at a time;
    ``mode="batch"`` precomputes hashes, quantized feature matrices, and
    whitelist verdicts for the whole trace and resolves only the
    sequential state in a tight loop — same outputs, much faster.

    When telemetry is enabled (:mod:`repro.telemetry`), the replay runs
    under a ``replay`` span and publishes the pipeline's and
    controller's counter deltas plus occupancy gauges afterwards; with
    the default null registry the only cost is one ``enabled`` check.
    """
    if mode not in REPLAY_MODES:
        raise ValueError(f"mode must be one of {REPLAY_MODES}, got {mode!r}")
    registry = get_registry()
    before: Dict[str, int] = {}
    if registry.enabled:
        before = dict(pipeline.telemetry_counters())
        if pipeline.controller is not None:
            before.update(pipeline.controller.telemetry_counters())
    with span("replay", mode=mode, packets=len(trace)):
        if mode == "batch" and type(pipeline).process is SwitchPipeline.process:
            from repro.switch.batch import replay_trace_batch

            result = replay_trace_batch(trace, pipeline)
        else:
            # Pipeline subclasses with a custom packet walk (e.g. the
            # multipoint extension) always take the scalar engine the
            # walk defines.
            decisions = [pipeline.process(pkt) for pkt in trace]
            y_true = np.array([int(d.packet.malicious) for d in decisions], dtype=int)
            y_pred = np.array([d.predicted_malicious for d in decisions], dtype=int)
            result = ReplayResult(decisions=decisions, y_true=y_true, y_pred=y_pred)
            _account_mitigation(pipeline, decisions)
    if registry.enabled:
        _publish_replay_telemetry(registry, pipeline, before)
        registry.counter("replay.packets").inc(len(trace))
    return result


@dataclass(frozen=True)
class ThroughputReport:
    """Line-rate service model outputs (App. B.1)."""

    offered_gbps: float
    achieved_gbps: float
    mean_latency_ns: float

    @property
    def efficiency(self) -> float:
        return self.achieved_gbps / self.offered_gbps if self.offered_gbps else 0.0


def throughput_latency_model(
    result: ReplayResult,
    offered_gbps: float = 40.0,
    control_plane_detection: bool = False,
    control_plane_fraction: Optional[float] = None,
) -> ThroughputReport:
    """Apply the service model to a replay.

    With in-data-plane detection (iGuard) every packet costs one
    pipeline traversal and the link runs at essentially line rate (the
    only loss is the mirrored loopback packets re-using ingress
    bandwidth).  With control-plane detection, the packets that needed a
    controller verdict (the classification-time packets — the blue-path
    fraction, or an explicit *control_plane_fraction*) stall on the
    controller RTT, cutting effective throughput.
    """
    n = max(result.n_packets, 1)
    paths = result.path_counts()
    blue_fraction = paths.get("blue", 0) / n
    green_fraction = paths.get("green", 0) / n

    if control_plane_detection:
        detour = control_plane_fraction if control_plane_fraction is not None else blue_fraction
        mean_latency = (
            PIPELINE_LATENCY_NS * (1.0 - detour)
            + (PIPELINE_LATENCY_NS + CONTROL_PLANE_RTT_NS) * detour
        )
        achieved = offered_gbps * PIPELINE_LATENCY_NS / mean_latency
    else:
        mean_latency = PIPELINE_LATENCY_NS
        # Loopback mirrors consume a sliver of ingress capacity.
        achieved = offered_gbps * (1.0 - 0.5 * green_fraction / max(1.0, n / n))
        achieved = min(achieved, offered_gbps)
    return ThroughputReport(
        offered_gbps=offered_gbps,
        achieved_gbps=float(achieved),
        mean_latency_ns=float(mean_latency),
    )
