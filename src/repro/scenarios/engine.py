"""Chunked scenario generation: a bounded-memory deterministic stream.

The engine turns a :class:`~repro.scenarios.spec.Scenario` plus a seed
into a time-ordered packet stream without ever materialising the full
trace.  Three properties are load-bearing (locked by
``tests/scenarios/``):

**Seed determinism.**  Every window of every component draws from its
own generator seeded by ``SeedSequence((seed, kind, index, window))`` —
the stream is a pure function of ``(spec, seed)``, independent of how
the consumer chunks it and of any other component's draws.

**Chunk-size invariance.**  Generation is windowed by the *scenario
clock* (``window_s``), not by the consumer's chunk size; ``iter_chunks``
merely buffers the packet stream into fixed-size slices.  The same
scenario + seed therefore yields bit-identical packets for chunk sizes
1, 64, 4096, and for the materialised small-trace path
(``materialise()`` is just the concatenation of the stream).

**O(window) memory.**  Flows are generated in the window their *start*
falls into; packets are staged in a min-heap and flushed as soon as the
window edge guarantees no earlier packet can still arrive (flow starts
are monotone per window, so after window *w* every staged packet with
``timestamp < (w+1)·window_s`` is final).  The heap holds only flows
overlapping a window boundary — bounded by offered load × max flow
duration, independent of the scenario's total length, which is what
lets a hundred-million-packet scenario stream through ``repro serve``
in constant memory.

Mechanically each window does Poisson *thinning*: candidate flow starts
arrive at the component's envelope (peak) rate and are accepted with
probability ``rate(t)/peak`` — exact for inhomogeneous Poisson arrivals,
and it keeps diurnal curves, ramps, and pulse trains all on the same
code path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.adversarial import evasion_flows, low_rate_flows
from repro.datasets.packet import Packet
from repro.datasets.trace import Trace
from repro.scenarios.families import device_mixture, flow_factory
from repro.scenarios.spec import BenignLoad, Campaign, Scenario
from repro.telemetry import get_registry

#: Component kind codes mixed into the per-window seed entropy.
_KIND_BENIGN = 0
_KIND_CAMPAIGN = 1


@dataclass(frozen=True)
class WindowSummary:
    """One preview row: what the scenario offers in ``[t0, t1)``."""

    t0: float
    t1: float
    n_packets: int
    n_bytes: int
    n_attack_packets: int
    n_flows: int
    active_campaigns: Tuple[str, ...]

    @property
    def attack_fraction(self) -> float:
        return self.n_attack_packets / self.n_packets if self.n_packets else 0.0

    @property
    def offered_pps(self) -> float:
        span = self.t1 - self.t0
        return self.n_packets / span if span > 0 else 0.0


class ScenarioStream:
    """One-pass deterministic packet stream over a scenario spec.

    Every ``iter_packets``/``iter_chunks`` call starts an independent
    pass producing the identical stream (generation is stateless given
    ``(spec, seed)``), so a resumed serve can simply re-open the stream
    and skip the packets it already served.
    """

    def __init__(self, scenario: Scenario, seed: Optional[int] = None) -> None:
        self.scenario = scenario
        self.seed = int(scenario.seed if seed is None else seed)
        # Validate families/mixes eagerly so typos fail at build time,
        # not thousands of windows into a stream.
        for load in scenario.benign:
            device_mixture(load.mix)
        for campaign in scenario.campaigns:
            flow_factory(campaign.family)

    # -- generation ----------------------------------------------------------

    def _window_rng(self, kind: int, index: int, window: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.seed, kind, index, window))
        )

    def _starts(
        self,
        rng: np.random.Generator,
        w_start: float,
        w_len: float,
        peak: float,
        accept_prob,
    ) -> np.ndarray:
        """Thinned Poisson flow starts inside ``[w_start, w_start + w_len)``."""
        if peak <= 0 or w_len <= 0:
            return np.empty(0)
        n_cand = int(rng.poisson(peak * w_len))
        if n_cand == 0:
            return np.empty(0)
        times = w_start + np.sort(rng.uniform(0.0, w_len, size=n_cand))
        keep = rng.random(n_cand) < np.array([accept_prob(t) for t in times])
        return times[keep]

    def _benign_flows(
        self, index: int, load: BenignLoad, window: int, w_start: float, w_len: float
    ) -> Iterator[List[Packet]]:
        rng = self._window_rng(_KIND_BENIGN, index, window)
        curve = load.curve
        peak = curve.peak_rate
        starts = self._starts(
            rng, w_start, w_len, peak,
            lambda t: curve.rate_at(t) / peak if peak > 0 else 0.0,
        )
        if starts.size == 0:
            return
        mixture = device_mixture(load.mix)
        weights = np.asarray(mixture.weights, dtype=float)
        for t in starts:
            idx = int(rng.choice(len(mixture.profiles), p=weights))
            yield mixture.profiles[idx].sample_flow(rng, float(t))

    def _campaign_flows(
        self, index: int, campaign: Campaign, window: int, w_start: float, w_len: float
    ) -> Iterator[List[Packet]]:
        # Skip windows entirely outside the campaign, cheaply.
        if campaign.end_s <= w_start or campaign.start_s >= w_start + w_len:
            return
        rng = self._window_rng(_KIND_CAMPAIGN, index, window)
        factory = flow_factory(campaign.family)
        starts = self._starts(
            rng, w_start, w_len, campaign.rate, campaign.intensity_at
        )
        for t in starts:
            flow = factory(rng, float(t))
            flow = self._apply_evasion(campaign.family, float(t), flow, rng)
            yield flow

    def _apply_evasion(
        self, family: str, t: float, flow: List[Packet], rng: np.random.Generator
    ) -> List[Packet]:
        for phase in self.scenario.evasions:
            if not phase.covers(family, t):
                continue
            if phase.kind == "low_rate":
                return low_rate_flows([flow], phase.factor)[0]
            return evasion_flows([flow], phase.factor, seed=rng)[0]
        return flow

    def iter_packets(self) -> Iterator[Packet]:
        """The scenario's packets in timestamp order, one pass."""
        s = self.scenario
        window_s = s.window_s
        n_windows = max(1, int(math.ceil(s.duration_s / window_s)))
        heap: List[Tuple[float, int, Packet]] = []
        seq = 0
        for w in range(n_windows):
            w_start = w * window_s
            w_len = min(window_s, s.duration_s - w_start)
            for i, load in enumerate(s.benign):
                for flow in self._benign_flows(i, load, w, w_start, w_len):
                    for pkt in flow:
                        heapq.heappush(heap, (pkt.timestamp, seq, pkt))
                        seq += 1
            for j, campaign in enumerate(s.campaigns):
                for flow in self._campaign_flows(j, campaign, w, w_start, w_len):
                    for pkt in flow:
                        heapq.heappush(heap, (pkt.timestamp, seq, pkt))
                        seq += 1
            # Flow starts are monotone in window index, so everything
            # staged below the next window edge is final.
            edge = w_start + w_len
            while heap and heap[0][0] < edge:
                yield heapq.heappop(heap)[2]
        while heap:
            yield heapq.heappop(heap)[2]

    # -- consumers -----------------------------------------------------------

    def iter_chunks(self, chunk_size: int) -> Iterator[Trace]:
        """Fixed-size :class:`Trace` chunks of the stream (last = tail).

        Chunk boundaries land exactly where
        :func:`repro.runtime.stream.iter_chunks` would put them on the
        materialised trace, so the streaming and small-trace serve paths
        replay bit-identically.  Publishes ``scenario.*`` telemetry per
        chunk when a metric registry is active.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        buf: List[Packet] = []
        for pkt in self.iter_packets():
            buf.append(pkt)
            if len(buf) == chunk_size:
                yield self._emit_chunk(buf)
                buf = []
        if buf:
            yield self._emit_chunk(buf)

    def _emit_chunk(self, packets: List[Packet]) -> Trace:
        chunk = Trace.from_sorted(packets)  # iter_packets yields in time order
        registry = get_registry()
        if registry.enabled:
            n = len(packets)
            n_attack = sum(1 for p in packets if p.malicious)
            t_end = packets[-1].timestamp
            active = [c.family for c in self.scenario.campaigns if c.active_at(t_end)]
            span = t_end - packets[0].timestamp
            registry.counter("scenario.packets").inc(n)
            registry.counter("scenario.attack_packets").inc(n_attack)
            registry.gauge("scenario.attack_fraction").set(n_attack / n)
            registry.gauge("scenario.active_campaigns").set(float(len(active)))
            if span > 0:
                registry.gauge("scenario.offered_pps").set(n / span)
        return chunk

    def materialise(self, max_packets: int = 5_000_000) -> Trace:
        """The whole scenario as one in-memory trace (small runs only).

        Guarded by *max_packets* so a hundred-million-packet spec fails
        fast instead of filling RAM — stream it instead.
        """
        packets: List[Packet] = []
        for pkt in self.iter_packets():
            packets.append(pkt)
            if len(packets) > max_packets:
                raise MemoryError(
                    f"scenario {self.scenario.name!r} exceeds max_packets="
                    f"{max_packets}; use the streaming path (iter_chunks)"
                )
        return Trace.from_sorted(packets)

    def training_flows(self, n_flows: int, seed: Optional[int] = None):
        """Benign-only flows drawn from the scenario's tenant populations.

        The warm-up capture a model is fitted on before serving the
        scenario: every benign load contributes its device mixture,
        weighted by the load's base rate.  Raises for attack-only
        scenarios (nothing benign to learn).
        """
        s = self.scenario
        if not s.benign:
            raise ValueError(
                f"scenario {s.name!r} has no benign loads to train on"
            )
        profiles = []
        weights: List[float] = []
        for load in s.benign:
            mixture = device_mixture(load.mix)
            share = max(load.curve.rate, 1e-9)
            for profile, weight in zip(mixture.profiles, mixture.weights):
                profiles.append(profile)
                weights.append(share * weight)
        from repro.datasets.profiles import ProfileMixture

        mixture = ProfileMixture(profiles, weights)
        train_seed = self.seed + 1 if seed is None else seed
        return mixture.generate_flows(n_flows, seed=train_seed, flow_arrival_rate=4.0)

    def preview(self, every_s: float = 5.0) -> Iterator[WindowSummary]:
        """Per-window offered-load summaries, one generation pass.

        Flow counts are distinct 5-tuples *within* each summary window
        (bounded memory; a flow spanning windows counts once per
        window).
        """
        if every_s <= 0:
            raise ValueError(f"every_s must be > 0, got {every_s}")
        bucket = 0
        n = n_bytes = n_attack = 0
        flows: set = set()
        any_packets = False
        for pkt in self.iter_packets():
            any_packets = True
            b = int(pkt.timestamp // every_s)
            if b > bucket and (n or flows):
                yield self._summary(bucket, every_s, n, n_bytes, n_attack, len(flows))
                n = n_bytes = n_attack = 0
                flows = set()
            if b > bucket:
                bucket = b
            n += 1
            n_bytes += pkt.size
            if pkt.malicious:
                n_attack += 1
            flows.add(pkt.five_tuple.canonical())
        if any_packets and n:
            yield self._summary(bucket, every_s, n, n_bytes, n_attack, len(flows))

    def _summary(
        self, bucket: int, every_s: float, n: int, n_bytes: int, n_attack: int,
        n_flows: int,
    ) -> WindowSummary:
        t0, t1 = bucket * every_s, (bucket + 1) * every_s
        active = tuple(
            c.family
            for c in self.scenario.campaigns
            if c.start_s < t1 and c.end_s > t0
        )
        return WindowSummary(
            t0=t0, t1=t1, n_packets=n, n_bytes=n_bytes,
            n_attack_packets=n_attack, n_flows=n_flows, active_campaigns=active,
        )
