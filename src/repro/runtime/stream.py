"""Streaming ingestion: replay a trace chunk-by-chunk through one
pipeline.

The batch replay engine precomputes per call and mutates the pipeline's
own stateful objects (flow store, blacklist, counters), so driving it
with consecutive slices of a trace is *exactly* the same computation as
one call over the whole trace — flow state, timeouts (which are
packet-timestamp-driven), and verdict registers all carry across chunk
boundaries for free.  That identity is what makes chunking safe as a
serving loop: the control plane gets a natural between-chunks point to
observe statistics and hot-swap tables, at zero cost to decision
fidelity (asserted by the differential suite).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Union

import numpy as np

from repro.datasets.packet import Packet
from repro.datasets.trace import Trace
from repro.switch.pipeline import SwitchPipeline
from repro.switch.runner import ReplayResult, replay_trace

#: Anything the serve loop can ingest: a materialised trace, an object
#: exposing ``iter_chunks(chunk_size)`` (e.g. a scenario stream), or a
#: plain iterable of packets in timestamp order.
PacketSource = Union[Trace, Iterable[Packet]]


def chunk_ranges(n_packets: int, chunk_size: int) -> Iterator[tuple]:
    """Consecutive ``(start, stop)`` row ranges of fixed-size chunks.

    The index-space twin of :func:`iter_chunks`, used by the columnar
    serve path where chunks are array slices rather than packet lists.
    The last range holds the remainder; ``n_packets == 0`` yields
    nothing.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, n_packets, chunk_size):
        yield start, min(start + chunk_size, n_packets)


def iter_chunks(trace: Trace, chunk_size: int) -> Iterator[Trace]:
    """Split a trace into consecutive fixed-size packet chunks.

    The last chunk holds the remainder; an empty trace yields nothing.
    """
    packets = trace.packets
    for start, stop in chunk_ranges(len(packets), chunk_size):
        yield Trace.from_sorted(packets[start:stop])


def _source_packets(source: PacketSource, chunk_size: int) -> Iterator[Packet]:
    """Flatten a streaming source to its packet sequence.

    Sources exposing ``iter_chunks`` (scenario streams) are driven at
    the consumer's chunk size so their per-chunk telemetry fires at the
    serve cadence; anything else is treated as a packet iterable.
    """
    if hasattr(source, "iter_chunks"):
        for chunk in source.iter_chunks(chunk_size):
            yield from chunk.packets
    else:
        yield from source


def as_chunk_iter(
    source: PacketSource, chunk_size: int, skip_packets: int = 0
) -> Iterator[Trace]:
    """Normalise any packet source into fixed-size :class:`Trace` chunks.

    This is the single ingestion point of the serve path: a materialised
    :class:`Trace` is sliced (zero-copy of packet objects), and a
    streaming source — a scenario stream or any timestamp-ordered packet
    iterable — is buffered into *exact* ``chunk_size`` chunks.  Chunk
    boundaries therefore land at identical packet offsets on both paths,
    which is what makes streaming-vs-materialised replays bit-identical.
    Chunks adopt their packets as given, without re-sorting, so a plain
    packet iterable must already be in timestamp order.

    ``skip_packets`` drops that many leading packets first (checkpoint
    resume: boundaries are packet-count-aligned, so skipping a chunk
    multiple re-aligns the stream with the uninterrupted run).  Only the
    skipped prefix of a streaming source is regenerated and discarded —
    memory stays O(chunk).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if skip_packets < 0:
        raise ValueError(f"skip_packets must be >= 0, got {skip_packets}")
    if isinstance(source, Trace):
        packets = source.packets[skip_packets:] if skip_packets else source.packets
        for start, stop in chunk_ranges(len(packets), chunk_size):
            yield Trace.from_sorted(packets[start:stop])
        return
    packet_iter = _source_packets(source, chunk_size)
    if skip_packets:
        packet_iter = itertools.islice(packet_iter, skip_packets, None)
    buf: List[Packet] = []
    for pkt in packet_iter:
        buf.append(pkt)
        if len(buf) == chunk_size:
            yield Trace.from_sorted(buf)
            buf = []
    if buf:
        yield Trace.from_sorted(buf)


@dataclass(frozen=True)
class ChunkStats:
    """Distribution summary of one chunk, the drift monitor's input.

    ``malicious_rate`` is the *predicted* malicious fraction — the only
    label the deployed system can observe about itself — and
    ``path_fractions`` the per-chunk execution-path mix (from the
    pipeline's own ``switch.path.*`` counter deltas).
    """

    n_packets: int
    malicious_rate: float
    path_fractions: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of_chunk(
        cls, y_pred: np.ndarray, counter_deltas: Dict[str, int]
    ) -> "ChunkStats":
        """Stats of one served chunk from its verdicts and the chunk's
        counter deltas."""
        n = len(y_pred)
        if n == 0:
            return cls(n_packets=0, malicious_rate=0.0)
        return cls(
            n_packets=n,
            malicious_rate=float(np.mean(y_pred)),
            path_fractions={
                name.split("switch.path.", 1)[1]: count / n
                for name, count in counter_deltas.items()
                if name.startswith("switch.path.") and count > 0
            },
        )


@dataclass
class ChunkResult:
    """One served chunk: its replay outcome plus per-chunk counter deltas.

    ``replay`` is a :class:`~repro.switch.runner.ReplayResult` on the
    single service and the merged
    :class:`~repro.cluster.service.ClusterReplayResult` on the cluster,
    which also reports each shard's share in ``shard_sizes``.
    """

    index: int
    trace: Trace
    replay: ReplayResult
    counters: Dict[str, int]
    stats: ChunkStats
    shard_sizes: List[int] = field(default_factory=list)


class StreamDriver:
    """Feed a trace through *pipeline* as a stream of chunk replays.

    Each :meth:`run` iteration replays one chunk (batch engine by
    default) and yields a :class:`ChunkResult` carrying the decisions
    and the delta of every pipeline counter over that chunk.  The driver
    itself publishes nothing to the telemetry registry — the per-replay
    publication inside :func:`~repro.switch.runner.replay_trace` already
    telescopes to the one-shot totals, and keeping the driver pure is
    what lets the differential test demand exact counter equality.

    Between iterations the pipeline is untouched, which is the
    designated window for :meth:`SwitchPipeline.hot_swap`.

    ``faults`` (a :class:`repro.faults.FaultPlan`) hooks the chunk
    boundary: after each chunk's counter deltas are taken, the plan's
    chunk injectors and digest-channel clock edge run, so injected state
    damage lands in the inter-chunk window exactly where a hot swap
    would.  ``start_index`` offsets chunk indices for checkpoint resume
    — a resumed driver numbers its chunks as the uninterrupted run did,
    keeping every index-keyed schedule (cadence, ``at=`` faults)
    aligned.
    """

    def __init__(
        self,
        pipeline: SwitchPipeline,
        chunk_size: int = 2048,
        mode: str = "batch",
        faults=None,
        start_index: int = 0,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.pipeline = pipeline
        self.chunk_size = chunk_size
        self.mode = mode
        self.faults = faults
        self.start_index = start_index
        self.chunks_processed = 0
        self.packets_processed = 0

    def run(self, source: PacketSource, skip_packets: int = 0) -> Iterator[ChunkResult]:
        """Yield one :class:`ChunkResult` per chunk of *source*.

        *source* is anything :func:`as_chunk_iter` accepts — a
        materialised :class:`Trace` or a streaming packet source (e.g. a
        :class:`repro.scenarios.ScenarioStream`); memory stays bounded
        by the chunk size on the streaming path.  ``skip_packets``
        resumes mid-stream (see :func:`as_chunk_iter`).
        """
        for offset, chunk in enumerate(
            as_chunk_iter(source, self.chunk_size, skip_packets=skip_packets)
        ):
            index = self.start_index + offset
            before = self.pipeline.telemetry_counters()
            replay = replay_trace(chunk, self.pipeline, mode=self.mode)
            after = self.pipeline.telemetry_counters()
            deltas = {k: after[k] - before.get(k, 0) for k in after}
            if self.faults is not None:
                self.faults.on_chunk_end(self.pipeline, index)
            # Mitigation TTL tick: the chunk boundary is the control
            # plane's window, so idle-timeout expiry (and re-admission)
            # happens here, clocked by stream time — the last packet's
            # timestamp — never wall time.
            policy = getattr(self.pipeline.controller, "policy", None)
            if policy is not None:
                policy.tick(chunk.packets[-1].timestamp)
            self.chunks_processed += 1
            self.packets_processed += len(chunk)
            stats = ChunkStats.of_chunk(replay.y_pred, deltas)
            yield ChunkResult(
                index=index, trace=chunk, replay=replay, counters=deltas, stats=stats
            )
