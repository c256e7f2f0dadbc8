"""Trace container: a time-ordered sequence of packets.

A :class:`Trace` stands in for a PCAP file.  Generators emit per-flow
packet lists; traces merge them into arrival order, and the switch
simulator replays them packet by packet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence

from repro.datasets.packet import FiveTuple, Packet


@dataclass
class Trace:
    """A time-ordered packet sequence with convenience accessors."""

    packets: List[Packet] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.packets = sorted(self.packets, key=lambda p: p.timestamp)

    @classmethod
    def from_sorted(cls, packets: List[Packet]) -> "Trace":
        """Adopt *packets*, already in timestamp order, without re-sorting.

        For producers that emit packets in arrival order (stream chunks,
        slices of a trace, heap merges); the list is taken over, not
        copied, so the caller must not mutate it afterwards.
        """
        trace = cls.__new__(cls)
        trace.packets = packets
        return trace

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, idx):
        return self.packets[idx]

    @property
    def duration(self) -> float:
        """Time span between first and last packet (0 for empty traces)."""
        if not self.packets:
            return 0.0
        return self.packets[-1].timestamp - self.packets[0].timestamp

    @property
    def total_bytes(self) -> int:
        """Sum of packet sizes."""
        return sum(p.size for p in self.packets)

    def flows(self) -> Dict[FiveTuple, List[Packet]]:
        """Group packets by *directional* 5-tuple, preserving arrival order."""
        groups: Dict[FiveTuple, List[Packet]] = {}
        for pkt in self.packets:
            groups.setdefault(pkt.five_tuple, []).append(pkt)
        return groups

    def bidirectional_flows(self) -> Dict[FiveTuple, List[Packet]]:
        """Group packets by canonical (direction-independent) 5-tuple."""
        groups: Dict[FiveTuple, List[Packet]] = {}
        for pkt in self.packets:
            groups.setdefault(pkt.five_tuple.canonical(), []).append(pkt)
        return groups

    def malicious_fraction(self) -> float:
        """Fraction of packets carrying the ground-truth malicious bit."""
        if not self.packets:
            return 0.0
        return sum(p.malicious for p in self.packets) / len(self.packets)

    def shifted(self, offset: float) -> "Trace":
        """Copy of the trace with all timestamps moved by *offset*."""
        return Trace([p.with_timestamp(p.timestamp + offset) for p in self.packets])

    def sliced(self, start: float, end: float) -> "Trace":
        """Packets with ``start <= timestamp < end``."""
        return Trace([p for p in self.packets if start <= p.timestamp < end])


def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Interleave several traces into one, ordered by timestamp.

    Uses a k-way heap merge so large traces combine in O(n log k).
    """
    streams = [t.packets for t in traces if t.packets]
    return Trace.from_sorted(list(heapq.merge(*streams, key=lambda p: p.timestamp)))


def flows_to_trace(flows: Sequence[Sequence[Packet]]) -> Trace:
    """Flatten per-flow packet lists into a single time-ordered trace."""
    packets: List[Packet] = []
    for flow in flows:
        packets.extend(flow)
    return Trace(packets)
