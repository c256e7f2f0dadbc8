"""Vectorized batch replay engine for the data-plane simulator.

The scalar :meth:`~repro.switch.pipeline.SwitchPipeline.process` walk
pays several numpy round trips per packet (PL feature vector build,
quantisation, first-match rule scan), which caps replay at a few tens of
thousands of packets per second.  This module splits a trace replay into
the part that is a pure function of the packet — vectorisable over the
whole trace — and the part that is inherently sequential switch state:

* **Precomputed struct-of-arrays** — direction-canonical 5-tuples,
  per-unique-flow double-hash slot positions (FNV-1a over uint64
  lanes), the quantized PL feature matrix, and PL whitelist verdicts
  resolved by :class:`RangeIntervalMatcher`, a range-encoded interval
  lookup (``np.searchsorted`` over per-feature rule bounds — the
  software analogue of the per-field range tables that
  :mod:`repro.switch.range_encoding` prices for TCAM).
* **Sequential resolution** — storage collisions/evictions, the flow
  label registers, timeouts, digests, and blacklist effects are replayed
  in arrival order in one tight loop over the pre-grouped flow indices,
  mutating the *same* pipeline objects the scalar engine uses.

FL features cannot be precomputed: the accumulators reset on timeouts,
evictions and controller releases, which are only known during the
sequential pass, so classification-time (blue-path) packets compute
features from the live streaming state exactly as the scalar engine
does.  Those events are rare (once per flow), so the hot path stays
vectorised.

The engine is locked to the scalar pipeline by a differential test
suite (``tests/switch/test_batch_differential.py``): path labels,
actions, verdicts, digest streams, and every counter must be
bit-identical on seeded traces from each dataset profile.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.rules import QuantizedRuleSet
from repro.datasets.packet import FiveTuple
from repro.datasets.trace import Trace
from repro.switch.hashing import _FNV_OFFSET, _FNV_PRIME, Slot
from repro.switch.pipeline import (
    ACTION_DROP,
    ACTION_FORWARD,
    PATH_BLUE,
    PATH_BROWN,
    PATH_ORANGE,
    PATH_PURPLE,
    PATH_RED,
    Digest,
    PacketDecision,
    SwitchPipeline,
)
from repro.switch.runner import DecisionView, ReplayResult
from repro.switch.storage import FlowState, LABEL_BENIGN, LABEL_MALICIOUS, LABEL_UNDECIDED

#: Per-packet path codes in the struct-of-arrays outcome (green is not a
#: per-packet decision path; it only shows up in the mirror counters).
PATH_CODE_NAMES: Tuple[str, ...] = (PATH_RED, PATH_BROWN, PATH_BLUE, PATH_ORANGE, PATH_PURPLE)
CODE_RED, CODE_BROWN, CODE_BLUE, CODE_ORANGE, CODE_PURPLE = range(5)

_U64_LOW_BYTE = np.uint64(0xFF)
_U64_EIGHT = np.uint64(8)
_U64_ONE = np.uint64(1)

#: C-level extractor feeding :meth:`TraceArrays.from_trace`'s single pass.
_PACKET_FIELDS = operator.attrgetter(
    "five_tuple.src_ip",
    "five_tuple.dst_ip",
    "five_tuple.src_port",
    "five_tuple.dst_port",
    "five_tuple.protocol",
    "timestamp",
    "size",
    "ttl",
    "malicious",
)

#: Packet-direction 5-tuple extractor for :func:`packet_tuples`.
_TUPLE_FIELDS = operator.attrgetter(
    "five_tuple.src_ip",
    "five_tuple.dst_ip",
    "five_tuple.src_port",
    "five_tuple.dst_port",
    "five_tuple.protocol",
)

#: Full-fidelity extractor for :meth:`TraceColumns.from_packets` —
#: every Packet field, so the columnar form round-trips losslessly.
_COLUMN_FIELDS = operator.attrgetter(
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


@dataclass
class TraceColumns:
    """Lossless struct-of-arrays twin of a packet list.

    This is the zero-copy wire format of the cluster's shared-memory
    transport: six fixed-dtype columns that can live in one
    ``multiprocessing.shared_memory`` segment and be sliced by
    ``(offset, length)`` descriptors without touching a single
    :class:`~repro.datasets.packet.Packet` object.  Tuples keep the
    packet's *own* direction (canonicalisation happens downstream in
    :meth:`TraceArrays.from_columns`, exactly as it does for packets).
    """

    tuples: np.ndarray  #: (n, 5) int64 — src_ip, dst_ip, src_port, dst_port, protocol
    timestamps: np.ndarray  #: (n,) float64 arrival times
    sizes: np.ndarray  #: (n,) int64 frame sizes
    ttls: np.ndarray  #: (n,) int64
    tcp_flags: np.ndarray  #: (n,) int64
    malicious: np.ndarray  #: (n,) uint8 ground-truth bits

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    @classmethod
    def from_packets(cls, packets) -> "TraceColumns":
        """Columnise *packets* in one C-level extraction pass (every
        field is exactly representable in float64)."""
        n = len(packets)
        flat = np.fromiter(
            chain.from_iterable(map(_COLUMN_FIELDS, packets)),
            dtype=np.float64,
            count=10 * n,
        ).reshape(n, 10)
        return cls(
            tuples=flat[:, :5].astype(np.int64),
            timestamps=flat[:, 5].copy(),
            sizes=flat[:, 6].astype(np.int64),
            ttls=flat[:, 7].astype(np.int64),
            tcp_flags=flat[:, 8].astype(np.int64),
            malicious=flat[:, 9].astype(np.uint8),
        )

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceColumns":
        return cls.from_packets(trace.packets)

    def slice(self, start: int, stop: int) -> "TraceColumns":
        """Zero-copy view of rows ``[start, stop)``."""
        return TraceColumns(
            tuples=self.tuples[start:stop],
            timestamps=self.timestamps[start:stop],
            sizes=self.sizes[start:stop],
            ttls=self.ttls[start:stop],
            tcp_flags=self.tcp_flags[start:stop],
            malicious=self.malicious[start:stop],
        )

    def take(self, idx: np.ndarray) -> "TraceColumns":
        """Row-gathered copy (used to group each chunk's rows by shard)."""
        return TraceColumns(
            tuples=self.tuples[idx],
            timestamps=self.timestamps[idx],
            sizes=self.sizes[idx],
            ttls=self.ttls[idx],
            tcp_flags=self.tcp_flags[idx],
            malicious=self.malicious[idx],
        )

    def packet_at(self, i: int):
        """Materialise row *i* as a :class:`Packet` (lazy — only the rare
        digest-emitting packets of a columns replay ever need one)."""
        from repro.datasets.packet import Packet

        t = self.tuples[i]
        return Packet(
            five_tuple=FiveTuple(int(t[0]), int(t[1]), int(t[2]), int(t[3]), int(t[4])),
            timestamp=float(self.timestamps[i]),
            size=int(self.sizes[i]),
            ttl=int(self.ttls[i]),
            tcp_flags=int(self.tcp_flags[i]),
            malicious=bool(self.malicious[i]),
        )

    def to_packets(self) -> list:
        """Rebuild the full packet list (packets compare equal to the
        originals — the columnar form is lossless)."""
        return [self.packet_at(i) for i in range(len(self))]


def packet_tuples(packets) -> np.ndarray:
    """``(n, 5)`` int64 5-tuples of *packets* in their own direction
    (``as_tuple`` order), extracted in one C-level pass."""
    n = len(packets)
    return np.fromiter(
        chain.from_iterable(map(_TUPLE_FIELDS, packets)),
        dtype=np.int64,
        count=5 * n,
    ).reshape(n, 5)


def _group_flows(
    src_ip: np.ndarray,
    dst_ip: np.ndarray,
    src_port: np.ndarray,
    dst_port: np.ndarray,
    proto: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group packet-direction tuples by canonical flow.

    Returns ``(flow_idx, flow_fields)``: each packet's index into the
    ``(n_flows, 5)`` array of canonical tuples, which is ordered by
    tuple value (not by first appearance).
    """
    n = int(src_ip.shape[0])
    if not n:
        return np.empty(0, dtype=np.int64), np.empty((0, 5), dtype=np.int64)
    # FiveTuple.canonical(): keep the direction whose (src_ip, src_port)
    # is lexicographically smaller.
    swap = (src_ip > dst_ip) | ((src_ip == dst_ip) & (src_port > dst_port))
    c_src_ip = np.where(swap, dst_ip, src_ip)
    c_dst_ip = np.where(swap, src_ip, dst_ip)
    c_src_port = np.where(swap, dst_port, src_port)
    c_dst_port = np.where(swap, src_port, dst_port)
    # The canonical tuple packs losslessly into two uint64 sort keys
    # (32+32 and 16+16+8 bits), so a two-key lexsort replaces
    # np.unique's row-wise void sort.
    k1 = (c_src_ip.astype(np.uint64) << np.uint64(32)) | c_dst_ip.astype(np.uint64)
    k2 = (
        (c_src_port.astype(np.uint64) << np.uint64(24))
        | (c_dst_port.astype(np.uint64) << np.uint64(8))
        | proto.astype(np.uint64)
    )
    order = np.lexsort((k2, k1))
    sk1, sk2 = k1[order], k2[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (sk1[1:] != sk1[:-1]) | (sk2[1:] != sk2[:-1])
    flow_idx = np.empty(n, dtype=np.int64)
    flow_idx[order] = np.cumsum(first) - 1
    reps = order[first]
    flow_fields = np.stack(
        [
            c_src_ip[reps],
            c_dst_ip[reps],
            c_src_port[reps],
            c_dst_port[reps],
            proto[reps],
        ],
        axis=1,
    )
    return flow_idx, flow_fields


def canonical_flow_index(tuples: np.ndarray) -> np.ndarray:
    """Per-row canonical flow label of an ``(n, 5)`` packet-direction
    tuple array: rows share a label exactly when they belong to the same
    bidirectional flow — the grouping :class:`TraceArrays` replays by."""
    tuples = np.asarray(tuples, dtype=np.int64)
    return _group_flows(*(tuples[:, c] for c in range(5)))[0]


def bi_hash_batch(fields: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorised :func:`repro.switch.hashing.bi_hash` over many flows.

    *fields* is an ``(n, 5)`` array of **already canonical** 5-tuples in
    ``as_tuple`` order; returns one FNV-1a hash per row, bit-identical
    to the scalar function.
    """
    fields = np.ascontiguousarray(fields, dtype=np.uint64)
    seed = np.uint64(_FNV_OFFSET ^ (salt * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF))
    h = np.full(fields.shape[0], seed, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for col in range(fields.shape[1]):
        f = fields[:, col].copy()
        for _ in range(4):
            h ^= f & _U64_LOW_BYTE
            h *= prime  # uint64 arithmetic wraps mod 2^64, like the scalar mask
            f >>= _U64_EIGHT
    return h


class RangeIntervalMatcher:
    """Vectorised first-match lookup over a :class:`QuantizedRuleSet`.

    Mirrors the hardware layout behind
    :func:`~repro.switch.range_encoding.rule_tcam_entries`'s per-field
    mode: each feature gets its own range table whose hits form a
    per-rule bitmap.  The feature axis is pre-compiled into elementary
    intervals (between consecutive rule bounds), each carrying the
    bitmap of rules covering it; a lookup is one ``np.searchsorted`` per
    feature, an AND across features, and the lowest set bit — rule
    priority order — decides the verdict.
    """

    def __init__(self, ruleset: QuantizedRuleSet) -> None:
        self.default_label = ruleset.default_label
        rules = list(ruleset)
        self.n_rules = len(rules)
        self.labels = np.array([r.label for r in rules], dtype=np.int64)
        self.n_features = len(rules[0].lows) if rules else 0
        self.n_words = max(1, (self.n_rules + 63) // 64)
        self._starts: List[np.ndarray] = []
        self._masks: List[np.ndarray] = []
        if not rules:
            return
        lows = np.array([r.lows for r in rules], dtype=np.int64)
        highs = np.array([r.highs for r in rules], dtype=np.int64)
        for f in range(self.n_features):
            starts = np.unique(np.concatenate(([0], lows[:, f], highs[:, f] + 1)))
            masks = np.zeros((starts.size, self.n_words), dtype=np.uint64)
            for r in range(self.n_rules):
                i0 = int(np.searchsorted(starts, lows[r, f], side="left"))
                i1 = int(np.searchsorted(starts, highs[r, f] + 1, side="left"))
                masks[i0:i1, r >> 6] |= np.uint64(1) << np.uint64(r & 63)
            self._starts.append(starts)
            self._masks.append(masks)

    def first_match(self, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(labels, rule_indices)`` per row; index −1 where no rule hit."""
        q = np.atleast_2d(np.asarray(q, dtype=np.int64))
        n = q.shape[0]
        if self.n_rules == 0:
            return (
                np.full(n, self.default_label, dtype=np.int64),
                np.full(n, -1, dtype=np.int64),
            )
        if q.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature codes per row, got {q.shape[1]}"
            )
        hit: Optional[np.ndarray] = None
        for f in range(self.n_features):
            idx = np.searchsorted(self._starts[f], q[:, f], side="right") - 1
            # Codes are unsigned, but guard hand-fed negatives anyway.
            masks = self._masks[f][np.clip(idx, 0, None)]
            masks = np.where((idx >= 0)[:, None], masks, np.uint64(0))
            hit = masks if hit is None else hit & masks
        rule = np.full(n, -1, dtype=np.int64)
        unresolved = np.ones(n, dtype=bool)
        for w in range(self.n_words):
            word = hit[:, w]
            found = unresolved & (word != 0)
            if found.any():
                isolated = word[found] & (~word[found] + _U64_ONE)  # lowest set bit
                bitpos = np.log2(isolated.astype(np.float64)).astype(np.int64)
                rule[found] = 64 * w + bitpos
                unresolved[found] = False
            if not unresolved.any():
                break
        labels = np.where(
            rule >= 0, self.labels[np.clip(rule, 0, None)], self.default_label
        )
        return labels, rule

    def predict(self, q: np.ndarray) -> np.ndarray:
        """First-match label per row — same contract as
        :meth:`QuantizedRuleSet.predict`."""
        return self.first_match(q)[0]


@dataclass
class TraceArrays:
    """Struct-of-arrays view of a trace plus pre-grouped flow indices."""

    timestamps: np.ndarray  #: float64 arrival times
    sizes: np.ndarray  #: int64 frame sizes
    malicious: np.ndarray  #: int ground-truth bits
    pl_matrix: np.ndarray  #: (n, 4) raw PL features in PACKET_FEATURES order
    flow_idx: np.ndarray  #: packet → index into :attr:`flow_tuples`
    flow_tuples: List[FiveTuple]  #: canonical 5-tuple per unique flow
    flow_fields: np.ndarray  #: (n_flows, 5) canonical tuples, ``as_tuple`` order

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceArrays":
        pkts = trace.packets
        n = len(pkts)
        # One pass over the packets via a C-level attrgetter chain; every
        # field (32-bit IPs, ports, sizes, TTLs, bool labels) is exactly
        # representable in float64.
        flat = np.fromiter(
            chain.from_iterable(map(_PACKET_FIELDS, pkts)),
            dtype=np.float64,
            count=9 * n,
        ).reshape(n, 9)
        # PL features use the packet's own direction (packet_feature_vector):
        # dst_port, protocol, length, ttl — already float64 columns of flat.
        pl_matrix = np.ascontiguousarray(flat[:, [3, 4, 6, 7]])
        return cls._from_fields(
            src_ip=flat[:, 0].astype(np.int64),
            dst_ip=flat[:, 1].astype(np.int64),
            src_port=flat[:, 2].astype(np.int64),
            dst_port=flat[:, 3].astype(np.int64),
            proto=flat[:, 4].astype(np.int64),
            timestamps=flat[:, 5].copy(),
            sizes=flat[:, 6].astype(np.int64),
            malicious=flat[:, 8].astype(np.int64),
            pl_matrix=pl_matrix,
        )

    @classmethod
    def from_columns(cls, cols: "TraceColumns") -> "TraceArrays":
        """Build the replay view straight from columnar packet data —
        no :class:`Packet` objects anywhere on the path.  Produces
        bit-identical arrays to :meth:`from_trace` of the equivalent
        packet list (same float64 feature matrix, same flow grouping)."""
        n = len(cols)
        pl_matrix = np.empty((n, 4), dtype=np.float64)
        pl_matrix[:, 0] = cols.tuples[:, 3]  # dst_port
        pl_matrix[:, 1] = cols.tuples[:, 4]  # protocol
        pl_matrix[:, 2] = cols.sizes  # length
        pl_matrix[:, 3] = cols.ttls  # ttl
        return cls._from_fields(
            src_ip=np.ascontiguousarray(cols.tuples[:, 0]),
            dst_ip=np.ascontiguousarray(cols.tuples[:, 1]),
            src_port=np.ascontiguousarray(cols.tuples[:, 2]),
            dst_port=np.ascontiguousarray(cols.tuples[:, 3]),
            proto=np.ascontiguousarray(cols.tuples[:, 4]),
            timestamps=cols.timestamps.astype(np.float64, copy=False),
            sizes=cols.sizes.astype(np.int64, copy=False),
            malicious=cols.malicious.astype(np.int64),
            pl_matrix=pl_matrix,
        )

    @classmethod
    def _from_fields(
        cls,
        src_ip: np.ndarray,
        dst_ip: np.ndarray,
        src_port: np.ndarray,
        dst_port: np.ndarray,
        proto: np.ndarray,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        malicious: np.ndarray,
        pl_matrix: np.ndarray,
    ) -> "TraceArrays":
        flow_idx, flow_fields = _group_flows(src_ip, dst_ip, src_port, dst_port, proto)
        flow_tuples = [
            FiveTuple(int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]))
            for r in flow_fields
        ]
        return cls(
            timestamps=timestamps,
            sizes=sizes,
            malicious=malicious,
            pl_matrix=pl_matrix,
            flow_idx=flow_idx,
            flow_tuples=flow_tuples,
            flow_fields=flow_fields,
        )


@dataclass
class BatchReplayOutcome:
    """Raw struct-of-arrays replay outcome (no per-packet objects)."""

    path_codes: np.ndarray  #: int8, indexes :data:`PATH_CODE_NAMES`
    y_true: np.ndarray
    y_pred: np.ndarray
    digests: Dict[int, Digest]  #: packet index → emitted digest
    rate_limited: np.ndarray = None  #: bool, packets shed by the RATE_LIMIT rung
    flow_idx: np.ndarray = None  #: packet → canonical flow (TraceArrays.flow_idx)

    @property
    def n_packets(self) -> int:
        return int(self.path_codes.shape[0])

    def path_counts(self) -> Dict[str, int]:
        counts = np.bincount(self.path_codes, minlength=len(PATH_CODE_NAMES))
        return {
            name: int(c) for name, c in zip(PATH_CODE_NAMES, counts) if c
        }


def _precompute_pl_labels(
    pipeline: SwitchPipeline, pl_matrix: np.ndarray
) -> Optional[List[int]]:
    """PL whitelist verdict per packet, or None when no PL table."""
    if pipeline.pl_table is None or pipeline.pl_quantizer is None:
        return None
    q = pipeline.pl_quantizer.quantize(pl_matrix)
    # Compiled once per table generation and cached on the table.
    return pipeline.pl_table.matcher.predict(q).tolist()


def replay_arrays(trace: Trace, pipeline: SwitchPipeline) -> BatchReplayOutcome:
    """Batch-replay *trace* through *pipeline*, returning the SoA outcome.

    Mutates the pipeline's tables, storage, counters, and attached
    controller exactly as the scalar walk would.
    """
    _check_batchable(pipeline)
    if not trace.packets:
        return _empty_outcome()
    return _replay_sequential(
        TraceArrays.from_trace(trace), pipeline, trace.packets.__getitem__
    )


def replay_columns(cols: TraceColumns, pipeline: SwitchPipeline) -> BatchReplayOutcome:
    """Batch-replay columnar packet data — the cluster's shared-memory
    serve path.  Identical pipeline mutations and outcome to
    :func:`replay_arrays` over the equivalent packet list, but no
    :class:`Packet` objects are built except for the rare blue-path
    packets that emit a digest.
    """
    _check_batchable(pipeline)
    if not len(cols):
        return _empty_outcome()
    return _replay_sequential(TraceArrays.from_columns(cols), pipeline, cols.packet_at)


def _check_batchable(pipeline: SwitchPipeline) -> None:
    if type(pipeline).process is not SwitchPipeline.process:
        raise TypeError(
            "batch replay reproduces SwitchPipeline.process exactly; "
            f"{type(pipeline).__name__} overrides the packet walk — replay it "
            "with the scalar engine"
        )


def _empty_outcome() -> BatchReplayOutcome:
    return BatchReplayOutcome(
        path_codes=np.empty(0, dtype=np.int8),
        y_true=np.empty(0, dtype=int),
        y_pred=np.empty(0, dtype=int),
        digests={},
        rate_limited=np.empty(0, dtype=bool),
        flow_idx=np.empty(0, dtype=np.int64),
    )


def _replay_sequential(
    arrays: TraceArrays, pipeline: SwitchPipeline, packet_at
) -> BatchReplayOutcome:
    """The sequential state loop shared by the packet-list and columnar
    entry points; *packet_at* materialises packet *i* on demand (only
    digest-emitting packets ever call it on the columnar path)."""
    n = int(arrays.timestamps.shape[0])
    table = pipeline.store.table
    salt_a, salt_b = table.salts
    size = np.uint64(table.size)
    pos0 = (bi_hash_batch(arrays.flow_fields, salt_a) % size).astype(np.int64).tolist()
    pos1 = (bi_hash_batch(arrays.flow_fields, salt_b) % size).astype(np.int64).tolist()
    pl_labels = _precompute_pl_labels(pipeline, arrays.pl_matrix)

    # Locals for the sequential loop.
    flow_idx = arrays.flow_idx.tolist()
    flow_tuples = arrays.flow_tuples
    ts = arrays.timestamps.tolist()
    sizes = arrays.sizes.tolist()
    cfg = pipeline.config
    n_threshold = cfg.pkt_count_threshold
    timeout = cfg.timeout
    overflow_fail_open = cfg.overflow_policy == "fail_open"
    overflow_fail_closed = cfg.overflow_policy == "fail_closed"
    drop_on = cfg.drop_on_malicious
    degraded = 0
    blacklist = pipeline.blacklist
    bl_entries = blacklist._entries
    bl_lru = blacklist.eviction == "lru"
    bl_track = blacklist.track_hits
    bl_last_hit = blacklist.last_hit
    # Per-flow blacklist membership cache, valid while the table's
    # version is unchanged — skips a FiveTuple hash per packet.
    n_flows = len(flow_tuples)
    flow_bl_ver = [-1] * n_flows
    flow_bl_hit = [False] * n_flows
    t0, t1 = table._tables
    pl_table = pipeline.pl_table
    match_fl = pipeline._match_fl
    emit_digest = pipeline._emit_digest
    mirror = pipeline._mirror_loopback
    path_counts = pipeline.path_counts

    # Python lists: element writes are cheaper than numpy setitem in the
    # per-packet loop; converted to arrays once at the end.
    path_codes = [0] * n
    preds = [0] * n
    digests: Dict[int, Digest] = {}
    rate_limited = [False] * n

    # Rate-limit shed (the mitigation engine's RATE_LIMIT rung): mirrors
    # the scalar wrapper in SwitchPipeline.process — consulted only for
    # non-red packets the walk chose to forward.  Callers guard on
    # `rl_entries` being non-empty, so the bare pipeline pays one dict
    # truthiness check per packet.
    limiter = pipeline.rate_limiter
    rl_entries = limiter._entries if limiter is not None else None
    rl_keep = limiter.keep_one_in if limiter is not None else 0

    def _rl_shed(i, ft, t):
        # Inline RateLimitTable.should_drop.
        ent = rl_entries.get(ft)
        if ent is None:
            return
        ent[0] += 1
        ent[1] = t
        if (ent[0] - 1) % rl_keep:
            limiter.dropped += 1
            rate_limited[i] = True
        else:
            limiter.forwarded += 1

    for i in range(n):
        fi = flow_idx[i]
        ft = flow_tuples[fi]

        # Red: blacklist match (ft is already canonical).
        v = blacklist.version
        if flow_bl_ver[fi] == v:
            bl_hit = flow_bl_hit[fi]
        else:
            bl_hit = ft in bl_entries
            flow_bl_ver[fi] = v
            flow_bl_hit[fi] = bl_hit
        if bl_hit:
            if bl_lru:
                bl_entries.move_to_end(ft)
            if bl_track:
                bl_last_hit[ft] = ts[i]
            path_counts[PATH_RED] += 1
            path_codes[i] = CODE_RED
            preds[i] = 1
            continue

        # Storage lookup / insert with precomputed slot positions.
        p0 = pos0[fi]
        slot = t0[p0]
        if slot is not None and (slot.flow_id is ft or slot.flow_id == ft):
            state = slot.state
        else:
            slot1 = t1[pos1[fi]]
            if slot1 is not None and (slot1.flow_id is ft or slot1.flow_id == ft):
                state = slot1.state
            elif slot is None:
                state = FlowState()
                t0[p0] = Slot(flow_id=ft, state=state)
            elif slot1 is None:
                state = FlowState()
                t1[pos1[fi]] = Slot(flow_id=ft, state=state)
            else:
                # Orange: both candidate slots held by other flows.
                table.collision_count += 1
                path_counts[PATH_ORANGE] += 1
                if slot.state.label != LABEL_UNDECIDED:
                    fresh = FlowState()
                    t0[p0] = Slot(flow_id=ft, state=fresh)
                    table.eviction_count += 1
                    fresh.stats.update_raw(ts[i], sizes[i])
                    mirror()
                    if pl_labels is None:
                        label = LABEL_BENIGN
                    else:
                        label = pl_labels[i]
                        pl_table.lookup_count += 1
                elif overflow_fail_open:
                    # Untracked overflow under a degradation policy — the
                    # scalar walk's overflow_policy branch, vectorised.
                    degraded += 1
                    label = LABEL_BENIGN
                elif overflow_fail_closed:
                    degraded += 1
                    label = LABEL_MALICIOUS
                elif pl_labels is None:
                    label = LABEL_BENIGN
                else:
                    label = pl_labels[i]
                    pl_table.lookup_count += 1
                path_codes[i] = CODE_ORANGE
                pred = 1 if label == LABEL_MALICIOUS else 0
                preds[i] = pred
                if rl_entries and not (drop_on and pred):
                    _rl_shed(i, ft, ts[i])
                continue

        # Purple: flow already classified.
        label = state.label
        if label != LABEL_UNDECIDED:
            path_counts[PATH_PURPLE] += 1
            path_codes[i] = CODE_PURPLE
            pred = 1 if label == LABEL_MALICIOUS else 0
            preds[i] = pred
            if rl_entries and not (drop_on and pred):
                _rl_shed(i, ft, ts[i])
            continue

        stats = state.stats
        t = ts[i]
        last = stats.last_time
        if stats.sizes.count > 0 and last is not None and t - last > timeout:
            # Blue (timeout): classify on what accumulated, re-seed with
            # the late packet, which itself gets the PL verdict.
            path_counts[PATH_BLUE] += 1
            fl_label = match_fl(state)
            state.label = fl_label
            digest = emit_digest(packet_at(i), fl_label)
            mirror()
            if pl_labels is None:
                label = LABEL_BENIGN
            else:
                label = pl_labels[i]
                pl_table.lookup_count += 1
            stats.reset()
            stats.update_raw(t, sizes[i])
            digests[i] = digest
            path_codes[i] = CODE_BLUE
            pred = 1 if label == LABEL_MALICIOUS else 0
            preds[i] = pred
            if rl_entries and not (drop_on and pred):
                _rl_shed(i, ft, t)
            continue

        stats.update_raw(t, sizes[i])

        if stats.sizes.count >= n_threshold:
            # Blue (n-th packet): classify on FL features.
            path_counts[PATH_BLUE] += 1
            fl_label = match_fl(state)
            state.label = fl_label
            digest = emit_digest(packet_at(i), fl_label)
            mirror()
            digests[i] = digest
            path_codes[i] = CODE_BLUE
            pred = 1 if fl_label == LABEL_MALICIOUS else 0
            preds[i] = pred
            if rl_entries and not (drop_on and pred):
                _rl_shed(i, ft, t)
            continue

        # Brown: early packet, PL verdict only.
        path_counts[PATH_BROWN] += 1
        if pl_labels is None:
            label = LABEL_BENIGN
        else:
            label = pl_labels[i]
            pl_table.lookup_count += 1
        path_codes[i] = CODE_BROWN
        pred = 1 if label == LABEL_MALICIOUS else 0
        preds[i] = pred
        if rl_entries and not (drop_on and pred):
            _rl_shed(i, ft, t)

    if degraded:
        pipeline.degraded_packets += degraded

    codes_arr = np.array(path_codes, dtype=np.int8)
    preds_arr = np.array(preds, dtype=int)
    rl_arr = np.array(rate_limited, dtype=bool)
    outcome = BatchReplayOutcome(
        path_codes=codes_arr,
        y_true=arrays.malicious.astype(int),
        y_pred=preds_arr,
        digests=digests,
        rate_limited=rl_arr,
        flow_idx=arrays.flow_idx,
    )
    # Efficacy metering against ground truth (mitigation engine only):
    # leaked = attack packets that went out; collateral = benign packets
    # shed by mitigation itself (red path + rate-limit), which feeds the
    # engine's benign-drop guard.  The scalar path does the same sums in
    # repro.switch.runner.
    controller = pipeline.controller
    engine = getattr(controller, "policy", None)
    if engine is not None:
        mitigated = (codes_arr == CODE_RED) | rl_arr
        dropped = mitigated | (preds_arr != 0) if drop_on else mitigated
        attack = arrays.malicious != 0
        engine.account(
            attack_leaked=int(np.count_nonzero(attack & ~dropped)),
            benign_dropped=int(np.count_nonzero(~attack & mitigated)),
            attack_dropped=int(np.count_nonzero(attack & mitigated)),
        )
    return outcome


class DecisionColumns(DecisionView):
    """Lazy per-packet decisions over one batch replay's outcome columns.

    Holds the chunk's packets plus the path codes, verdicts, drop mask,
    rate-limit flags and digests; a :class:`PacketDecision` is built only
    when one is read.  Reads equal the eager decisions field for field.
    """

    __slots__ = ("_packets", "_codes", "_preds", "_drop", "_rate_limited", "_digests")

    def __init__(
        self,
        packets,
        codes: np.ndarray,
        preds: np.ndarray,
        drop: np.ndarray,
        rate_limited: np.ndarray,
        digests: Dict[int, Digest],
    ) -> None:
        self._packets = packets
        self._codes = codes
        self._preds = preds
        self._drop = drop
        self._rate_limited = rate_limited
        self._digests = digests

    def __len__(self) -> int:
        return int(self._codes.shape[0])

    def _at(self, i: int) -> PacketDecision:
        code = int(self._codes[i])
        return PacketDecision(
            self._packets[i],
            PATH_CODE_NAMES[code],
            ACTION_DROP if self._drop[i] else ACTION_FORWARD,
            int(self._preds[i]),
            self._digests.get(i),
            code == CODE_BLUE,
            bool(self._rate_limited[i]),
        )

    def __iter__(self):
        # Whole-view reads go column-wise: one C-level map over the
        # PacketDecision constructor instead of per-index conversions.
        n = len(self)
        digest_col: List[Optional[Digest]] = [None] * n
        for i, digest in self._digests.items():
            digest_col[i] = digest
        return map(
            PacketDecision,
            self._packets,
            map(PATH_CODE_NAMES.__getitem__, self._codes.tolist()),
            map(
                (ACTION_FORWARD, ACTION_DROP).__getitem__,
                self._drop.view(np.int8).tolist(),
            ),
            self._preds.tolist(),
            digest_col,
            (self._codes == CODE_BLUE).tolist(),
            self._rate_limited.tolist(),
        )


def replay_trace_batch(trace: Trace, pipeline: SwitchPipeline) -> ReplayResult:
    """Drop-in replacement for scalar replay: same :class:`ReplayResult`
    and decisions, which stay columns until read (:class:`DecisionColumns`)."""
    outcome = replay_arrays(trace, pipeline)
    codes = outcome.path_codes
    n = int(codes.shape[0])
    # Red always drops; any other malicious verdict drops only on the
    # inline deployment; rate-limited packets were shed by the
    # mitigation engine after a forward verdict.
    drop_mask = (codes == CODE_RED) | outcome.rate_limited
    if pipeline.config.drop_on_malicious:
        drop_mask = drop_mask | (outcome.y_pred != 0)
    decisions = DecisionColumns(
        trace.packets,
        codes,
        outcome.y_pred,
        drop_mask,
        outcome.rate_limited,
        outcome.digests,
    )
    result = ReplayResult(
        decisions=decisions,
        y_true=outcome.y_true,
        y_pred=outcome.y_pred,
        flow_idx=outcome.flow_idx,
    )
    # Seed the result's aggregate caches from the vectorised outcome so
    # path_counts()/dropped_fraction() never re-walk the decisions.
    result._path_counts = outcome.path_counts()
    result._dropped_fraction = float(drop_mask.mean()) if n else 0.0
    return result
