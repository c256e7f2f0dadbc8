"""Flow-hash packet partitioning across shards.

A cluster run must be behaviourally indistinguishable from one big
switch, and the whole per-flow state machine (streaming accumulators,
flow-label registers, timeouts, blacklist verdicts) lives keyed by the
canonical 5-tuple.  The router therefore partitions by the *same*
direction-independent FNV-1a bi-hash the data plane uses for its
register indexing (:func:`repro.switch.hashing.bi_hash`), under a
dedicated salt so shard placement is decorrelated from slot placement
inside each shard's double hash table:

* every packet of a flow — both directions — lands on the same shard,
  so each shard observes complete flows and per-flow semantics are
  preserved exactly;
* the assignment is a pure function of the 5-tuple, so it is stable
  under packet reordering, replay restarts, and resume-from-checkpoint.

The vectorised path reuses :func:`repro.switch.batch.bi_hash_batch`
(bit-identical to the scalar hash, locked by the batch differential
suite) so routing a 100k-packet trace costs a few numpy passes, not a
Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.datasets.packet import FiveTuple, Packet
from repro.datasets.trace import Trace
from repro.switch.batch import bi_hash_batch, packet_tuples
from repro.switch.hashing import bi_hash

#: Router hash salt — distinct from the flow store's table salts (1, 2)
#: so shard assignment and in-shard slot placement are independent hash
#: streams of the same tuple.
ROUTER_SALT = 0xC1D


@dataclass(frozen=True)
class ShardPartition:
    """One routed batch: per-shard packet lists plus scatter indices.

    ``indices[k][i]`` is the position in the *original* packet sequence
    of shard *k*'s *i*-th packet, so per-shard results (decisions,
    verdict arrays) can be scattered back into global arrival order.
    Within each shard the original relative order — and therefore the
    timestamp order — is preserved.
    """

    shards: List[List[Packet]]
    indices: List[np.ndarray]
    assignments: np.ndarray  #: packet → shard id, in original order
    #: ``(n, 5)`` packet-direction tuples the routing was computed from.
    fields: np.ndarray

    @property
    def n_packets(self) -> int:
        return int(self.assignments.size)

    def shard_sizes(self) -> List[int]:
        return [len(s) for s in self.shards]


class FlowShardRouter:
    """Deterministic canonical-5-tuple hash partitioner.

    ``shard_of`` is the scalar reference; ``shard_indices`` is the
    vectorised equivalent over a packet sequence (bit-identical, via the
    batch engine's uint64 FNV-1a lanes).
    """

    def __init__(self, n_shards: int, salt: int = ROUTER_SALT) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.salt = salt
        #: Shards taken out of rotation by an ops ``drain`` verb.  Their
        #: flows spill deterministically onto the remaining shards (a
        #: second ``hash % n_active`` draw), so the assignment stays a
        #: pure function of ``(tuple, drained-set)`` — stable across
        #: chunks, restarts, and both transports.  Draining moves flows
        #: onto shards with no prior state for them; that is inherent to
        #: drain, not a routing defect.
        self.drained: set = set()

    def drain(self, shard: int) -> None:
        """Take *shard* out of rotation (future chunks re-route its flows)."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard must be in [0, {self.n_shards}), got {shard}")
        if len(self.drained | {shard}) >= self.n_shards:
            raise ValueError(
                f"cannot drain shard {shard}: it is the last active shard "
                "(the router must keep >= 1 shard in rotation); undrain "
                "another shard first"
            )
        self.drained.add(shard)

    def undrain(self, shard: int) -> None:
        """Return *shard* to rotation."""
        self.drained.discard(shard)

    def _active_shards(self) -> List[int]:
        return [k for k in range(self.n_shards) if k not in self.drained]

    def shard_of(self, five_tuple: FiveTuple) -> int:
        """Shard owning *five_tuple* — direction independent by
        construction (``bi_hash`` canonicalises internally)."""
        h = bi_hash(five_tuple, self.salt)
        shard = int(h % self.n_shards)
        if shard in self.drained:
            active = self._active_shards()
            shard = active[int(h % len(active))]
        return shard

    def shard_indices(self, packets: Sequence[Packet]) -> np.ndarray:
        """Vectorised shard id per packet."""
        return self.shard_indices_fields(packet_tuples(packets))

    def shard_indices_fields(self, flat: np.ndarray) -> np.ndarray:
        """Vectorised shard id per row of an ``(n, 5)`` raw 5-tuple array
        (packet direction, as :attr:`TraceColumns.tuples` stores it —
        canonicalisation happens here, exactly as in the scalar hash).

        This is the columnar twin of :meth:`shard_indices`: the shm
        serve path routes straight off the trace's tuple column without
        ever touching a :class:`Packet`.
        """
        n = int(flat.shape[0])
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self.n_shards == 1:
            return np.zeros(n, dtype=np.int64)
        src_ip, dst_ip = flat[:, 0], flat[:, 1]
        src_port, dst_port = flat[:, 2], flat[:, 3]
        # FiveTuple.canonical(): keep the direction whose (src_ip, src_port)
        # sorts lexicographically smaller (same rule as TraceArrays).
        swap = (src_ip > dst_ip) | ((src_ip == dst_ip) & (src_port > dst_port))
        fields = np.empty_like(flat)
        fields[:, 0] = np.where(swap, dst_ip, src_ip)
        fields[:, 1] = np.where(swap, src_ip, dst_ip)
        fields[:, 2] = np.where(swap, dst_port, src_port)
        fields[:, 3] = np.where(swap, src_port, dst_port)
        fields[:, 4] = flat[:, 4]
        h = bi_hash_batch(fields, self.salt)
        assignments = (h % np.uint64(self.n_shards)).astype(np.int64)
        if self.drained:
            active = np.asarray(self._active_shards(), dtype=np.int64)
            mask = np.isin(assignments, np.fromiter(self.drained, dtype=np.int64))
            if mask.any():
                assignments[mask] = active[
                    (h[mask] % np.uint64(active.size)).astype(np.int64)
                ]
        return assignments

    def partition(self, packets) -> ShardPartition:
        """Split *packets* (a :class:`Trace` or packet sequence) into one
        ordered sub-sequence per shard."""
        if isinstance(packets, Trace):
            packets = packets.packets
        fields = packet_tuples(packets)
        assignments = self.shard_indices_fields(fields)
        shards: List[List[Packet]] = []
        indices: List[np.ndarray] = []
        for k in range(self.n_shards):
            idx = np.flatnonzero(assignments == k)
            indices.append(idx)
            shards.append([packets[i] for i in idx])
        return ShardPartition(
            shards=shards, indices=indices, assignments=assignments, fields=fields
        )
