"""Match-action tables: exact-match blacklist and TCAM whitelist.

The blacklist is an exact-match (SRAM) table on the 5-tuple, populated
by the controller from digests; the whitelist is a TCAM range table
holding the compiled rules in quantised integer space.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.core.rules import QuantizedRuleSet
from repro.datasets.packet import FiveTuple
from repro.switch.range_encoding import ruleset_tcam_entries


class BlacklistTable:
    """Exact-match table keyed on the canonical 5-tuple.

    Capacity-bounded with FIFO or LRU eviction (§3.3.2: "the controller
    can also delete old rules from the blacklist table based on FIFO or
    LRU").
    """

    def __init__(self, capacity: int = 4096, eviction: str = "fifo") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if eviction not in ("fifo", "lru"):
            raise ValueError(f"eviction must be 'fifo' or 'lru', got {eviction!r}")
        self.capacity = capacity
        self.eviction = eviction
        self._entries: "OrderedDict[FiveTuple, bool]" = OrderedDict()
        self.installs = 0
        self.evictions = 0
        #: Bumped whenever membership changes (install/evict/remove), so
        #: replay engines can cache per-flow membership between changes.
        self.version = 0
        #: Idle-TTL support for the mitigation engine: when enabled, every
        #: match records the packet timestamp so the control plane can tell
        #: an entry still absorbing traffic from one whose flow went away.
        #: Off by default — the bare table costs nothing extra.
        self.track_hits = False
        self.last_hit: "OrderedDict[FiveTuple, float]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, five_tuple: FiveTuple) -> None:
        """Add a blacklist rule, evicting the oldest entry when full."""
        key = five_tuple.canonical()
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.last_hit.pop(evicted, None)
            self.evictions += 1
        self._entries[key] = True
        self.installs += 1
        self.version += 1

    def matches(self, five_tuple: FiveTuple, ts: Optional[float] = None) -> bool:
        """True when the packet's flow is blacklisted (red path)."""
        key = five_tuple.canonical()
        hit = key in self._entries
        if hit:
            if self.eviction == "lru":
                self._entries.move_to_end(key)
            if self.track_hits and ts is not None:
                self.last_hit[key] = ts
        return hit

    def remove(self, five_tuple: FiveTuple) -> bool:
        key = five_tuple.canonical()
        hit = self._entries.pop(key, None) is not None
        self.last_hit.pop(key, None)
        if hit:
            self.version += 1
        return hit

    def sram_bytes(self) -> int:
        """SRAM cost: 13 B key + 1 B action per installed entry, sized at
        capacity (the table is pre-allocated on the ASIC)."""
        return self.capacity * 14


class RateLimitTable:
    """Exact-match keep-one-in-N throttle, the RATE_LIMIT rung's table.

    Each entry holds a per-flow packet counter; :meth:`should_drop`
    forwards the first packet of every ``keep_one_in`` and drops the
    rest — a deterministic stand-in for a token bucket, chosen so the
    scalar walk and the batch replay engine agree bit-for-bit.  Entries
    are installed/removed by the mitigation engine
    (:mod:`repro.mitigation.engine`); the pipeline only consults them.
    """

    def __init__(self, keep_one_in: int = 8) -> None:
        if keep_one_in < 2:
            raise ValueError(f"keep_one_in must be >= 2, got {keep_one_in}")
        self.keep_one_in = keep_one_in
        # key (canonical 5-tuple) -> [packets_seen, last_seen_ts]
        self._entries: "OrderedDict[FiveTuple, list]" = OrderedDict()
        self.installs = 0
        self.forwarded = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, five_tuple: FiveTuple, ts: Optional[float] = None) -> None:
        """Start (or refresh) limiting a flow; the counter survives a
        refresh so repeat installs don't reset the pass phase."""
        key = five_tuple.canonical()
        if key not in self._entries:
            self._entries[key] = [0, ts]
            self.installs += 1
        elif ts is not None:
            self._entries[key][1] = ts

    def remove(self, five_tuple: FiveTuple) -> bool:
        return self._entries.pop(five_tuple.canonical(), None) is not None

    def last_seen(self, five_tuple: FiveTuple) -> Optional[float]:
        entry = self._entries.get(five_tuple.canonical())
        return None if entry is None else entry[1]

    def should_drop(self, key: FiveTuple, ts: float) -> bool:
        """Count one packet of *key* (must already be canonical) against
        its limiter; True when this packet is shed."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry[0] += 1
        entry[1] = ts
        if (entry[0] - 1) % self.keep_one_in == 0:
            self.forwarded += 1
            return False
        self.dropped += 1
        return True

    def state_obj(self) -> list:
        """Entries in insertion order, for checkpointing."""
        return [
            [list(ft.as_tuple()), int(count), last]
            for ft, (count, last) in self._entries.items()
        ]

    def load_state(self, obj: list) -> None:
        self._entries.clear()
        for key, count, last in obj:
            ft = FiveTuple(*(int(v) for v in key))
            self._entries[ft] = [int(count), None if last is None else float(last)]


class WhitelistTable:
    """TCAM range table over quantised features with first-match lookup.

    One table object per installed generation: staging, swapping and
    rolling back all build a fresh table, so anything compiled from the
    rules can be cached on the table and lives exactly as long as it.
    """

    def __init__(self, ruleset: QuantizedRuleSet) -> None:
        self._ruleset = ruleset
        self._matcher = None
        self.lookup_count = 0

    @property
    def ruleset(self) -> QuantizedRuleSet:
        return self._ruleset

    @property
    def matcher(self):
        """The batch engine's :class:`~repro.switch.batch.RangeIntervalMatcher`
        over this table's rules, compiled on first use and then reused by
        every replay of this generation."""
        if self._matcher is None:
            from repro.switch.batch import RangeIntervalMatcher

            self._matcher = RangeIntervalMatcher(self._ruleset)
        return self._matcher

    def __len__(self) -> int:
        return len(self.ruleset)

    def lookup(self, q_features: np.ndarray) -> Tuple[int, Optional[int]]:
        """(label, matched rule index or None) for one feature vector."""
        self.lookup_count += 1
        return self.ruleset.match_one(q_features)

    def predict(self, q_features: np.ndarray) -> np.ndarray:
        """Vectorised first-match labels (evaluation convenience)."""
        return self.ruleset.predict(q_features)

    def tcam_entries(self) -> int:
        """TCAM entries after range-to-prefix expansion."""
        return ruleset_tcam_entries(self.ruleset)
