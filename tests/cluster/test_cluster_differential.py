"""Differential lock: the sharded cluster vs one big switch.

The cluster's core claim is behavioural transparency — routing by
canonical flow hash and replaying per shard must be **bit-identical** to
replaying the same trace through a single pipeline, because every
per-flow state machine sees exactly the packets it would have seen
anyway.  The one legitimate divergence channel is *cross-flow* coupling
inside the flow store (hash collisions / forced evictions), so the
suite pins the workload to a collision-free regime and asserts that
precondition explicitly; collision-coupled scenarios are covered by the
golden traces of the single-pipeline suite, not replicated here.

Locked at ``n_shards`` ∈ {1, 4} (in-process executor) over decisions,
verdict arrays, and every published telemetry counter; the multiprocess
executor is locked on verdicts + counters (decision objects deliberately
do not cross the process boundary).

``TestExecutorMatrix`` then runs the full transport matrix —
{in-process, multiprocess-pipe, multiprocess-shm} × {replay, chunked
serve} — against the same single-pipeline baseline, and
``TestFaultMatrixDifferential`` locks the three transports against
*each other* under an active digest reorder/delay + store-pressure
``FaultPlan`` (per-shard plans are pure functions of ``(spec,
shard_id)``, so the transport must not be able to change what the
faults do — nor whether their ``faults.*`` counters reach the registry).
"""

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.runtime import RuntimeConfig
from repro.switch.runner import replay_trace
from repro.telemetry import MetricRegistry, use_registry
from tests.faults.common import compile_artifacts, fresh_pipeline, make_split

#: Slots sized so the workload is collision/eviction-free — the
#: precondition under which shard-transparency is exact (asserted below).
N_SLOTS = 4096

#: Every shard transport the cluster can run on.
EXECUTORS = ("inprocess", "multiprocess", "shm")


@pytest.fixture(scope="module")
def split():
    return make_split(seed=23, n_benign_flows=80)


@pytest.fixture(scope="module")
def artifacts(split):
    return compile_artifacts(split.train_flows)


@pytest.fixture(scope="module")
def baseline(split, artifacts):
    """Single-pipeline replay: the reference the cluster must match."""
    pipeline = fresh_pipeline(artifacts, n_slots=N_SLOTS)
    registry = MetricRegistry()
    with use_registry(registry):
        result = replay_trace(split.stream_trace, pipeline, mode="batch")
    counters = registry.counters_dict()
    # Precondition: no cross-flow couplings, else sharding legitimately
    # diverges and this suite's equalities don't apply.
    assert counters.get("switch.store.collisions", 0) == 0
    assert counters.get("switch.store.forced_evictions", 0) == 0
    return result, counters, registry.gauges_dict()


def cluster_replay(split, artifacts, n_shards, executor="inprocess"):
    registry = MetricRegistry()
    with ClusterService(
        fresh_pipeline(artifacts, n_slots=N_SLOTS),
        n_shards=n_shards,
        config=RuntimeConfig(drift_threshold=0.0),
        executor=executor,
    ) as cluster:
        with use_registry(registry):
            merged = cluster.replay(split.stream_trace)
    return merged, registry


def cluster_serve(split, artifacts, executor, faults_spec=None, chunk_size=700):
    """Chunked serve through ``executor``; drift/cadence retraining off
    so the verdict stream is a pure function of the transport."""
    registry = MetricRegistry()
    with ClusterService(
        fresh_pipeline(artifacts, n_slots=N_SLOTS),
        n_shards=4,
        config=RuntimeConfig(chunk_size=chunk_size, drift_threshold=0.0),
        executor=executor,
        faults_spec=faults_spec,
    ) as cluster:
        with use_registry(registry):
            report = cluster.serve(split.stream_trace)
    return report, registry


def split_counters(registry):
    """(aggregated, shard-tagged) counters from a cluster registry."""
    plain, tagged = {}, {}
    for name, value in registry.counters_dict().items():
        (tagged if name.startswith("cluster.") else plain)[name] = value
    return plain, tagged


def assert_same_totals(base_counters, plain):
    for name in set(base_counters) | set(plain):
        assert plain.get(name, 0) == base_counters.get(name, 0), name


class TestInProcessBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_verdicts_decisions_and_counters(
        self, split, artifacts, baseline, n_shards
    ):
        base, base_counters, base_gauges = baseline
        merged, registry = cluster_replay(split, artifacts, n_shards)

        np.testing.assert_array_equal(merged.y_true, base.y_true)
        np.testing.assert_array_equal(merged.y_pred, base.y_pred)

        assert len(merged.decisions) == len(base.decisions) == len(split.stream_trace)
        for i, (a, b) in enumerate(zip(merged.decisions, base.decisions)):
            assert a.path == b.path, f"packet {i}: path {a.path} != {b.path}"
            assert a.action == b.action, f"packet {i}: action"
            assert a.predicted_malicious == b.predicted_malicious, f"packet {i}"
            assert a.digest == b.digest, f"packet {i}: digest"
            assert a.packet is b.packet  # routing must not copy packets

        # Aggregated counter totals telescope to the single-switch ones;
        # the only extra metric names are the shard-tagged copies.
        plain, tagged = split_counters(registry)
        assert_same_totals(base_counters, plain)
        assert tagged or n_shards == 1  # 1-shard runs still tag shard 0
        assert all(t.startswith("cluster.shard.") for t in tagged)

        # Shard-tagged copies sum back to the aggregate, counter by counter.
        summed = {}
        for name, value in tagged.items():
            stripped = name.split(".", 3)[3]
            summed[stripped] = summed.get(stripped, 0) + value
        for name, value in summed.items():
            assert value == plain.get(name, 0), name

        # Merged counter deltas are the same totals (fresh pipelines).
        for name, value in merged.counters.items():
            assert value == base_counters.get(name, 0), name

        # Level gauges that sum across shards match the single switch.
        gauges = registry.gauges_dict()
        assert gauges["switch.store.occupancy"] == base_gauges["switch.store.occupancy"]
        assert gauges["switch.blacklist.size"] == base_gauges["switch.blacklist.size"]

    def test_shard_sizes_account_every_packet(self, split, artifacts):
        merged, _ = cluster_replay(split, artifacts, 4)
        assert sum(merged.shard_sizes) == len(split.stream_trace)
        assert all(size > 0 for size in merged.shard_sizes)


class TestMultiprocessParity:
    def test_verdicts_and_counters_match(self, split, artifacts, baseline):
        base, base_counters, _ = baseline
        merged, registry = cluster_replay(
            split, artifacts, 2, executor="multiprocess"
        )
        np.testing.assert_array_equal(merged.y_true, base.y_true)
        np.testing.assert_array_equal(merged.y_pred, base.y_pred)
        assert merged.decisions == []  # not shipped across the boundary
        plain, _ = split_counters(registry)
        assert_same_totals(base_counters, plain)


class TestExecutorMatrix:
    """The full {transport} × {replay, chunked serve} matrix against the
    single-pipeline baseline: verdicts, every plain counter total, and
    the summing level gauges must be bit-identical regardless of whether
    the packets travelled nowhere (in-process), over a pickle pipe, or
    as descriptors into the shared-memory arena."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_replay_matches_single_pipeline(
        self, split, artifacts, baseline, executor
    ):
        base, base_counters, base_gauges = baseline
        merged, registry = cluster_replay(split, artifacts, 4, executor=executor)

        np.testing.assert_array_equal(merged.y_true, base.y_true)
        np.testing.assert_array_equal(merged.y_pred, base.y_pred)
        assert sum(merged.shard_sizes) == len(split.stream_trace)

        plain, tagged = split_counters(registry)
        assert_same_totals(base_counters, plain)
        assert tagged and all(t.startswith("cluster.shard.") for t in tagged)

        gauges = registry.gauges_dict()
        assert gauges["switch.store.occupancy"] == base_gauges["switch.store.occupancy"]
        assert gauges["switch.blacklist.size"] == base_gauges["switch.blacklist.size"]

        # Merged counter deltas equal the totals (fresh pipelines).
        for name, value in merged.counters.items():
            assert value == base_counters.get(name, 0), name

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_chunked_serve_matches_single_pipeline(
        self, split, artifacts, baseline, executor
    ):
        base, base_counters, _ = baseline
        report, registry = cluster_serve(split, artifacts, executor)

        assert report.n_packets == len(split.stream_trace)
        assert sum(report.shard_packets) == report.n_packets
        np.testing.assert_array_equal(report.y_pred, base.y_pred)
        np.testing.assert_array_equal(report.y_true, base.y_true)

        # Every counter the single pipeline published must total the
        # same; serve adds runtime.* bookkeeping on top, which the
        # one-shot baseline legitimately lacks.
        plain, _ = split_counters(registry)
        for name, value in base_counters.items():
            assert plain.get(name, 0) == value, name
        assert plain.get("runtime.packets", 0) == report.n_packets


#: Digest reorder + delay active on every shard (p high enough to fire
#: hundreds of times on this trace) plus chunk-boundary store pressure,
#: fanned out per shard from one spec.
FAULT_SPEC = (
    "seed=7;digest_reorder:p=0.4;digest_delay:p=0.3,chunks=2;"
    "store_pressure:p=0.5,fraction=0.2"
)


class TestFaultMatrixDifferential:
    """Under an active FaultPlan the cluster legitimately diverges from
    the fault-free baseline — but the three transports must still agree
    with *each other* bit-for-bit, because each shard's plan is a pure
    function of ``(spec, shard_id)`` and the transport carries packets,
    not randomness."""

    @pytest.fixture(scope="class")
    def fault_runs(self, split, artifacts):
        runs = {}
        for executor in EXECUTORS:
            report, registry = cluster_serve(
                split, artifacts, executor, faults_spec=FAULT_SPEC
            )
            plain, _ = split_counters(registry)
            runs[executor] = (report, plain)
        return runs

    def test_faults_actually_fired(self, fault_runs):
        report, _ = fault_runs["inprocess"]
        assert report.fault_counts.get("faults.digest_reorder", 0) > 0
        assert report.fault_counts.get("faults.digest_delay", 0) > 0
        assert report.fault_counts.get("faults.store_pressure", 0) > 0
        # …and on every shard, so the cross-transport equalities below
        # exercise all four fault schedules, not just shard 0's.
        for counts in report.shard_fault_counts:
            assert sum(counts.values()) > 0

    @pytest.mark.parametrize("executor", [e for e in EXECUTORS if e != "inprocess"])
    def test_transports_are_mutually_bit_identical(self, fault_runs, executor):
        ref, ref_plain = fault_runs["inprocess"]
        report, plain = fault_runs[executor]
        np.testing.assert_array_equal(report.y_pred, ref.y_pred)
        np.testing.assert_array_equal(report.y_true, ref.y_true)
        assert report.fault_counts == ref.fault_counts
        assert report.shard_fault_counts == ref.shard_fault_counts
        assert list(report.shard_packets) == list(ref.shard_packets)
        assert report.n_chunks == ref.n_chunks
        assert plain == ref_plain

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fault_counters_reach_the_registry(self, fault_runs, executor):
        """Shard injectors fire inside the workers — under a null
        registry in-process, in another process otherwise — yet every
        firing must reach the coordinator's registry, so the published
        ``faults.*`` totals equal the report's on every transport."""
        report, plain = fault_runs[executor]
        published = {k: v for k, v in plain.items() if k.startswith("faults.")}
        assert published == report.fault_counts


class TestServeDifferential:
    def test_chunked_cluster_serve_matches_oneshot(self, split, artifacts, baseline):
        """The full serve loop (router + chunk clock + merge) serves the
        same verdict stream as the one-shot single-pipeline replay."""
        base, _, _ = baseline
        with ClusterService(
            fresh_pipeline(artifacts, n_slots=N_SLOTS),
            n_shards=4,
            config=RuntimeConfig(chunk_size=700, drift_threshold=0.0),
        ) as cluster:
            report = cluster.serve(split.stream_trace)
        assert report.n_packets == len(split.stream_trace)
        assert sum(report.shard_packets) == report.n_packets
        np.testing.assert_array_equal(report.y_pred, base.y_pred)
        np.testing.assert_array_equal(report.y_true, base.y_true)
        assert len(report.decisions) == report.n_packets
