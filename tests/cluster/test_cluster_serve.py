"""End-to-end cluster serving: drift → retrain → two-phase swap recovery.

The same mid-stream benign shift that drives the single-service drift
scenario fires the cluster-wide drift monitor, one retrain runs on the
merged reservoir, and the two-phase swap lands the new generation on
every shard.  That the cluster's control loop *is* the single service's
is locked bit for bit (one shard) in ``test_single_equiv.py``.
"""

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.datasets import make_drift_split
from repro.eval.harness import TestbedConfig, build_pipeline
from repro.runtime import Retrainer, RuntimeConfig
from repro.telemetry import MetricRegistry, use_registry
from tests.runtime.common import light_model_factory

LIGHT_TESTBED = dict(
    iguard_params={
        "n_trees": 5,
        "subsample_size": 64,
        "k_aug": 32,
        "tau_split": 0.0,
        "threshold_margin": 2.0,
        "distil_margin": 1.2,
    }
)

RUNTIME_CONFIG = dict(
    chunk_size=2000,
    drift_threshold=0.25,
    drift_window=2,
    baseline_window=2,
    min_drift_packets=64,
    min_retrain_flows=24,
    max_swaps=2,
)


def _retrainer(config):
    return Retrainer(
        pkt_count_threshold=config.pkt_count_threshold,
        timeout=config.timeout,
        model_factory=light_model_factory,
        seed=17,
    )


@pytest.fixture(scope="module")
def drift_run():
    """One trained deployment served over the drifting stream by a
    2-shard cluster."""
    split = make_drift_split("Mirai", n_benign_flows=120, seed=11)
    config = TestbedConfig(n_benign_flows=120, **LIGHT_TESTBED)
    pipeline, _controller, _model = build_pipeline(
        "iguard", split, config=config, seed=13
    )
    registry = MetricRegistry()
    cluster = ClusterService(
        pipeline,
        n_shards=2,
        retrainer=_retrainer(config),
        config=RuntimeConfig(**RUNTIME_CONFIG),
    )
    with cluster:
        with use_registry(registry):
            report = cluster.serve(split.stream_trace)
    return split, cluster, report, registry


class TestClusterDriftScenario:
    def test_monitor_fires_and_cluster_swaps(self, drift_run):
        _split, cluster, report, _registry = drift_run
        assert report.drift_signals >= 1
        assert report.retrains >= 1
        assert report.n_swaps >= 1
        assert report.n_rollbacks == 0
        # Every shard flipped in lockstep with every cluster swap.
        for worker in cluster.workers:
            assert worker.pipeline.table_swaps == report.n_swaps
            assert worker.pipeline.table_rollbacks == 0
            assert not worker.pipeline.has_staged_tables

    def test_report_accounts_every_packet(self, drift_run):
        split, _cluster, report, _registry = drift_run
        assert report.n_shards == 2
        assert report.n_packets == len(split.stream_trace)
        assert sum(report.shard_packets) == report.n_packets
        assert all(n > 0 for n in report.shard_packets)
        assert len(report.decisions) == report.n_packets  # in-process
        assert len(report.y_true) == len(report.y_pred) == report.n_packets
        assert report.chunk_offsets[0] == 0
        assert report.packet_offset_of_chunk(1) == report.chunk_stats[0].n_packets

    def test_cluster_telemetry_published(self, drift_run):
        _split, _cluster, report, registry = drift_run
        counters = registry.counters_dict()
        assert counters["runtime.chunks"] == report.n_chunks
        assert counters["runtime.packets"] == report.n_packets
        assert counters["runtime.drift.signals"] == report.drift_signals
        assert counters["runtime.retrains"] == report.retrains
        assert counters["runtime.swaps"] == report.n_swaps
        assert counters["switch.table.swaps"] == report.n_swaps * 2
        for k in range(2):
            assert (
                counters[f"cluster.shard.{k}.switch.table.swaps"] == report.n_swaps
            )
            # Each shard's tagged counters carry real per-shard traffic.
            assert any(
                name.startswith(f"cluster.shard.{k}.switch.path.") and v > 0
                for name, v in counters.items()
            )
        gauges = registry.gauges_dict()
        assert gauges["cluster.n_shards"] == 2.0
        assert "runtime.drift.score" in gauges
        hists = registry.histograms_dict()
        assert "cluster.swap_barrier_s" in hists
        assert hists["cluster.swap_barrier_s"]["count"] == len(report.swap_events)
        events = [e for e in registry.events if e["kind"] == "cluster.swap"]
        assert len(events) == len(report.swap_events)
        serve_span = registry.tracer.find("cluster.serve")
        assert serve_span is not None
        assert serve_span.find("retrain") is not None

    def test_swap_barrier_is_bounded(self, drift_run):
        _split, _cluster, report, _registry = drift_run
        for event in report.swap_events:
            assert 0.0 <= event.duration_s < 1.0
            assert len(event.shard_attempts) == 2


class TestNoDriftControl:
    def test_stable_stream_triggers_nothing(self):
        split = make_drift_split("Mirai", n_benign_flows=60, shift="none", seed=19)
        config = TestbedConfig(n_benign_flows=60, **LIGHT_TESTBED)
        pipeline, _c, _m = build_pipeline("iguard", split, config=config, seed=23)
        cluster = ClusterService(
            pipeline,
            n_shards=2,
            retrainer=_retrainer(config),
            config=RuntimeConfig(**RUNTIME_CONFIG),
        )
        with cluster:
            report = cluster.serve(split.stream_trace)
        assert report.drift_signals == 0
        assert report.retrains == 0
        assert report.n_swaps == 0
        assert report.n_packets == len(split.stream_trace)
        for worker in cluster.workers:
            assert worker.pipeline.table_swaps == 0
