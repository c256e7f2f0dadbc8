"""Differential lock: the single service ≡ a one-shard in-process cluster.

Both services drive the same control plane — drift/cadence gating,
retrain, swap, ops verbs, checkpoints — over different chunk sources
(the stream driver vs route/ship/merge over an executor) and different
install strategies (retry + hot-swap vs the two-phase barrier).  With
one shard and the in-process executor those differences must be
invisible: every verdict, chunk statistic, swap/control event, fault
count and published non-``cluster.*`` counter and gauge is identical,
and a checkpoint taken mid-run resumes to the same end state on both.

The run is deliberately busy: a ``graduated`` mitigation policy, a
five-injector fault plan (digest loss and reorder, store pressure,
retrain failure, install flake), drift- and cadence-triggered swaps and
a queued operator ``retrain``.  The cluster gets one shard plan and one
coordinator plan, both built from the single service's spec, so each
injector draws from the same generator it would in the single service.
"""

import numpy as np
import pytest

from repro.cluster import ClusterCheckpointManager, ClusterService, clone_pipeline
from repro.cluster.checkpoint import restore_cluster
from repro.datasets import make_drift_split
from repro.eval.harness import TestbedConfig, build_pipeline
from repro.faults import FaultPlan
from repro.mitigation import attach_policy
from repro.runtime import OnlineDetectionService, Retrainer, RuntimeConfig
from repro.runtime.checkpoint import CheckpointManager, restore_service
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

FAULT_SPEC = (
    "seed=5;digest_loss:p=0.05;digest_reorder:p=0.2;"
    "store_pressure:p=0.3,fraction=0.2;retrain_failure:p=0.3;"
    "table_install_flake:p=0.7,times=1"
)

RUNTIME_CONFIG = dict(
    chunk_size=2000,
    drift_threshold=0.25,
    drift_window=2,
    baseline_window=2,
    min_drift_packets=64,
    min_retrain_flows=24,
    cadence=6,
    stage_backoff_s=0.0,
)

#: Chunk boundary at which an operator ``retrain`` is queued (it applies
#: at the next boundary), and the one whose state is checkpointed.
QUEUE_RETRAIN_AT = 6
CHECKPOINT_AT = 9


class ChunkHook:
    """The serve loop's ``checkpoint=`` hook: queues one ops retrain and
    saves exactly one snapshot (at ``CHECKPOINT_AT``) through *manager*."""

    def __init__(self, manager=None):
        self.manager = manager

    def maybe_save(self, service, report):
        if report.n_chunks == QUEUE_RETRAIN_AT:
            service.request_control("retrain", source="test")
        if self.manager is not None and report.n_chunks == CHECKPOINT_AT:
            self.manager.save(service, report)
        return False

    def save(self, service, report, complete=False):
        return None


def _retrainer(config):
    return Retrainer(
        pkt_count_threshold=config.pkt_count_threshold,
        timeout=config.timeout,
        model_factory=light_model_factory,
        seed=17,
    )


def _plain(registry):
    """Counters and gauges outside the ``cluster.*`` namespace."""
    def plain(metrics):
        return {k: v for k, v in metrics.items() if not k.startswith("cluster.")}

    return plain(registry.counters_dict()), plain(registry.gauges_dict())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Serve the drift split once through each service (checkpointing at
    ``CHECKPOINT_AT``), then resume each from its checkpoint."""
    split = make_drift_split("Mirai", n_benign_flows=120, seed=11)
    testbed = TestbedConfig(n_benign_flows=120, **LIGHT_TESTBED)
    pipeline, _controller, _model = build_pipeline(
        "iguard", split, config=testbed, seed=13
    )
    attach_policy(pipeline, "graduated")
    trace = split.stream_trace
    out = {"trace": trace}

    single_dir = tmp_path_factory.mktemp("single")
    single = OnlineDetectionService(
        clone_pipeline(pipeline),
        retrainer=_retrainer(testbed),
        config=RuntimeConfig(**RUNTIME_CONFIG),
        faults=FaultPlan.from_spec(FAULT_SPEC),
    )
    registry = MetricRegistry()
    with use_registry(registry):
        report = single.serve(
            trace, checkpoint=ChunkHook(CheckpointManager(single_dir))
        )
    out["single"] = (report, registry)

    cluster_dir = tmp_path_factory.mktemp("cluster")
    cluster = ClusterService(
        pipeline,
        n_shards=1,
        retrainer=_retrainer(testbed),
        config=RuntimeConfig(**RUNTIME_CONFIG),
        executor="inprocess",
        faults_spec=FAULT_SPEC,
        shard_faults=[FaultPlan.from_spec(FAULT_SPEC)],
        coordinator_faults=FaultPlan.from_spec(FAULT_SPEC),
    )
    registry = MetricRegistry()
    with cluster, use_registry(registry):
        report = cluster.serve(
            trace, checkpoint=ChunkHook(ClusterCheckpointManager(cluster_dir))
        )
    out["cluster"] = (report, registry)

    service, resumed = restore_service(
        CheckpointManager.load(single_dir), model_factory=light_model_factory
    )
    with use_registry(MetricRegistry()):
        out["single_resumed"] = service.serve(
            trace, checkpoint=ChunkHook(), resume_report=resumed
        )
    service, resumed = restore_cluster(
        ClusterCheckpointManager.load(cluster_dir), model_factory=light_model_factory
    )
    with service, use_registry(MetricRegistry()):
        out["cluster_resumed"] = service.serve(
            trace, checkpoint=ChunkHook(), resume_report=resumed
        )
    return out


def _swaps(report):
    return [
        (e.chunk_index, e.reason, e.rolled_back, e.attempts) for e in report.swap_events
    ]


def _controls(report):
    return [
        {k: t.get(k) for k in ("id", "verb", "status", "outcome", "chunk", "source")}
        for t in report.control_events
    ]


def assert_same_run(a, b):
    assert a.n_chunks == b.n_chunks
    assert a.n_packets == b.n_packets
    np.testing.assert_array_equal(a.y_true, b.y_true)
    np.testing.assert_array_equal(a.y_pred, b.y_pred)
    assert a.chunk_stats == b.chunk_stats
    assert a.chunk_offsets == b.chunk_offsets
    assert _swaps(a) == _swaps(b)
    assert a.drift_signals == b.drift_signals
    assert a.retrains == b.retrains
    assert a.retrain_failures == b.retrain_failures
    assert a.fault_counts == b.fault_counts
    assert _controls(a) == _controls(b)


class TestSingleIsOneShard:
    def test_the_run_exercises_every_control_path(self, runs):
        report, _ = runs["single"]
        reasons = {e.reason for e in report.swap_events}
        assert {"drift", "cadence", "manual"} <= reasons
        assert report.n_swaps >= 1
        assert any(e.attempts > 1 for e in report.swap_events)
        assert report.retrain_failures >= 1
        for name in (
            "faults.digest_loss",
            "faults.digest_reorder",
            "faults.store_pressure",
            "faults.retrain_failure",
            "faults.table_install_flake",
        ):
            assert report.fault_counts.get(name, 0) > 0, name
        assert [t["verb"] for t in report.control_events] == ["retrain"]

    def test_verdicts_decisions_and_chunk_stats(self, runs):
        single, _ = runs["single"]
        cluster, _ = runs["cluster"]
        assert_same_run(single, cluster)
        assert len(single.decisions) == len(cluster.decisions) == single.n_packets
        assert list(single.decisions) == list(cluster.decisions)

    def test_registry_outside_cluster_namespace(self, runs):
        s_counters, s_gauges = _plain(runs["single"][1])
        c_counters, c_gauges = _plain(runs["cluster"][1])
        assert c_counters == s_counters
        assert c_gauges == s_gauges

    @pytest.mark.parametrize("kind", ["single", "cluster"])
    def test_checkpoint_resume(self, runs, kind):
        """A snapshot taken mid-run resumes to the uninterrupted end state."""
        full, _ = runs[kind]
        resumed = runs[f"{kind}_resumed"]
        assert_same_run(resumed, full)
