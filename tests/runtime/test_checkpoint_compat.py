"""Checkpoint compatibility: v1 documents from before the unified report.

``tests/runtime/golden/`` holds one ``repro.checkpoint/v1`` and one
``repro.cluster-checkpoint/v1`` document written by the code that still
had separate single-service and cluster report types (the single
service's swap events carry no shard fields; its report has no shard
sections).  Both must still restore — through the one
``report_from_dict`` — and resume to the verdicts of an uninterrupted
run on today's code.

Each document was taken at chunk ``CHECKPOINT_AT`` of a four-chunk
serve with a flaky-install cadence swap already in its report and a
digest-loss + store-pressure fault plan whose injector states the
resume must continue.  ``golden/write_v1_checkpoints.py`` rebuilds them,
but only a checkout that predates the unified report writes the old
shapes; regenerating them on newer code would test nothing.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterService, restore_cluster
from repro.runtime import OnlineDetectionService, Retrainer, RuntimeConfig
from repro.runtime.checkpoint import report_from_dict, restore_service
from repro.telemetry import MetricRegistry, use_registry
from tests.faults.common import (
    PKT_COUNT_THRESHOLD,
    TIMEOUT,
    compile_artifacts,
    fresh_pipeline,
    make_split,
)
from tests.runtime.common import light_model_factory

GOLDEN_DIR = Path(__file__).parent / "golden"
SINGLE_DOC = GOLDEN_DIR / "single_v1.json"
CLUSTER_DOC = GOLDEN_DIR / "cluster_v1.json"

N_CHUNKS = 4
CHECKPOINT_AT = 2
FAULT_SPEC = (
    "seed=3;digest_loss:p=0.1;store_pressure:p=0.5,fraction=0.2;"
    "table_install_flake:p=0.5,times=1"
)


def workload():
    split = make_split(seed=31, n_benign_flows=20)
    return split, compile_artifacts(split.train_flows)


def _config(split):
    n_packets = len(split.stream_trace.packets)
    return RuntimeConfig(
        chunk_size=-(-n_packets // N_CHUNKS),
        drift_threshold=0.0,
        cadence=2,
        max_swaps=1,
        min_retrain_flows=8,
        stage_backoff_s=0.0,
    )


def _retrainer():
    return Retrainer(
        pkt_count_threshold=PKT_COUNT_THRESHOLD,
        timeout=TIMEOUT,
        reservoir_size=32,
        model_factory=light_model_factory,
        seed=17,
    )


def make_single(split, artifacts):
    from repro.faults import FaultPlan

    return OnlineDetectionService(
        fresh_pipeline(artifacts),
        retrainer=_retrainer(),
        config=_config(split),
        faults=FaultPlan.from_spec(FAULT_SPEC),
    )


def make_cluster(split, artifacts):
    return ClusterService(
        fresh_pipeline(artifacts),
        n_shards=2,
        retrainer=_retrainer(),
        config=_config(split),
        faults_spec=FAULT_SPEC,
    )


class SaveAt:
    """``checkpoint=`` hook saving one in-progress snapshot at *chunk*."""

    def __init__(self, manager, chunk=CHECKPOINT_AT):
        self.manager = manager
        self.chunk = chunk

    def maybe_save(self, service, report):
        if report.n_chunks == self.chunk:
            self.manager.save(service, report)
            return True
        return False

    def save(self, service, report, complete=False):
        return None


@pytest.fixture(scope="module")
def split_artifacts():
    return workload()


@pytest.fixture(scope="module")
def uninterrupted(split_artifacts):
    split, artifacts = split_artifacts
    with use_registry(MetricRegistry()):
        single = make_single(split, artifacts).serve(split.stream_trace)
        with make_cluster(split, artifacts) as cluster:
            clustered = cluster.serve(split.stream_trace)
    return {"single": single, "cluster": clustered}


def _load(path):
    return json.loads(path.read_text())


class TestGoldenV1Documents:
    def test_documents_have_the_old_shapes(self):
        single = _load(SINGLE_DOC)
        cluster = _load(CLUSTER_DOC)
        assert single["schema"] == "repro.checkpoint/v1"
        assert cluster["schema"] == "repro.cluster-checkpoint/v1"
        assert "n_shards" not in single["report"]
        assert "shard_attempts" not in single["report"]["swap_events"][0]
        assert cluster["report"]["swap_events"][0]["shard_attempts"] == [2, 2]
        for doc in (single, cluster):
            assert doc["status"] == "in_progress"
            assert doc["report"]["n_chunks"] == CHECKPOINT_AT

    @pytest.mark.parametrize(
        "path", [SINGLE_DOC, CLUSTER_DOC], ids=["single", "cluster"]
    )
    def test_reports_parse_through_report_from_dict(self, path):
        doc = _load(path)
        report = report_from_dict(doc["report"])
        assert report.n_chunks == CHECKPOINT_AT
        assert report.n_packets == len(report.y_pred) == sum(
            s.n_packets for s in report.chunk_stats
        )
        (raw,) = doc["report"]["swap_events"]
        (event,) = report.swap_events
        assert (event.chunk_index, event.reason, event.rolled_back, event.attempts) == (
            raw["chunk_index"], raw["reason"], raw["rolled_back"], raw["attempts"]
        )
        assert not event.rolled_back and event.attempts > 1
        if path is CLUSTER_DOC:
            assert report.n_shards == 2
            assert event.shard_attempts == [2, 2]
            assert sum(report.shard_packets) == report.n_packets
        else:
            assert report.n_shards == 1
            assert event.shard_attempts == []
            assert report.shard_packets == []

    def test_single_v1_resumes(
        self, split_artifacts, uninterrupted
    ):
        split, _ = split_artifacts
        service, report = restore_service(
            _load(SINGLE_DOC), model_factory=light_model_factory
        )
        with use_registry(MetricRegistry()):
            final = service.serve(split.stream_trace, resume_report=report)
        base = uninterrupted["single"]
        assert final.n_chunks == base.n_chunks == N_CHUNKS
        np.testing.assert_array_equal(final.y_pred, base.y_pred)
        np.testing.assert_array_equal(final.y_true, base.y_true)
        assert final.fault_counts == base.fault_counts

    @pytest.mark.parametrize("executor", ["inprocess", "shm"])
    def test_cluster_v1_resumes(
        self, split_artifacts, uninterrupted, executor
    ):
        split, _ = split_artifacts
        service, report = restore_cluster(
            _load(CLUSTER_DOC), model_factory=light_model_factory, executor=executor
        )
        with service, use_registry(MetricRegistry()):
            final = service.serve(split.stream_trace, resume_report=report)
        base = uninterrupted["cluster"]
        assert final.n_chunks == base.n_chunks == N_CHUNKS
        np.testing.assert_array_equal(final.y_pred, base.y_pred)
        np.testing.assert_array_equal(final.y_true, base.y_true)
        assert final.shard_packets == base.shard_packets
        assert final.fault_counts == base.fault_counts
        assert final.shard_fault_counts == base.shard_fault_counts
