"""Cluster checkpoints: consistent cuts, kill-and-resume, shard autonomy.

Mirrors the single-service checkpoint suite one level up: a cluster
serve killed at an arbitrary chunk boundary (the kill fires inside one
shard's worker) and resumed from its last checkpoint must finish with
verdicts bit-identical to the uninterrupted run — the checkpoint is one
atomic document, so no shard can resume from a different cut than the
others.  Shard sections are additionally self-contained: one shard
rebuilds without reading any other shard's state.
"""

import copy
import json
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_SCHEMA,
    ClusterCheckpointManager,
    ClusterService,
    ShmArena,
    cluster_to_dict,
    load_any_checkpoint,
    restore_cluster,
    restore_shard,
)
from repro.faults import FaultPlan, SimulatedKill
from repro.runtime import Retrainer, RuntimeConfig
from repro.runtime.checkpoint import CheckpointManager, report_from_dict, report_to_dict
from repro.telemetry import MetricRegistry, use_registry
from tests.faults.common import (
    PKT_COUNT_THRESHOLD,
    TIMEOUT,
    compile_artifacts,
    fresh_pipeline,
    make_split,
)
from tests.runtime.common import light_model_factory

N_CHUNKS = 6
N_SHARDS = 2

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def split():
    return make_split(seed=29, n_benign_flows=50)


@pytest.fixture(scope="module")
def artifacts(split):
    return compile_artifacts(split.train_flows)


def make_cluster(split, artifacts, shard_faults=None, executor="inprocess"):
    n_packets = len(split.stream_trace.packets)
    config = RuntimeConfig(
        chunk_size=-(-n_packets // N_CHUNKS),
        drift_threshold=0.0,
        cadence=3,
        min_retrain_flows=8,
        stage_backoff_s=0.0,
    )
    retrainer = Retrainer(
        pkt_count_threshold=PKT_COUNT_THRESHOLD,
        timeout=TIMEOUT,
        model_factory=light_model_factory,
        seed=17,
    )
    return ClusterService(
        fresh_pipeline(artifacts),
        n_shards=N_SHARDS,
        retrainer=retrainer,
        config=config,
        shard_faults=shard_faults,
        executor=executor,
    )


@pytest.fixture(scope="module")
def baseline(split, artifacts):
    """The uninterrupted, checkpoint-free cluster run."""
    with make_cluster(split, artifacts) as cluster:
        with use_registry(MetricRegistry()):
            report = cluster.serve(split.stream_trace)
    assert report.n_chunks == N_CHUNKS
    assert report.retrains > 0  # the control loop actually exercised
    return report


def canon(doc):
    return json.dumps(doc, sort_keys=True, allow_nan=True)


class TestDocumentRoundTrip:
    def test_restore_then_reserialize_is_identity(self, split, artifacts, tmp_path):
        """serialize → restore → serialize is a fixed point — the same
        bar the single-service document meets, with shard sections."""
        with make_cluster(split, artifacts) as cluster:
            with use_registry(MetricRegistry()):
                cluster.serve(
                    split.stream_trace,
                    checkpoint=ClusterCheckpointManager(tmp_path),
                )
        doc = ClusterCheckpointManager.load(tmp_path)
        assert doc.pop("status") == "complete"
        restored, report = restore_cluster(doc, model_factory=light_model_factory)
        with restored:
            assert canon(cluster_to_dict(restored, report)) == canon(doc)

    def test_report_round_trip(self, baseline):
        back = report_from_dict(report_to_dict(baseline))
        np.testing.assert_array_equal(back.y_pred, baseline.y_pred)
        np.testing.assert_array_equal(back.y_true, baseline.y_true)
        assert back.n_shards == baseline.n_shards
        assert back.shard_packets == baseline.shard_packets
        assert back.swap_events == baseline.swap_events
        assert back.chunk_offsets == baseline.chunk_offsets
        assert back.decisions == []  # evaluation sugar, never persisted

    def test_restore_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="checkpoint"):
            restore_cluster({"schema": "something/else"})

    def test_load_any_checkpoint_dispatches_on_schema(
        self, split, artifacts, tmp_path
    ):
        with make_cluster(split, artifacts) as cluster:
            with use_registry(MetricRegistry()):
                cluster.serve(
                    split.stream_trace,
                    checkpoint=ClusterCheckpointManager(tmp_path),
                )
        doc = load_any_checkpoint(tmp_path)
        assert doc["schema"] == CLUSTER_SCHEMA
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / CheckpointManager.FILENAME).write_text(
            '{"schema": "nope"}'
        )
        with pytest.raises(ValueError, match="nope"):
            load_any_checkpoint(tmp_path / "bad")


class TestCheckpointTransparency:
    def test_checkpointing_does_not_perturb_the_run(
        self, split, artifacts, tmp_path, baseline
    ):
        with make_cluster(split, artifacts) as cluster:
            with use_registry(MetricRegistry()):
                report = cluster.serve(
                    split.stream_trace,
                    checkpoint=ClusterCheckpointManager(tmp_path),
                )
        np.testing.assert_array_equal(report.y_pred, baseline.y_pred)
        assert report.shard_packets == baseline.shard_packets


class TestKillAndResume:
    def resume_until_complete(self, split, tmp_path, max_segments=10):
        """Drive the kill/restore cycle to completion; the kill counts
        chunks per process, so each resumed segment re-arms it until too
        few chunks remain.  ``SimulatedKill`` is a ``BaseException`` by
        design — a dead shard kills the whole in-process coordinator,
        exactly like a machine crash — so it is caught here, at the
        "supervisor" layer the test plays."""
        for _ in range(max_segments):
            doc = ClusterCheckpointManager.load(tmp_path)
            service, report = restore_cluster(doc, model_factory=light_model_factory)
            if doc["status"] == "complete":
                return report
            try:
                with service, use_registry(MetricRegistry()):
                    report = service.serve(
                        split.stream_trace,
                        checkpoint=ClusterCheckpointManager(tmp_path),
                        resume_report=report,
                    )
            except SimulatedKill:
                continue
            return report
        raise AssertionError("resume loop did not converge")

    def test_killed_cluster_resumes_bit_identical(
        self, split, artifacts, tmp_path, baseline
    ):
        """Shard 0's process dies mid-stream; the resumed cluster must
        finish exactly where the uninterrupted run did."""
        shard_faults = [FaultPlan.from_spec("kill:at=2"), None]
        with pytest.raises(SimulatedKill):
            with make_cluster(split, artifacts, shard_faults) as cluster:
                with use_registry(MetricRegistry()):
                    cluster.serve(
                        split.stream_trace,
                        checkpoint=ClusterCheckpointManager(tmp_path),
                    )

        # The kill dropped the in-flight chunk: the checkpoint is behind.
        doc = ClusterCheckpointManager.load(tmp_path)
        assert doc["status"] == "in_progress"
        assert doc["report"]["n_chunks"] < N_CHUNKS

        final = self.resume_until_complete(split, tmp_path)
        assert final.n_chunks == N_CHUNKS
        assert final.n_packets == baseline.n_packets
        np.testing.assert_array_equal(final.y_pred, baseline.y_pred)
        np.testing.assert_array_equal(final.y_true, baseline.y_true)
        assert final.shard_packets == baseline.shard_packets
        assert final.retrains == baseline.retrains
        assert [e.chunk_index for e in final.swap_events] == [
            e.chunk_index for e in baseline.swap_events
        ]

    def test_resume_of_complete_run_is_a_noop(self, split, artifacts, tmp_path):
        with make_cluster(split, artifacts) as cluster:
            with use_registry(MetricRegistry()):
                cluster.serve(
                    split.stream_trace,
                    checkpoint=ClusterCheckpointManager(tmp_path),
                )
        doc = ClusterCheckpointManager.load(tmp_path)
        assert doc["status"] == "complete"
        restored, report = restore_cluster(doc, model_factory=light_model_factory)
        before = report_to_dict(report)
        with restored, use_registry(MetricRegistry()):
            again = restored.serve(split.stream_trace, resume_report=report)
        assert report_to_dict(again) == before


#: A real, whole-process SIGKILL of a *shm-transport* coordinator —
#: no Python cleanup runs, so this is the one exit path on which the
#: shared segment is *supposed* to survive (the checkpoint names it and
#: resume re-maps it).  The workload mirrors ``make_cluster`` exactly so
#: the resumed run can be compared bit-for-bit against the module
#: baseline.
SIGKILL_COORDINATOR = """
import os, signal, sys
sys.path.insert(0, "src")
sys.path.insert(0, ".")
from repro.cluster import ClusterCheckpointManager, ClusterService
from repro.runtime import Retrainer, RuntimeConfig
from repro.telemetry import MetricRegistry, use_registry
from tests.faults.common import (
    PKT_COUNT_THRESHOLD, TIMEOUT, compile_artifacts, fresh_pipeline, make_split,
)
from tests.runtime.common import light_model_factory

directory = sys.argv[1]
split = make_split(seed=29, n_benign_flows=50)
artifacts = compile_artifacts(split.train_flows)
n_packets = len(split.stream_trace.packets)


class KillAfterTwoChunks(ClusterCheckpointManager):
    def maybe_save(self, service, report):
        super().maybe_save(service, report)
        if report.n_chunks >= 2:
            os.kill(os.getpid(), signal.SIGKILL)


cluster = ClusterService(
    fresh_pipeline(artifacts),
    n_shards=2,
    retrainer=Retrainer(
        pkt_count_threshold=PKT_COUNT_THRESHOLD,
        timeout=TIMEOUT,
        model_factory=light_model_factory,
        seed=17,
    ),
    config=RuntimeConfig(
        chunk_size=-(-n_packets // 6),
        drift_threshold=0.0,
        cadence=3,
        min_retrain_flows=8,
        stage_backoff_s=0.0,
    ),
    executor="shm",
)
with use_registry(MetricRegistry()):
    cluster.serve(split.stream_trace, checkpoint=KillAfterTwoChunks(directory))
raise SystemExit("unreachable: the kill above must have fired")
"""


@pytest.mark.skipif(not Path("/dev/shm").exists(), reason="no /dev/shm to audit")
class TestShmSigkillAndResume:
    @pytest.fixture(scope="class")
    def killed(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("shm-ckpt")
        proc = subprocess.run(
            [sys.executable, "-c", SIGKILL_COORDINATOR, str(directory)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=560,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        return directory

    def test_segment_survives_resume_remaps_and_finishes(
        self, killed, split, baseline
    ):
        doc = ClusterCheckpointManager.load(killed)
        assert doc["status"] == "in_progress"
        assert doc["executor"] == "shm"
        assert doc["report"]["n_chunks"] < N_CHUNKS
        name = doc["shm_name"]
        assert name and Path("/dev/shm", name).exists()  # survived SIGKILL

        service, report = restore_cluster(doc, model_factory=light_model_factory)
        assert service.executor_kind == "shm"
        try:
            with use_registry(MetricRegistry()):
                final = service.serve(
                    split.stream_trace,
                    checkpoint=ClusterCheckpointManager(killed),
                    resume_report=report,
                )
            executor = service._executor
            assert executor.segment_name == name
            assert executor.remapped  # re-mapped the orphan, no re-allocation
        finally:
            service.close()
        assert not Path("/dev/shm", name).exists()  # reaped at shutdown

        assert final.n_chunks == N_CHUNKS
        assert final.n_packets == baseline.n_packets
        np.testing.assert_array_equal(final.y_pred, baseline.y_pred)
        np.testing.assert_array_equal(final.y_true, baseline.y_true)
        assert final.shard_packets == baseline.shard_packets
        assert final.retrains == baseline.retrains
        assert [e.chunk_index for e in final.swap_events] == [
            e.chunk_index for e in baseline.swap_events
        ]
        assert ClusterCheckpointManager.load(killed)["status"] == "complete"

    def test_resume_onto_other_transport_reaps_orphan(self, split, artifacts):
        """A checkpointed shm run resumed on a different executor must
        not leak the named segment: restore reaps it immediately."""
        with make_cluster(split, artifacts, executor="shm") as cluster:
            with use_registry(MetricRegistry()):
                report = cluster.serve(split.stream_trace)
            doc = json.loads(canon(cluster_to_dict(cluster, report)))
        name = doc["shm_name"]
        assert name  # recorded while the segment was live
        # The segment died with close(); plant an orphan under its name
        # (exactly what a SIGKILLed coordinator leaves behind).
        ShmArena.create(name, [("x", np.dtype(np.int64), (8,))]).close()
        assert Path("/dev/shm", name).exists()

        service, _report = restore_cluster(
            doc, model_factory=light_model_factory, executor="inprocess"
        )
        assert service.shm_name is None
        assert not Path("/dev/shm", name).exists()  # orphan reaped


class TestShardAutonomy:
    @pytest.fixture(scope="class")
    def doc(self, split, artifacts, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cluster-ckpt")
        with make_cluster(split, artifacts) as cluster:
            with use_registry(MetricRegistry()):
                cluster.serve(
                    split.stream_trace,
                    checkpoint=ClusterCheckpointManager(directory),
                )
        return ClusterCheckpointManager.load(directory)

    def test_restore_shard_reads_only_its_own_section(self, doc, baseline):
        mangled = copy.deepcopy(doc)
        mangled["shards"][0] = {"shard_id": 0}  # shard 0's section gutted
        worker = restore_shard(mangled, 1)
        assert worker.shard_id == 1
        assert worker.packets_processed == baseline.shard_packets[1]
        assert worker.chunks_processed == baseline.n_chunks
        assert worker.pipeline.store.occupancy() > 0

    def test_restore_shard_rejects_mismatched_ids(self, doc):
        mangled = copy.deepcopy(doc)
        mangled["shards"][1]["shard_id"] = 7
        with pytest.raises(ValueError, match="shard section"):
            restore_shard(mangled, 1)

    def test_executor_override_on_restore(self, doc):
        service, _report = restore_cluster(
            doc, model_factory=light_model_factory, executor="multiprocess"
        )
        assert service.executor_kind == "multiprocess"
        # Decision objects are not shipped across process boundaries.
        assert all(not w.keep_decisions for w in service.workers)
