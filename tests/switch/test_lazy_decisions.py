"""Lazy decision egress: batch decisions stay columns until read.

:func:`~repro.switch.batch.replay_trace_batch` returns its decisions as
a :class:`~repro.switch.batch.DecisionColumns` view, serve reports chain
one view per chunk, and :meth:`ReplayResult.merge` chains views too.  A
serve nobody reads decisions from builds no :class:`PacketDecision` at
all; reading gives exactly the eager list, however it is read.
"""

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.datasets.trace import Trace
from repro.runtime import OnlineDetectionService, RuntimeConfig
from repro.switch.batch import DecisionColumns
from repro.switch.pipeline import PacketDecision
from repro.switch.runner import ChainedDecisions, DecisionView, replay_trace
from repro.telemetry import MetricRegistry, use_registry
from tests.faults.common import StubRetrainer, compile_artifacts, fresh_pipeline, make_split

N_CHUNKS = 5


@pytest.fixture(scope="module")
def split():
    return make_split(seed=47, n_benign_flows=30)


@pytest.fixture(scope="module")
def artifacts(split):
    return compile_artifacts(split.train_flows)


@pytest.fixture
def constructions(monkeypatch):
    """Count every PacketDecision built, wherever it is built from."""
    built = []
    init = PacketDecision.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PacketDecision, "__init__", counting_init)
    return built


def _config(split, mode="batch"):
    return RuntimeConfig(
        chunk_size=-(-len(split.stream_trace.packets) // N_CHUNKS),
        mode=mode,
        drift_threshold=0.0,
        cadence=2,
        max_swaps=1,
        stage_backoff_s=0.0,
    )


def _serve(split, artifacts, mode="batch", cluster=False):
    pipeline = fresh_pipeline(artifacts)
    config = _config(split, mode)
    with use_registry(MetricRegistry()):
        if cluster:
            with ClusterService(
                pipeline, n_shards=2, retrainer=StubRetrainer(artifacts), config=config
            ) as service:
                return service.serve(split.stream_trace)
        service = OnlineDetectionService(
            pipeline, retrainer=StubRetrainer(artifacts), config=config
        )
        return service.serve(split.stream_trace)


@pytest.mark.parametrize("cluster", [False, True], ids=["service", "cluster"])
def test_unread_serve_builds_no_decisions(split, artifacts, constructions, cluster):
    report = _serve(split, artifacts, cluster=cluster)
    assert report.n_swaps == 1 and report.n_chunks == N_CHUNKS
    assert isinstance(report.decisions, ChainedDecisions)
    assert len(report.decisions) == report.n_packets
    assert constructions == []
    first = report.decisions[0]
    assert len(constructions) == 1 and isinstance(first, PacketDecision)


@pytest.mark.parametrize("cluster", [False, True], ids=["service", "cluster"])
def test_reading_the_view_gives_the_eager_list(split, artifacts, cluster):
    view = _serve(split, artifacts, cluster=cluster).decisions
    eager = _serve(split, artifacts, mode="scalar").decisions
    assert isinstance(eager, ChainedDecisions)
    eager = list(eager)
    assert all(type(d) is PacketDecision for d in eager)
    n = len(eager)
    assert len(view) == n
    # iteration, indexing (both signs), slicing (steps, negative bounds)
    assert list(view) == eager
    assert [view[i] for i in range(n)] == eager
    assert [view[i] for i in range(-n, 0)] == eager
    assert view[::-1] == eager[::-1]
    assert view[3:n - 2:7] == eager[3:n - 2:7]
    assert view[-40:] == eager[-40:]
    assert view[n:] == [] and view[5:2] == []
    assert view[np.int64(4)] == eager[4]
    with pytest.raises(IndexError):
        view[n]
    with pytest.raises(IndexError):
        view[-n - 1]
    # == against lists and views, both ways round; != on any difference
    assert view == eager and eager == view
    assert view == _serve(split, artifacts, cluster=cluster).decisions
    assert not (view != eager)
    assert view != eager[:-1]
    tampered = list(eager)
    tampered[n // 2] = PacketDecision(
        tampered[n // 2].packet, "green", "drop", 1 - tampered[n // 2].predicted_malicious
    )
    assert view != tampered and tampered != view
    assert view != tuple(eager)  # only lists and views compare equal
    # types match the eager fields exactly, not just by value
    for a, b in zip(view, eager):
        assert [type(v) for v in vars(a).values()] == [type(v) for v in vars(b).values()]


def test_index_and_iteration_paths_agree_on_one_replay(split, artifacts):
    """DecisionColumns builds decisions per index and column-wise when
    iterated; both must give the same objects field for field."""
    result = replay_trace(split.stream_trace, fresh_pipeline(artifacts), mode="batch")
    view = result.decisions
    assert isinstance(view, DecisionColumns)
    assert any(d.digest is not None for d in view)
    assert [view[i] for i in range(len(view))] == list(view)


def test_merge_over_views_equals_merge_over_lists(split, artifacts, constructions):
    packets = split.stream_trace.packets
    cuts = [0, len(packets) // 4, len(packets) // 2, len(packets)]

    def parts(mode):
        pipeline = fresh_pipeline(artifacts)
        return [
            replay_trace(Trace(packets[a:b]), pipeline, mode=mode)
            for a, b in zip(cuts, cuts[1:])
        ]

    lazy = parts("batch")
    merged = lazy[0].merge(lazy[1:])
    assert isinstance(merged.decisions, DecisionView)
    assert constructions == []  # merging reads nothing
    constructions.clear()
    eager = parts("scalar")
    expected = eager[0].merge(eager[1:]).decisions
    assert merged.decisions == expected
    assert merged.decisions == list(expected)
    assert len(merged.decisions) == merged.n_packets == len(packets)
    np.testing.assert_array_equal(merged.y_pred, eager[0].merge(eager[1:]).y_pred)


def test_chained_decisions_flattens_and_skips_empty_parts():
    d = [PacketDecision(None, "red", "drop", 1), PacketDecision(None, "brown", "forward", 0)]
    inner = ChainedDecisions([d[:1], [], d[1:]])
    outer = ChainedDecisions([[], inner, d])
    assert len(outer._parts) == 3  # nested chain flattened, empty parts dropped
    assert outer == d + d and len(outer) == 4
    assert outer[1] is d[1] and outer[-1] is d[1]
    assert ChainedDecisions() == [] and [] == ChainedDecisions()
