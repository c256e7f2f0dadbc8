"""Reservoir lock: the columnar feed reproduces the packet-regrouping one.

:meth:`Retrainer.observe` offers a chunk's flows from a per-packet
canonical flow index its caller already holds (the batch replay's
``flow_idx``, the routed or shm tuples), instead of regrouping the chunk
through :meth:`Trace.bidirectional_flows`.  The reservoir it builds must
be the old one exactly: the same flow lists in the same slots, the same
``seen`` count and the same RNG state, whichever serve path fed it.  The
old feed survives only here, as :func:`reference_observe`.
"""

import json

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.datasets import Trace
from repro.datasets.packet import FiveTuple, Packet
from repro.runtime import OnlineDetectionService, Retrainer, RuntimeConfig
from repro.runtime.checkpoint import (
    CheckpointManager,
    _retrainer_to_obj,
    restore_service,
    service_to_dict,
)
from repro.runtime.stream import as_chunk_iter
from repro.switch.batch import canonical_flow_index, packet_tuples
from repro.telemetry import MetricRegistry, use_registry
from tests.faults.common import (
    PKT_COUNT_THRESHOLD,
    TIMEOUT,
    compile_artifacts,
    fresh_pipeline,
    make_split,
)
from tests.runtime.common import light_model_factory


def reference_observe(reservoir, trace: Trace) -> None:
    """The feed the columnar one replaced: regroup the chunk by canonical
    5-tuple and run algorithm R one flow at a time."""
    for flow in trace.bidirectional_flows().values():
        reservoir.seen += 1
        if len(reservoir._flows) < reservoir.capacity:
            reservoir._flows.append(flow)
            continue
        slot = int(reservoir._rng.integers(reservoir.seen))
        if slot < reservoir.capacity:
            reservoir._flows[slot] = flow


def assert_same_reservoir(got, want) -> None:
    assert got.seen == want.seen
    assert len(got._flows) == len(want._flows)
    for slot, (a, b) in enumerate(zip(got._flows, want._flows)):
        assert list(a) == list(b), f"slot {slot} differs"
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


def two_way_trace(n_flows: int, n_packets: int, seed: int) -> Trace:
    """Random flows whose packets go both ways, spread over the whole
    trace so most flows straddle every chunk edge."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(1, 2**32, size=(n_flows, 2))
    ports = rng.integers(1, 2**16, size=(n_flows, 2))
    ends[: n_flows // 8, 1] = ends[: n_flows // 8, 0]  # same-host flows
    protos = rng.choice([6, 17], size=n_flows)
    packets = []
    for _ in range(n_packets):
        f = int(rng.integers(n_flows))
        (a, b), (pa, pb) = ends[f], ports[f]
        if rng.random() < 0.5:
            a, b, pa, pb = b, a, pb, pa
        packets.append(
            Packet(
                five_tuple=FiveTuple(int(a), int(b), int(pa), int(pb), int(protos[f])),
                timestamp=float(rng.uniform(0.0, 60.0)),
                size=int(rng.integers(60, 1500)),
            )
        )
    return Trace(packets)


class TestColumnarFeed:
    @pytest.mark.parametrize(
        "capacity, chunk_size",
        [(16, 97), (512, 256), (64, 1), (300, 10_000)],
        ids=["overfull-chunks", "filling", "one-packet-chunks", "one-chunk"],
    )
    def test_matches_bidirectional_regrouping(self, capacity, chunk_size):
        trace = two_way_trace(n_flows=400, n_packets=3000, seed=capacity)
        got = Retrainer(reservoir_size=capacity, seed=5)
        want = Retrainer(reservoir_size=capacity, seed=5)
        for chunk in as_chunk_iter(trace, chunk_size):
            flow_idx = canonical_flow_index(packet_tuples(chunk.packets))
            got.observe(chunk.packets, flow_idx)
            reference_observe(want.reservoir, chunk)
            assert_same_reservoir(got.reservoir, want.reservoir)
        assert got.reservoir.seen > capacity

    def test_any_flow_labelling_gives_the_same_reservoir(self):
        """Only equality of labels matters, not their values or order."""
        trace = two_way_trace(n_flows=120, n_packets=900, seed=3)
        got = Retrainer(reservoir_size=32, seed=8)
        want = Retrainer(reservoir_size=32, seed=8)
        for chunk in as_chunk_iter(trace, 200):
            labels = canonical_flow_index(packet_tuples(chunk.packets))
            got.observe(chunk.packets, 1000 - 7 * labels)
            reference_observe(want.reservoir, chunk)
        assert_same_reservoir(got.reservoir, want.reservoir)

    def test_observe_without_an_index_groups_the_packets_itself(self):
        trace = two_way_trace(n_flows=80, n_packets=500, seed=4)
        got = Retrainer(reservoir_size=24, seed=2)
        want = Retrainer(reservoir_size=24, seed=2)
        for chunk in as_chunk_iter(trace, 64):
            got.observe(chunk.packets)
            reference_observe(want.reservoir, chunk)
        assert_same_reservoir(got.reservoir, want.reservoir)

    def test_empty_chunk_changes_nothing(self):
        got = Retrainer(reservoir_size=4, seed=1)
        state = got.reservoir._rng.bit_generator.state
        got.observe([], np.empty(0, dtype=np.int64))
        assert got.reservoir.seen == 0 and len(got) == 0
        assert got.reservoir._rng.bit_generator.state == state


# -- through the serve paths ----------------------------------------------

N_CHUNKS = 7
RESERVOIR = 24


@pytest.fixture(scope="module")
def split():
    return make_split(seed=31, n_benign_flows=50)


@pytest.fixture(scope="module")
def artifacts(split):
    return compile_artifacts(split.train_flows)


def _config(split, mode="batch"):
    n_packets = len(split.stream_trace.packets)
    return RuntimeConfig(
        chunk_size=-(-n_packets // N_CHUNKS), mode=mode, drift_threshold=0.0
    )


def _retrainer():
    return Retrainer(
        pkt_count_threshold=PKT_COUNT_THRESHOLD,
        timeout=TIMEOUT,
        reservoir_size=RESERVOIR,
        model_factory=light_model_factory,
        seed=17,
    )


def _reference(split, config):
    ref = _retrainer()
    for chunk in as_chunk_iter(split.stream_trace, config.chunk_size):
        reference_observe(ref.reservoir, chunk)
    return ref


@pytest.mark.parametrize("mode", ["batch", "scalar"])
def test_single_service_reservoir_matches_reference(split, artifacts, mode):
    config = _config(split, mode)
    service = OnlineDetectionService(
        fresh_pipeline(artifacts), retrainer=_retrainer(), config=config
    )
    with use_registry(MetricRegistry()):
        report = service.serve(split.stream_trace)
    assert report.n_chunks == N_CHUNKS
    ref = _reference(split, config)
    assert ref.reservoir.seen > RESERVOIR  # replacement draws happened
    assert_same_reservoir(service.retrainer.reservoir, ref.reservoir)


@pytest.mark.parametrize("executor", ["inprocess", "shm"])
def test_cluster_reservoir_matches_reference(split, artifacts, executor):
    config = _config(split)
    with ClusterService(
        fresh_pipeline(artifacts),
        n_shards=2,
        retrainer=_retrainer(),
        config=config,
        executor=executor,
    ) as cluster:
        with use_registry(MetricRegistry()):
            cluster.serve(split.stream_trace)
    assert_same_reservoir(cluster.retrainer.reservoir, _reference(split, config).reservoir)


def test_checkpoint_fixed_point_and_reference_document(split, artifacts, tmp_path):
    """serialise → restore → serialise stays a fixed point, and the
    reservoir section is the document the reference feed serialises to."""
    config = _config(split)
    service = OnlineDetectionService(
        fresh_pipeline(artifacts), retrainer=_retrainer(), config=config
    )
    manager = CheckpointManager(tmp_path)
    with use_registry(MetricRegistry()):
        service.serve(split.stream_trace, checkpoint=manager)
    doc = CheckpointManager.load(tmp_path)
    assert doc.pop("status") == "complete"
    restored, report = restore_service(doc, model_factory=light_model_factory)
    canon = lambda d: json.dumps(d, sort_keys=True, allow_nan=True)  # noqa: E731
    assert canon(service_to_dict(restored, report)) == canon(doc)
    assert canon(_retrainer_to_obj(restored.retrainer)) == canon(
        _retrainer_to_obj(_reference(split, config))
    )
