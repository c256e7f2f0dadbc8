"""PL matcher cache: one :class:`RangeIntervalMatcher` per table generation.

The batch engine's PL lookup is compiled once per installed
:class:`~repro.switch.tables.WhitelistTable` and cached on it.  Every
install (hot swap, rollback) builds a new table object, so a serve that
swaps once and then rolls back must build exactly three matchers per
pipeline, and the rolled-back generation must still decide exactly as
the scalar engine does (no stale matcher from the swapped-out tables).
"""

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.core.deployment import SwitchArtifacts
from repro.features.packet_features import extract_packet_features
from repro.features.scaling import IntegerQuantizer
from repro.runtime import OnlineDetectionService, RuntimeConfig
from repro.switch.batch import RangeIntervalMatcher
from repro.telemetry import MetricRegistry, use_registry
from tests.faults.common import StubRetrainer, compile_artifacts, fresh_pipeline, make_split
from tests.runtime.common import percentile_rules

N_CHUNKS = 6


@pytest.fixture(scope="module")
def split():
    return make_split(seed=43, n_benign_flows=40)


def _pl_tables(packets, scale):
    x, _ = extract_packet_features(packets)
    quantizer = IntegerQuantizer(bits=12, space="log").fit(np.vstack([x, x * 1.5 + 1.0]))
    return percentile_rules(x * scale).quantize(quantizer), quantizer


@pytest.fixture(scope="module")
def generations(split):
    """Two FL+PL artifact sets with different PL whitelists."""
    fl = compile_artifacts(split.train_flows)
    packets = [p for flow in split.train_flows for p in flow]
    out = []
    for scale in (1.0, 1.3):
        pl_rules, pl_quantizer = _pl_tables(packets, scale)
        out.append(
            SwitchArtifacts(
                fl_rules=fl.fl_rules,
                fl_quantizer=fl.fl_quantizer,
                pl_rules=pl_rules,
                pl_quantizer=pl_quantizer,
            )
        )
    return out


class RollbackAfterSwap:
    """Checkpoint stand-in that queues one ops rollback at the first
    chunk boundary after the swap (applied at the next boundary)."""

    def __init__(self) -> None:
        self.queued = False

    def maybe_save(self, service, report) -> None:
        if report.n_swaps and not self.queued:
            service.request_control("rollback", source="test")
            self.queued = True

    def save(self, service, report, complete=False) -> None:
        pass


def _serve(kind, split, generations, mode):
    first, second = generations
    config = RuntimeConfig(
        chunk_size=-(-len(split.stream_trace.packets) // N_CHUNKS),
        mode=mode,
        drift_threshold=0.0,
        cadence=2,
        max_swaps=1,
        stage_backoff_s=0.0,
    )
    pipeline = fresh_pipeline(first)
    hook = RollbackAfterSwap()
    with use_registry(MetricRegistry()):
        if kind == "service":
            service = OnlineDetectionService(
                pipeline, retrainer=StubRetrainer(second), config=config
            )
            report = service.serve(split.stream_trace, checkpoint=hook)
        else:
            with ClusterService(
                pipeline, n_shards=2, retrainer=StubRetrainer(second), config=config
            ) as service:
                report = service.serve(split.stream_trace, checkpoint=hook)
    assert report.n_swaps == 1
    assert [e["outcome"] for e in report.control_events] == ["rolled_back"]
    # The rollback lands before the last chunks, so all three
    # generations serve packets.
    assert report.control_events[0]["chunk"] < N_CHUNKS - 1
    return report


@pytest.mark.parametrize("kind, pipelines", [("service", 1), ("cluster", 2)])
def test_one_build_per_generation_and_scalar_verdicts(
    split, generations, monkeypatch, kind, pipelines
):
    builds = []
    init = RangeIntervalMatcher.__init__

    def counting_init(self, ruleset):
        builds.append(ruleset)
        init(self, ruleset)

    monkeypatch.setattr(RangeIntervalMatcher, "__init__", counting_init)
    batch = _serve(kind, split, generations, "batch")
    # initial tables, the swapped-in generation, the rolled-back one
    assert len(builds) == 3 * pipelines
    first, second = generations
    assert [r is second.pl_rules for r in builds[::pipelines]] == [False, True, False]

    builds.clear()
    scalar = _serve(kind, split, generations, "scalar")
    assert builds == []
    np.testing.assert_array_equal(batch.y_pred, scalar.y_pred)
    assert batch.chunk_stats == scalar.chunk_stats
    assert batch.decisions == scalar.decisions


def test_swapped_generations_decide_differently(split, generations):
    """Guard on the fixture: the two PL whitelists must disagree on the
    stream, or a stale matcher would go unnoticed."""
    packets = split.stream_trace.packets
    x, _ = extract_packet_features(packets)
    labels = []
    for art in generations:
        pipe = fresh_pipeline(art)
        labels.append(pipe.pl_table.matcher.predict(art.pl_quantizer.quantize(x)))
    assert np.any(labels[0] != labels[1])


def test_matcher_is_cached_per_table_object(generations):
    pipe = fresh_pipeline(generations[0])
    matcher = pipe.pl_table.matcher
    assert pipe.pl_table.matcher is matcher
    pipe.stage_tables(
        generations[1].fl_rules,
        generations[1].fl_quantizer,
        pl_rules=generations[1].pl_rules,
        pl_quantizer=generations[1].pl_quantizer,
    )
    pipe.hot_swap()
    assert pipe.pl_table.matcher is not matcher
    pipe.rollback()
    assert pipe.pl_table.ruleset is generations[0].pl_rules
    assert pipe.pl_table.matcher is not matcher  # a fresh table, a fresh build
