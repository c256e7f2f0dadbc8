"""Shared fixtures for the fault-injection suite.

The chaos scenarios need many *fresh* pipelines serving the *same*
stream under different fault plans, so everything expensive (the drift
split and the whitelist compile) is computed once per module and each
scenario rebuilds a cheap pipeline from the shared artifacts.  The
stub retrainer skips model fitting entirely: it hands back the same
install-ready artifacts every time, which is exactly what the
control-plane fault paths (corruption, install flakes, retries,
rollback) need to be exercised against without minutes of training.
"""

import numpy as np

from repro.core.deployment import SwitchArtifacts
from repro.datasets import make_drift_split
from repro.features.flow_features import FlowFeatureExtractor
from repro.features.scaling import IntegerQuantizer
from repro.switch.controller import Controller
from repro.switch.pipeline import PipelineConfig, SwitchPipeline
from tests.runtime.common import percentile_rules

PKT_COUNT_THRESHOLD = 8
TIMEOUT = 5.0


def make_split(seed=19, n_benign_flows=60, shift="none"):
    return make_drift_split(
        "Mirai", n_benign_flows=n_benign_flows, shift=shift, seed=seed
    )


def compile_artifacts(train_flows) -> SwitchArtifacts:
    """Percentile-whitelist artifacts over the split's training flows —
    deterministic and compile-only (no model fitting)."""
    fx = FlowFeatureExtractor(
        feature_set="switch",
        pkt_count_threshold=PKT_COUNT_THRESHOLD,
        timeout=TIMEOUT,
    )
    x, _ = fx.extract_flows(train_flows)
    quantizer = IntegerQuantizer(bits=12, space="log").fit(
        np.vstack([x, x * 1.5 + 1.0])  # headroom so rule edges stay in-domain
    )
    return SwitchArtifacts(
        fl_rules=percentile_rules(x).quantize(quantizer), fl_quantizer=quantizer
    )


def fresh_pipeline(
    artifacts: SwitchArtifacts,
    n_slots: int = 128,
    overflow_policy: str = "score",
) -> SwitchPipeline:
    """A new pipeline + controller serving *artifacts* from scratch."""
    pipeline = SwitchPipeline(
        fl_rules=artifacts.fl_rules,
        fl_quantizer=artifacts.fl_quantizer,
        pl_rules=artifacts.pl_rules,
        pl_quantizer=artifacts.pl_quantizer,
        config=PipelineConfig(
            pkt_count_threshold=PKT_COUNT_THRESHOLD,
            timeout=TIMEOUT,
            n_slots=n_slots,
            overflow_policy=overflow_policy,
        ),
    )
    Controller(pipeline)
    return pipeline


class StubRetrainer:
    """Drop-in retrainer that skips fitting: every retrain returns the
    same (valid, install-ready) artifacts instantly.

    The control-plane fault paths only care that ``retrain()`` produces
    something the pipeline will stage — corruption, flakes, retries, and
    rollback all happen *after* this call.
    """

    def __init__(self, artifacts: SwitchArtifacts) -> None:
        self.artifacts = artifacts
        self.retrains = 0

    def __len__(self) -> int:
        return 10**6  # always enough flows

    def observe(self, packets, flow_idx=None) -> None:
        pass

    def retrain(self) -> SwitchArtifacts:
        self.retrains += 1
        return self.artifacts


def recall(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    positives = int(np.sum(y_true == 1))
    if not positives:
        return 0.0
    return float(np.sum((y_true == 1) & (y_pred == 1)) / positives)
