"""Reservoir sampling and model refit for the serving control plane.

On a retrain signal the control plane needs a training set that reflects
*recent* traffic without storing the stream: a classic algorithm-R
reservoir over completed bidirectional flows.  All observed flows are
admitted — the runtime has no ground truth, and filtering by the current
model's own verdicts would symmetrically exclude drifted-but-benign
flows, blocking exactly the adaptation a retrain is for.  iGuard's
training is robust to the resulting contamination by design (the paper's
poisoning experiments, Table 3): malicious flows are off the benign
manifold, so the autoencoder oracle refuses to whitelist their region.

:class:`Retrainer` turns the reservoir into install-ready
:class:`~repro.core.deployment.SwitchArtifacts` with the same
compile/quantise path as the offline harness.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.deployment import SwitchArtifacts, compile_switch_artifacts
from repro.core.iguard import IGuard
from repro.features.flow_features import FlowFeatureExtractor
from repro.nn.autoencoder import MagnifierAutoencoder
from repro.nn.ensemble import AutoencoderEnsemble
from repro.switch.batch import canonical_flow_index, packet_tuples
from repro.utils.rng import SeedLike, as_rng, spawn_seeds


def default_model_factory(seed: SeedLike = None) -> IGuard:
    """A serving-grade iGuard: smaller forest and a two-member ensemble
    with a reduced epoch budget, so a retrain completes within a few
    chunks of serving rather than minutes."""
    rng = as_rng(seed)
    oracle_seed, model_seed = spawn_seeds(rng, 2)
    member_seeds = spawn_seeds(as_rng(oracle_seed), 2)
    oracle = AutoencoderEnsemble(
        autoencoders=[MagnifierAutoencoder(epochs=80, seed=s) for s in member_seeds],
        threshold_margin=2.0,
        seed=oracle_seed,
    )
    return IGuard(
        n_trees=9,
        subsample_size=96,
        k_aug=64,
        tau_split=0.0,
        threshold_margin=2.0,
        distil_margin=1.2,
        oracle=oracle,
        seed=model_seed,
    )


class FlowReservoir:
    """Uniform reservoir (algorithm R) over flows seen on the stream."""

    def __init__(self, capacity: int = 512, seed: SeedLike = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = as_rng(seed)
        self._flows: List[Sequence] = []
        self.seen = 0

    def __len__(self) -> int:
        return len(self._flows)

    def add_chunk(self, packets: Sequence, flow_idx: np.ndarray) -> None:
        """Offer every canonical flow of one chunk, each kept with
        probability capacity / seen (algorithm R).

        *flow_idx* labels each packet of *packets* with its canonical
        flow (equal labels ⇔ same bidirectional flow).  Flows are offered
        in order of first appearance, and once the reservoir is full each
        offer takes the draw ``integers(seen)`` — one batched call whose
        draws and end state equal the per-flow calls.  Packet lists are
        built only for the flows still held at the end of the chunk, each
        in arrival order.
        """
        flow_idx = np.asarray(flow_idx)
        if not flow_idx.size:
            return
        labels, first = np.unique(flow_idx, return_index=True)
        offered = labels[np.argsort(first)].tolist()
        m = len(offered)
        start = len(self._flows)
        fill = min(m, self.capacity - start)
        taken = dict(zip(range(start, start + fill), offered[:fill]))
        self._flows.extend([None] * fill)
        if fill < m:
            highs = np.arange(self.seen + fill + 1, self.seen + m + 1)
            draws = self._rng.integers(highs)
            for j in np.flatnonzero(draws < self.capacity).tolist():
                taken[int(draws[j])] = offered[fill + j]
        self.seen += m
        if not taken:
            return
        order = np.argsort(flow_idx, kind="stable")
        grouped = flow_idx[order]
        for slot, label in taken.items():
            lo, hi = np.searchsorted(grouped, [label, label + 1])
            self._flows[slot] = [packets[i] for i in order[lo:hi].tolist()]

    def flows(self) -> List[Sequence]:
        return list(self._flows)


class Retrainer:
    """Refit-and-recompile step of the serving control plane.

    Parameters mirror the deployment knobs of
    :class:`~repro.eval.harness.TestbedConfig` so a runtime-retrained
    model is compiled exactly like an offline one.  ``model_factory``
    builds a fresh unfitted model per retrain (anything with ``fit(x)``
    and the ``to_rules`` compile contract); defaults to
    :func:`default_model_factory`.
    """

    def __init__(
        self,
        pkt_count_threshold: int = 8,
        timeout: float = 5.0,
        quantizer_bits: int = 16,
        rule_cells: int = 1024,
        use_pl_model: bool = True,
        reservoir_size: int = 512,
        model_factory: Optional[Callable[[SeedLike], object]] = None,
        seed: SeedLike = None,
    ) -> None:
        self.pkt_count_threshold = pkt_count_threshold
        self.timeout = timeout
        self.quantizer_bits = quantizer_bits
        self.rule_cells = rule_cells
        self.use_pl_model = use_pl_model
        self.model_factory = model_factory or default_model_factory
        self._rng = as_rng(seed)
        reservoir_seed = spawn_seeds(self._rng, 1)[0]
        self.reservoir = FlowReservoir(capacity=reservoir_size, seed=reservoir_seed)
        self.retrains = 0
        self.last_model_ = None

    def __len__(self) -> int:
        return len(self.reservoir)

    def observe(
        self, packets: Sequence, flow_idx: Optional[np.ndarray] = None
    ) -> None:
        """Fold one served chunk's flows into the reservoir.

        *flow_idx* is the per-packet canonical flow label the caller
        already holds (the batch replay's ``flow_idx``, or
        :func:`~repro.switch.batch.canonical_flow_index` of the routed
        tuples); when omitted it is computed from *packets*.
        """
        if flow_idx is None:
            flow_idx = canonical_flow_index(packet_tuples(packets))
        self.reservoir.add_chunk(packets, flow_idx)

    def retrain(self) -> SwitchArtifacts:
        """Refit on the reservoir and recompile install-ready artifacts."""
        flows = self.reservoir.flows()
        if not flows:
            raise RuntimeError("retrain() with an empty reservoir")
        extractor = FlowFeatureExtractor(
            feature_set="switch",
            pkt_count_threshold=self.pkt_count_threshold,
            timeout=self.timeout,
        )
        x_train, _ = extractor.extract_flows(flows)
        fit_seed, compile_seed = spawn_seeds(self._rng, 2)
        model = self.model_factory(fit_seed)
        model.fit(np.asarray(x_train, dtype=float))
        self.last_model_ = model
        self.retrains += 1
        return compile_switch_artifacts(
            model,
            x_train,
            train_flows=flows,
            quantizer_bits=self.quantizer_bits,
            rule_cells=self.rule_cells,
            use_pl_model=self.use_pl_model,
            seed=compile_seed,
        )
