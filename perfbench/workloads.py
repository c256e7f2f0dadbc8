"""The serve-path workloads: deploy iGuard, serve one scenario in a closed
loop, check what came out.

A *deployment* is one setup (scenario, training, fit, compile, install)
with its own seeds, derived from the run seed and the deployment index,
so a run is a function of its seed alone.  Chunk completions are
timestamped by :class:`ChunkClock`, which both serve loops accept as
their ``checkpoint=`` argument and call at every chunk boundary; nothing
in ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.checkpoint import ClusterCheckpointManager
from repro.cluster.service import ClusterService
from repro.cluster.worker import clone_pipeline
from repro.core.deployment import compile_switch_artifacts
from repro.datasets.trace import Trace
from repro.features.flow_features import FlowFeatureExtractor
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.retrain import Retrainer, default_model_factory
from repro.runtime.service import OnlineDetectionService, RuntimeConfig
from repro.scenarios import Scenario, get_scenario
from repro.switch.controller import Controller
from repro.switch.pipeline import PipelineConfig, SwitchPipeline

#: Seed reserved for re-checking claims; never used while tuning.
HELD_OUT_SEED = 9001

# Deployment shared by every workload (and by the one retrain).
PKT_THRESHOLD = 8
TIMEOUT_S = 5.0
N_SLOTS = 8192
TRAIN_FLOWS = 80
RULE_CELLS = 256
#: The reservoir is full long before the swap, so every retrain fits
#: the same number of flows.
RESERVOIR_FLOWS = 96
CHECKPOINT_EVERY = 4
#: adapt_botnet: the cadence swap fires after this chunk, in the
#: campaign's ramp; the drift monitor warms up until then and watches
#: the swapped-in tables.
SWAP_CHUNK = 42
N_SHARDS = 2
RECALL_FLOOR = 0.1
#: Precision must beat the attack share of the traffic (the precision of
#: flagging every packet) by this much.
PRECISION_MARGIN = 0.05

PATHS = ("red", "brown", "blue", "orange", "purple", "green")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    duration_s: float
    chunk_size: int
    #: Independent deployments (seed sets) per run.
    deployments: int
    #: Serves of each deployment; timings keep the fastest (see measure.py).
    repeats: int
    #: Per-layer metrics whose spans a traced run must hit; a layer the
    #: workload is meant to exercise but no longer calls fails the run.
    layers: Tuple[str, ...]


SETUP_LAYERS = (
    "setup.core.fit_s",
    "setup.core.rules_s",
    "setup.core.pl_rules_s",
    "setup.switch.quantize_s",
    "setup.switch.install_s",
)
DATA_PATH_LAYERS = (
    "scenarios.generate_s",
    "runtime.stream.rechunk_s",
    "switch.columns_s",
    "switch.matcher_build_s",
    "switch.state_loop_s",
    "switch.egress_s",
    "runtime.retrain.observe_s",
)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stream_pulse", "pulse_wave_syn", 20.0, 4096, deployments=3, repeats=3,
            layers=SETUP_LAYERS + DATA_PATH_LAYERS,
        ),
        Workload(
            "adapt_botnet", "botnet_rampup", 24.0, 1024, deployments=3, repeats=2,
            layers=SETUP_LAYERS + DATA_PATH_LAYERS + (
                "runtime.retrain.retrain_s",
                "core.fit_s",
                "core.rules_s",
                "core.pl_rules_s",
                "switch.quantize_s",
                "switch.install_s",
                "runtime.drift.observe_s",
                "runtime.checkpoint.save_s",
                "mitigation.tick_s",
            ),
        ),
        Workload(
            "cluster_amplification", "amplification_campaign", 60.0, 4096,
            deployments=5, repeats=2,
            layers=SETUP_LAYERS + (
                "scenarios.materialise_s",
                "cluster.fleet_start_s",
                "switch.columns_s",
                "runtime.retrain.observe_s",
                "cluster.route_s",
                "cluster.arena_write_s",
                "cluster.dispatch_s",
                "cluster.shard_wait_s",
                "cluster.merge_s",
            ),
        ),
    )
}


def deployment_seeds(seed: int, index: int) -> Dict[str, int]:
    """Every seed deployment *index* needs, derived from the run seed."""
    state = np.random.SeedSequence([seed, index]).generate_state(5)
    keys = ("scenario", "train", "model", "compile", "service")
    return {k: int(v) for k, v in zip(keys, state)}


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# -- setup ----------------------------------------------------------------


@dataclass
class Deployment:
    workload: Workload
    seeds: Dict[str, int]
    scenario: Scenario
    pipeline: SwitchPipeline
    setup_s: float = 0.0
    #: cluster_amplification serves a materialised trace (shm refuses streams).
    trace: Optional[Trace] = None
    cluster: Optional[ClusterService] = None


def deploy_pipeline(scenario: Scenario, seeds: Dict[str, int], tracer=None):
    """Fit iGuard on the scenario's benign flows and install it."""
    flows = scenario.stream().training_flows(TRAIN_FLOWS, seed=seeds["train"])
    extractor = FlowFeatureExtractor(
        feature_set="switch", pkt_count_threshold=PKT_THRESHOLD, timeout=TIMEOUT_S
    )
    x, _ = extractor.extract_flows(flows)
    model = default_model_factory(seeds["model"]).fit(np.asarray(x, dtype=float))
    art = compile_switch_artifacts(
        model, x, train_flows=flows, rule_cells=RULE_CELLS, seed=seeds["compile"]
    )
    with _span(tracer, "switch.install"):
        pipeline = SwitchPipeline(
            fl_rules=art.fl_rules,
            fl_quantizer=art.fl_quantizer,
            pl_rules=art.pl_rules,
            pl_quantizer=art.pl_quantizer,
            config=PipelineConfig(
                pkt_count_threshold=PKT_THRESHOLD, timeout=TIMEOUT_S, n_slots=N_SLOTS
            ),
        )
        Controller(pipeline)
    return pipeline


def start_cluster(pipeline: SwitchPipeline, workload: Workload, seed: int):
    cluster = ClusterService(
        pipeline,
        n_shards=N_SHARDS,
        config=RuntimeConfig(chunk_size=workload.chunk_size, drift_threshold=0.0),
        executor="shm",
        seed=seed,
    )
    return cluster.start()


def setup(workload: Workload, seeds: Dict[str, int], tracer=None) -> Deployment:
    """Everything before the first chunk request, timed."""
    start = time.perf_counter()
    scenario = get_scenario(
        workload.scenario, seed=seeds["scenario"], duration_s=workload.duration_s
    )
    dep = Deployment(workload, seeds, scenario, deploy_pipeline(scenario, seeds, tracer))
    if workload.name == "cluster_amplification":
        with _span(tracer, "scenarios.materialise"):
            dep.trace = scenario.stream().materialise()
        with _span(tracer, "cluster.fleet_start"):
            dep.cluster = start_cluster(dep.pipeline, workload, seeds["service"])
    dep.setup_s = time.perf_counter() - start
    return dep


# -- serving --------------------------------------------------------------


class ChunkClock:
    """Serve's ``checkpoint=`` hook: timestamps each chunk completion
    (after the chunk's drift, retrain, policy and save work) and
    forwards to a real checkpoint manager when given one."""

    def __init__(self, manager=None) -> None:
        self.manager = manager
        #: ``(perf_counter, swaps so far)`` per completed chunk.
        self.marks: List[tuple] = []
        self.bytes_written = 0

    def maybe_save(self, service, report) -> bool:
        saved = False
        if self.manager is not None and self.manager.maybe_save(service, report):
            saved = True
            self.bytes_written += self._size()
        self.marks.append((time.perf_counter(), report.n_swaps))
        return saved

    def save(self, service, report, complete: bool = False):
        if self.manager is None:
            return None
        path = self.manager.save(service, report, complete=complete)
        self.bytes_written += self._size()
        return path

    def _size(self) -> int:
        return (self.manager.directory / CheckpointManager.FILENAME).stat().st_size


@dataclass
class Served:
    """One serve call and what the benchmark read off it."""

    wall_s: float
    n_packets: int
    y_true: np.ndarray
    y_pred: np.ndarray
    intervals: np.ndarray
    #: Chunk interval containing the swap (None when nothing swapped).
    stall_s: Optional[float]
    path_counts: Dict[str, int]
    swaps: int
    rollbacks: int
    retrain_failures: int
    swap_reasons: List[str]
    drift_signals: int
    checkpoint_bytes: int
    checkpoint_saves: int
    checkpoint_written: int
    flows_offered: int
    table_generations: int
    #: Flows the mitigation policy holds at its MONITOR rung.
    active_monitors: int = 0
    shard_packets: List[int] = field(default_factory=list)
    shm_residue: List[str] = field(default_factory=list)
    digest: str = ""


def path_counts(report) -> Dict[str, int]:
    """Integer per-path packet counts from the per-chunk path mix."""
    counts = dict.fromkeys(PATHS, 0)
    for stats in report.chunk_stats:
        for path, frac in stats.path_fractions.items():
            counts[path] = counts.get(path, 0) + int(round(frac * stats.n_packets))
    return counts


def verdict_digest(y_pred: np.ndarray, counts: Dict[str, int]) -> str:
    h = hashlib.sha256(np.asarray(y_pred, dtype=np.uint8).tobytes())
    h.update(json.dumps(sorted(counts.items())).encode())
    return h.hexdigest()[:16]


def serve(dep: Deployment, tmp: Path, tracer=None, repeat: bool = False) -> Served:
    """Serve the deployed tables once, from empty state: the service
    gets a clone of the deployed pipeline, so a swap never reaches the
    deployment.  The cluster's first serve uses the fleet setup started;
    a ``repeat`` starts another one, and skips the final-state save
    (its size is the first serve's)."""
    w, seeds = dep.workload, dep.seeds
    tmp.mkdir(parents=True, exist_ok=True)
    manager = None
    if w.name == "cluster_amplification":
        service = start_cluster(dep.pipeline, w, seeds["service"]) if repeat else dep.cluster
        source = dep.trace
        root = "cluster.service"
    else:
        pipeline = clone_pipeline(dep.pipeline)
        source = dep.scenario.stream()
        root = "runtime.service"
        if w.name == "adapt_botnet":
            retrainer = Retrainer(
                pkt_count_threshold=PKT_THRESHOLD,
                timeout=TIMEOUT_S,
                rule_cells=RULE_CELLS,
                reservoir_size=RESERVOIR_FLOWS,
                seed=seeds["service"],
            )
            config = RuntimeConfig(
                chunk_size=w.chunk_size,
                drift_threshold=0.25,
                drift_window=2,
                baseline_window=2,
                min_drift_packets=64,
                drift_warmup_chunks=SWAP_CHUNK,
                cadence=SWAP_CHUNK,
                max_swaps=1,
            )
            service = OnlineDetectionService(
                pipeline, retrainer=retrainer, config=config,
                seed=seeds["service"], policy="graduated",
            )
            manager = CheckpointManager(tmp / "checkpoint", every=CHECKPOINT_EVERY)
        else:
            service = OnlineDetectionService(
                pipeline,
                config=RuntimeConfig(chunk_size=w.chunk_size, drift_threshold=0.0),
                seed=seeds["service"],
            )
    seen_before = service.retrainer.reservoir.seen
    if tracer is not None:
        from perfbench.hooks import instrument_serve

        instrument_serve(tracer, service, source, manager)
    clock = ChunkClock(manager)
    try:
        start = time.perf_counter()
        with _span(tracer, root):
            report = service.serve(source, checkpoint=clock)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
        saves = manager.saves if manager is not None else 0
        if manager is None and not repeat:
            # No checkpoints while serving: write the final state once,
            # outside the timed window, so state size is still measured.
            cls = ClusterCheckpointManager if root == "cluster.service" else CheckpointManager
            manager = cls(tmp / "final")
            manager.save(service, report, complete=True)
        ckpt_bytes = 0
        if manager is not None:
            ckpt_bytes = (manager.directory / CheckpointManager.FILENAME).stat().st_size
        segment = getattr(service, "shm_segment_name", None)
    finally:
        if tracer is not None:
            tracer.restore()
        if root == "cluster.service":
            service.close()

    marks = [t for t, _ in clock.marks]
    intervals = np.diff(np.array([start] + marks))
    swap_at = [
        i for i, (_, n) in enumerate(clock.marks)
        if n > (clock.marks[i - 1][1] if i else 0)
    ]
    stall = float(intervals[swap_at[0]]) if swap_at else None
    counts = path_counts(report)
    engine = getattr(getattr(service, "pipeline", None), "controller", None)
    engine = getattr(engine, "policy", None)
    status = engine.status() if engine is not None else {"active": {}}
    residue = []
    if segment is not None and Path("/dev/shm", segment).exists():
        residue.append(segment)
    return Served(
        wall_s=wall,
        n_packets=int(report.n_packets),
        y_true=np.asarray(report.y_true),
        y_pred=np.asarray(report.y_pred),
        intervals=intervals,
        stall_s=stall,
        path_counts=counts,
        swaps=report.n_swaps,
        rollbacks=report.n_rollbacks,
        retrain_failures=report.retrain_failures,
        swap_reasons=[e.reason for e in report.swap_events],
        drift_signals=report.drift_signals,
        checkpoint_bytes=ckpt_bytes,
        checkpoint_saves=saves,
        checkpoint_written=clock.bytes_written,
        flows_offered=service.retrainer.reservoir.seen - seen_before,
        table_generations=1 + len(report.swap_events),
        active_monitors=int(status["active"].get("monitor", 0)),
        shard_packets=list(getattr(report, "shard_packets", [])),
        shm_residue=residue,
        digest=verdict_digest(report.y_pred, counts),
    )


# -- ground truth and checks ----------------------------------------------


def ground_truth(dep: Deployment):
    """``(packets, attack packets)`` offered, counted on a separate
    generation pass (or on the materialised trace)."""
    packets = dep.trace.packets if dep.trace is not None else dep.scenario.stream().iter_packets()
    n = n_attack = 0
    for pkt in packets:
        n += 1
        n_attack += pkt.malicious
    return n, int(n_attack)


def check(dep: Deployment, served: Served, truth) -> List[str]:
    """Correctness failures of one serve (empty when it passed)."""
    n, n_attack = truth
    problems = []
    if served.n_packets != n or served.y_pred.size != n:
        problems.append(
            f"served {served.n_packets} packets ({served.y_pred.size} verdicts), "
            f"scenario offered {n}"
        )
    if int(served.y_true.sum()) != n_attack:
        problems.append(
            f"served {int(served.y_true.sum())} attack packets, ground truth {n_attack}"
        )
    if sum(served.path_counts.values()) - served.path_counts["green"] != n:
        problems.append(f"path counts {served.path_counts} do not cover {n} packets")
    expected_swaps = 1 if dep.workload.name == "adapt_botnet" else 0
    if served.swaps != expected_swaps:
        problems.append(f"{served.swaps} swaps, expected {expected_swaps}")
    if served.rollbacks or served.retrain_failures:
        problems.append(
            f"{served.rollbacks} rollbacks, {served.retrain_failures} retrain failures"
        )
    if served.shm_residue:
        problems.append(f"shared-memory residue {served.shm_residue}")
    return problems


def detection_problems(recall: float, precision: float, attack_share: float) -> List[str]:
    """Floors on the run's pooled detection quality that only a detector
    that stopped detecting trips: one that flags nothing fails the
    recall floor, one that flags everything (or at random) has the
    attack share as its precision and fails the precision floor."""
    problems = []
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.3f} below the {RECALL_FLOOR} floor")
    floor = attack_share + PRECISION_MARGIN
    if precision < floor:
        problems.append(
            f"precision {precision:.3f} below {floor:.3f} "
            f"(attack share {attack_share:.3f} + {PRECISION_MARGIN})"
        )
    return problems


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
