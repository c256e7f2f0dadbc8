"""Behavioural Tofino data-plane simulator: match-action tables, TCAM
range rules with prefix expansion, bi-hash double-hashed flow state, the
six-path packet pipeline of Fig 4, the control plane, and the resource
accounting model behind Table 1."""

from repro.switch.batch import (
    BatchReplayOutcome,
    DecisionColumns,
    RangeIntervalMatcher,
    TraceArrays,
    bi_hash_batch,
    canonical_flow_index,
    replay_arrays,
    replay_trace_batch,
)
from repro.switch.controller import (
    FEATURE_DIGEST_EXTRA_BYTES,
    Controller,
    ControllerStats,
)
from repro.switch.hashing import DoubleHashTable, Slot, bi_hash
from repro.switch.multipoint import (
    Checkpoint,
    MultiCheckpointPipeline,
    build_checkpoint_rules,
)
from repro.switch.p4gen import (
    generate_p4_program,
    generate_table_entries,
    write_artifacts,
)
from repro.switch.pipeline import (
    ACTION_DROP,
    ACTION_FORWARD,
    PATH_BLUE,
    PATH_BROWN,
    PATH_GREEN,
    PATH_ORANGE,
    PATH_PURPLE,
    PATH_RED,
    Digest,
    PacketDecision,
    PipelineConfig,
    SwitchPipeline,
)
from repro.switch.range_encoding import (
    prefix_count,
    range_to_prefixes,
    rule_tcam_entries,
    ruleset_tcam_entries,
)
from repro.switch.resources import (
    PIPELINE_STAGES,
    ResourceReport,
    memory_fraction,
    resource_report,
)
from repro.switch.runner import (
    PIPELINE_LATENCY_NS,
    REPLAY_MODES,
    ChainedDecisions,
    DecisionView,
    ReplayResult,
    ThroughputReport,
    replay_trace,
    throughput_latency_model,
)
from repro.switch.storage import (
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    LABEL_UNDECIDED,
    FlowState,
    FlowStateStore,
)
from repro.switch.tables import BlacklistTable, WhitelistTable

__all__ = [
    "ACTION_DROP",
    "ACTION_FORWARD",
    "FEATURE_DIGEST_EXTRA_BYTES",
    "LABEL_BENIGN",
    "LABEL_MALICIOUS",
    "LABEL_UNDECIDED",
    "PATH_BLUE",
    "PATH_BROWN",
    "PATH_GREEN",
    "PATH_ORANGE",
    "PATH_PURPLE",
    "PATH_RED",
    "PIPELINE_LATENCY_NS",
    "PIPELINE_STAGES",
    "REPLAY_MODES",
    "BatchReplayOutcome",
    "BlacklistTable",
    "ChainedDecisions",
    "Checkpoint",
    "Controller",
    "ControllerStats",
    "DecisionColumns",
    "DecisionView",
    "Digest",
    "DoubleHashTable",
    "FlowState",
    "FlowStateStore",
    "MultiCheckpointPipeline",
    "PacketDecision",
    "PipelineConfig",
    "RangeIntervalMatcher",
    "ReplayResult",
    "ResourceReport",
    "Slot",
    "SwitchPipeline",
    "ThroughputReport",
    "TraceArrays",
    "WhitelistTable",
    "bi_hash",
    "bi_hash_batch",
    "build_checkpoint_rules",
    "canonical_flow_index",
    "generate_p4_program",
    "generate_table_entries",
    "memory_fraction",
    "prefix_count",
    "range_to_prefixes",
    "replay_arrays",
    "replay_trace",
    "replay_trace_batch",
    "resource_report",
    "rule_tcam_entries",
    "ruleset_tcam_entries",
    "throughput_latency_model",
    "write_artifacts",
]
