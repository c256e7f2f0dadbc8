"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the adoption path end to end:

* ``train``   — fit iGuard on a benign capture (synthetic or pcap) and
  report the compiled whitelist.
* ``evaluate``— run one attack workload through the CPU protocol and
  print the paper's metric triple for iForest / Magnifier / iGuard.
* ``deploy``  — run the full testbed protocol (switch simulator) for one
  attack and print per-packet metrics, paths, and resources.
* ``serve``   — run the online serving runtime on a streaming trace:
  chunked replay with drift monitoring, runtime retrains, and staged
  whitelist hot-swaps (:mod:`repro.runtime`).  ``--faults SPEC``
  injects a deterministic fault schedule (:mod:`repro.faults`);
  ``--checkpoint DIR`` journals crash-safe snapshots at chunk
  boundaries; ``--ops-port N`` attaches the live HTTP operations
  endpoint (:mod:`repro.ops`) for the duration of the run.
* ``resume``  — continue a killed ``serve --checkpoint`` run from its
  last snapshot; the completed run prints verdict totals identical to
  the uninterrupted one.  Idempotent on an already-complete checkpoint.
* ``export``  — write the P4-16 program and table entries for a trained
  model; ``--bundle DIR`` also persists the model as a reloadable
  :mod:`repro.io` bundle.
* ``attacks`` — list the 15 attack workload names.
* ``scenario`` — inspect the scenario foundry (:mod:`repro.scenarios`):
  ``scenario list`` shows the registered presets, ``scenario preview
  SPEC`` generates a spec once (streaming, one pass) and prints
  per-window offered-load rows.  ``serve --scenario SPEC`` serves the
  scenario's packet stream instead of an attack split, training the
  model on benign flows drawn from the scenario's own tenant
  populations; generation is chunked, so arbitrarily long scenarios
  serve in bounded memory.
* ``report``  — pretty-print a saved ``telemetry.json`` run report, or
  ``--watch URL`` to render the live ``/metrics`` document of a serving
  run's ops endpoint on an interval.

``deploy --model`` and ``serve --model`` accept either a model name
(``iguard``/``iforest``, trained on the spot) or the path of a bundle
directory written by ``export --bundle``.

Every experiment command accepts ``--telemetry PATH``: the run then
executes under a fresh metric registry and writes a structured report
(counters, span tree, events — see :mod:`repro.telemetry`) to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iGuard (CoNEXT 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry",
        metavar="PATH",
        help="write a structured telemetry.json run report to PATH",
    )

    ops = argparse.ArgumentParser(add_help=False)
    ops.add_argument(
        "--ops-port", type=int, default=None, metavar="PORT",
        help="serve the live HTTP ops endpoint on 127.0.0.1:PORT for the "
        "duration of the run (0 picks a free port; see repro.ops)",
    )
    ops.add_argument(
        "--ops-token", default=None, metavar="TOKEN",
        help="shared secret required (X-Repro-Token header) for POST "
        "/control/* verbs; GET endpoints stay open",
    )

    p_train = sub.add_parser(
        "train", help="fit iGuard on benign traffic", parents=[telemetry]
    )
    p_train.add_argument("--pcap", help="benign capture to train on (else synthetic)")
    p_train.add_argument("--flows", type=int, default=320, help="synthetic benign flows")
    p_train.add_argument("--trees", type=int, default=11)
    p_train.add_argument("--seed", type=int, default=7)

    p_eval = sub.add_parser(
        "evaluate", help="CPU-protocol metrics for one attack", parents=[telemetry]
    )
    p_eval.add_argument("attack", help='workload name, e.g. "Mirai" (see: attacks)')
    p_eval.add_argument("--flows", type=int, default=320)
    p_eval.add_argument("--seed", type=int, default=7)

    p_deploy = sub.add_parser(
        "deploy", help="testbed protocol for one attack", parents=[telemetry]
    )
    p_deploy.add_argument("attack")
    p_deploy.add_argument(
        "--model",
        default="iguard",
        help="'iguard', 'iforest', or the path of a bundle written by "
        "'export --bundle' (deployed without retraining)",
    )
    p_deploy.add_argument("--flows", type=int, default=320)
    p_deploy.add_argument("--seed", type=int, default=7)

    p_serve = sub.add_parser(
        "serve",
        help="online serving runtime: stream, monitor drift, hot-swap",
        parents=[telemetry, ops],
    )
    p_serve.add_argument(
        "attack", nargs="?", default=None,
        help="attack workload name (omit when using --scenario)",
    )
    p_serve.add_argument(
        "--scenario", metavar="SPEC", default=None,
        help="serve a scenario stream instead of an attack split: a preset "
        "name ('pulse_wave_syn'), a preset with overrides "
        "('pulse_wave_syn;duration=120;seed=11'), or a full DSL spec "
        "(see repro.scenarios; 'repro scenario list' shows presets)",
    )
    p_serve.add_argument(
        "--model", default="iguard", help="model name or bundle path (as in deploy)"
    )
    p_serve.add_argument("--flows", type=int, default=240,
                         help="benign flows per stream phase (or scenario "
                         "training flows with --scenario)")
    p_serve.add_argument("--chunk-size", type=int, default=2000)
    p_serve.add_argument(
        "--drift", type=float, default=0.25,
        help="drift score that triggers a retrain (0 disables drift retrains)",
    )
    p_serve.add_argument(
        "--cadence", type=int, default=0,
        help="also retrain every N chunks (0 disables)",
    )
    p_serve.add_argument("--max-swaps", type=int, default=None,
                         help="cap on table swaps for this run")
    p_serve.add_argument(
        "--shift", choices=("device_mix", "none"), default="device_mix",
        help="benign distribution shift of the streamed trace",
    )
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument(
        "--policy", metavar="SPEC", default=None,
        help="attach a mitigation policy: a preset name ('drop_fast', "
        "'graduated', 'monitor_only', 'rate_limit_then_drop') or a DSL "
        "spec, e.g. 'graduated;idle_timeout=20;quota:max_blocks=64;"
        "allow:prefix=10.0.0.0/8' (see repro.mitigation)",
    )
    p_serve.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="deterministic fault schedule, e.g. "
        "'seed=7;digest_loss:p=0.2;store_pressure:at=3' (see repro.faults)",
    )
    p_serve.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal crash-safe snapshots to DIR (resume with 'repro resume DIR')",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot every N-th chunk boundary (default 1)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="serve through a flow-sharded cluster of N pipelines "
        "(1 = single-pipeline service)",
    )
    p_serve.add_argument(
        "--cluster-executor", choices=("inprocess", "multiprocess", "shm"),
        default="inprocess",
        help="where shard workers run (with --shards > 1): 'inprocess' is "
        "deterministic, 'multiprocess' parallelises across cores over "
        "pipe+pickle, 'shm' parallelises over the zero-copy shared-memory "
        "descriptor transport",
    )

    p_resume = sub.add_parser(
        "resume",
        help="continue a killed 'serve --checkpoint' run from its snapshot",
        parents=[telemetry, ops],
    )
    p_resume.add_argument("checkpoint", help="checkpoint directory written by serve")
    p_resume.add_argument(
        "--no-faults", action="store_true",
        help="resume without the checkpointed fault schedule",
    )

    p_export = sub.add_parser(
        "export", help="write P4 artifacts for a trained model", parents=[telemetry]
    )
    p_export.add_argument("--p4", default="iguard_whitelist.p4")
    p_export.add_argument("--entries", default="iguard_entries.json")
    p_export.add_argument(
        "--bundle", metavar="DIR", default=None,
        help="also save the trained model as a reloadable bundle directory",
    )
    p_export.add_argument("--flows", type=int, default=320)
    p_export.add_argument("--seed", type=int, default=7)

    sub.add_parser("attacks", help="list attack workload names")

    p_scenario = sub.add_parser(
        "scenario", help="inspect scenario presets and DSL specs"
    )
    scenario_sub = p_scenario.add_subparsers(dest="scenario_cmd", required=True)
    scenario_sub.add_parser("list", help="list registered scenario presets")
    p_preview = scenario_sub.add_parser(
        "preview",
        help="generate a scenario once and print per-window offered-load rows",
    )
    p_preview.add_argument(
        "spec", help="preset name or DSL spec (as in serve --scenario)"
    )
    p_preview.add_argument(
        "--every", type=float, default=5.0, metavar="S",
        help="summary window in seconds (default 5)",
    )
    p_preview.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )

    p_report = sub.add_parser(
        "report", help="pretty-print a saved telemetry run report"
    )
    p_report.add_argument(
        "path", nargs="?", default=None,
        help="telemetry.json written by --telemetry (omit with --watch)",
    )
    p_report.add_argument(
        "--events", type=int, default=10, help="max events to show (default 10)"
    )
    p_report.add_argument(
        "--watch", metavar="URL", default=None,
        help="render the live /metrics document of a serving run's ops "
        "endpoint (e.g. http://127.0.0.1:8080) instead of a saved file",
    )
    p_report.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between --watch refreshes (default 2)",
    )
    p_report.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop --watch after N refreshes (0 = until interrupted)",
    )
    return parser


def _cmd_attacks(_args) -> int:
    from repro.datasets import attack_names

    for name in attack_names():
        print(name)
    return 0


def _train_model(flows: int, trees: int, seed: int, pcap: Optional[str]):
    from repro.core import IGuard
    from repro.datasets import generate_benign_flows
    from repro.features import FlowFeatureExtractor

    extractor = FlowFeatureExtractor(
        feature_set="switch", pkt_count_threshold=8, timeout=5.0
    )
    if pcap:
        from repro.datasets.pcap import read_pcap

        trace = read_pcap(pcap)
        flow_list = list(trace.flows().values())
        print(f"loaded {len(trace)} packets / {len(flow_list)} flows from {pcap}")
    else:
        flow_list = generate_benign_flows(flows, seed=seed)
        print(f"generated {len(flow_list)} synthetic benign flows")
    x_train, _ = extractor.extract_flows(flow_list)
    model = IGuard(n_trees=trees, subsample_size=96, k_aug=96, tau_split=0.0,
                   seed=seed).fit(x_train)
    return model, x_train, flow_list


def _cmd_train(args) -> int:
    model, x_train, _flows = _train_model(args.flows, args.trees, args.seed, args.pcap)
    rules = model.to_rules(max_cells=1024, seed=args.seed)
    print(f"trained iGuard: {model.forest_.n_leaves()} leaves across "
          f"{args.trees} trees")
    print(f"compiled {len(rules)} whitelist rules "
          f"(consistency on train: {model.consistency(rules, x_train):.3f})")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.eval.harness import run_cpu_experiment

    result = run_cpu_experiment(args.attack, n_benign_flows=args.flows, seed=args.seed)
    print(f"{args.attack}: (macro F1 / ROC AUC / PR AUC)")
    for model, m in result.metrics.items():
        print(f"  {model:<10s} {m.macro_f1:.3f} / {m.roc_auc:.3f} / {m.pr_auc:.3f}")
    return 0


def _pipeline_from_bundle(path: str):
    """Install a saved model bundle into a fresh pipeline (no retraining)."""
    from repro.io import load_model_bundle
    from repro.switch import Controller, PipelineConfig, SwitchPipeline

    bundle = load_model_bundle(path)
    arts = bundle.artifacts
    meta = bundle.meta or {}
    pipeline = SwitchPipeline(
        fl_rules=arts.fl_rules,
        fl_quantizer=arts.fl_quantizer,
        pl_rules=arts.pl_rules,
        pl_quantizer=arts.pl_quantizer,
        config=PipelineConfig(
            pkt_count_threshold=int(meta.get("pkt_count_threshold", 8)),
            timeout=float(meta.get("timeout", 5.0)),
        ),
    )
    controller = Controller(pipeline)
    return pipeline, controller, bundle


def _deploy_bundle(args) -> int:
    from repro.datasets import make_trace_split
    from repro.eval.metrics import detection_metrics
    from repro.eval.reward import testbed_reward
    from repro.switch import memory_fraction, replay_trace, resource_report

    pipeline, _controller, bundle = _pipeline_from_bundle(args.model)
    print(f"loaded bundle {args.model} ({len(pipeline.fl_table)} FL rules)")
    split = make_trace_split(args.attack, n_benign_flows=args.flows, seed=args.seed)
    replay = replay_trace(split.test_trace, pipeline)
    m = detection_metrics(replay.y_true, replay.y_pred, replay.y_pred.astype(float))
    resources = resource_report(pipeline)
    reward = testbed_reward(m, memory_fraction(resources))
    print(f"{args.attack} via {args.model}: per-packet macro F1 {m.macro_f1:.3f}  "
          f"ROC {m.roc_auc:.3f}  PR {m.pr_auc:.3f}")
    print(f"rules={len(pipeline.fl_table)}  reward={reward:.3f}")
    print(resources.row(str(bundle.meta.get("model", "bundle"))))
    print("paths:", replay.path_counts())
    return 0


def _cmd_deploy(args) -> int:
    from repro.io import is_model_bundle

    if is_model_bundle(args.model):
        return _deploy_bundle(args)
    from repro.eval.harness import TestbedConfig, run_testbed_experiment

    config = TestbedConfig(n_benign_flows=args.flows)
    result = run_testbed_experiment(args.attack, args.model, config=config,
                                    seed=args.seed)
    m = result.metrics
    print(f"{args.attack} via {args.model}: per-packet macro F1 {m.macro_f1:.3f}  "
          f"ROC {m.roc_auc:.3f}  PR {m.pr_auc:.3f}")
    print(f"rules={result.n_rules}  reward={result.reward:.3f}")
    print(result.resources.row(args.model))
    print("paths:", result.replay.path_counts())
    return 0


@contextlib.contextmanager
def _ops_endpoint(service, ops_port, ops_token):
    """Run the block with the HTTP ops endpoint attached (or not).

    ``--ops-port`` without ``--telemetry`` still needs live metrics, so
    a real registry is activated for the run if the process-wide one is
    the null registry; with ``--telemetry`` the report registry is
    shared, and the scrape surface sees exactly what the report will.
    """
    if ops_port is None:
        yield None
        return
    from contextlib import ExitStack

    from repro.ops import OpsServer
    from repro.telemetry import MetricRegistry, get_registry, use_registry

    with ExitStack() as stack:
        registry = get_registry()
        if not registry.enabled:
            registry = stack.enter_context(use_registry(MetricRegistry()))
        server = stack.enter_context(
            OpsServer(service, registry=registry, port=ops_port, token=ops_token)
        )
        print(f"ops endpoint listening on {server.url}")
        yield server


def _print_summary(report, attack: str, shift: str) -> None:
    """Shared serve/resume summary, plus the shard lines of a cluster run.

    The ``final verdicts:`` line is deterministic for a given trace and
    schedule (no wall-clock quantities), so a kill-and-resume run can be
    diffed against an uninterrupted one on exactly that line.
    """
    import numpy as np

    from repro.eval.metrics import confusion_counts, macro_f1

    print(f"served {report.n_packets} packets in {report.n_chunks} chunks "
          f"({attack}, shift={shift})")
    print(f"drift signals={report.drift_signals}  retrains={report.retrains}  "
          f"swaps={report.n_swaps}  rollbacks={report.n_rollbacks}")
    if report.retrain_failures:
        print(f"retrain failures={report.retrain_failures}")
    for event in report.swap_events:
        outcome = "rolled back" if event.rolled_back else "swapped"
        retry = f", {event.attempts} attempts" if event.attempts > 1 else ""
        print(f"  chunk {event.chunk_index}: {event.reason} -> {outcome} "
              f"(pause {event.duration_s * 1e3:.2f} ms{retry})")
    if report.fault_counts:
        fired = "  ".join(
            f"{name}={count}" for name, count in sorted(report.fault_counts.items())
        )
        print(f"faults fired: {fired}")
    c = confusion_counts(report.y_true, report.y_pred)
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 0.0
    fpr = c.fp / (c.fp + c.tn) if (c.fp + c.tn) else 0.0
    print(f"per-packet macro F1 {macro_f1(report.y_true, report.y_pred):.3f}  "
          f"recall {recall:.3f}  FPR {fpr:.3f}")
    benign = int(np.sum(report.y_pred == 0))
    malicious = int(np.sum(report.y_pred == 1))
    print(f"final verdicts: benign={benign} malicious={malicious} "
          f"packets={report.n_packets}")
    if report.n_shards <= 1:
        return
    dist = "  ".join(
        f"shard{k}={n}" for k, n in enumerate(report.shard_packets)
    )
    print(f"cluster: {report.n_shards} shards  packet distribution: {dist}")
    for event in report.swap_events:
        if event.failed_shards:
            print(f"  chunk {event.chunk_index}: swap aborted by "
                  f"shard(s) {event.failed_shards} -> all shards rolled back")
    for k, counts in enumerate(report.shard_fault_counts):
        if counts:
            fired = "  ".join(f"{n}={c}" for n, c in sorted(counts.items()))
            print(f"  shard {k} faults: {fired}")


def _scenario_source(spec: str, n_flows: int, seed: int):
    """Build ``(source, train_split, label)`` for a ``--scenario`` serve.

    The source is a fresh streaming :class:`ScenarioStream` (the serve
    loop holds one chunk at a time); the train split is a shim exposing
    only ``train_flows`` — benign flows drawn from the scenario's own
    tenant populations — which is all ``build_pipeline`` reads.
    """
    from types import SimpleNamespace

    from repro.scenarios import parse_scenario

    scenario = parse_scenario(spec)
    stream = scenario.stream()
    train_split = SimpleNamespace(
        train_flows=stream.training_flows(n_flows, seed=seed)
    )
    return scenario.stream(), train_split, scenario.name


def _cmd_serve(args) -> int:
    from repro.io import is_model_bundle
    from repro.runtime import CheckpointManager, OnlineDetectionService, RuntimeConfig

    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}")
        return 2
    if args.scenario and args.attack:
        print("serve: give either an attack name or --scenario, not both")
        return 2
    if not args.scenario and not args.attack:
        print("serve: an attack workload name or --scenario SPEC is required")
        return 2

    if args.scenario:
        if args.shards > 1 and args.cluster_executor == "shm":
            print("serve: the shm transport needs a materialised trace and "
                  "cannot serve a streaming --scenario; use "
                  "--cluster-executor inprocess or multiprocess")
            return 2
        source, split, label = _scenario_source(
            args.scenario, args.flows, args.seed
        )
        shift_label = "scenario"
    else:
        from repro.datasets import make_drift_split

        split = make_drift_split(
            args.attack, n_benign_flows=args.flows, shift=args.shift, seed=args.seed
        )
        source = split.stream_trace
        label = args.attack
        shift_label = args.shift
    if is_model_bundle(args.model):
        pipeline, _controller, _bundle = _pipeline_from_bundle(args.model)
        print(f"loaded bundle {args.model} ({len(pipeline.fl_table)} FL rules)")
    else:
        from repro.eval.harness import build_pipeline

        pipeline, _controller, _model = build_pipeline(
            args.model, split, seed=args.seed
        )
    config = RuntimeConfig(
        chunk_size=args.chunk_size,
        drift_threshold=args.drift,
        drift_window=2,
        baseline_window=2,
        cadence=args.cadence,
        max_swaps=args.max_swaps,
    )
    if args.policy:
        # Attach before shard construction so cluster workers each get
        # a fresh per-shard engine clone; resume needs no re-attach —
        # the engine state rides the pipeline checkpoint.
        from repro.mitigation import attach_policy

        engine = attach_policy(pipeline, args.policy)
        print(f"mitigation policy: {engine.policy.to_spec()}")
    # The meta block carries everything resume needs to rebuild the
    # identical trace and config.
    checkpoint_meta = {
        "attack": label,
        "scenario": args.scenario,
        "model": args.model,
        "flows": args.flows,
        "chunk_size": args.chunk_size,
        "drift": args.drift,
        "cadence": args.cadence,
        "max_swaps": args.max_swaps,
        "shift": args.shift,
        "seed": args.seed,
        "policy": args.policy,
        "faults": args.faults,
        "checkpoint_every": args.checkpoint_every,
        "shards": args.shards,
    }

    fleet = contextlib.nullcontext()
    if args.shards > 1:
        from repro.cluster import ClusterCheckpointManager, ClusterService

        service = fleet = ClusterService(
            pipeline,
            n_shards=args.shards,
            config=config,
            executor=args.cluster_executor,
            seed=args.seed,
            faults_spec=args.faults,
        )
        manager = ClusterCheckpointManager
    else:
        from repro.faults import FaultPlan

        faults = FaultPlan.from_spec(args.faults) if args.faults else None
        service = OnlineDetectionService(
            pipeline, config=config, seed=args.seed, faults=faults
        )
        manager = CheckpointManager
    checkpoint = None
    if args.checkpoint:
        checkpoint = manager(
            args.checkpoint, every=args.checkpoint_every, meta=checkpoint_meta
        )
    with fleet:
        with _ops_endpoint(service, args.ops_port, args.ops_token):
            report = service.serve(source, checkpoint=checkpoint)
        status = service.mitigation_status()
    _print_summary(report, label, shift_label)
    if status is not None and "totals" in status:
        # Cluster: summed over the shards' engines.
        totals = status["totals"]
        print(
            f"mitigation: {totals['active_blocks']} blocks active, "
            f"{totals['attack_dropped_packets']} attack pkts dropped, "
            f"{totals['attack_leaked_packets']} leaked, "
            f"{totals['benign_dropped_packets']} benign dropped"
        )
    elif status is not None:
        meter = status["meter"]
        ttb = status["time_to_block_s"]
        mean_ttb = "-" if ttb["mean"] is None else f"{ttb['mean']:.3f}s"
        print(
            f"mitigation: {status['active']['drop']} blocks active, "
            f"{meter['attack_dropped_packets']} attack pkts dropped, "
            f"{meter['attack_leaked_packets']} leaked, "
            f"{meter['benign_dropped_packets']} benign dropped, "
            f"mean time-to-block {mean_ttb}"
        )
    return 0


def _cmd_resume(args) -> int:
    from repro.cluster import (
        CLUSTER_SCHEMA,
        ClusterCheckpointManager,
        load_any_checkpoint,
        restore_cluster,
    )
    from repro.datasets import make_drift_split
    from repro.runtime import CheckpointManager, report_from_dict, restore_service

    doc = load_any_checkpoint(args.checkpoint)
    meta = doc.get("meta", {})
    attack = meta.get("attack", "?")
    shift = meta.get("shift", "none")
    if doc.get("status") == "complete":
        # Nothing to do — reprint the stored summary so callers diffing
        # output get identical verdict totals from repeated resumes.
        print(f"checkpoint {args.checkpoint} is complete; nothing to resume")
        _print_summary(report_from_dict(doc["report"]), attack, shift)
        return 0

    faults = None if args.no_faults else "auto"
    scenario_spec = meta.get("scenario")
    if scenario_spec:
        # A scenario stream is a pure function of (spec, seed): a fresh
        # stream replays identically and serve skips the served prefix.
        from repro.scenarios import parse_scenario

        source = parse_scenario(scenario_spec).stream()
        shift = "scenario"
    else:
        split = make_drift_split(
            attack,
            n_benign_flows=int(meta["flows"]),
            shift=shift,
            seed=int(meta["seed"]),
        )
        source = split.stream_trace
    every = int(meta.get("checkpoint_every", 1))
    fleet = contextlib.nullcontext()
    if doc.get("schema") == CLUSTER_SCHEMA:
        service, report = restore_cluster(doc, faults=faults)
        manager = ClusterCheckpointManager
        fleet = service  # the cluster owns its shard fleet; reap it on exit
    else:
        service, report = restore_service(doc, faults=faults)
        manager = CheckpointManager
    shards = f", {report.n_shards} shards" if report.n_shards > 1 else ""
    print(f"resuming {attack} from chunk {report.n_chunks} "
          f"({report.n_packets} packets served before the crash{shards})")
    checkpoint = manager(args.checkpoint, every=every, meta=meta)
    with fleet, _ops_endpoint(service, args.ops_port, args.ops_token):
        report = service.serve(source, checkpoint=checkpoint, resume_report=report)
    _print_summary(report, attack, shift)
    return 0


def _cmd_scenario(args) -> int:
    if args.scenario_cmd == "list":
        from repro.scenarios import SCENARIO_PRESETS, scenario_names

        for name in scenario_names():
            s = SCENARIO_PRESETS[name]
            families = ", ".join(c.family for c in s.campaigns) or "benign only"
            print(f"{name:24s} {s.duration_s:>5.0f}s  "
                  f"benign_loads={len(s.benign)}  campaigns={families}")
        return 0

    from repro.scenarios import parse_scenario

    scenario = parse_scenario(args.spec)
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed)
    print(f"scenario {scenario.name}: duration={scenario.duration_s:g}s "
          f"seed={scenario.seed} benign_loads={len(scenario.benign)} "
          f"campaigns={len(scenario.campaigns)} evasions={len(scenario.evasions)}")
    print(f"spec: {scenario.to_spec()}")
    header = (f"{'window':>16s} {'packets':>9s} {'kpps':>7s} {'MB':>7s} "
              f"{'flows':>6s} {'attack%':>8s}  campaigns")
    print(header)
    total = attack_total = 0
    for row in scenario.stream().preview(every_s=args.every):
        total += row.n_packets
        attack_total += row.n_attack_packets
        window = f"[{row.t0:g}, {row.t1:g})"
        print(f"{window:>16s} {row.n_packets:>9d} "
              f"{row.offered_pps / 1e3:>7.1f} {row.n_bytes / 1e6:>7.2f} "
              f"{row.n_flows:>6d} {100 * row.attack_fraction:>7.1f}%  "
              f"{', '.join(row.active_campaigns) or '-'}")
    frac = 100 * attack_total / total if total else 0.0
    print(f"total: {total} packets, {attack_total} attack ({frac:.1f}%)")
    return 0


def _cmd_export(args) -> int:
    from repro.core.deployment import compile_pl_artifacts, quantize_ruleset, SwitchArtifacts
    from repro.features import SWITCH_FEATURES
    from repro.switch import write_artifacts

    model, x_train, flow_list = _train_model(args.flows, 11, args.seed, None)
    ruleset = model.to_rules(max_cells=1024, seed=args.seed)
    fl_rules, fl_quantizer = quantize_ruleset(ruleset, x_train, bits=16)
    write_artifacts(fl_rules, args.p4, args.entries, SWITCH_FEATURES)
    print(f"wrote {args.p4} and {args.entries} ({len(ruleset)} rules)")
    if args.bundle:
        from repro.io import save_model_bundle

        pl_rules, pl_quantizer = compile_pl_artifacts(flow_list, bits=16,
                                                      seed=args.seed)
        artifacts = SwitchArtifacts(
            fl_rules=fl_rules,
            fl_quantizer=fl_quantizer,
            pl_rules=pl_rules,
            pl_quantizer=pl_quantizer,
        )
        save_model_bundle(
            args.bundle,
            artifacts,
            forest=model.distilled_,
            ensemble=model.oracle,
            meta={
                "model": "iguard",
                "flows": args.flows,
                "seed": args.seed,
                "pkt_count_threshold": 8,
                "timeout": 5.0,
            },
        )
        print(f"saved model bundle to {args.bundle}")
    return 0


def _watch_metrics(url: str, interval: float, iterations: int, max_events: int) -> int:
    """Poll a live ops endpoint's ``/metrics`` and render each snapshot.

    The snapshot document is report-shaped, so the saved-file renderer
    works on it unchanged; the ``ops`` block the endpoint appends is
    summarised on one trailing status line.
    """
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.telemetry import format_report

    base = url if "://" in url else f"http://{url}"
    endpoint = base.rstrip("/")
    if not endpoint.endswith("/metrics"):
        endpoint += "/metrics"
    count = 0
    while True:
        try:
            with urllib.request.urlopen(endpoint, timeout=10) as resp:
                doc = json.loads(resp.read().decode())
        except (urllib.error.URLError, OSError) as exc:
            print(f"watch: {endpoint} unreachable ({exc}); run over?")
            return 1
        ops = doc.pop("ops", {})
        print(format_report(doc, max_events=max_events))
        state = "serving" if ops.get("serving") else "idle"
        last = ops.get("last_chunk") or {}
        last_str = (
            f"  last chunk #{last['index']} {last['n_packets']}pkt "
            f"{last.get('duration_s', 0.0) * 1e3:.1f}ms"
            if "index" in last
            else ""
        )
        print(
            f"[{state}] chunks={ops.get('n_chunks', 0)} "
            f"packets={ops.get('n_packets', 0)} swaps={ops.get('swaps', 0)} "
            f"rollbacks={ops.get('rollbacks', 0)}{last_str}"
        )
        count += 1
        if iterations and count >= iterations:
            return 0
        time.sleep(interval)
        print()


def _cmd_report(args) -> int:
    if args.watch:
        return _watch_metrics(args.watch, args.interval, args.iterations, args.events)
    if args.path is None:
        print("report: a telemetry.json path (or --watch URL) is required")
        return 2
    from repro.telemetry import format_report, load_report

    print(format_report(load_report(args.path), max_events=args.events))
    return 0


_COMMANDS = {
    "attacks": _cmd_attacks,
    "scenario": _cmd_scenario,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "deploy": _cmd_deploy,
    "serve": _cmd_serve,
    "resume": _cmd_resume,
    "export": _cmd_export,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the subcommand; returns exit code."""
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    telemetry_path = getattr(args, "telemetry", None)
    if telemetry_path:
        from repro.telemetry import run_report

        meta = {
            k: v for k, v in vars(args).items() if k != "telemetry" and v is not None
        }
        with run_report(telemetry_path, meta=meta):
            code = handler(args)
        print(f"telemetry report written to {telemetry_path}")
        return code
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
