"""One workload run inside one interpreter: deployments, serves,
checks, metrics.

Started by ``perfbench/run.py`` in a fresh interpreter with
single-threaded BLAS.  Prints the metrics by name, then one JSON line
holding the result and a ``details`` block.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.common import host_info  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.hooks import instrument_modules  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
#: Serves beyond the fixed ones stop being added after this.
EXTRA_SERVE_BUDGET_S = 60.0
SERVE_ROOTS = ("runtime.service", "cluster.service")
#: Setup spans whose metric keeps its layer name (they only occur in setup).
SETUP_ONLY = ("scenarios.materialise", "cluster.fleet_start")


def tail(intervals):
    """Highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples)``."""
    xs = sorted(intervals)
    n = len(xs)
    i = max(0, n - 11)
    return xs[i], 100.0 * (i + 1) / n, n


def host_speed(seconds: float = 0.5) -> float:
    """Passes per second of a fixed pure-Python loop: how fast this host
    runs right now, to tell a slow host apart from a slow change."""
    passes = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(1000))
        passes += 1
    return passes / seconds


def quality(served):
    y_true = [s.y_true for s in served]
    y_pred = [s.y_pred for s in served]
    tp = sum(int(((t == 1) & (p == 1)).sum()) for t, p in zip(y_true, y_pred))
    attack = sum(int(t.sum()) for t in y_true)
    flagged = sum(int(p.sum()) for p in y_pred)
    return tp / max(attack, 1), tp / max(flagged, 1)


@dataclass
class Row:
    """One serve of one deployment."""

    deployment: int
    served: "wl.Served"
    offered: int
    problems: List[str]
    #: First serve of its deployment: counts for recall, precision, digest.
    graded: bool
    setup_s: Optional[float] = None
    #: Traced runs: the same tables served with tracing off.
    untraced: Optional["wl.Served"] = None


def _setup(w, seed, k, tracer):
    seeds = wl.deployment_seeds(seed, k)
    if tracer is None:
        return wl.setup(w, seeds)
    tracer.run_id = f"{w.name}:{seed}:{k}"
    instrument_modules(tracer)
    try:
        with tracer.span("setup"):
            return wl.setup(w, seeds, tracer)
    finally:
        tracer.restore()


def _serve(dep, k, tmp, tracer, truth, first: Optional[Row]) -> Row:
    """Serve and check; *first* is the deployment's graded row when
    this serve repeats it."""
    untraced = None
    if tracer is not None:
        untraced = wl.serve(dep, tmp / f"d{k}-untraced", repeat=True)
        instrument_modules(tracer)
    served = wl.serve(dep, tmp / f"d{k}", tracer=tracer, repeat=first is not None)
    problems = wl.check(dep, served, truth)
    if untraced is not None and untraced.digest != served.digest:
        problems.append("tracing changed the verdicts")
    if first is not None and first.served.digest != served.digest:
        problems.append("a repeated serve reached other verdicts")
    for p in problems:
        print(f"perfbench: CHECK FAILED deployment {k}: {p}", file=sys.stderr)
    row = Row(k, served, truth[0], problems, graded=first is None, untraced=untraced)
    if first is None:
        row.setup_s = dep.setup_s
    return row


def run_serves(w, seed, seconds, tracer, tmp):
    """Deploy ``w.deployments`` times and serve each deployment
    ``w.repeats`` times (a traced run serves it once untraced, then once
    traced).  While fewer than *seconds* of serving were measured, the
    last deployment is served again."""
    rows = []
    started = time.perf_counter()
    for k in range(w.deployments):
        dep = None
        try:
            dep = _setup(w, seed, k, tracer)
            truth = wl.ground_truth(dep)
            rows.append(_serve(dep, k, tmp, tracer, truth, None))
            first = rows[-1]
            for _ in range(w.repeats - 1 if tracer is None else 0):
                rows.append(_serve(dep, k, tmp, tracer, truth, first))
            while (
                k == w.deployments - 1
                and tracer is None
                and sum(r.served.wall_s for r in rows) < seconds
                and time.perf_counter() - started < EXTRA_SERVE_BUDGET_S
            ):
                rows.append(_serve(dep, k, tmp, tracer, truth, first))
        finally:
            if tracer is not None:
                tracer.restore()
            if dep is not None and dep.cluster is not None:
                dep.cluster.close()
    return rows


def fastest(serves):
    """``(wall, chunk intervals, swap stall)`` of repeated serves of one
    deployment, each the shortest seen.  The serves do identical work
    (their digests match), so a longer time is the host's doing, not the
    program's; chunk intervals are compared chunk by chunk."""
    same = [s for s in serves if s.intervals.size == serves[0].intervals.size]
    stalls = [s.stall_s for s in same if s.stall_s is not None]
    return (
        min(s.wall_s for s in same),
        np.min([s.intervals for s in same], axis=0),
        min(stalls) if stalls else None,
    )


def end_to_end(rows):
    graded = [r.served for r in rows if r.graded]
    best = [fastest([r.served for r in rows if r.deployment == r0.deployment])
            for r0 in rows if r0.graded]
    intervals = np.concatenate([iv for _, iv, _ in best])
    tail_s, tail_pct, n_intervals = tail(intervals)
    recall, precision = quality(graded)
    offered = sum(r.offered for r in rows)
    failed = sum(
        r.offered if r.problems else r.offered - r.served.y_pred.size for r in rows
    )
    metrics = {
        "serve_pps": sum(s.n_packets for s in graded) / sum(b[0] for b in best),
        "setup_s": statistics.median(r.setup_s for r in rows if r.graded),
        "chunk_p50_ms": 1e3 * statistics.median(intervals),
        "chunk_tail_ms": 1e3 * tail_s,
        "checkpoint_mb": statistics.median(s.checkpoint_bytes for s in graded) / 1e6,
        "peak_rss_mb": wl.peak_rss_mb(),
        "precision": precision,
    }
    stalls = [b[2] for b in best if b[2] is not None]
    extra = {
        "recall": recall,
        "attack_share": sum(int(s.y_true.sum()) for s in graded)
        / sum(s.n_packets for s in graded),
        "swap_stall_s": statistics.median(stalls) if stalls else None,
        "chunk_tail_percentile": round(tail_pct, 2),
        "chunk_intervals": n_intervals,
        "failed_frac": failed / offered,
    }
    return metrics, offered, failed, extra


def spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this run reports."""
    return json.loads(SPEC_PATH.read_text())


def per_layer(w, rows, tracer, listed):
    """Per-layer metrics of workload *w*'s traced run, and the layers it
    must exercise but did not call; *listed* are the names
    ``BENCHMARK.json`` declares."""
    served = [r.served for r in rows]
    plain = [r.untraced for r in rows]
    values, calls = {}, {}
    for (root, name), (self_s, n) in tracer.self_times().items():
        if root == "setup":
            if name == "setup":
                key = "setup.self_s"
            elif name in SETUP_ONLY:
                key = f"{name}_s"
            else:
                key = f"setup.{name}_s"
        elif name == root:
            key = f"{name}.self_s"
        elif name == "switch.replay":
            key = "switch.egress_s"  # replay_trace's own share of egress
        else:
            key = f"{name}_s"
        values[key] = values.get(key, 0.0) + self_s
        calls[key] = calls.get(key, 0) + n
    serve_s = sum(tracer.inclusive(r) for r in SERVE_ROOTS)
    setup_s = tracer.inclusive("setup")
    packets = sum(s.n_packets for s in served)
    paths = {p: sum(s.path_counts[p] for s in served) for p in wl.PATHS}
    shards = [s.shard_packets for s in served if s.shard_packets]
    mean = statistics.fmean
    values.update(
        {
            "switch.replay_s": tracer.inclusive("switch.replay"),
            "switch.matcher_builds": calls.get("switch.matcher_build_s", 0),
            "switch.table_generations": sum(s.table_generations for s in served),
            "runtime.retrain.flows_offered": sum(s.flows_offered for s in served),
            "switch.swaps": sum(s.swaps for s in served),
            "runtime.drift.signals": sum(s.drift_signals for s in served),
            "runtime.checkpoint.saves": sum(s.checkpoint_saves for s in served),
            "runtime.checkpoint.bytes": sum(s.checkpoint_written for s in served),
            "mitigation.active_monitors": mean(s.active_monitors for s in served),
            "cluster.shard_skew": mean(max(p) / mean(p) for p in shards) if shards else 0.0,
            "cluster.shard_peak_rss_mb": wl.peak_rss_mb(children=True) if shards else 0.0,
            "trace.serve_s": serve_s,
            "trace.setup_s": setup_s,
            "trace.serve_pps": packets / serve_s,
            "trace.untraced_serve_pps": (
                sum(p.n_packets for p in plain) / sum(p.wall_s for p in plain)
            ),
            "trace.spans": len(tracer.spans),
        }
    )
    for p in wl.PATHS:
        values[f"switch.path.{p}"] = paths[p] / packets
    values["trace.overhead_frac"] = (
        values["trace.untraced_serve_pps"] / values["trace.serve_pps"] - 1.0
    )
    problems = [
        f"layer {key} was never called" for key in w.layers if not calls.get(key)
    ] + [f"no hook target {label}" for label in sorted(set(tracer.missing_hooks))]
    for name in listed:
        values.setdefault(name, 0.0)  # a layer this workload bypasses
    extra = {
        "unlisted_layers": sorted(set(calls) - listed),
        "span_calls": calls,
    }
    return values, extra, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = wl.WORKLOADS[args.workload]
    details = {
        "workload": w.name,
        "seed": args.seed,
        "host": host_info(),
        "loadavg_before": os.getloadavg(),
        "host_speed_before": host_speed(),
    }
    workdir = ROOT / ".perfbench"
    tmp = workdir / f"tmp-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        rows = run_serves(w, args.seed, args.seconds, tracer, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    details["host_speed_after"] = host_speed()
    metrics, offered, failed, extra = end_to_end(rows)
    quality_problems = wl.detection_problems(
        extra["recall"], metrics["precision"], extra["attack_share"]
    )
    for p in quality_problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    if quality_problems:
        failed = offered
    details.update(extra)
    details.update(
        {
            "serves": len(rows),
            "deployments": w.deployments,
            "digests": [r.served.digest for r in rows if r.graded],
            "swap_reasons": [r.served.swap_reasons for r in rows if r.graded],
            "problems": [p for r in rows for p in r.problems] + quality_problems,
            "path_mix": {
                p: sum(r.served.path_counts[p] for r in rows)
                / sum(r.served.n_packets for r in rows)
                for p in wl.PATHS
            },
            "per_serve": [
                {
                    "deployment": r.deployment,
                    "setup_s": r.setup_s,
                    "serve_s": round(r.served.wall_s, 4),
                    "packets": r.served.n_packets,
                    "swap_stall_s": r.served.stall_s,
                    "recall_precision": [round(q, 4) for q in quality([r.served])],
                }
                for r in rows
            ],
        }
    )
    declared = spec()
    spec_key = "end_to_end"
    if tracer is not None:
        listed = {m["name"] for m in declared["per_layer"]}
        metrics, layer_extra, layer_problems = per_layer(w, rows, tracer, listed)
        details.update(layer_extra)
        details["problems"] += layer_problems
        for p in layer_problems:
            print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
        if layer_problems:
            failed = offered
        workdir.mkdir(exist_ok=True)
        spans_path = workdir / f"spans-{w.name}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.records()))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        spec_key = "per_layer"

    out = {}
    for m in declared[spec_key]:
        if m["name"] not in metrics:
            raise KeyError(f"metric {m['name']!r} was not measured")
        out[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']:<34} {metrics[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": not details["problems"],
        "attempted": int(offered),
        "failed": int(failed),
        "metrics": out,
        "details": details,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
