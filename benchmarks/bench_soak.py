"""Faulted soak: the ops surface under sustained serve + scrape load.

A sharded cluster serves the same ≥10k-packet trace for several rounds
under an active fault schedule while a scraper thread hammers the HTTP
ops endpoint (``/metrics``, ``/healthz``, ``/shards``, ``/events``)
continuously and one ``POST /control/retrain`` is issued mid-soak.
The harness holds three invariants a long-lived deployment depends on:

* **monotonic counters** — across every scrape of the run, no counter
  ever decreases and the event cursor never runs backwards (a torn
  read, a registry reset, or a lost lock would all show up here);
* **bounded steady-state memory** — the process high-water RSS after
  the warm-up round may not keep climbing round over round (leaking
  event records, tickets, or per-scrape garbage would);
* **the scrape tax is small** — per-poll ``/metrics`` latency is
  recorded (mean/p95/max) so a regression that makes scraping stall
  the GIL shows up as a number, not an anecdote.

Emits ``BENCH_soak.json`` at the repo root.  Runs standalone
(``PYTHONPATH=src python benchmarks/bench_soak.py``) or under
pytest-benchmark.

Scale knobs: ``REPRO_BENCH_SOAK_FLOWS`` (benign flows, default 600),
``REPRO_BENCH_SOAK_ROUNDS`` (serve rounds, default 3),
``REPRO_BENCH_SOAK_SHARDS`` (default 2), ``REPRO_BENCH_SOAK_POLL_S``
(scrape interval, default 0.02), ``REPRO_BENCH_SOAK_FAULTS`` (fault
spec, default ``seed=11;digest_loss:p=0.05``),
``REPRO_BENCH_SOAK_RSS_GROWTH`` (max allowed post-warm-up high-water
growth, default 0.30), ``REPRO_BENCH_SEED``.
"""

import json
import os
import resource
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # standalone: put the repo root on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.bench_batch_replay import build_workload
from benchmarks.common import bench_seed, host_info
from repro.cluster import ClusterService
from repro.ops import OpsServer
from repro.runtime import RuntimeConfig
from repro.telemetry import MetricRegistry, use_registry

SOAK_FLOWS = int(os.environ.get("REPRO_BENCH_SOAK_FLOWS", "600"))
SOAK_ROUNDS = int(os.environ.get("REPRO_BENCH_SOAK_ROUNDS", "3"))
SOAK_SHARDS = int(os.environ.get("REPRO_BENCH_SOAK_SHARDS", "2"))
POLL_S = float(os.environ.get("REPRO_BENCH_SOAK_POLL_S", "0.02"))
FAULT_SPEC = os.environ.get(
    "REPRO_BENCH_SOAK_FAULTS", "seed=11;digest_loss:p=0.05"
)
RSS_GROWTH_LIMIT = float(os.environ.get("REPRO_BENCH_SOAK_RSS_GROWTH", "0.30"))
CONTROL_TOKEN = "soak-secret"
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_soak.json"


class ArtifactsRetrainer:
    """Serves the pre-compiled tables for every retrain — the soak
    exercises the runtime + ops control plane, not model fitting."""

    def __init__(self, artifacts) -> None:
        self.artifacts = artifacts

    def __len__(self) -> int:
        return 10**6

    def observe(self, packets, flow_idx=None) -> None:
        pass

    def retrain(self):
        return self.artifacts


class Scraper:
    """Background poller holding the monotonicity ledger.

    Every poll reads ``/metrics`` and checks each counter (and the event
    cursor) against the last observed value; one of the rotating side
    endpoints is hit alongside, so the whole read surface stays under
    load for the entire soak.
    """

    SIDE_PATHS = ("/healthz", "/shards", "/events?n=10", "/metrics?format=prometheus")

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, name="soak-scraper")
        self.latencies: list = []
        self.violations: list = []
        self.polls = 0
        self.errors = 0
        self._last_counters: dict = {}
        self._last_seq = -1

    def _get_json(self, path: str):
        with urllib.request.urlopen(self.base_url + path, timeout=10) as resp:
            return json.loads(resp.read().decode())

    def _get_raw(self, path: str) -> None:
        with urllib.request.urlopen(self.base_url + path, timeout=10) as resp:
            resp.read()

    def _check(self, doc: dict) -> None:
        for name, value in doc.get("counters", {}).items():
            last = self._last_counters.get(name)
            if last is not None and value < last:
                self.violations.append(
                    {"counter": name, "before": last, "after": value}
                )
            self._last_counters[name] = value
        seq = doc.get("last_seq", -1)
        if seq < self._last_seq:
            self.violations.append(
                {"counter": "<last_seq>", "before": self._last_seq, "after": seq}
            )
        self._last_seq = max(self._last_seq, seq)

    def _run(self) -> None:
        i = 0
        while not self.stop.is_set():
            start = time.perf_counter()
            try:
                doc = self._get_json("/metrics")
            except OSError:
                self.errors += 1
                continue
            self.latencies.append(time.perf_counter() - start)
            self._check(doc)
            self.polls += 1
            try:
                self._get_raw(self.SIDE_PATHS[i % len(self.SIDE_PATHS)])
            except OSError:
                self.errors += 1
            i += 1
            self.stop.wait(POLL_S)

    def __enter__(self) -> "Scraper":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join(timeout=30)


def _post_control(base_url: str, verb: str) -> dict:
    req = urllib.request.Request(
        f"{base_url}/control/{verb}",
        method="POST",
        headers={"X-Repro-Token": CONTROL_TOKEN},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read().decode())


def _rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run():
    trace, make_pipeline = build_workload(
        seed=bench_seed("soak"), n_flows=SOAK_FLOWS
    )
    pipeline = make_pipeline()
    retrainer = ArtifactsRetrainer(pipeline._live_tables())
    config = RuntimeConfig(
        chunk_size=2000,
        drift_threshold=0.0,
        min_retrain_flows=8,
        stage_backoff_s=0.0,
    )
    registry = MetricRegistry(max_events=512)
    rounds = []
    fault_counts: dict = {}
    control_outcomes = []
    rss_after_warmup = None

    with ClusterService(
        pipeline,
        n_shards=SOAK_SHARDS,
        config=config,
        executor="inprocess",
        retrainer=retrainer,
        faults_spec=FAULT_SPEC,
        seed=bench_seed("soak") % 1000,
    ) as cluster:
        with OpsServer(cluster, registry=registry, token=CONTROL_TOKEN) as srv:
            with Scraper(srv.url) as scraper:
                with use_registry(registry):
                    for round_idx in range(SOAK_ROUNDS):
                        if round_idx == 1:
                            # Mid-soak control verb, through the full
                            # HTTP path; it applies at the next round's
                            # first chunk boundary.
                            _post_control(srv.url, "retrain")
                        start = time.perf_counter()
                        report = cluster.serve(trace)
                        elapsed = time.perf_counter() - start
                        rounds.append(
                            {
                                "round": round_idx,
                                "n_packets": report.n_packets,
                                "pps": round(report.n_packets / elapsed, 1),
                                "rss_kb": _rss_kb(),
                            }
                        )
                        for name, count in report.fault_counts.items():
                            fault_counts[name] = fault_counts.get(name, 0) + count
                        control_outcomes.extend(
                            {"verb": t["verb"], "outcome": t["outcome"]}
                            for t in report.control_events
                        )
                        if round_idx == 0:
                            rss_after_warmup = _rss_kb()

    latencies_ms = np.asarray(scraper.latencies) * 1e3
    final_rss = rounds[-1]["rss_kb"]
    rss_growth = (final_rss - rss_after_warmup) / rss_after_warmup

    out = {
        "host": host_info(),
        "n_packets_per_round": len(trace),
        "rounds": rounds,
        "n_rounds": SOAK_ROUNDS,
        "n_shards": SOAK_SHARDS,
        "fault_spec": FAULT_SPEC,
        "fault_counts": fault_counts,
        "control_outcomes": control_outcomes,
        "scrape": {
            "polls": scraper.polls,
            "errors": scraper.errors,
            "interval_s": POLL_S,
            "latency_ms_mean": round(float(latencies_ms.mean()), 3)
            if scraper.polls
            else None,
            "latency_ms_p95": round(float(np.percentile(latencies_ms, 95)), 3)
            if scraper.polls
            else None,
            "latency_ms_max": round(float(latencies_ms.max()), 3)
            if scraper.polls
            else None,
        },
        "monotonic_violations": scraper.violations,
        "rss_kb_after_warmup": rss_after_warmup,
        "rss_kb_final": final_rss,
        "rss_growth_post_warmup": round(rss_growth, 4),
        "rss_growth_limit": RSS_GROWTH_LIMIT,
    }
    OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")
    return out


def test_soak(benchmark):
    from benchmarks.common import single_round

    report = single_round(benchmark, run)
    scrape = report["scrape"]
    print()
    print(
        f"Soak — {report['n_rounds']} rounds x "
        f"{report['n_packets_per_round']} packets, {report['n_shards']} shards, "
        f"faults '{report['fault_spec']}'"
    )
    for row in report["rounds"]:
        print(
            f"  round {row['round']}: {row['pps']:>10.0f} pps  "
            f"rss {row['rss_kb']} kB"
        )
    print(
        f"  scrapes: {scrape['polls']} polls, mean {scrape['latency_ms_mean']} ms, "
        f"p95 {scrape['latency_ms_p95']} ms"
    )
    print(
        f"  rss growth after warm-up: {100 * report['rss_growth_post_warmup']:.1f}% "
        f"(limit {100 * report['rss_growth_limit']:.0f}%)"
    )
    # The three soak invariants.
    assert report["monotonic_violations"] == []
    assert report["rss_growth_post_warmup"] <= report["rss_growth_limit"]
    assert scrape["polls"] >= 10, "scraper barely ran; soak too short to mean anything"
    # The schedule fired and the mid-soak control verb applied.
    assert sum(report["fault_counts"].values()) > 0
    assert {"verb": "retrain", "outcome": "swapped"} in report["control_outcomes"]


if __name__ == "__main__":
    out = run()
    print(json.dumps(out, indent=2))
