"""The benchmark's own checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import measure
from perfbench import workloads as wl
from perfbench.tracer import Tracer
from repro.switch.batch import RangeIntervalMatcher
from repro.switch.runner import replay_trace

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def _short(name, duration_s):
    return replace(wl.WORKLOADS[name], duration_s=duration_s, deployments=1, repeats=1)


def test_stream_pulse_digest_matches_scalar_replay(tmp_path):
    """The streamed, chunked batch serve reaches the verdicts and path
    counts of one scalar-engine replay of the same packets."""
    w = _short("stream_pulse", 4.0)
    dep = wl.setup(w, wl.deployment_seeds(SEED, 0))
    served = wl.serve(dep, tmp_path)
    scalar = replay_trace(dep.scenario.stream().materialise(), dep.pipeline, mode="scalar")
    counts = {p: dep.pipeline.path_counts.get(p, 0) for p in wl.PATHS}
    assert served.n_packets == scalar.n_packets > 0
    assert served.path_counts == counts
    assert served.digest == wl.verdict_digest(scalar.y_pred, counts)


def test_stream_pulse_detects_the_flood(tmp_path):
    """iGuard, not a detector that passes the flood: a floor on recall
    and precision of the deployed tables."""
    w = _short("stream_pulse", 10.0)
    dep = wl.setup(w, wl.deployment_seeds(SEED, 0))
    served = wl.serve(dep, tmp_path)
    recall, precision = measure.quality([served])
    assert recall >= 0.3
    assert precision >= 0.9
    assert wl.check(dep, served, wl.ground_truth(dep)) == []


@pytest.mark.parametrize("name", ["stream_pulse", "adapt_botnet", "cluster_amplification"])
def test_traced_run_reports_every_layer(tmp_path, name):
    """A traced deployment calls every layer its workload names, only
    through spans BENCHMARK.json lists, so the listed self times add up
    to the serve and setup walls; tracing leaves verdicts alone."""
    w = _short(name, wl.WORKLOADS[name].duration_s if name == "adapt_botnet" else 10.0)
    tracer = Tracer()
    rows = measure.run_serves(w, SEED, 0.0, tracer, tmp_path)
    assert [p for r in rows for p in r.problems] == []
    declared = measure.spec()
    listed = {m["name"] for m in declared["per_layer"]}
    values, extra, problems = measure.per_layer(w, rows, tracer, listed)
    assert problems == []
    assert all(extra["span_calls"][key] > 0 for key in w.layers)
    assert all(values[key] > 0 for key in w.layers)
    assert extra["unlisted_layers"] == []
    self_s = sum(values[key] for key in extra["span_calls"])
    assert self_s == pytest.approx(values["trace.serve_s"] + values["trace.setup_s"])
    metrics, offered, failed, _ = measure.end_to_end(rows)
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert offered == rows[0].served.n_packets and failed == 0
    assert all(v > 0 for v in metrics.values())


def test_traced_run_fails_when_a_layer_is_bypassed(tmp_path, monkeypatch):
    """A layer the workload names but no longer calls through its hook
    (here: the matcher build, unhooked) is a failed check, not time
    silently moved into its caller."""
    w = _short("stream_pulse", 4.0)
    hook = measure.instrument_modules

    def instrument_but_matcher(tracer):
        hook(tracer)
        for owner, attr, raw in tracer._patches:
            if owner is RangeIntervalMatcher:
                setattr(owner, attr, raw)

    monkeypatch.setattr(measure, "instrument_modules", instrument_but_matcher)
    tracer = Tracer()
    rows = measure.run_serves(w, SEED, 0.0, tracer, tmp_path)
    listed = {m["name"] for m in measure.spec()["per_layer"]}
    _, _, problems = measure.per_layer(w, rows, tracer, listed)
    assert problems == ["layer switch.matcher_build_s was never called"]


def test_detection_floors_catch_a_detector_that_stopped_detecting():
    y_true = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    share = y_true.mean()

    def problems(y_pred):
        served = SimpleNamespace(y_true=y_true, y_pred=np.asarray(y_pred))
        return wl.detection_problems(*measure.quality([served]), share)

    assert problems([1, 1, 0, 1, 0, 0, 0, 0, 0, 0]) == []
    assert problems([0] * 10)  # flags nothing: recall 0
    assert problems([1] * 10)  # flags everything: precision = attack share


def test_tracer_nesting_generators_and_restore():
    class Layer:
        def work(self, n):
            return sum(range(n))

        def chunks(self, n):
            yield from range(n)

    layer = Layer()
    tracer = Tracer()
    tracer.wrap(Layer, "work", "work")
    tracer.wrap(layer, "chunks", "pull", generator=True)
    with tracer.span("root"):
        for i in layer.chunks(3):
            layer.work(1000 * (i + 1))
    tracer.restore()
    assert "chunks" not in vars(layer) and not hasattr(Layer.work, "__wrapped__")
    times = tracer.self_times()
    assert times[("root", "pull")][1] == 4  # three items and the exhausting pull
    assert times[("root", "work")][1] == 3
    total = sum(self_s for self_s, _ in times.values())
    assert total == pytest.approx(tracer.inclusive("root"), abs=1e-9)


def test_refuses_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, exit non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_pulse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises((json.JSONDecodeError, KeyError, TypeError)):
            json.loads(line)["correct"]


def test_deployment_seeds_are_a_function_of_the_run_seed():
    assert wl.deployment_seeds(7, 0) == wl.deployment_seeds(7, 0)
    assert wl.deployment_seeds(7, 0) != wl.deployment_seeds(7, 1) != wl.deployment_seeds(8, 1)
    assert np.unique(list(wl.deployment_seeds(7, 0).values())).size == 5
