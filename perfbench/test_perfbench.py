"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BACKENDS,
    DEFAULT_SEED,
    NAMES,
    WORKLOADS,
    kv_run,
    kv_setup,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Units whose values are deterministic for a given seed.
EXACT_UNITS = {"count", "ratio", "vt", "msg/op", "units/op"}


def _command(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _run_once(name: str, seed: int = DEFAULT_SEED):
    workload = WORKLOADS[name]
    inputs = workload.setup(seed, "tiny")
    return workload.run(inputs, workload.reference["tiny"])


@pytest.mark.parametrize("name", NAMES)
def test_every_workload_runs_and_passes_its_checks(name):
    outcome = _run_once(name)
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.problems
    assert outcome.run_s > 0


@pytest.mark.parametrize("name", NAMES)
def test_untraced_command_prints_every_end_to_end_metric(name):
    result = _command("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_command_prints_every_per_layer_metric_and_counts_repeat():
    first = _command("--workload", "sync-flood", "--seed", "5", "--trace", "1")
    second = _command("--workload", "kv-service", "--seed", "5", "--trace", "1")
    expected = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    exact = [k for k, unit in expected.items() if unit in EXACT_UNITS]
    assert exact
    assert {k: first["metrics"][k]["value"] for k in exact} == {
        k: second["metrics"][k]["value"] for k in exact
    }


def test_planted_wrong_kv_digest_fails_that_legs_ops():
    inputs = kv_setup(DEFAULT_SEED, "tiny")
    reference = {"digests": {DEFAULT_SEED: {"to": "0" * 64}}}
    outcome = kv_run(inputs, reference)
    ops = inputs["spec"].total_ops
    assert outcome.attempted == len(BACKENDS) * ops
    assert outcome.failed == ops
    assert len(outcome.problems) == 1 and outcome.problems[0].startswith("to:")


@pytest.mark.parametrize("name", ["explore-amp", "explore-shm", "sync-flood"])
def test_planted_wrong_reference_fails_the_op(name):
    workload = WORKLOADS[name]
    planted = {key: value + 1 for key, value in workload.reference["tiny"].items()}
    outcome = workload.run(workload.setup(DEFAULT_SEED, "tiny"), planted)
    assert outcome.attempted == outcome.failed == 1
    assert "reference" in outcome.problems[0]


def test_a_failed_check_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(
        WORKLOADS["sync-flood"].reference["tiny"], "rounds", 99
    )
    rep = run.repetition("sync-flood", DEFAULT_SEED, "tiny")
    assert rep["attempted"] == rep["failed"] == 1
    assert "reference" in rep["problems"][0]
    assert rep["call_times"][0] > 0


@pytest.mark.parametrize("name", ["explore-amp", "explore-shm", "sync-flood"])
def test_seed_only_relabels_inputs(name):
    """Same work on every seed: the traced counts do not move."""
    counts = []
    for seed in range(4):
        _, metrics = run._traced_layer_metrics(
            name, seed, "tiny", WORKLOADS[name].reference["tiny"]
        )
        counts.append({
            key: value for key, value in metrics.items()
            if not key.endswith("_s")
        })
    assert counts[0] and all(c == counts[0] for c in counts)


def test_kv_seed_drives_the_spec_and_the_run():
    inputs = kv_setup(7, "tiny")
    assert inputs["spec"].seed == 7
    outcome = kv_run(inputs, {}, backends=("scd",))
    assert outcome.facts["scd"].seed == 7
    other = kv_run(kv_setup(8, "tiny"), {}, backends=("scd",))
    assert other.facts["scd"].stats_digest != outcome.facts["scd"].stats_digest


def test_speed_probe_samples_during_the_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run._SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3
    inside = sum(probe.samples)
    assert probe.relative(wall) == pytest.approx(
        (wall - inside) * len(probe.samples) / inside
    )


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = tracing.Tracer()
    tracer.patch(Layer, "outer", "outer")
    tracer.patch(Layer, "inner", "inner")
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    stats = tracer.stats()
    assert stats["outer"].count == stats["inner"].count == 1
    assert stats["outer"].self_time == pytest.approx(
        stats["outer"].total - stats["inner"].total
    )
    assert tracer.parent.tolist() == [-1, 0]


def test_tracer_restores_inherited_and_class_methods():
    from repro.harness.stats import LatencyStats
    from repro.workload.service import ToKvServiceNode

    tracer = tracing.Tracer()
    tracer.patch(ToKvServiceNode, "on_message", "handler")  # inherited
    tracer.patch(LatencyStats, "from_samples", "stats")  # classmethod
    assert LatencyStats.from_samples([1.0, 2.0]).count == 2
    tracer.uninstall()
    assert "on_message" not in ToKvServiceNode.__dict__
    assert isinstance(LatencyStats.__dict__["from_samples"], classmethod)
    assert tracer.stats()["stats"].count == 1


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sync-flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
