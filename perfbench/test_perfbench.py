"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

The smoke runs take the same code paths as a full run, at tiny sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from streambandit import AlgorithmConfig, gen_uniform, run_trial

from checks import Tally, trial_failure
from tracer import ABS_TOL_S, reconcile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert any(line.strip() == f"{name} = {entry['value']} {entry['unit']}" for line in lines)
    assert any(line.strip().startswith("failed_frac = 0.0 ratio") for line in lines)


@pytest.fixture(scope="module")
def alg1_trial():
    instance = gen_uniform(20, 5)
    config = AlgorithmConfig("alg1", P=3)
    result = run_trial(instance, config, 7)
    best = max(range(instance.n), key=lambda i: instance.means[i])
    return instance, config, result, best


def test_wrong_result_raises_failed_frac(alg1_trial):
    instance, config, result, best = alg1_trial
    tally = Tally()
    tally.check(0, result, config, instance.n, best)
    assert tally.failed_frac == 0.0
    wrong = replace(result, returned_arm=(best + 1) % instance.n, correct=False)
    tally.check(1, wrong, config, instance.n, best)
    assert tally.failed == 1 and tally.failed_frac == 0.5


@pytest.mark.parametrize(
    "algorithm, changes",
    [
        ("alg1", {"failure_reason": "InconclusiveError: 2 arms survived the final pass"}),
        ("alg1", {"passes_used": 3}),
        ("alg1", {"peak_arm_memory": 2}),
        ("alg2", {"peak_stats_words": 7}),
        ("alg2", {"peak_stats_words": None}),
        ("keepbest", {"passes_used": 2}),
        ("keepbest", {"peak_arm_memory": 3}),
        ("jhtx", {"passes_used": 61}),
        ("jhtx", {"peak_arm_memory": 2}),
    ],
)
def test_each_invariant_is_checked(alg1_trial, algorithm, changes):
    instance, _, result, best = alg1_trial
    config = AlgorithmConfig(algorithm, P=3, delta2_source="none" if algorithm == "jhtx" else "exact")
    passes = {"alg1": 4, "alg2": 2, "keepbest": 1, "jhtx": 5}[algorithm]
    good = replace(result, algorithm=algorithm, passes_used=passes, peak_stats_words=4 if algorithm == "alg2" else None)
    assert trial_failure(good, config, instance.n, best) is None
    assert trial_failure(replace(good, **changes), config, instance.n, best) is not None


def test_trace_that_misses_time_does_not_reconcile():
    acc = {"substream_s": 0.001, "draw_s": 0.001, "pull_s": 0.003, "meter_s": 0.002,
           "algorithms_s": 0.008, "schedules_s": 0.0005, "instances_s": 0.0002, "trial_s": 0.009}
    assert reconcile(acc, 0.009)["ok"]
    assert not reconcile(acc, 0.009 + 10 * ABS_TOL_S)["ok"]
    assert not reconcile(dict(acc, pull_s=0.009), 0.009)["ok"]  # a child longer than its parent


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""
