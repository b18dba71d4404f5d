"""The names the benchmark's tracer patches at run time still carry the calls.

``perfbench/tracer.py`` replaces module attributes of ``src/`` with counting
wrappers.  A rename, or a call that bypasses the module attribute, leaves a
wrapper uncalled and the benchmark's trial reconciliation fails.  This test
installs the real tracer and checks that every layer it wraps was counted.
It reads counts only, never timings.
"""

import sys
from pathlib import Path

import pytest

from streambandit import AlgorithmConfig, bench, events, gen_uniform, schedules, trial
from streambandit.algorithms import ALGORITHMS

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
N = 12


@pytest.fixture
def tracer(tmp_path):
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    t = Tracer(tmp_path)
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_patched_layer_is_counted(tracer):
    instance = gen_uniform(N, 5)
    for name in ALGORITHMS:
        result = trial.run_trial(instance, AlgorithmConfig(name, delta2_source="exact"), 7)
        assert result.failure_reason is None, name
        acc = tracer.acc
        assert acc["trial_calls"] == 1, name
        assert acc["algorithms_calls"] == 1, name
        assert acc["pull_calls"] > 0, name
        assert acc["substream_calls"] == N, name
        assert acc["draw_calls"] > 0, name
        assert acc["instances_calls"] >= 1, name
        record = tracer.finish_trial(1.0, name)
        assert {"trial", "algorithms"} <= {span[1] for span in record["spans"]}, name

    schedule = schedules.EliminationSchedule.build(N, 4, 0.05, instance.known_delta2)
    events.check_concentration_event(instance, schedule, 7)
    assert tracer.totals["events_calls"] == 1
    assert tracer.totals["replay_draws"] > 0

    for source in (
        {"generator": "uniform", "n": N},
        {"generator": "arithmetic", "n": N},
        {"generator": "cluster", "n": N},
    ):
        bench.resolve_instance(source, 0)
    assert tracer.totals["generators_calls"] == 3
    layers = {span[1] for span in tracer.spans}
    assert {"generators", "events"} <= layers
