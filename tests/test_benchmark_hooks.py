"""The names the benchmark's tracer patches at run time still carry the calls.

``perfbench/tracer.py`` replaces module attributes of ``src/`` with counting
wrappers.  A rename, or a call that bypasses the module attribute, leaves a
wrapper uncalled and the benchmark's trial reconciliation fails.  This test
installs the real tracer and checks that every layer it wraps was counted.
It reads counts only, never timings.  The tracer splits ``pull``'s time into
substream creation, reward draws and the rest, so the session's RNG calls
must all happen inside ``pull``; a second test checks that.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from streambandit import AlgorithmConfig, bench, events, gen_uniform, schedules, session, trial
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


def test_session_rng_is_called_only_inside_pull(monkeypatch):
    depth = 0
    calls: Counter = Counter()  # (RNG primitive, called inside pull)
    pull = session.StreamSession.pull

    def tracked_pull(self, arm, count):
        nonlocal depth
        depth += 1
        try:
            return pull(self, arm, count)
        finally:
            depth -= 1

    def watched(name):
        fn = getattr(session, name)

        def wrapper(*args):
            calls[name, depth > 0] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(session.StreamSession, "pull", tracked_pull)
    for name in ("arm_substream", "draw_successes"):
        monkeypatch.setattr(session, name, watched(name))
    instance = gen_uniform(N, 5)
    for name in ALGORITHMS:
        result = trial.run_trial(instance, AlgorithmConfig(name, delta2_source="exact"), 7)
        assert result.failure_reason is None, name
    session.StreamSession(instance, 7, sampling="bernoulli").sweep(range(N), [3, 8], [0.2])
    assert calls["arm_substream", False] == calls["draw_successes", False] == 0
    # five sessions, each building every arm's generator once
    assert calls["arm_substream", True] == 5 * N and calls["draw_successes", True] > 0
