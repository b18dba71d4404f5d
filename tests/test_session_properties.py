"""Property tests of the session's fast paths against their references.

``substream_keys`` is checked against numpy's ``SeedSequence``, the oracle
that defines every arm's reward tape, ``StreamSession.sweep`` against the
per-arm ``advance``/``retain``/``pull``/``evict`` walk, and ``alg2`` on
``sweep`` against its former per-arm walk.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streambandit import END_OF_PASS, BanditInstance, StreamSession
from streambandit.algorithms import InconclusiveError, _walk_single_arm, stream_elimination_re
from streambandit.schedules import EliminationSchedule
from streambandit.session import BudgetOverflowError, arm_substream, substream_keys


@given(seed=st.integers(0, 2**200 - 1), data=st.data())
@settings(max_examples=200)
def test_substream_keys_match_seed_sequence(seed, data):
    n = data.draw(st.integers(1, 3000), label="n")
    arm = data.draw(st.integers(0, n - 1), label="arm")
    keys = substream_keys(seed, n)
    assert keys.shape == (n, 2) and keys.dtype == np.uint64
    oracle = np.random.SeedSequence(seed, spawn_key=(arm,))
    assert keys[arm].tolist() == oracle.generate_state(2, np.uint64).tolist()
    reference = np.random.Generator(np.random.Philox(oracle))
    assert arm_substream(keys[arm]).binomial(1000, 0.3, 8).tolist() == reference.binomial(1000, 0.3, 8).tolist()


def walk(session, arms, targets, floors=()):
    """The per-arm reference for one ``sweep`` pass."""
    todo = set(arms)
    got = []
    while (arm := session.advance()) is not END_OF_PASS:
        if arm not in todo:
            continue
        session.retain(arm)
        pulled = successes = 0
        for j, target in enumerate(targets):
            if target - pulled > 0:
                successes += session.pull(arm, target - pulled)
                pulled = target
            if j < len(floors) and successes / target < floors[j]:
                successes = None
                break
        got.append(successes)
        session.evict(arm)
    return got


def ledger(session):
    return (session.pull_count, session.per_arm_pulls, session.peak_memory, session.passes_used)


@st.composite
def pass_plans(draw):
    """Means and 1-4 passes of (listed arms, pull targets, floors).

    A floored target is at least one pull, so its estimate is defined; the
    other targets may sit at or below the pulls already made.
    """
    n = draw(st.integers(1, 10))
    means = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    plan = []
    for _ in range(draw(st.integers(1, 4))):
        arms = sorted(draw(st.sets(st.integers(0, n - 1))))
        floored = draw(st.integers(0, 3))
        targets = draw(st.lists(st.integers(1, 60), min_size=floored, max_size=floored))
        targets += draw(st.lists(st.integers(-2, 60), max_size=3))
        floor = st.one_of(st.floats(-0.1, 1.1), st.just(-math.inf))
        floors = draw(st.lists(floor, min_size=floored, max_size=floored))
        plan.append((arms, targets, floors))
    return means, plan


@given(plan=pass_plans(), seed=st.integers(0, 2**64), sampling=st.sampled_from(["binomial", "bernoulli"]))
def test_sweep_charges_what_the_walk_charges(plan, seed, sampling):
    means, passes = plan
    instance = BanditInstance(means=tuple(means))
    swept = StreamSession(instance, seed, sampling=sampling)
    walked = StreamSession(instance, seed, sampling=sampling)
    for p, (arms, targets, floors) in enumerate(passes):
        if p > 0:
            swept.begin_pass()
            walked.begin_pass()
        assert swept.sweep(arms, targets, floors) == walk(walked, arms, targets, floors)
        assert ledger(swept) == ledger(walked)
        assert swept.cursor == walked.cursor and not swept.memory


@pytest.mark.parametrize("sampling", ["binomial", "bernoulli"])
def test_overflow_mid_sweep_leaves_the_walks_charged_prefix(sampling):
    # Arms 0 and 1 (mean 0) stop at the floor after 5 pulls each; arm 2 (mean
    # 1) passes it, and its pull up to 2^63 - 1 would take the counter past
    # INT64_MAX, so it raises before drawing.
    instance = BanditInstance(means=(0.0, 0.0, 1.0, 0.5))
    arms, targets, floors = [0, 1, 2, 3], [5, 2**63 - 1], [0.5]
    swept = StreamSession(instance, 3, sampling=sampling)
    walked = StreamSession(instance, 3, sampling=sampling)
    assert swept.sweep([0], [4]) == walk(walked, [0], [4]) == [0]
    swept.begin_pass()
    walked.begin_pass()
    with pytest.raises(BudgetOverflowError):
        swept.sweep(arms, targets, floors)
    with pytest.raises(BudgetOverflowError):
        walk(walked, arms, targets, floors)
    assert ledger(swept) == ledger(walked) == (19, [9, 5, 5, 0], 1, 2)
    assert (swept.cursor, swept.memory) == (walked.cursor, walked.memory) == (2, {2})


def walked_stream_elimination_re(
    session: StreamSession,
    P: int,
    delta: float,
    delta2: float | None,
) -> int:
    """``stream_elimination_re`` as a per-arm walk: the reference its sweep must match."""
    n = session.n
    if session.stats_mode != "bounded":
        raise ValueError("stream_elimination_re runs in the bounded statistics model")
    if n == 1 and delta2 is None:
        session.declare_stats(3)
        return _walk_single_arm(session, 1)
    if delta2 is None:
        raise ValueError("stream_elimination_re requires a known gap or lower bound")
    sched = EliminationSchedule.build_re(n, P, delta, delta2)
    maxima: list[float] = []  # mu-hat-max of completed passes, one word each
    champion: int | None = None
    for p in range(P + 1):
        if p > 0:
            session.begin_pass()
        # retained words: p completed maxima + running maximum + champion + counter
        session.declare_stats(p + 3)
        cur_max = -math.inf
        eliminated_count = 0
        while (arm := session.advance()) is not END_OF_PASS:
            session.retain(arm)
            pulled = 0
            successes = 0
            estimate = 0.0
            survived = True
            for j in range(p + 1):
                target = sched.budgets[j]
                need = target - pulled
                if need > 0:
                    successes += session.pull(arm, need)
                    pulled = target
                estimate = successes / target
                level_max = maxima[j] if j < p else cur_max
                if estimate < level_max - sched.epsilons[j]:
                    eliminated_count += 1
                    survived = False
                    break
            if survived and estimate > cur_max:
                cur_max = estimate
                champion = arm
            session.evict(arm)
        maxima.append(cur_max)
        if eliminated_count == n - 1:
            return champion  # type: ignore[return-value]
    raise InconclusiveError("no pass eliminated all suboptimal arms")


def outcome(run, session, *args):
    """The return value or the raised error, with everything the session charged."""
    try:
        value = run(session, *args)
    except (ValueError, BudgetOverflowError, InconclusiveError) as e:
        value = (type(e).__name__, str(e))
    return value, ledger(session), session.peak_stats_words


def largest_budget(n, P, delta, delta2):
    if delta2 is None:
        return math.inf
    try:
        return max(EliminationSchedule.build_re(n, P, delta, delta2).budgets)
    except BudgetOverflowError:
        return math.inf


@given(
    means=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    P=st.integers(1, 4),
    delta=st.floats(0.01, 0.5),
    delta2=st.one_of(st.none(), st.floats(0.2, 4.0), st.floats(0.01, 0.2), st.floats(1e-9, 1e-7)),
    seed=st.integers(0, 2**64),
    bernoulli=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_alg2_on_sweep_matches_the_per_arm_walk(means, P, delta, delta2, seed, bernoulli):
    instance = BanditInstance(means=tuple(means))
    sampling = "bernoulli" if bernoulli and largest_budget(len(means), P, delta, delta2) <= 1e5 else "binomial"
    swept = StreamSession(instance, seed, stats_mode="bounded", sampling=sampling)
    walked = StreamSession(instance, seed, stats_mode="bounded", sampling=sampling)
    assert outcome(stream_elimination_re, swept, P, delta, delta2) == outcome(
        walked_stream_elimination_re, walked, P, delta, delta2
    )
