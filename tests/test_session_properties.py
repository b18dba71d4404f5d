"""Property tests of the session's fast paths against their references.

``substream_keys`` is checked against numpy's ``SeedSequence``, the oracle
that defines every arm's reward tape, and ``StreamSession.sweep`` against
the per-arm ``advance``/``retain``/``pull``/``evict`` walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streambandit import END_OF_PASS, BanditInstance, StreamSession
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


def walk(session, arms, counts):
    """The per-arm reference for one ``sweep`` pass."""
    todo = dict(zip(arms, counts))
    got = []
    while (arm := session.advance()) is not END_OF_PASS:
        if arm not in todo:
            continue
        session.retain(arm)
        got.append(session.pull(arm, todo[arm]) if todo[arm] > 0 else 0)
        session.evict(arm)
    return got


def ledger(session):
    return (session.pull_count, session.per_arm_pulls, session.peak_memory, session.passes_used)


@st.composite
def pass_plans(draw):
    n = draw(st.integers(1, 10))
    means = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    plan = []
    for _ in range(draw(st.integers(1, 4))):
        arms = sorted(draw(st.sets(st.integers(0, n - 1))))
        counts = draw(st.lists(st.integers(-2, 60), min_size=len(arms), max_size=len(arms)))
        plan.append((arms, counts))
    return means, plan


@given(plan=pass_plans(), seed=st.integers(0, 2**64), sampling=st.sampled_from(["binomial", "bernoulli"]))
def test_sweep_charges_what_the_walk_charges(plan, seed, sampling):
    means, passes = plan
    instance = BanditInstance(means=tuple(means))
    swept = StreamSession(instance, seed, sampling=sampling)
    walked = StreamSession(instance, seed, sampling=sampling)
    for p, (arms, counts) in enumerate(passes):
        if p > 0:
            swept.begin_pass()
            walked.begin_pass()
        assert swept.sweep(arms, counts) == walk(walked, arms, counts)
        assert ledger(swept) == ledger(walked)
        assert swept.cursor == walked.cursor and not swept.memory


@pytest.mark.parametrize("sampling", ["binomial", "bernoulli"])
def test_overflow_mid_sweep_leaves_the_walks_charged_prefix(sampling):
    instance = BanditInstance(means=(1.0, 0.0, 0.5, 0.5))
    arms, counts = [0, 1, 2, 3], [5, 0, 2**63 - 5, 7]
    swept = StreamSession(instance, 3, sampling=sampling)
    walked = StreamSession(instance, 3, sampling=sampling)
    swept.sweep([0], [4])
    walk(walked, [0], [4])
    swept.begin_pass()
    walked.begin_pass()
    with pytest.raises(BudgetOverflowError):
        swept.sweep(arms, counts)
    with pytest.raises(BudgetOverflowError):
        walk(walked, arms, counts)
    assert ledger(swept) == ledger(walked) == (9, [9, 0, 0, 0], 1, 2)
    assert (swept.cursor, swept.memory) == (walked.cursor, walked.memory) == (2, {2})
