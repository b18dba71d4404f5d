"""Property tests of the session's fast paths against their references.

``substream_keys`` is checked against numpy's ``SeedSequence``, the oracle
that defines every arm's reward tape, ``StreamSession.sweep`` against the
per-arm ``advance``/``retain``/``pull``/``evict`` walk, ``alg2`` on
``sweep`` against its former per-arm walk, and every session call against a
reference model of the access rules and meters (``SessionMachine``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from streambandit import END_OF_PASS, BanditInstance, SessionClosedError, StreamSession
from streambandit.algorithms import InconclusiveError, _walk_single_arm, stream_elimination_re
from streambandit.schedules import EliminationSchedule
from streambandit.session import BudgetOverflowError, IllegalAccessError, arm_substream, substream_keys


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


REJECTED = object()  # what SessionMachine.call returns for a call that must raise


class SessionMachine(RuleBasedStateMachine):
    """Random call sequences against a reference model of the session.

    Means are 0 or 1, so every reward and every floor decision is known in
    advance.  The model holds the cursor, the stored arms, per-arm pulls,
    passes, peak memory (a running maximum, so the session's must be
    monotone) and whether the session is closed.  A call the model rejects
    must raise and leave the session as it was; once closed, every call
    raises ``SessionClosedError``.
    """

    @initialize(
        means=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=5),
        seed=st.integers(0, 2**64),
        sampling=st.sampled_from(["binomial", "bernoulli"]),
    )
    def start(self, means, seed, sampling):
        self.s = StreamSession(BanditInstance(means=tuple(means)), seed, sampling=sampling)
        self.means, self.n = means, len(means)
        self.cursor, self.memory, self.pulls, self.passes, self.peak = -1, set(), [0] * self.n, 1, 0
        self.closed = False

    def state(self):
        s = self.s
        return s.pull_count, list(s.per_arm_pulls), s.peak_memory, s.passes_used, s.cursor, set(s.memory)

    def call(self, error, method, *args):
        """The call's value when the model allows it (``error`` None and the
        session open); otherwise check that it raises, changes nothing and
        return REJECTED."""
        if self.closed:
            error = SessionClosedError
        if error is None:
            return getattr(self.s, method)(*args)
        before = self.state()
        with pytest.raises(error):
            getattr(self.s, method)(*args)
        assert self.state() == before
        return REJECTED

    @rule()
    def advance(self):
        got = self.call(None if self.cursor < self.n else IllegalAccessError, "advance")
        if got is not REJECTED:
            self.cursor += 1
            assert got == (END_OF_PASS if self.cursor == self.n else self.cursor)

    @rule()
    def begin_pass(self):
        if self.call(None, "begin_pass") is not REJECTED:
            self.passes, self.cursor = self.passes + 1, -1

    def arm(self, data):
        """Often the arriving or a stored arm, else any arm from one before the
        start (the cursor before a pass's first ``advance``) to one past the end."""
        near = sorted(self.memory | {self.cursor} & set(range(self.n)))
        anywhere = st.integers(-1, self.n)
        return data.draw(st.one_of(st.sampled_from(near), anywhere) if near else anywhere)

    @rule(data=st.data())
    def retain(self, data):
        arm = self.arm(data)
        legal = 0 <= arm == self.cursor < self.n
        if self.call(None if legal else IllegalAccessError, "retain", arm) is not REJECTED:
            self.memory.add(arm)
            self.peak = max(self.peak, len(self.memory))

    @rule(data=st.data())
    def evict(self, data):
        arm = self.arm(data)
        if self.call(None if arm in self.memory else IllegalAccessError, "evict", arm) is not REJECTED:
            self.memory.discard(arm)

    @rule(data=st.data(), count=st.integers(0, 4))
    def pull(self, data, count):
        arm = self.arm(data)
        legal = 0 <= arm == self.cursor < self.n or arm in self.memory
        got = self.call(ValueError if count < 1 else None if legal else IllegalAccessError, "pull", arm, count)
        if got is not REJECTED:
            assert got == count * self.means[arm]
            self.pulls[arm] += count

    @rule(data=st.data())
    def sweep(self, data):
        arms = sorted(data.draw(st.sets(st.integers(0, self.n - 1)), label="arms"))
        floors = data.draw(st.lists(st.sampled_from([-math.inf, 0.0, 0.5, 1.0]), max_size=2), label="floors")
        targets = data.draw(st.lists(st.integers(1, 4), min_size=len(floors), max_size=len(floors)))
        targets += data.draw(st.lists(st.integers(-1, 4), max_size=2), label="targets")
        legal = self.cursor == -1 and not self.memory
        got = self.call(None if legal else IllegalAccessError, "sweep", arms, targets, floors)
        if got is REJECTED:
            return
        expected = []
        for arm in arms:
            pulled, rewards = 0, None
            for j, target in enumerate(targets):
                pulled = max(pulled, target)
                if j < len(floors) and pulled * self.means[arm] / target < floors[j]:
                    break
            else:
                rewards = pulled * self.means[arm]
            self.pulls[arm] += pulled
            expected.append(rewards)
        assert got == expected
        self.peak = max(self.peak, min(1, len(arms)))
        self.cursor = self.n

    @precondition(lambda self: self.passes > 3)  # later, so most steps run on an open session
    @rule()
    def close(self):
        self.s.close()
        self.closed = True

    @invariant()
    def meters_match_the_model(self):
        s = self.s
        assert s.per_arm_pulls == self.pulls and s.pull_count == sum(s.per_arm_pulls)
        assert s.peak_memory == self.peak >= len(s.memory) and s.memory == self.memory
        assert (s.passes_used, s.cursor) == (self.passes, self.cursor)


TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
