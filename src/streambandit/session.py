"""Streaming access layer: pass iteration, arm memory, and resource metering.

A :class:`StreamSession` is the only way an algorithm touches a bandit
instance.  It enforces the streaming access rules (pull the arriving arm or a
stored arm, nothing else), meters every resource the lab reports (pulls,
passes, peak arm memory, declared statistics words), and owns all randomness.

Randomness is keyed per (trial seed, arm index): each arm has its own
counter-based substream, so an arm's reward tape is a fixed sequence that
"top-up" pulls extend and that an independent replayer can regenerate
call-for-call.  Two sampling modes exist:

* ``"binomial"`` (default): one batched draw per pull call; O(1) per batch,
  required for runs with ~1e9 pulls.
* ``"bernoulli"``: one uniform per reward; the slow reference path used by
  distribution tests.
"""

from __future__ import annotations

import numpy as np

from .instances import BanditInstance

INT64_MAX = 2**63 - 1

_BERNOULLI_CHUNK = 1 << 22


class BudgetOverflowError(OverflowError):
    """A pull budget or counter exceeds 64 bits; the configuration is infeasible."""


class IllegalAccessError(Exception):
    """An algorithm touched an arm that is neither arriving nor stored."""


class SessionClosedError(Exception):
    """An operation was attempted on a session that already returned."""


class _EndOfPass:
    __slots__ = ()

    def __repr__(self) -> str:
        return "END_OF_PASS"


#: Sentinel returned by :meth:`StreamSession.advance` at stream end.
END_OF_PASS = _EndOfPass()


def arm_substream(seed: int, arm: int) -> np.random.Generator:
    """Counter-based generator dedicated to one arm of one trial."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(arm,))
    return np.random.Generator(np.random.Philox(ss))


def draw_successes(gen: np.random.Generator, count: int, mean: float, sampling: str) -> int:
    """Number of 1-rewards among ``count`` Bernoulli(mean) draws."""
    if sampling == "binomial":
        return int(gen.binomial(count, mean))
    if sampling == "bernoulli":
        total = 0
        left = count
        while left > 0:
            chunk = min(left, _BERNOULLI_CHUNK)
            total += int((gen.random(chunk) < mean).sum())
            left -= chunk
        return total
    raise ValueError(f"unknown sampling mode {sampling!r}")


class StreamSession:
    """Enforcement and accounting layer for one streaming trial.

    The session starts inside pass 0 with the cursor before the first arm.
    ``advance()`` walks the fixed arrival order (the instance's arm order) and
    returns :data:`END_OF_PASS` at stream end; ``begin_pass()`` rewinds the
    cursor and increments the pass counter.  The arrival order is identical in
    every pass.
    """

    def __init__(
        self,
        instance: BanditInstance,
        seed: int,
        stats_mode: str = "free",
        sampling: str = "binomial",
    ):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if stats_mode not in ("free", "bounded"):
            raise ValueError(f"unknown stats_mode {stats_mode!r}")
        if sampling not in ("binomial", "bernoulli"):
            raise ValueError(f"unknown sampling mode {sampling!r}")
        self.instance = instance
        self.seed = int(seed)
        self.stats_mode = stats_mode
        self.sampling = sampling

        self.pass_index = 0
        self.cursor = -1
        self.memory: set[int] = set()
        self.pull_count = 0
        self.per_arm_pulls = [0] * instance.n
        self.peak_memory = 0
        self._stats_words = 0
        self._peak_stats_words = 0
        self._closed = False
        self._gens: dict[int, np.random.Generator] = {}

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def arriving(self) -> int | None:
        """Index of the arm currently at the cursor, or None between arms."""
        if 0 <= self.cursor < self.n:
            return self.cursor
        return None

    @property
    def passes_used(self) -> int:
        return self.pass_index + 1

    @property
    def stats_words(self) -> int:
        return self._stats_words

    @property
    def peak_stats_words(self) -> int | None:
        """Peak declared statistics words; None (unbounded) in free mode."""
        if self.stats_mode == "free":
            return None
        return self._peak_stats_words

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session already closed")

    def advance(self):
        """Move to the next arm in arrival order; END_OF_PASS at stream end."""
        self._check_open()
        if self.cursor >= self.n:
            raise IllegalAccessError("advance past end of pass; call begin_pass first")
        self.cursor += 1
        if self.cursor >= self.n:
            return END_OF_PASS
        return self.cursor

    def begin_pass(self) -> None:
        """Start the next pass; the arrival order repeats exactly."""
        self._check_open()
        self.pass_index += 1
        self.cursor = -1

    def pull(self, arm: int, count: int) -> int:
        """Pull ``arm`` ``count`` times; returns the number of 1-rewards.

        Legal only on the arriving arm or a stored arm.
        """
        self._check_open()
        if count < 1:
            raise ValueError("count must be >= 1")
        if arm != self.arriving and arm not in self.memory:
            raise IllegalAccessError(
                f"pull on arm {arm}: neither arriving (cursor={self.cursor}) nor stored"
            )
        if self.pull_count + count > INT64_MAX or self.per_arm_pulls[arm] + count > INT64_MAX:
            raise BudgetOverflowError("pull counter exceeds 64-bit range")
        gen = self._gens.get(arm)
        if gen is None:
            gen = self._gens[arm] = arm_substream(self.seed, arm)
        successes = draw_successes(gen, count, self.instance.means[arm], self.sampling)
        self.pull_count += count
        self.per_arm_pulls[arm] += count
        return successes

    def retain(self, arm: int) -> None:
        """Store the arriving arm (grants pull rights beyond its arrival)."""
        self._check_open()
        if arm != self.arriving:
            raise IllegalAccessError(f"retain on arm {arm}: only the arriving arm may be stored")
        self.memory.add(arm)
        self.peak_memory = max(self.peak_memory, len(self.memory))

    def evict(self, arm: int) -> None:
        """Discard a stored arm from memory."""
        self._check_open()
        if arm not in self.memory:
            raise IllegalAccessError(f"evict on arm {arm}: not stored")
        self.memory.discard(arm)

    def declare_stats(self, words: int) -> None:
        """Declare the auxiliary statistics footprint, in words.

        No-op in free-transcript mode, where statistics are not charged.
        """
        self._check_open()
        if words < 0:
            raise ValueError("words must be >= 0")
        if self.stats_mode == "free":
            return
        self._stats_words = words
        self._peak_stats_words = max(self._peak_stats_words, words)

    def close(self) -> None:
        self._closed = True
