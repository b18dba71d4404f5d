"""Streaming access layer: pass iteration, arm memory, and resource metering.

A :class:`StreamSession` is the only way an algorithm touches a bandit
instance.  It enforces the streaming access rules (pull the arriving arm or a
stored arm, nothing else), meters every resource the lab reports (pulls,
passes, peak arm memory, declared statistics words), and owns all randomness.

Randomness is keyed per (trial seed, arm index): arm i's reward tape is the
Philox stream keyed by ``SeedSequence(seed, spawn_key=(i,))``, a fixed
sequence that "top-up" pulls extend and that an independent replayer can
regenerate call-for-call.  :func:`substream_keys` computes those keys for all
arms in one vector step instead of one ``SeedSequence`` per arm; a property
test pins them to ``SeedSequence``.  Two sampling modes exist:

* ``"binomial"`` (default): one batched draw per pull call; O(1) per batch,
  required for runs with ~1e9 pulls.
* ``"bernoulli"``: one uniform per reward; the slow reference path used by
  distribution tests.

Arms are visited one at a time (``advance``/``retain``/``pull``/``evict``)
or a whole pass at once with :meth:`StreamSession.sweep`, which tops each
listed arm up a ladder of pull targets and stops it early when it falls below
a floor fixed before the pass; both charge the same resources.  ``alg1``,
``jhtx`` and ``alg2`` run on ``sweep``.  ``keepbest`` keeps the per-arm walk,
because it stores a champion next to the arriving arm.

``pull`` is the only place the session touches the RNG, through the module
attributes ``arm_substream`` and ``draw_successes``, and ``sweep`` pulls
through it: the benchmark's tracer splits ``pull``'s time by wrapping those
names, and ``tests/test_benchmark_hooks.py`` checks that nothing draws outside.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def substream_keys(seed: int, n: int) -> np.ndarray:
    """(n, 2) uint64 Philox keys, row i equal to
    ``SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)``.

    The hash constants advance independently of the data and the spawn-key
    word is mixed in last, so the seed's pool is mixed once and the arm word
    of every arm is mixed into it as one uint32 vector.
    """
    seed_words = max(1, -(-int(seed).bit_length() // 32))
    # hashmix calls before the arm word: 16, plus 4 per seed word past the 4-word pool
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 1 << 32) & _M32
    hash_b = _INIT_B
    arms = np.arange(n, dtype=np.uint32)
    words = np.empty((4, n), dtype=np.uint32)
    for i, pool_word in enumerate(np.random.SeedSequence(seed).pool.tolist()):
        h = arms ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _M32
        h *= np.uint32(hash_a)
        h ^= h >> np.uint32(16)
        w = np.uint32(_MIX_L * pool_word & _M32) - np.uint32(_MIX_R) * h
        w ^= w >> np.uint32(16)
        w ^= np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _M32
        w *= np.uint32(hash_b)
        w ^= w >> np.uint32(16)
        words[i] = w
    wide = words.astype(np.uint64)
    return np.stack([wide[0] | wide[1] << np.uint64(32), wide[2] | wide[3] << np.uint64(32)], axis=1)


class _FixedKey(ISeedSequence):
    """Hands Philox a precomputed key without drawing OS entropy."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


# Philox's default counter 0 in the uint64[4] form Philox converts it to; passing
# it skips that conversion, and Philox copies it, so one array serves every arm.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


def arm_substream(key: np.ndarray) -> np.random.Generator:
    """Counter-based generator of one arm, from its row of :func:`substream_keys`."""
    return np.random.Generator(np.random.Philox(_FixedKey(key), counter=_ZERO_COUNTER))


def draw_successes(gen: np.random.Generator, count: int, mean: float, sampling: str) -> int:
    """Number of 1-rewards among ``count`` Bernoulli(mean) draws."""
    if sampling == "binomial":
        return gen.binomial(count, mean)  # a scalar draw is already an int
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
        self.n = instance.n
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
        self._means = instance.means
        self._gens: list[np.random.Generator | None] = [None] * instance.n
        self._keys: np.ndarray | None = None

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
        if self._closed:
            raise SessionClosedError("session already closed")
        if count < 1:
            raise ValueError("count must be >= 1")
        if not (arm == self.cursor and 0 <= arm < self.n or arm in self.memory):
            raise IllegalAccessError(
                f"pull on arm {arm}: neither arriving (cursor={self.cursor}) nor stored"
            )
        pull_count = self.pull_count + count
        arm_pulls = self.per_arm_pulls[arm] + count
        if pull_count > INT64_MAX or arm_pulls > INT64_MAX:
            raise BudgetOverflowError("pull counter exceeds 64-bit range")
        gen = self._gens[arm]
        if gen is None:
            if self._keys is None:
                self._keys = substream_keys(self.seed, self.n)
            gen = self._gens[arm] = arm_substream(self._keys[arm])
        successes = draw_successes(gen, count, self._means[arm], self.sampling)
        self.pull_count = pull_count
        self.per_arm_pulls[arm] = arm_pulls
        return successes

    def sweep(self, arms, targets, floors=()) -> list[int | None]:
        """Walk one whole pass; returns each listed arm's 1-rewards, or None.

        Each listed arm, in arrival order, is stored, topped up to
        ``targets[0]``, ``targets[1]``, ... pulls within this pass (a target at
        or below the pulls made draws nothing) and evicted; unlisted arms are
        skipped.  After target j < ``len(floors)`` an arm with
        ``successes / targets[j] < floors[j]`` stops and its entry is None.
        Charges exactly what the per-arm ``advance``/``retain``/``pull``/``evict``
        walk charges, including where a pass that overflows stops.  Legal only
        at the start of a pass with no arm stored.
        """
        self._check_open()
        if self.cursor != -1 or self.memory:
            raise IllegalAccessError("sweep needs the start of a pass and an empty memory")
        pull, memory, n = self.pull, self.memory, self.n
        out: list[int | None] = []
        rungs = [(target, floors[j] if j < len(floors) else None) for j, target in enumerate(targets)]
        for arm in arms:
            if not self.cursor < arm < n:
                raise IllegalAccessError(f"sweep on arm {arm}: not ahead of cursor {self.cursor}")
            self.cursor = arm
            memory.add(arm)
            if not self.peak_memory:  # memory holds only this arm
                self.peak_memory = 1
            pulled = successes = 0
            for target, floor in rungs:
                if target > pulled:
                    successes += pull(arm, target - pulled)
                    pulled = target
                if floor is not None and successes / target < floor:
                    successes = None
                    break
            out.append(successes)
            memory.discard(arm)
        self.cursor = n
        return out

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
