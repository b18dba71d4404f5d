"""Best-arm identification algorithms against the streaming session interface.

Four algorithms, all single-threaded against one session:

* ``stream_elimination`` -- the geometric multi-pass eliminator with a known
  optimality gap.  P + 1 passes, single-arm memory, cumulative pull top-ups.
* ``stream_elimination_re`` -- the bounded-statistics variant: per-arm counts
  are discarded between passes and re-estimated level by level, so only the
  per-pass maxima (at most P + 3 words) persist.
* ``single_pass_keepbest`` -- champion/challenger baseline, one pass.
* ``doubling_gap_elimination`` -- gap-halving eliminator that needs no gap
  knowledge; pass count grows with log(1/gap).

Estimate tie-breaking is always "first maximum in arrival order".
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .instances import BanditInstance, present, reading, require_number
from .schedules import EliminationSchedule, budget
from .session import END_OF_PASS, StreamSession


#: Algorithm names on the wire.
ALGORITHMS = ("alg1", "alg2", "keepbest", "jhtx")

#: Passes the doubling eliminator may use when its config sets no cap.
DEFAULT_PASS_CAP = 60


class InconclusiveError(Exception):
    """The run ended without isolating a single arm."""


class PassCapExceededError(Exception):
    """The doubling eliminator hit its pass cap with several arms active."""


@dataclass(frozen=True)
class AlgorithmConfig:
    """Wire-format algorithm selection.

    ``algorithm`` is one of ``"alg1"`` (stream elimination), ``"alg2"``
    (bounded-statistics re-estimating variant), ``"keepbest"``, ``"jhtx"``
    (the doubling baseline).  ``P`` defaults to ceil(log2 n) for the two
    multi-pass eliminators when omitted.
    """

    algorithm: str
    P: int | None = None
    delta: float = 0.05
    delta2_source: str = "exact"
    pass_cap: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.delta2_source not in ("exact", "lower_bound", "none"):
            raise ValueError(f"unknown delta2_source {self.delta2_source!r}")
        require_number("delta", self.delta, (int, float))
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        for key in ("P", "pass_cap"):
            value = getattr(self, key)
            if value is not None:
                require_number(key, value, int)
                if value < 1:
                    raise ValueError(f"{key} must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "AlgorithmConfig":
        with reading("algorithm config"):
            return cls(**present(d, cls))


def default_passes(n: int) -> int:
    """ceil(log2 n), the pass setting that optimizes the sample/pass trade-off."""
    return max(1, math.ceil(math.log2(max(2, n))))


def resolve_delta2(instance: BanditInstance, config: AlgorithmConfig) -> float | None:
    """Gap value the configured algorithm may consume, validated against the instance."""
    if config.algorithm == "jhtx":
        return None
    if config.delta2_source == "none":
        raise ValueError(f"{config.algorithm} requires gap side information")
    if instance.known_delta2 is None:
        if instance.n == 1:
            return None
        raise ValueError("instance carries no known_delta2")
    if config.delta2_source == "exact" and instance.delta2_mode != "exact":
        raise ValueError("config expects an exact gap but the instance holds a lower bound")
    return instance.known_delta2


def _walk_single_arm(session: StreamSession, passes: int) -> int:
    # Degenerate one-arm stream: no gap information is needed or used.
    for p in range(passes):
        if p > 0:
            session.begin_pass()
        session.sweep([0], [])
    return 0


def _top_up_and_eliminate(
    session: StreamSession,
    passes: int,
    level: Callable[[int], tuple[float, int]],
    stop_at_one: bool,
) -> list[int]:
    """The pass loop of the cumulative eliminators; returns the surviving arms.

    Pass p takes its threshold eps and budget T from ``level(p)``, tops every
    active arm's cumulative pulls up to T (earlier pulls are a prefix of the
    same reward tape) and drops arms whose estimate falls more than eps below
    the pass maximum.  Each pass is opened before ``level`` is asked, so an
    overflowing budget is charged to the pass that needed it.  With
    ``stop_at_one`` the run ends as soon as a single arm is left.
    """
    live = list(range(session.n))
    successes = [0] * session.n  # cumulative 1-rewards, aligned with live
    pulled = 0  # cumulative pulls, the same for every live arm
    for p in range(passes):
        if p > 0:
            session.begin_pass()
        eps, target = level(p)
        got = session.sweep(live, [target - pulled])
        pulled = max(pulled, target)
        successes = [s + g for s, g in zip(successes, got)]
        # division by target > 0 is monotone, so this is the largest estimate
        threshold = max(successes) / target - eps
        kept = [i for i, s in enumerate(successes) if not s / target < threshold]
        live = [live[i] for i in kept]
        successes = [successes[i] for i in kept]
        if stop_at_one and len(live) == 1:
            break
    return live


def stream_elimination(
    session: StreamSession,
    P: int,
    delta: float,
    delta2: float | None,
) -> int:
    """Multi-pass geometric eliminator; returns the surviving arm index.

    Pass p tops every active arm's cumulative pulls up to T_p and drops arms
    whose estimate falls more than eps_p below the pass maximum.  Exactly
    P + 1 passes; one arm handle held at a time.
    """
    n = session.n
    if n == 1 and delta2 is None:
        return _walk_single_arm(session, P + 1)
    if delta2 is None:
        raise ValueError("stream_elimination requires a known gap or lower bound")
    sched = EliminationSchedule.build(n, P, delta, delta2)
    survivors = _top_up_and_eliminate(
        session,
        P + 1,
        lambda p: (sched.epsilons[p], sched.budgets[p]),
        stop_at_one=False,
    )
    if len(survivors) != 1:
        raise InconclusiveError(f"{len(survivors)} arms survived the final pass")
    return survivors[0]


def stream_elimination_re(
    session: StreamSession,
    P: int,
    delta: float,
    delta2: float | None,
) -> int:
    """Bounded-statistics eliminator; retains only per-pass maxima.

    In pass p each arriving arm is re-estimated level by level (fresh pulls,
    topped up within the pass to T_0, T_1, ..., T_p) and eliminated for the
    pass as soon as a level-j estimate falls more than eps_j below the
    level-j maximum.  Arms that survive every level update the current pass
    maximum with their level-p estimate.  When a pass eliminates n - 1 arms
    the current champion is returned.
    """
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
        got = session.sweep(
            range(n), sched.budgets[: p + 1], [maxima[j] - sched.epsilons[j] for j in range(p)]
        )
        # Level p in arrival order; like the per-arm walk, this keeps only
        # cur_max, champion and the counter.  None: stopped at a level j < p.
        cur_max = -math.inf
        eliminated_count = 0
        for arm, successes in enumerate(got):
            estimate = None if successes is None else successes / sched.budgets[p]
            if estimate is None or estimate < cur_max - sched.epsilons[p]:
                eliminated_count += 1
            elif estimate > cur_max:
                cur_max = estimate
                champion = arm
        maxima.append(cur_max)
        if eliminated_count == n - 1:
            return champion  # type: ignore[return-value]
    raise InconclusiveError("no pass eliminated all suboptimal arms")


def single_pass_keepbest(session: StreamSession, delta: float, delta2: float | None) -> int:
    """Champion/challenger baseline: one pass, fixed pulls per arriving arm.

    Each arm gets t = ceil(8 ln(2n / delta) / delta2^2) pulls; the champion's
    empirical mean is frozen from its own t pulls.  Holds at most two arms.
    """
    n = session.n
    if n == 1 and delta2 is None:
        return _walk_single_arm(session, 1)
    if delta2 is None:
        raise ValueError("single_pass_keepbest requires a known gap or lower bound")
    t = budget(delta2, 2.0 * n / delta)
    champion = -1
    champ_mean = -math.inf
    while (arm := session.advance()) is not END_OF_PASS:
        session.retain(arm)
        mean = session.pull(arm, t) / t
        if mean > champ_mean:
            if champion >= 0:
                session.evict(champion)
            champion = arm
            champ_mean = mean
        else:
            session.evict(arm)
    return champion


def doubling_gap_elimination(session: StreamSession, delta: float, pass_cap: int = DEFAULT_PASS_CAP) -> int:
    """Gap-halving eliminator; no gap knowledge needed.

    Pass r uses threshold eps_r = 2^-r / 4 and budget
    T_r = ceil(8 ln(4 n r (r+1) / delta) / eps_r^2) (the per-pass confidence
    delta / (2 r (r+1)) sums below delta over any number of passes), topping
    up cumulative pulls and eliminating below the pass maximum.  Stops when a
    single arm remains.
    """
    n = session.n
    if n == 1:
        return _walk_single_arm(session, 1)

    def level(p: int) -> tuple[float, int]:
        r = p + 1
        eps = 2.0 ** (-r) / 4.0
        return eps, budget(eps, 4.0 * n * r * (r + 1) / delta)

    survivors = _top_up_and_eliminate(session, pass_cap, level, stop_at_one=True)
    if len(survivors) != 1:
        raise PassCapExceededError(f"{len(survivors)} arms still active after {pass_cap} passes")
    return survivors[0]
