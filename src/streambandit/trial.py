"""Trial driver: one algorithm on one instance with one seed, fully metered."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

from .algorithms import (
    DEFAULT_PASS_CAP,
    AlgorithmConfig,
    InconclusiveError,
    PassCapExceededError,
    default_passes,
    doubling_gap_elimination,
    resolve_delta2,
    single_pass_keepbest,
    stream_elimination,
    stream_elimination_re,
)
from .instances import AmbiguousBestError, BanditInstance, gap_profile
from .session import BudgetOverflowError, IllegalAccessError, StreamSession


@dataclass(frozen=True)
class TrialResult:
    """Outcome and resource footprint of a single trial.

    A pure function of (instance, config, seed): identical inputs give
    identical results field-for-field.  Wall time is informational only and
    excluded from comparison and serialization.
    """

    returned_arm: int | None
    correct: bool
    total_pulls: int
    passes_used: int
    peak_arm_memory: int
    peak_stats_words: int | None
    seed: int
    algorithm: str
    failure_reason: str | None = None
    wall_time_s: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def run_trial(instance: BanditInstance, config: AlgorithmConfig, seed: int) -> TrialResult:
    """Execute one seeded trial; algorithm failures become failed results.

    Streaming-model violations, inconclusive runs, pass-cap, budget and
    pull-counter overflows are recorded in ``failure_reason``; configuration
    errors (such as a missing gap value) raise.
    """
    delta2 = resolve_delta2(instance, config)
    stats_mode = "bounded" if config.algorithm == "alg2" else "free"
    session = StreamSession(instance, seed, stats_mode=stats_mode)
    P = config.P if config.P is not None else default_passes(instance.n)
    returned: int | None = None
    failure: str | None = None
    start = time.perf_counter()
    try:
        if config.algorithm == "alg1":
            returned = stream_elimination(session, P, config.delta, delta2)
        elif config.algorithm == "alg2":
            returned = stream_elimination_re(session, P, config.delta, delta2)
        elif config.algorithm == "keepbest":
            returned = single_pass_keepbest(session, config.delta, delta2)
        elif config.algorithm == "jhtx":
            cap = config.pass_cap if config.pass_cap is not None else DEFAULT_PASS_CAP
            returned = doubling_gap_elimination(session, config.delta, pass_cap=cap)
    except (IllegalAccessError, InconclusiveError, PassCapExceededError, BudgetOverflowError) as e:
        failure = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    session.close()

    correct = False
    if returned is not None:
        try:
            correct = returned == gap_profile(instance).best_index
        except AmbiguousBestError:
            correct = False
    return TrialResult(
        returned_arm=returned,
        correct=correct,
        total_pulls=session.pull_count,
        passes_used=session.passes_used,
        peak_arm_memory=session.peak_memory,
        peak_stats_words=session.peak_stats_words,
        seed=seed,
        algorithm=config.algorithm,
        failure_reason=failure,
        wall_time_s=wall,
    )
