"""Output checks applied to every trial the benchmark runs.

A trial fails when it carries a failure reason, returns an arm other than the
gap-profile best arm, or breaks its algorithm's resource invariant.  Failures
are read from the in-memory ``TrialResult``: ``results.csv`` drops
``failure_reason``.
"""

from __future__ import annotations

from streambandit.algorithms import AlgorithmConfig, default_passes
from streambandit.trial import DEFAULT_PASS_CAP, TrialResult


def trial_failure(result: TrialResult, config: AlgorithmConfig, n: int, best: int) -> str | None:
    """Why ``result`` fails its checks, or None when it passes them all."""
    if result.failure_reason is not None:
        return f"failure_reason: {result.failure_reason}"
    if result.algorithm != config.algorithm:
        return f"ran {result.algorithm}, configured {config.algorithm}"
    if result.returned_arm != best:
        return f"returned arm {result.returned_arm}, best arm is {best}"
    P = config.P if config.P is not None else default_passes(n)
    cap = config.pass_cap if config.pass_cap is not None else DEFAULT_PASS_CAP
    passes, memory, words = result.passes_used, result.peak_arm_memory, result.peak_stats_words
    algorithm = config.algorithm
    if algorithm == "alg1" and (passes != P + 1 or memory != 1):
        return f"alg1 used {passes} passes (want {P + 1}) and peak memory {memory} (want 1)"
    if algorithm == "alg2" and (memory != 1 or words is None or words > P + 3):
        return f"alg2 peak memory {memory} (want 1), peak statistics words {words} (want <= {P + 3})"
    if algorithm == "keepbest" and (passes != 1 or memory > 2):
        return f"keepbest used {passes} passes (want 1) and peak memory {memory} (want <= 2)"
    if algorithm == "jhtx" and (memory != 1 or passes > cap):
        return f"jhtx peak memory {memory} (want 1), {passes} passes (cap {cap})"
    return None


class Tally:
    """Trials attempted and the distinct trials that failed, with their reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[object, str] = {}

    def check(self, key, result: TrialResult, config: AlgorithmConfig, n: int, best: int) -> None:
        """Count one trial and record it as failed when its output is wrong."""
        self.attempted += 1
        reason = trial_failure(result, config, n, best)
        if reason is not None:
            self.fail(key, reason)

    def fail(self, key, reason: str) -> None:
        """Mark an already counted trial as failed; a trial fails at most once."""
        self.failures.setdefault(key, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
