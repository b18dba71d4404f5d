"""Geometric elimination schedules: thresholds and pull budgets.

The multi-pass eliminators sweep a geometric grid of elimination thresholds
from roughly n * gap / 4 down to gap / 4 over P + 1 levels, with per-level
pull budgets sized so every estimate lands within a quarter threshold of its
true mean, with probability 1 - delta overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# BudgetOverflowError is re-exported from here: budgets raise it, as does the
# session's counter guard.
from .session import INT64_MAX, BudgetOverflowError


def epsilon_schedule(n: int, P: int, delta2: float) -> list[float]:
    """Thresholds eps_p = n^{(P-p)/P} * delta2 / 4 for p = 0..P."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if P < 1:
        raise ValueError("P must be >= 1")
    if not delta2 > 0.0:
        raise ValueError("delta2 must be positive")
    return [float(n) ** ((P - p) / P) * delta2 / 4.0 for p in range(P + 1)]


def budget(epsilon: float, log_arg: float) -> int:
    """ceil(8 ln(log_arg) / epsilon^2), at least one pull, guarded at 64 bits.

    The one pull-budget formula: every algorithm sizes its pulls through it,
    with its own confidence term ``log_arg``.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    eps_sq = epsilon * epsilon
    if eps_sq == 0.0:
        raise BudgetOverflowError(f"epsilon={epsilon} squares below double precision")
    value = 8.0 * math.log(log_arg) / eps_sq
    if not value < INT64_MAX:
        raise BudgetOverflowError(f"pull budget {value:.3g} exceeds the 64-bit counter")
    return max(1, math.ceil(value))


def pull_budget(epsilon: float, n: int, P: int, delta: float) -> int:
    """ceil(8 ln(2 n (P+1) / delta) / epsilon^2), guarded at 64 bits.

    Any positive delta is accepted here (the budget floors at one pull);
    run configurations enforce delta in (0, 1).
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return budget(epsilon, 2.0 * n * (P + 1) / delta)


def pull_budget_re(epsilon: float, n: int, P: int, delta: float) -> int:
    """Budget variant for the re-estimating eliminator: ceil(8 ln(2 n (P+1)^2 / delta) / eps^2)."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return budget(epsilon, 2.0 * n * (P + 1) ** 2 / delta)


@dataclass(frozen=True)
class EliminationSchedule:
    """Full threshold/budget grid for one run."""

    n: int
    P: int
    delta: float
    delta2: float
    epsilons: tuple[float, ...]
    budgets: tuple[int, ...]

    @classmethod
    def build(cls, n: int, P: int, delta: float, delta2: float) -> "EliminationSchedule":
        eps = epsilon_schedule(n, P, delta2)
        budgets = tuple(pull_budget(e, n, P, delta) for e in eps)
        return cls(n=n, P=P, delta=delta, delta2=delta2, epsilons=tuple(eps), budgets=budgets)

    @classmethod
    def build_re(cls, n: int, P: int, delta: float, delta2: float) -> "EliminationSchedule":
        eps = epsilon_schedule(n, P, delta2)
        budgets = tuple(pull_budget_re(e, n, P, delta) for e in eps)
        return cls(n=n, P=P, delta=delta, delta2=delta2, epsilons=tuple(eps), budgets=budgets)


def elimination_level(gap: float, schedule: EliminationSchedule) -> int:
    """Smallest p with gap > 1.5 * eps_p; P when none (covers the best arm)."""
    if gap < 0.0:
        raise ValueError("gap must be >= 0")
    for p, eps in enumerate(schedule.epsilons):
        if gap > 1.5 * eps:
            return p
    return schedule.P
