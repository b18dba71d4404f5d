"""Independent verifier for the per-level concentration event.

Because every arm's rewards come from a dedicated substream keyed by
(trial seed, arm index), and the multi-pass eliminator consumes that tape in
budget-grid windows, a fresh replay of the same windows regenerates the exact
estimates the algorithm saw -- including the hypothetical continuations of
arms it eliminated early.  That makes the "every estimate within eps_p / 4 of
its true mean, at every level, for every arm" event checkable per trial, with
true means known to the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import BanditInstance
from .schedules import EliminationSchedule
from .session import arm_substream, draw_successes, substream_keys


def replay_prefix_means(instance: BanditInstance, budgets: tuple[int, ...], seed: int) -> np.ndarray:
    """(n, len(budgets)) matrix of prefix means at each budget checkpoint.

    Row i regenerates arm i's reward tape in the same windows a budget-grid
    consumer would draw, so entry [i, p] equals the estimate a run computes
    for arm i at level p whenever the arm is still active there.
    """
    n = instance.n
    means = np.empty((n, len(budgets)), dtype=float)
    keys = substream_keys(seed, n)
    for i in range(n):
        gen = arm_substream(keys[i])
        pulled = 0
        successes = 0
        for p, budget in enumerate(budgets):
            need = budget - pulled
            if need > 0:
                successes += draw_successes(gen, need, instance.means[i], "binomial")
                pulled = budget
            means[i, p] = successes / budget
    return means


@dataclass(frozen=True)
class ConcentrationReport:
    holds: bool
    prefix_means: np.ndarray
    max_violation: float


def check_concentration_event(
    instance: BanditInstance, schedule: EliminationSchedule, seed: int
) -> ConcentrationReport:
    """Does |prefix_mean[i, p] - mu_i| <= eps_p / 4 hold for all arms and levels?"""
    prefix = replay_prefix_means(instance, schedule.budgets, seed)
    mus = np.asarray(instance.means)
    deviations = np.abs(prefix - mus[:, None])
    bands = np.asarray(schedule.epsilons) / 4.0
    ratios = deviations / bands[None, :]
    worst = float(ratios.max())
    return ConcentrationReport(holds=worst <= 1.0, prefix_means=prefix, max_violation=worst)
