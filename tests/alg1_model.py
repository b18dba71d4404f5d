"""alg1's pass history, rebuilt from its schedule and the replayed reward tape.

``stream_elimination`` decides every pass from the schedule (eps_p, T_p) and
each arm's reward tape alone, so replaying the tape in the schedule's windows
(``replay_prefix_means``) gives every estimate the run saw.  Tests check this
model against what a run exposes: the returned arm or ``InconclusiveError``,
the session's per-arm pulls and the ``TrialResult``.
"""

from typing import NamedTuple

from streambandit import BudgetOverflowError, EliminationSchedule, replay_prefix_means


class Pass(NamedTuple):
    pass_index: int
    epsilon: float
    budget: int
    active_before: tuple[int, ...]
    estimates: tuple[float, ...]  # each arm's estimate at its last active pass so far
    mu_max: float
    active_after: tuple[int, ...]


def alg1_passes(instance, P: int, seed: int, delta: float = 0.05) -> list[Pass]:
    """The passes of ``stream_elimination`` with the instance's gap; [] for the
    one-arm walk or an overflowing schedule."""
    n = instance.n
    if n == 1:
        return []
    try:
        sched = EliminationSchedule.build(n, P, delta, instance.known_delta2)
    except BudgetOverflowError:
        return []
    prefix = replay_prefix_means(instance, sched.budgets, seed).tolist()
    estimates = [0.0] * n
    live = tuple(range(n))
    passes = []
    for p, (eps, target) in enumerate(zip(sched.epsilons, sched.budgets)):
        for arm in live:
            estimates[arm] = prefix[arm][p]
        mu_max = max(estimates[arm] for arm in live)
        after = tuple(arm for arm in live if not estimates[arm] < mu_max - eps)
        passes.append(Pass(p, eps, target, live, tuple(estimates), mu_max, after))
        live = after
    return passes


def last_active_budgets(passes: list[Pass], n: int) -> list[int]:
    """Each arm's pulls after a run with these passes: cumulative top-ups leave
    it at the budget of its last active pass."""
    pulls = [0] * n
    for rec in passes:
        for arm in rec.active_before:
            pulls[arm] = rec.budget
    return pulls
