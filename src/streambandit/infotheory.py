"""Exact KL / total-variation utilities for Bernoulli and discrete laws.

Everything is in nats, with the 0 * ln 0 := 0 convention.  These back the
numerically checked divergence bounds the lab's distinguishability analysis
rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def kl_bernoulli(p: float, q: float) -> float:
    """KL(Bern(p) || Bern(q)) in nats; q in {0, 1} is legal only when p == q."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    if q in (0.0, 1.0):
        if p == q:
            return 0.0
        raise ValueError(f"KL undefined: q={q} degenerate with p={p} != q")
    result = 0.0
    if p > 0.0:
        result += p * math.log(p / q)
    if p < 1.0:
        result += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return result


def tvd_discrete(mu, nu) -> float:
    """Half the L1 distance between two probability vectors on a shared support."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise ValueError(f"dimension mismatch: {mu.shape} vs {nu.shape}")
    for name, v in (("mu", mu), ("nu", nu)):
        if abs(float(v.sum()) - 1.0) > 1e-12:
            raise ValueError(f"{name} sums to {v.sum()!r}, not 1")
    return float(0.5 * np.abs(mu - nu).sum())


def tvd_bernoulli(p: float, q: float) -> float:
    return tvd_discrete([1.0 - p, p], [1.0 - q, q])


def mle_distinguish_success(p: float, q: float, rho: float = 0.5) -> float:
    """Success probability of the maximum-likelihood source guess, by enumeration.

    One sample comes from Bern(p) with probability rho, else from Bern(q);
    the rule guesses the source with the larger likelihood of the observed
    outcome (ties resolved either way give the same total).
    """
    total = 0.0
    for outcome in (0, 1):
        lp = p if outcome == 1 else 1.0 - p
        lq = q if outcome == 1 else 1.0 - q
        total += max(rho * lp, (1.0 - rho) * lq)
    return total


@dataclass(frozen=True)
class BernoulliMeanPair:
    """Means 1/2 + alpha and 1/2 + beta; the checked bound regime needs both <= 1/6."""

    alpha: float
    beta: float

    def __post_init__(self):
        if max(self.alpha, self.beta) > 1.0 / 6.0:
            raise ValueError("bound regime requires max(alpha, beta) <= 1/6")
        for v in (0.5 + self.alpha, 0.5 + self.beta):
            if not 0.0 < v < 1.0:
                raise ValueError(f"mean {v} outside (0, 1)")


@dataclass(frozen=True)
class KlBoundReport:
    pair: BernoulliMeanPair
    kl12: float
    kl21: float
    bound8: float
    fact_bound_12: float
    fact_bound_21: float

    @property
    def passes(self) -> bool:
        """Both directed KLs within 8 (beta - alpha)^2 and within their fact bounds."""
        return (self.kl12 <= min(self.bound8, self.fact_bound_12)
                and self.kl21 <= min(self.bound8, self.fact_bound_21))


def check_bernoulli_kl_bounds(pair: BernoulliMeanPair) -> KlBoundReport:
    """Both directed KLs against 8 (beta - alpha)^2 and (p - q)^2 / (q (1 - q))."""
    p = 0.5 + pair.alpha
    q = 0.5 + pair.beta
    kl12 = kl_bernoulli(p, q)
    kl21 = kl_bernoulli(q, p)
    gap = pair.beta - pair.alpha
    return KlBoundReport(
        pair=pair,
        kl12=kl12,
        kl21=kl21,
        bound8=8.0 * gap * gap,
        fact_bound_12=(p - q) ** 2 / (q * (1.0 - q)),
        fact_bound_21=(q - p) ** 2 / (p * (1.0 - p)),
    )


def bound_check_grid(step: float = 0.01) -> list[KlBoundReport]:
    """Reports over the grid alpha, beta in {0, step, ..., 1/6} (endpoint included)."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    values = []
    k = 0
    while k * step < 1.0 / 6.0:
        values.append(k * step)
        k += 1
    values.append(1.0 / 6.0)
    return [
        check_bernoulli_kl_bounds(BernoulliMeanPair(a, b))
        for a in values
        for b in values
    ]
