"""Instance generators: benchmark families and the adversarial batched family.

All generators are pure functions of (parameters, seed).  Exact-mode gap side
information is always the realized float difference between the two highest
stored means, so the instance invariant holds bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .instances import BanditInstance

CHI_FLOOR = 1e-300


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))


def _realized_delta2(means: np.ndarray) -> float:
    top = np.partition(means, -2)[-2:]
    return float(top[1] - top[0])


def gen_uniform(n: int, seed: int) -> BanditInstance:
    """Means drawn i.i.d. Uniform[0,1]; redrawn until the best arm is unique."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = _rng(seed)
    while True:
        means = rng.random(n)
        top = means.max()
        if (means == top).sum() == 1:
            break
    return BanditInstance(
        means=tuple(means),
        known_delta2=_realized_delta2(means),
        delta2_mode="exact",
        label=f"uniform-n{n}-seed{seed}",
    )


def gen_arithmetic(n: int, lo: float, hi: float, seed: int) -> BanditInstance:
    """Evenly spaced means from lo to hi, shuffled into a random arrival order."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("need 0 <= lo < hi <= 1")
    rng = _rng(seed)
    means = np.linspace(lo, hi, n)
    rng.shuffle(means)
    return BanditInstance(
        means=tuple(means),
        known_delta2=_realized_delta2(means),
        delta2_mode="exact",
        label=f"arithmetic-n{n}-seed{seed}",
    )


def gen_cluster(
    n: int, best: float = 0.9, c1: float = 0.899, c2: float = 0.898, seed: int = 0
) -> BanditInstance:
    """One top arm plus two near-tied clusters below it.

    The n - 1 remaining arms split as evenly as possible between the two
    cluster levels; when odd, the upper cluster gets the extra arm.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not (1.0 > best > c1 > c2 >= 0.0):
        raise ValueError("need 1 > best > c1 > c2 >= 0")
    rng = _rng(seed)
    rest = n - 1
    n1 = rest - rest // 2
    means = np.array([best] + [c1] * n1 + [c2] * (rest - n1))
    rng.shuffle(means)
    return BanditInstance(
        means=tuple(means),
        known_delta2=float(best - c1),
        delta2_mode="exact",
        label=f"cluster-n{n}-seed{seed}",
    )


def default_gamma(n: int) -> float:
    """Power of two inside the supported gap bracket [1/(20 n^(1/3)), 1/(10 n^(1/3))].

    A power of two keeps the planted within-batch separation exactly
    representable, so the realized gap equals gamma bit-for-bit.
    """
    hi = 1.0 / (10.0 * n ** (1.0 / 3.0))
    gamma = 2.0 ** math.floor(math.log2(hi))
    if gamma < 1.0 / (20.0 * n ** (1.0 / 3.0)):  # only if hi is itself a power of two
        gamma *= 2.0
    return gamma


def chi_recursion(n: int, B: int, C: int, gamma: float) -> tuple[list[float], list[float]]:
    """Fifteenth-power contraction ladder chi_{b+1} = chi_b / (12 C log2 n)^15.

    Returns (values, log10 values) for b = 1..B+1, starting from
    chi_1 = n^(1/3) * gamma.  Computed in log space: for realistic n the
    ratio is ~1e-29 per step, far below double resolution next to 1/2, which
    is why generated means use the separated ladder instead.
    """
    log_ratio = 15.0 * math.log10(1.0 / (12.0 * C * math.log2(n)))
    log_chi = math.log10(gamma) + math.log10(n) / 3.0
    values, logs = [], []
    for _ in range(B + 1):
        values.append(10.0**log_chi if log_chi > -300 else 0.0)
        logs.append(log_chi)
        log_chi += log_ratio
    return values, logs


def chi_separated(n: int, B: int, gamma: float) -> list[float]:
    """Representable elevation ladder: chi_1 = n^(1/3) gamma down to chi_B = n^(1/5) gamma.

    Multipliers interpolate linearly between n^(1/3) and n^(1/5) so adjacent
    levels stay more than gamma apart, and chi_{B+1} = gamma.  This realizes
    at desk scale the structural regime the recursion only reaches for
    astronomically large n: every planted elevation at least n^(1/5) times
    the separation, strictly decreasing across batches.
    """
    top = n ** (1.0 / 3.0)
    bottom = n ** (1.0 / 5.0)
    if B == 1:
        mults = [top]
    else:
        step = (top - bottom) / (B - 1)
        mults = [bottom + step * (B - b) for b in range(1, B + 1)]
    chi = [gamma * m for m in mults]
    chi.append(gamma)
    for a, b in zip(chi, chi[1:]):
        if not a - b > gamma:
            raise ValueError(
                f"elevation ladder too flat for n={n}, B={B}: adjacent levels must "
                f"differ by more than gamma"
            )
    if any(c < CHI_FLOOR for c in chi):
        raise ValueError("elevation ladder underflows double precision")
    return chi


@dataclass(frozen=True)
class HardInstanceParams:
    """Parameters of the adversarial batched family.

    n arms in B + 1 equal batches arriving in reverse batch order; gamma in
    [1/(20 n^(1/3)), 1/(10 n^(1/3))] (defaulted to a power of two in that
    bracket); C scales the contraction recursion recorded in the metadata.
    """

    n: int
    B: int
    C: int = 1
    gamma: float | None = None

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("B must be >= 1")
        if self.C < 1:
            raise ValueError("C must be >= 1")
        if self.n % (self.B + 1) != 0:
            raise ValueError(f"n={self.n} not divisible by B+1={self.B + 1}")
        if self.n // (self.B + 1) < 2:
            raise ValueError("each batch needs at least two arms")
        if self.gamma is None:
            object.__setattr__(self, "gamma", default_gamma(self.n))
        lo = 1.0 / (20.0 * self.n ** (1.0 / 3.0))
        hi = 1.0 / (10.0 * self.n ** (1.0 / 3.0))
        if not (lo <= self.gamma <= hi):
            raise ValueError(f"gamma={self.gamma} outside supported bracket [{lo}, {hi}]")

    @property
    def batch_size(self) -> int:
        return self.n // (self.B + 1)


@dataclass(frozen=True)
class HardInstanceMeta:
    """Realized truth of one draw: coins, planted positions, ladders."""

    n: int
    B: int
    C: int
    gamma: float
    theta: tuple[int, ...]  # theta_1..theta_{B+1}; the last is always 1
    special_positions: tuple[tuple[int, int], ...]  # per batch, position-sorted
    batch_bounds: tuple[tuple[int, int], ...]  # stream [start, end) per batch 1..B+1
    chi: tuple[float, ...]  # ladder used for the means
    chi_recursion_values: tuple[float, ...]
    chi_recursion_log10: tuple[float, ...]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=1) + "\n", encoding="utf-8")


def _snap_pair(base: float, gamma: float) -> tuple[float, float]:
    # Adjust the lower mean by at most an ulp so the pair differs by exactly gamma.
    lo = base
    for _ in range(4):
        hi = lo + gamma
        if hi - lo == gamma:
            return lo, hi
        lo = hi - gamma
    raise AssertionError(f"could not realize an exact separation at {base}")


def gen_hard_batched(params: HardInstanceParams, seed: int) -> tuple[BanditInstance, HardInstanceMeta]:
    """Draw one instance of the adversarial batched family.

    Batch B+1 arrives first and always plants two special arms at elevations
    (chi_{B+1}, chi_{B+1} + gamma) above 1/2; each earlier batch b plants its
    pair (chi_b, chi_b + gamma) only when an independent Bern(1/(2B)) coin
    fires.  All other arms sit at 1/2.  Within a batch the lower mean goes to
    the smaller stream position.  Every realization has a unique best arm and
    a realized gap of exactly gamma.
    """
    n, B, gamma = params.n, params.B, params.gamma
    s = params.batch_size
    chi = chi_separated(n, B, gamma)
    rec_values, rec_logs = chi_recursion(n, B, params.C, gamma)
    rng = _rng(seed)

    theta = [int(rng.random() < 1.0 / (2.0 * B)) for _ in range(B)] + [1]
    means = np.full(n, 0.5)
    specials: list[tuple[int, int]] = []
    bounds: list[tuple[int, int]] = []
    for b in range(1, B + 2):  # batch index b; stream block B+1 first
        start = (B + 1 - b) * s
        bounds.append((start, start + s))
        pos = sorted(int(p) + start for p in rng.choice(s, size=2, replace=False))
        specials.append((pos[0], pos[1]))
        if theta[b - 1]:
            lo, hi = _snap_pair(0.5 + chi[b - 1], gamma)
            means[pos[0]] = lo
            means[pos[1]] = hi

    instance = BanditInstance(
        means=tuple(means),
        known_delta2=gamma,
        delta2_mode="exact",
        label=f"hard-n{n}-B{B}-C{params.C}-seed{seed}",
    )
    meta = HardInstanceMeta(
        n=n,
        B=B,
        C=params.C,
        gamma=gamma,
        theta=tuple(theta),
        special_positions=tuple(specials),
        batch_bounds=tuple(bounds),
        chi=tuple(chi),
        chi_recursion_values=tuple(rec_values),
        chi_recursion_log10=tuple(rec_logs),
    )
    return instance, meta
