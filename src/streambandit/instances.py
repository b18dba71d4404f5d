"""Bandit instances with Bernoulli arms and derived gap truth."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path


class AmbiguousBestError(ValueError):
    """Two arms tie for the maximum mean; the best arm is undefined."""


@contextmanager
def reading(what: str):
    """Report a missing key or a wrong type in outside input as ValueError; only
    the parsers of files and specs use it, so a program bug keeps its traceback."""
    try:
        yield
    except KeyError as e:
        raise ValueError(f"{what} has no key {e}") from None
    except TypeError as e:
        raise ValueError(f"malformed {what}: {e}") from None


def require_number(key: str, value, kinds) -> None:
    """TypeError naming ``key`` unless ``value`` is of ``kinds``; JSON true/false is no number."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{key} must be {'an integer' if kinds is int else 'a number'}, got {value!r}")


def present(d: dict, cls) -> dict:
    """Entries of JSON object ``d`` naming a field of dataclass ``cls``; absent
    fields keep the default written in ``cls``, unknown keys are ignored."""
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object, got {type(d).__name__}")
    return {f.name: d[f.name] for f in fields(cls) if f.name in d}


@dataclass(frozen=True)
class BanditInstance:
    """An ordered list of Bernoulli arms; the order is the stream arrival order.

    ``known_delta2`` is the optimality-gap side information an algorithm may
    consume: in ``"exact"`` mode it must equal the realized gap between the
    two highest means; in ``"lower_bound"`` mode it must be a positive value
    no larger than that gap.
    """

    means: tuple[float, ...]
    known_delta2: float | None = None
    delta2_mode: str = "exact"
    label: str = ""

    def __post_init__(self):
        if len(self.means) < 1:
            raise ValueError("instance needs at least one arm")
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        for m in self.means:
            if not (0.0 <= m <= 1.0):
                raise ValueError(f"arm mean {m} outside [0, 1]")
        if self.delta2_mode not in ("exact", "lower_bound"):
            raise ValueError(f"unknown delta2_mode {self.delta2_mode!r}")
        if self.known_delta2 is not None:
            if self.n < 2:
                raise ValueError("a single-arm instance cannot carry gap information")
            object.__setattr__(self, "known_delta2", float(self.known_delta2))
            realized = self.realized_delta2()
            if self.delta2_mode == "exact":
                if self.known_delta2 != realized:
                    raise ValueError(
                        f"exact known_delta2={self.known_delta2!r} does not equal "
                        f"realized gap {realized!r}"
                    )
            else:
                if not (0.0 < self.known_delta2 <= realized):
                    raise ValueError(
                        f"lower-bound known_delta2={self.known_delta2!r} not in "
                        f"(0, {realized!r}]"
                    )

    @property
    def n(self) -> int:
        return len(self.means)

    def realized_delta2(self) -> float:
        """Gap between the unique highest and the second-highest mean."""
        prof = gap_profile(self)
        return prof.sorted_gaps[0]

    def with_delta2(self, value: float, mode: str) -> "BanditInstance":
        """Same arms with different gap side information."""
        return replace(self, known_delta2=value, delta2_mode=mode)

    @classmethod
    def from_dict(cls, d: dict) -> "BanditInstance":
        with reading("instance"):
            kwargs = present(d, cls)
            for mean in kwargs.get("means", ()):
                require_number("means", mean, (int, float))
            if kwargs.get("known_delta2") is not None:
                require_number("known_delta2", kwargs["known_delta2"], (int, float))
            return cls(**kwargs)


@dataclass(frozen=True)
class GapProfile:
    """Ground-truth gap structure of an instance with a unique best arm."""

    best_index: int
    gaps: tuple[float, ...] = field(repr=False)
    sorted_gaps: tuple[float, ...] = field(repr=False)


def gap_profile(instance: BanditInstance | tuple[float, ...]) -> GapProfile:
    """Best index, per-arm gaps, and the nondecreasing gap multiset.

    Raises AmbiguousBestError when two arms tie for the maximum mean.
    """
    means = instance.means if isinstance(instance, BanditInstance) else tuple(instance)
    best = max(range(len(means)), key=lambda i: means[i])
    mu_star = means[best]
    if sum(1 for m in means if m == mu_star) > 1:
        raise AmbiguousBestError(f"{sum(1 for m in means if m == mu_star)} arms tie at {mu_star}")
    gaps = tuple(mu_star - m for m in means)
    sorted_gaps = tuple(sorted(g for i, g in enumerate(gaps) if i != best))
    return GapProfile(best_index=best, gaps=gaps, sorted_gaps=sorted_gaps)


def hardness_budget(instance: BanditInstance | tuple[float, ...]) -> float:
    """Sum of inverse squared gaps over the non-best arms.

    The scalar complexity kernel; callers apply pass-dependent factors.
    """
    prof = gap_profile(instance)
    return sum(1.0 / (g * g) for g in prof.sorted_gaps)


def _format_float(x: float) -> str:
    # 17 significant digits round-trips IEEE doubles exactly.
    return format(x, ".17g")


def dumps_instance(instance: BanditInstance) -> str:
    """Serialize with means at 17 significant digits (bit-exact round trip)."""
    means = ", ".join(_format_float(m) for m in instance.means)
    delta2 = "null" if instance.known_delta2 is None else _format_float(instance.known_delta2)
    return (
        "{"
        f'"label": {json.dumps(instance.label)}, '
        f'"means": [{means}], '
        f'"known_delta2": {delta2}, '
        f'"delta2_mode": {json.dumps(instance.delta2_mode)}'
        "}"
    )


def save_instance(instance: BanditInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance) + "\n", encoding="utf-8")


def load_instance(path: str | Path) -> BanditInstance:
    return BanditInstance.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
