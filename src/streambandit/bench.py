"""Seeded trial batteries with sample/pass/memory aggregation and CSV output.

A battery fixes one instance realization, then runs every configured
algorithm on it for each trial with per-(trial, algorithm) derived seeds, so
algorithms are compared paired on identical instances with disjoint reward
randomness.  Results order is deterministic regardless of scheduling.
"""

from __future__ import annotations

import csv
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .algorithms import AlgorithmConfig
from .generators import HardInstanceParams, gen_arithmetic, gen_cluster, gen_hard_batched, gen_uniform
from .instances import BanditInstance, load_instance, present, reading, require_number
from .trial import TrialResult, run_trial

#: Published full-scale comparison rows (n = 2000 instances), kept as context
#: metadata: desk-scale batteries reproduce orderings, not these magnitudes.
#: "keepbest" plays the single-pass worst-case baseline role; "jhtx" the
#: gap-halving multi-pass baseline; "alg1" the known-gap eliminator.
REFERENCE_FULL_SCALE = {
    "uniform": {
        "keepbest": {"mean_samples": 5.62e11, "mean_passes": 1.0},
        "jhtx": {"mean_samples": 1.41e10, "mean_passes": 16.4},
        "alg1": {"mean_samples": 1.18e9, "mean_passes": 8.83},
    },
    "arithmetic": {
        "keepbest": {"mean_samples": 4.01e12, "mean_passes": 1.0},
        "jhtx": {"mean_samples": 5.05e10, "mean_passes": 18.53},
        "alg1": {"mean_samples": 4.61e9, "mean_passes": 8.67},
    },
    "cluster": {
        "keepbest": {"mean_samples": 3.32e10, "mean_passes": 1.0},
        "jhtx": {"mean_samples": 1.38e11, "mean_passes": 13.47},
        "alg1": {"mean_samples": 1.73e10, "mean_passes": 9.03},
    },
}

RESULTS_COLUMNS = (
    "trial",
    "algorithm",
    "seed",
    "returned_arm",
    "correct",
    "total_pulls",
    "passes_used",
    "peak_arm_memory",
    "peak_stats_words",
    "failure_reason",
)

SUMMARY_COLUMNS = ("algorithm", "mean_samples", "samples_ci95", "mean_passes", "success_rate")


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit seed from a base seed and any hashable tag parts."""
    text = ":".join([str(base_seed)] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One battery: an instance source, algorithm list, trial count, base seed."""

    instance_source: dict
    algorithms: tuple[AlgorithmConfig, ...]
    trials: int
    base_seed: int = 0

    def __post_init__(self):
        for key in ("trials", "base_seed"):
            require_number(key, getattr(self, key), int)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm config required")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        names = [c.algorithm for c in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError(f"seeds and summaries are keyed by algorithm name; got duplicates in {names}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        with reading("spec"):
            return cls(**{
                **present(d, cls),
                "instance_source": d["instance"],
                "algorithms": tuple(AlgorithmConfig.from_dict(a) for a in d["algorithms"]),
            })


#: Family parameters an instance source may set, each a number.
FAMILY_KEYS = ("lo", "hi", "best", "c1", "c2")


def resolve_instance(source: dict, base_seed: int) -> BanditInstance:
    """Materialize the battery's fixed instance from a path or generator spec.

    Family parameters absent from ``source`` take the generator's defaults.
    """
    with reading("instance source"):
        if "path" in source:
            return load_instance(source["path"])
        family, n = source["generator"], source["n"]
        for key in ("n", "seed", *FAMILY_KEYS):
            if key in source:
                require_number(key, source[key], (int, float) if key in FAMILY_KEYS else int)
    seed = source.get("seed")
    if seed is None:
        seed = derive_seed(base_seed, "instance", family)
    if family == "uniform":
        return gen_uniform(n, seed)
    if family == "arithmetic":
        return gen_arithmetic(n, source.get("lo", 0.0), source.get("hi", 1.0), seed)
    if family == "cluster":
        levels = {k: source[k] for k in ("best", "c1", "c2") if k in source}
        return gen_cluster(n, seed=seed, **levels)
    if family == "hard":
        with reading("instance source"):
            for key in ("B", "C"):
                if key in source:
                    require_number(key, source[key], int)
            if source.get("gamma") is not None:
                require_number("gamma", source["gamma"], (int, float))
            params = HardInstanceParams(**present(source, HardInstanceParams))
        return gen_hard_batched(params, seed)[0]
    raise ValueError(f"unknown generator {family!r}")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    result: TrialResult

    @property
    def algorithm(self) -> str:
        return self.result.algorithm


def _run_one(args) -> tuple[int, int, TrialResult]:
    instance, config, trial, algo_index, seed = args
    return trial, algo_index, run_trial(instance, config, seed)


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> tuple[BanditInstance, list[TrialRecord]]:
    """Run the battery; per-trial failures are recorded, never aborting it."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    instance = resolve_instance(spec.instance_source, spec.base_seed)
    tasks = []
    for trial in range(spec.trials):
        for algo_index, config in enumerate(spec.algorithms):
            seed = derive_seed(spec.base_seed, trial, config.algorithm)
            tasks.append((instance, config, trial, algo_index, seed))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, tasks, chunksize=1))
    else:
        outcomes = [_run_one(t) for t in tasks]
    outcomes.sort(key=lambda o: (o[0], o[1]))
    return instance, [TrialRecord(trial=t, result=r) for t, _, r in outcomes]


@dataclass(frozen=True)
class AlgorithmSummary:
    algorithm: str
    mean_samples: float
    samples_ci95: float
    mean_passes: float
    success_rate: float


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _ci95(xs) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return 1.96 * math.sqrt(var) / math.sqrt(len(xs))


def aggregate(records: list[TrialRecord]) -> list[AlgorithmSummary]:
    """Per-algorithm means and 95% normal-approximation CIs, trials i.i.d.

    Failed trials count as incorrect but their pull counts still enter the
    sample means, so residual failures cannot bias samples downward.
    """
    if not records:
        raise ValueError("no records to aggregate")
    order: list[str] = []
    groups: dict[str, list[TrialResult]] = {}
    for rec in records:
        if rec.algorithm not in groups:
            order.append(rec.algorithm)
            groups[rec.algorithm] = []
        groups[rec.algorithm].append(rec.result)
    out = []
    for name in order:
        rs = groups[name]
        pulls = [r.total_pulls for r in rs]
        out.append(
            AlgorithmSummary(
                algorithm=name,
                mean_samples=_mean(pulls),
                samples_ci95=_ci95(pulls),
                mean_passes=_mean([r.passes_used for r in rs]),
                success_rate=_mean([1.0 if r.correct else 0.0 for r in rs]),
            )
        )
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str | Path, what: str, header, rows) -> None:
    """Write one CSV file; an OSError names the file as ``what``."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
    except OSError as e:
        raise OSError(f"cannot write {what} at {path}: {e}") from e


def emit_results_csv(records: list[TrialRecord], path: str | Path) -> None:
    rows = (
        [_fmt(rec.trial)] + [_fmt(getattr(rec.result, name)) for name in RESULTS_COLUMNS[1:]]
        for rec in records
    )
    _write_csv(path, "results CSV", RESULTS_COLUMNS, rows)


def parse_results_csv(path: str | Path) -> list[TrialRecord]:
    """Inverse of emit_results_csv for every field."""
    records = []
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            result = TrialResult(
                returned_arm=int(row["returned_arm"]) if row["returned_arm"] else None,
                correct=row["correct"] == "true",
                total_pulls=int(row["total_pulls"]),
                passes_used=int(row["passes_used"]),
                peak_arm_memory=int(row["peak_arm_memory"]),
                peak_stats_words=int(row["peak_stats_words"]) if row["peak_stats_words"] else None,
                seed=int(row["seed"]),
                algorithm=row["algorithm"],
                failure_reason=row["failure_reason"] or None,
            )
            records.append(TrialRecord(trial=int(row["trial"]), result=result))
    return records


def emit_summary_csv(summaries: list[AlgorithmSummary], path: str | Path) -> None:
    rows = ([_fmt(getattr(s, name)) for name in SUMMARY_COLUMNS] for s in summaries)
    _write_csv(path, "summary CSV", SUMMARY_COLUMNS, rows)


def emit_plot_data(records: list[TrialRecord], path: str | Path) -> None:
    """Per-trial log10(samples) series per algorithm, for external plotting."""
    rows = []
    for rec in records:
        r = rec.result
        logs = format(math.log10(r.total_pulls), ".17g") if r.total_pulls > 0 else ""
        rows.append([rec.trial, r.algorithm, logs, r.passes_used])
    _write_csv(path, "plot data", ("trial", "algorithm", "log10_samples", "passes_used"), rows)
