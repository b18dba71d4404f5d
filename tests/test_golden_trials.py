"""Golden trial grid: every TrialResult and every alg1 pass trace, field for field.

The alg1 traces come from ``alg1_model``, which rebuilds each pass from the
schedule and the replayed reward tape; every alg1 cell's run is checked
against that model (per-arm pulls, returned arm or error, pass count).

The grid crosses the four algorithms with n in {1, 2, 20, 200} on the
uniform, arithmetic and cluster families (the cluster family starts at
n = 3), exact and lower-bound gaps, P in {1, 3, 8}, jhtx with its default
and a 2-pass cap, a 1e-9 lower-bound gap, and the configuration errors that
raise.  ``tests/golden_trials.json`` holds the recorded outcomes; a refactor
that keeps behaviour leaves every entry unchanged.

Regenerate the file only for an intended change of behaviour::

    PYTHONPATH=src python tests/test_golden_trials.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from alg1_model import alg1_passes, last_active_budgets

from streambandit import (
    AlgorithmConfig,
    BanditInstance,
    BudgetOverflowError,
    InconclusiveError,
    StreamSession,
    gen_arithmetic,
    gen_cluster,
    gen_uniform,
    run_trial,
    stream_elimination,
)

GOLDEN_PATH = Path(__file__).with_name("golden_trials.json")
SEEDS = (0, 1)
PASS_SETTINGS = (1, 3, 8)


def make_instance(spec: dict) -> BanditInstance:
    family, n = spec["family"], spec["n"]
    if family == "single":
        return BanditInstance(means=(0.4,))
    if family == "nogap":
        return BanditInstance(means=(0.5, 0.6))
    if family == "uniform":
        inst = gen_uniform(n, 3)
    elif family == "arithmetic":
        inst = gen_arithmetic(n, 0.0, 1.0, 4)
    else:
        inst = gen_cluster(n, best=0.9, c1=0.88, c2=0.86, seed=5)
    gap = spec["gap"]
    if gap == "exact":
        return inst
    if gap == "lower_bound":
        return inst.with_delta2(inst.known_delta2 / 4.0, "lower_bound")
    return inst.with_delta2(gap, "lower_bound")


def grid():
    """(instance spec, config dict) pairs in a fixed order."""
    for n in (1, 2, 20, 200):
        families = ("single",) if n == 1 else ("uniform", "arithmetic", "cluster")
        for family in families:
            n_fam = max(n, 3) if family == "cluster" else n
            for gap in ("exact", "lower_bound"):
                spec = {"family": family, "n": n_fam, "gap": gap}
                source = "exact" if gap == "exact" else "lower_bound"
                for algorithm in ("alg1", "alg2"):
                    for P in PASS_SETTINGS:
                        yield spec, {"algorithm": algorithm, "P": P, "delta2_source": source}
                yield spec, {"algorithm": "keepbest", "delta2_source": source}
            spec = {"family": family, "n": n_fam, "gap": "exact"}
            yield spec, {"algorithm": "jhtx", "delta2_source": "none"}
            yield spec, {"algorithm": "jhtx", "delta2_source": "none", "pass_cap": 2}
            if family != "single":
                tiny = {"family": family, "n": n_fam, "gap": 1e-9}
                for algorithm in ("alg1", "alg2"):
                    yield tiny, {"algorithm": algorithm, "P": 3, "delta2_source": "lower_bound"}
                yield tiny, {"algorithm": "keepbest", "delta2_source": "lower_bound"}
    # configuration errors that raise instead of failing the trial
    two = {"family": "uniform", "n": 2, "gap": "exact"}
    lower = {"family": "uniform", "n": 20, "gap": "lower_bound"}
    yield {"family": "nogap", "n": 2, "gap": None}, {"algorithm": "alg1", "P": 2}
    yield {"family": "nogap", "n": 2, "gap": None}, {"algorithm": "keepbest"}
    yield lower, {"algorithm": "alg1", "P": 2, "delta2_source": "exact"}
    yield lower, {"algorithm": "alg2", "P": 2, "delta2_source": "exact"}
    yield two, {"algorithm": "alg1", "P": 2, "delta2_source": "none"}
    yield two, {"algorithm": "keepbest", "delta2_source": "none"}
    yield two, {"algorithm": "jhtx", "delta2_source": "none", "pass_cap": 0}
    yield two, {"algorithm": "alg3"}
    yield two, {"algorithm": "alg1", "P": 0}
    yield two, {"algorithm": "alg1", "delta": 1.5}
    yield two, {"algorithm": "alg1", "delta2_source": "guess"}


def run_case(spec: dict, config: dict, seed: int) -> dict:
    """One grid cell's outcome: the result and alg1 trace, or the raised error."""
    try:
        cfg = AlgorithmConfig.from_dict(config)
        instance = make_instance(spec)
        result = run_trial(instance, cfg, seed)
    except ValueError as e:
        return {"raises": f"{type(e).__name__}: {e}"}
    out = {"result": result.to_dict()}
    if cfg.algorithm == "alg1":
        out["trace"] = [trace_entry(rec) for rec in alg1_passes(instance, cfg.P, seed, cfg.delta)]
    return out


def trace_entry(rec) -> dict:
    """A replayed pass with its n estimates replaced by a digest of their reprs."""
    entry = rec._asdict()
    estimates = ",".join(repr(e) for e in entry.pop("estimates"))
    entry["estimates_sha256"] = hashlib.sha256(estimates.encode("ascii")).hexdigest()
    return entry


def compute_grid() -> list[dict]:
    return [
        {"instance": spec, "config": config, "seed": seed, **run_case(spec, config, seed)}
        for spec, config in grid()
        for seed in SEEDS
    ]


def canonical(obj):
    """JSON form: tuples become lists, so computed and loaded entries compare."""
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def entries():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return golden, canonical(compute_grid())


def test_grid_matches_golden_file(entries):
    golden, computed = entries
    assert [(g["instance"], g["config"], g["seed"]) for g in golden] == [
        (c["instance"], c["config"], c["seed"]) for c in computed
    ]


def test_trial_results_match_field_for_field(entries):
    golden, computed = entries
    mismatches = []
    for g, c in zip(golden, computed):
        if "raises" in g or "raises" in c:
            if g.get("raises") != c.get("raises"):
                mismatches.append((g["instance"], g["config"], g["seed"], g.get("raises"), c.get("raises")))
            continue
        for name, value in g["result"].items():
            if c["result"].get(name) != value:
                mismatches.append((g["instance"], g["config"], g["seed"], name, value, c["result"].get(name)))
        if set(c["result"]) != set(g["result"]):
            mismatches.append((g["instance"], g["config"], g["seed"], sorted(c["result"])))
    assert mismatches == []


def test_alg1_traces_match(entries):
    golden, computed = entries
    traced = 0
    for g, c in zip(golden, computed):
        if "trace" in g:
            traced += 1
            assert c.get("trace") == g["trace"], (g["instance"], g["config"], g["seed"])
    assert traced > 0


def test_alg1_runs_follow_the_replayed_passes(entries):
    """Each alg1 cell's bare session ends with every arm at the budget of its
    last replayed active pass and returns the last pass's single survivor;
    several survivors mean InconclusiveError, and no passes on n >= 2 mean
    the schedule overflowed.  The cell's TrialResult agrees."""
    _, computed = entries
    checked = 0
    for c in computed:
        if c["config"]["algorithm"] != "alg1" or "raises" in c:
            continue
        checked += 1
        instance, cfg, seed = make_instance(c["instance"]), AlgorithmConfig.from_dict(c["config"]), c["seed"]
        passes = alg1_passes(instance, cfg.P, seed, cfg.delta)
        if passes:
            survivors = passes[-1].active_after
            expected = survivors[0] if len(survivors) == 1 else "InconclusiveError"
        else:
            expected = 0 if instance.n == 1 else "BudgetOverflowError"
        session = StreamSession(instance, seed)
        try:
            outcome = stream_elimination(session, cfg.P, cfg.delta, instance.known_delta2)
        except (InconclusiveError, BudgetOverflowError) as e:
            outcome = type(e).__name__
        where = (c["instance"], c["config"], seed)
        assert outcome == expected, where
        assert session.per_arm_pulls == last_active_budgets(passes, instance.n), where
        result = c["result"]
        assert result["returned_arm"] == (expected if isinstance(expected, int) else None), where
        assert result["total_pulls"] == session.pull_count, where
        assert result["passes_used"] == (len(passes) or session.passes_used), where
    assert checked == 138


def test_grid_covers_every_recorded_failure(entries):
    golden, _ = entries
    seen = set()
    for g in golden:
        reason = g.get("result", {}).get("failure_reason")
        if reason:
            seen.add((g["config"]["algorithm"], reason.split(":")[0]))
    for algorithm in ("alg1", "alg2", "keepbest"):
        assert (algorithm, "BudgetOverflowError") in seen
    assert ("alg2", "InconclusiveError") in seen
    assert ("jhtx", "PassCapExceededError") in seen
    assert sum("raises" in g for g in golden) >= 11 * len(SEEDS)


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry) for entry in compute_grid())
    GOLDEN_PATH.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
