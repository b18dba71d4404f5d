"""Battery mechanics: pairing, determinism, aggregation, CSV round trips."""

import math

import pytest

from streambandit import (
    AlgorithmConfig,
    BanditInstance,
    ExperimentSpec,
    TrialRecord,
    TrialResult,
    aggregate,
    derive_seed,
    emit_plot_data,
    emit_results_csv,
    emit_summary_csv,
    parse_results_csv,
    run_experiment,
)
from streambandit.bench import REFERENCE_FULL_SCALE, resolve_instance


def small_spec(trials=3, algorithms=None):
    return ExperimentSpec(
        instance_source={"generator": "uniform", "n": 12, "seed": 4},
        algorithms=tuple(
            algorithms
            or (
                AlgorithmConfig("alg1", P=3),
                AlgorithmConfig("jhtx", delta2_source="none"),
            )
        ),
        trials=trials,
        base_seed=99,
    )


def make_result(algorithm="alg1", seed=0, pulls=10, correct=True, passes=2):
    return TrialResult(
        returned_arm=0 if correct else None,
        correct=correct,
        total_pulls=pulls,
        passes_used=passes,
        peak_arm_memory=1,
        peak_stats_words=None,
        seed=seed,
        algorithm=algorithm,
    )


class TestRunExperiment:
    def test_single_trial_single_arm(self):
        spec = ExperimentSpec(
            instance_source={"generator": "cluster", "n": 3, "seed": 0},
            algorithms=(AlgorithmConfig("alg1", P=2),),
            trials=1,
        )
        _, records = run_experiment(spec)
        assert len(records) == 1
        assert records[0].result.correct

    def test_same_spec_twice_identical(self):
        spec = small_spec()
        _, first = run_experiment(spec)
        _, second = run_experiment(spec)
        assert first == second

    def test_instance_shared_across_algorithms_and_trials(self):
        spec = small_spec()
        instance, _ = run_experiment(spec)
        instance2, _ = run_experiment(spec)
        assert instance == instance2

    def test_seeds_disjoint_per_algorithm(self):
        spec = small_spec(trials=2)
        _, records = run_experiment(spec)
        seeds = [r.result.seed for r in records]
        assert len(set(seeds)) == len(seeds)
        for rec in records:
            assert rec.result.seed == derive_seed(99, rec.trial, rec.result.algorithm)

    def test_parallel_equals_serial(self):
        spec = small_spec(trials=2)
        _, serial = run_experiment(spec, jobs=1)
        _, parallel = run_experiment(spec, jobs=2)
        assert serial == parallel

    def test_failures_recorded_not_raised(self):
        spec = ExperimentSpec(
            instance_source={"generator": "cluster", "n": 10, "seed": 0},
            algorithms=(AlgorithmConfig("jhtx", delta2_source="none", pass_cap=1),),
            trials=2,
        )
        _, records = run_experiment(spec)
        assert len(records) == 2
        assert all(r.result.failure_reason for r in records)

    def test_spec_round_trip(self):
        spec = {
            "instance": {"generator": "uniform", "n": 12, "seed": 4},
            "algorithms": [{"algorithm": "alg1", "P": 3}, {"algorithm": "jhtx", "delta2_source": "none"}],
            "trials": 3,
            "base_seed": 99,
        }
        assert ExperimentSpec.from_dict(spec) == small_spec()

    def test_aliased_configs_rejected(self):
        aliased = (AlgorithmConfig("alg1", P=2), AlgorithmConfig("alg1", P=6))
        with pytest.raises(ValueError, match="alg1"):
            small_spec(algorithms=aliased)
        with pytest.raises(ValueError, match="alg1"):
            ExperimentSpec.from_dict({
                "instance": {"generator": "uniform", "n": 12},
                "algorithms": [{"algorithm": "alg1", "P": 2}, {"algorithm": "alg1", "P": 6}],
                "trials": 1,
            })

    def test_resolve_instance_from_path(self, tmp_path):
        from streambandit import save_instance

        inst = BanditInstance(means=(0.9, 0.1), known_delta2=0.8)
        save_instance(inst, tmp_path / "i.json")
        assert resolve_instance({"path": str(tmp_path / "i.json")}, 0) == inst


class TestAggregate:
    def test_single_trial_convention(self):
        summary = aggregate([TrialRecord(0, make_result(pulls=42))])
        assert summary[0].mean_samples == 42
        assert summary[0].samples_ci95 == 0.0
        assert summary[0].success_rate == 1.0

    def test_two_trial_mean(self):
        records = [
            TrialRecord(0, make_result(pulls=10)),
            TrialRecord(1, make_result(pulls=30, seed=1)),
        ]
        s = aggregate(records)[0]
        assert s.mean_samples == 20.0
        # sd = sqrt(200), ci = 1.96 * sd / sqrt(2)
        assert s.samples_ci95 == pytest.approx(1.96 * math.sqrt(200.0) / math.sqrt(2.0))

    def test_hand_built_mixture(self):
        records = [
            TrialRecord(0, make_result("a", pulls=10, correct=True, passes=2)),
            TrialRecord(0, make_result("b", pulls=100, correct=False, passes=5)),
            TrialRecord(1, make_result("a", pulls=20, correct=False, passes=2)),
            TrialRecord(1, make_result("b", pulls=200, correct=True, passes=7)),
        ]
        by_name = {s.algorithm: s for s in aggregate(records)}
        assert by_name["a"].mean_samples == 15.0
        assert by_name["a"].success_rate == 0.5
        assert by_name["b"].mean_passes == 6.0
        assert list(by_name) == ["a", "b"]

    def test_reference_rows_recorded(self):
        row = REFERENCE_FULL_SCALE["uniform"]
        assert row["keepbest"]["mean_samples"] == 5.62e11
        assert row["jhtx"]["mean_samples"] == 1.41e10
        assert row["jhtx"]["mean_passes"] == 16.4
        assert row["alg1"]["mean_samples"] == 1.18e9
        assert row["alg1"]["mean_passes"] == 8.83


class TestCsv:
    def test_round_trip_all_numeric_fields(self, tmp_path):
        spec = small_spec(trials=2, algorithms=(
            AlgorithmConfig("alg1", P=3),
            AlgorithmConfig("alg2", P=3),
            AlgorithmConfig("jhtx", delta2_source="none", pass_cap=1),
        ))
        _, records = run_experiment(spec)
        assert any(rec.result.failure_reason for rec in records)
        path = tmp_path / "results.csv"
        emit_results_csv(records, path)
        back = parse_results_csv(path)
        assert len(back) == len(records)
        for a, b in zip(back, records):
            assert a.trial == b.trial
            for field in (
                "algorithm",
                "seed",
                "returned_arm",
                "correct",
                "total_pulls",
                "passes_used",
                "peak_arm_memory",
                "peak_stats_words",
                "failure_reason",
            ):
                assert getattr(a.result, field) == getattr(b.result, field)

    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results_csv([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("trial,algorithm,seed")
        assert parse_results_csv(path) == []

    def test_summary_columns(self, tmp_path):
        _, records = run_experiment(small_spec())
        path = tmp_path / "summary.csv"
        emit_summary_csv(aggregate(records), path)
        header = path.read_text().splitlines()[0]
        assert header == "algorithm,mean_samples,samples_ci95,mean_passes,success_rate"

    def test_plot_data_log10(self, tmp_path):
        records = [TrialRecord(0, make_result(pulls=1_180_000_000))]
        path = tmp_path / "plot.csv"
        emit_plot_data(records, path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(9.0719, abs=1e-3)

    def test_unwritable_path_raises_with_context(self, tmp_path):
        with pytest.raises(OSError, match="results CSV"):
            emit_results_csv([], tmp_path / "missing_dir" / "x.csv")
