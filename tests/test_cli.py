"""CLI subcommands: artifacts on disk, exit codes, determinism."""

import json

import pytest

from streambandit import load_instance
from streambandit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_cluster_then_gaps(self, tmp_path, capsys):
        out = tmp_path / "cluster.json"
        code, _, _ = run_cli(capsys, "gen", "--family", "cluster", "--n", "5",
                             "--seed", "0", "--out", str(out))
        assert code == 0
        code, stdout, _ = run_cli(capsys, "gaps", "--instance", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["delta2"] == pytest.approx(0.9 - 0.899)

    def test_hard_writes_meta_sibling(self, tmp_path, capsys):
        out = tmp_path / "hard.json"
        code, _, _ = run_cli(capsys, "gen", "--family", "hard", "--n", "120",
                             "--B", "2", "--seed", "3", "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "hard.meta.json").read_text())
        assert meta["theta"][-1] == 1
        assert len(meta["chi"]) == 3
        inst = load_instance(out)
        assert inst.known_delta2 == meta["gamma"]

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "gen", "--family", "uniform", "--n", "20", "--seed", "7", "--out", str(a))
        run_cli(capsys, "gen", "--family", "uniform", "--n", "20", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "hard", "--n", "121",
                               "--B", "2", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "error" in err.lower()


class TestRun:
    def test_trivial_correct_run(self, tmp_path, capsys):
        inst = tmp_path / "two.json"
        inst.write_text(json.dumps({
            "label": "two", "means": [1.0, 0.0],
            "known_delta2": 1.0, "delta2_mode": "exact",
        }))
        code, stdout, _ = run_cli(capsys, "run", "--instance", str(inst),
                                  "--algorithm", "alg1", "--P", "1", "--delta", "0.05")
        assert code == 0
        result = json.loads(stdout)
        assert result["returned_arm"] == 0
        assert result["correct"] is True
        assert result["peak_arm_memory"] == 1

    def test_run_is_deterministic(self, tmp_path, capsys):
        inst = tmp_path / "u.json"
        run_cli(capsys, "gen", "--family", "uniform", "--n", "15", "--seed", "2",
                "--out", str(inst))
        args = ("run", "--instance", str(inst), "--algorithm", "alg2", "--P", "4",
                "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_failed_trial_exit_one(self, tmp_path, capsys):
        inst = tmp_path / "c.json"
        run_cli(capsys, "gen", "--family", "cluster", "--n", "10", "--out", str(inst))
        code, stdout, _ = run_cli(capsys, "run", "--instance", str(inst),
                                  "--algorithm", "jhtx", "--delta2-mode", "none",
                                  "--pass-cap", "1")
        assert code == 1
        assert json.loads(stdout)["failure_reason"]

    def test_counter_overflow_exit_one(self, tmp_path, capsys):
        inst = tmp_path / "tied.json"
        inst.write_text(json.dumps({"label": "tied", "means": [0.5, 0.5, 0.3]}))
        code, stdout, _ = run_cli(capsys, "run", "--instance", str(inst),
                                  "--algorithm", "jhtx", "--delta2-mode", "none")
        assert code == 1
        result = json.loads(stdout)
        assert result["passes_used"] == 26
        assert result["failure_reason"].startswith("BudgetOverflowError")


class TestBench:
    def test_writes_results_summary_plot(self, tmp_path, capsys):
        outdir = tmp_path / "bench"
        code, stdout, _ = run_cli(
            capsys, "bench", "--family", "uniform", "--n", "12", "--trials", "2",
            "--P", "3", "--algorithms", "alg1,keepbest", "--out", str(outdir),
        )
        assert code == 0
        assert (outdir / "results.csv").exists()
        assert (outdir / "summary.csv").exists()
        assert (outdir / "plot_data.csv").exists()
        assert "alg1" in stdout and "keepbest" in stdout

    def test_spec_file_and_jobs(self, tmp_path, capsys):
        spec = {
            "instance": {"generator": "uniform", "n": 12, "seed": 4},
            "algorithms": [
                {"algorithm": "alg1", "P": 3, "delta": 0.05, "delta2_source": "exact"},
                {"algorithm": "jhtx", "delta": 0.05, "delta2_source": "none"},
            ],
            "trials": 2,
            "base_seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli(capsys, "bench", "--spec", str(spec_path), "--out", str(out1))[0] == 0
        assert run_cli(capsys, "bench", "--spec", str(spec_path), "--jobs", "2",
                       "--out", str(out2))[0] == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_is_usage_error(self, tmp_path, capsys, jobs):
        code, _, err = run_cli(capsys, "bench", "--n", "12", "--trials", "1", "--jobs", jobs,
                               "--out", str(tmp_path / "bench"))
        assert code == 2
        assert "jobs" in err
        assert not (tmp_path / "bench").exists()


    def test_aliased_algorithms_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--n", "12", "--trials", "1",
                               "--algorithms", "alg1,alg1", "--out", str(tmp_path / "bench"))
        assert code == 2
        assert err.startswith("error:") and "alg1" in err
        assert not (tmp_path / "bench").exists()

    def test_spec_with_aliased_configs_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "instance": {"generator": "uniform", "n": 12, "seed": 4},
            "algorithms": [{"algorithm": "alg1", "P": 2}, {"algorithm": "alg1", "P": 6}],
            "trials": 2,
        }))
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec_path),
                               "--out", str(tmp_path / "bench"))
        assert code == 2
        assert err.startswith("error:") and "alg1" in err
        assert not (tmp_path / "bench").exists()

    def test_cluster_default_is_the_generators(self, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "bench", "--family", "cluster", "--n", "12",
                                  "--trials", "1", "--algorithms", "keepbest",
                                  "--out", str(tmp_path / "bench"))
        assert code == 0
        assert f"delta2={0.9 - 0.899}" in stdout


GOOD_SOURCE = {"generator": "uniform", "n": 12, "seed": 4}


class TestMalformedInput:
    @pytest.mark.parametrize("spec, fault", [
        ({"algorithms": [{"algorithm": "alg1"}], "trials": 1}, "'instance'"),
        ({"instance": GOOD_SOURCE, "algorithms": [{"P": 3}], "trials": 1}, "'algorithm'"),
        ([GOOD_SOURCE], "list"),
        ({"instance": {"generator": "uniform"}, "algorithms": [{"algorithm": "alg1"}],
          "trials": 1}, "'n'"),
    ], ids=["no-instance", "config-without-algorithm", "json-list", "source-without-n"])
    def test_malformed_spec_is_usage_error(self, tmp_path, capsys, spec, fault):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec_path),
                               "--out", str(tmp_path / "bench"))
        assert code == 2
        assert err.startswith("error:") and fault in err
        assert not (tmp_path / "bench").exists()

    def test_instance_without_means_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "nomeans.json"
        inst.write_text(json.dumps({"label": "x", "known_delta2": 0.1}))
        code, _, err = run_cli(capsys, "run", "--instance", str(inst), "--algorithm", "alg1")
        assert code == 2
        assert err.startswith("error:") and "'means'" in err

    @pytest.mark.parametrize("source, extra, fault", [
        ({"generator": "uniform", "n": "12"}, {}, "n must be an integer"),
        ({"generator": "uniform", "n": 12.5}, {}, "n must be an integer"),
        ({"generator": "uniform", "n": 12, "seed": "3"}, {}, "seed must be an integer"),
        ({"generator": "cluster", "n": 12, "c1": "x"}, {}, "c1 must be a number"),
        ({"generator": "arithmetic", "n": 12, "lo": None}, {}, "lo must be a number"),
        ({"generator": "uniform", "n": 12}, {"base_seed": "x"}, "base_seed must be an integer"),
        ({"generator": "uniform", "n": 12}, {"algorithms": [{"algorithm": "alg1", "P": 2.5}]},
         "P must be an integer"),
        ({"generator": "uniform", "n": 12}, {"algorithms": [{"algorithm": "alg1", "P": True}]},
         "P must be an integer"),
        ({"generator": "uniform", "n": 12},
         {"algorithms": [{"algorithm": "jhtx", "delta2_source": "none", "pass_cap": 2.5}]},
         "pass_cap must be an integer"),
        ({"generator": "uniform", "n": 12}, {"algorithms": [{"algorithm": "alg1", "delta": "0.1"}]},
         "delta must be a number"),
        ({"generator": "uniform", "n": 12}, {"algorithms": [{"algorithm": "alg1", "delta": True}]},
         "delta must be a number"),
        ({"generator": "hard", "n": 120, "B": True}, {}, "B must be an integer"),
        ({"generator": "hard", "n": 120, "B": 2.0}, {}, "B must be an integer"),
        ({"generator": "hard", "n": 120, "B": 2, "C": "1"}, {}, "C must be an integer"),
        ({"generator": "hard", "n": 120, "B": 2, "gamma": "0.01"}, {}, "gamma must be a number"),
    ], ids=["n-string", "n-float", "seed-string", "c1-string", "lo-null", "base-seed-string",
            "P-float", "P-bool", "pass-cap-float", "delta-string", "delta-bool", "B-bool", "B-float",
            "C-string", "gamma-string"])
    def test_mistyped_spec_value_is_usage_error(self, tmp_path, capsys, source, extra, fault):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"instance": source, "algorithms": [{"algorithm": "alg1"}], "trials": 1, **extra}
        ))
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec_path),
                               "--out", str(tmp_path / "bench"))
        assert code == 2
        assert err.startswith("error:") and fault in err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("command", ["gaps", "run"])
    @pytest.mark.parametrize("instance, fault", [
        ({"means": [True, 0.5, 0.2]}, "means must be a number, got True"),
        ({"means": [0.9, "0.5", 0.2]}, "means must be a number, got '0.5'"),
        ({"means": [0.9, 0.5, 0.2], "known_delta2": "0.4"}, "known_delta2 must be a number"),
    ], ids=["mean-bool", "mean-string", "delta2-string"])
    def test_mistyped_instance_value_is_usage_error(self, tmp_path, capsys, command, instance, fault):
        inst = tmp_path / "typed.json"
        inst.write_text(json.dumps(instance))
        extra = ("--algorithm", "alg1") if command == "run" else ()
        code, stdout, err = run_cli(capsys, command, "--instance", str(inst), *extra)
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and fault in err

    def test_gaps_on_tied_best_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "tied.json"
        inst.write_text(json.dumps({"means": [0.5, 0.5, 0.1]}))
        code, _, err = run_cli(capsys, "gaps", "--instance", str(inst))
        assert (code, err) == (2, "error: 2 arms tie at 0.5\n")

    def test_tied_best_with_a_gap_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "tied.json"
        inst.write_text(json.dumps({"means": [0.5, 0.5, 0.1], "known_delta2": 0.1}))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"instance": {"path": str(inst)}, "algorithms": [{"algorithm": "alg1"}], "trials": 1}
        ))
        run = run_cli(capsys, "run", "--instance", str(inst), "--algorithm", "alg1")
        bench = run_cli(capsys, "bench", "--spec", str(spec_path), "--out", str(tmp_path / "bench"))
        for code, _, err in (run, bench):
            assert (code, err) == (2, "error: 2 arms tie at 0.5\n")

    def test_zero_pass_cap_on_one_arm_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "one.json"
        inst.write_text(json.dumps({"means": [0.4]}))
        code, stdout, err = run_cli(capsys, "run", "--instance", str(inst), "--algorithm", "jhtx",
                                    "--delta2-mode", "none", "--pass-cap", "0")
        assert (code, stdout, err) == (2, "", "error: pass_cap must be >= 1\n")


class TestCheckBounds:
    def test_grid_passes_exit_zero(self, capsys):
        code, stdout, _ = run_cli(capsys, "check-bounds", "--pairs", "500")
        assert code == 0
        assert "0 failures" in stdout
        assert "all pass" in stdout

    @pytest.mark.parametrize("flags", [("--step", "0"), ("--step", "-1"), ("--pairs", "-1")])
    def test_bad_grid_or_pairs_is_usage_error(self, capsys, flags):
        code, stdout, err = run_cli(capsys, "check-bounds", *flags)
        assert code == 2
        assert flags[0].lstrip("-") in err
        assert "all pass" not in stdout
