"""One benchmark process: set up a workload, time it, then check every output.

run.py starts this file in a fresh interpreter for each measurement, so that
set-up time covers importing numpy and streambandit.  The last line of its
standard output is a JSON report that run.py combines with the reports of the
other processes of the run.

Workloads (the seed makes every input):

* ``published-n2000``: the uniform, arithmetic and cluster (0.9/0.88/0.86)
  families at n = 2000 (four draws of each per process), all four
  algorithms at default P and delta 0.05, as a closed loop of ``run_trial``
  calls interleaved seed, family, algorithm.
* ``battery-n200-jobs2``: ``run_experiment(jobs=2)`` on the three n = 200
  acceptance instances (P = 8, one config per algorithm), then ``aggregate``
  and the three CSV writers.
* ``verify-n200``: the same instances and configs in-process; every ``alg1``
  trial is followed by ``check_concentration_event`` on its seed.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  (imported here so that set-up time covers it)
import streambandit
from streambandit import bench, events, instances, schedules, trial
from streambandit.algorithms import AlgorithmConfig, default_passes
from streambandit.bench import REFERENCE_FULL_SCALE, derive_seed

from checks import Tally
from tracer import Tracer
from yardstick import HostSpeed

WORKLOADS = ("published-n2000", "battery-n200-jobs2", "verify-n200")
FAMILIES = ("uniform", "arithmetic", "cluster")
DELTA = 0.05
JOBS = 2
ACCEPTANCE_SEEDS = {"uniform": 0, "arithmetic": 1, "cluster": 2}
DRAWS = 4


def instance_source(family: str, n: int, seed: int) -> dict:
    source = {"generator": family, "n": n, "seed": seed}
    if family == "arithmetic":
        source.update(lo=0.0, hi=1.0)
    if family == "cluster":
        source.update(best=0.9, c1=0.88, c2=0.86)
    return source


class Setup:
    """A workload's instances, configs, expected best arms and schedules.

    Instances are keyed by (family, draw).  ``published-n2000`` draws
    DRAWS instances per family in each process, so that a run averages over
    many realizations of the uniform family, whose gaps set how long its
    trials take; the n = 200 workloads use the one acceptance instance each.
    """

    def __init__(self, workload: str, seed: int, slice_: int, smoke: bool):
        if workload == "published-n2000":
            n = 40 if smoke else 2000
            P = None
            self.draws = 1 if smoke else DRAWS
            seeds = {(f, d): derive_seed(seed, workload, slice_, f, d) for f in FAMILIES for d in range(self.draws)}
        else:
            n = 30 if smoke else 200
            P = 8
            self.draws = 1
            seeds = {(f, 0): ACCEPTANCE_SEEDS[f] for f in FAMILIES}
        self.n = n
        self.battery_trials = 1 if smoke else 30
        self.sources = {key: instance_source(key[0], n, s) for key, s in seeds.items()}
        self.instances = {key: bench.resolve_instance(src, 0) for key, src in self.sources.items()}
        self.best = {key: instances.gap_profile(inst).best_index for key, inst in self.instances.items()}
        self.configs = (
            AlgorithmConfig("alg1", P=P, delta=DELTA),
            AlgorithmConfig("alg2", P=P, delta=DELTA),
            AlgorithmConfig("keepbest", delta=DELTA),
            AlgorithmConfig("jhtx", delta=DELTA, delta2_source="none"),
        )
        levels = P if P is not None else default_passes(n)
        self.schedules = {
            key: schedules.EliminationSchedule.build(n, levels, DELTA, inst.known_delta2)
            for key, inst in self.instances.items()
        }


class Timed:
    """What a timed phase produced.  Work runs in units (a family's trials, or
    one battery) with a yardstick sample before each unit and after the last,
    so every unit's wall time can be scaled to the reference host speed."""

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self.speed: HostSpeed | None = None
        self.children_peak_kb = 0
        self.units: list[float] = []  # wall seconds of each unit
        self.results = []  # (instance key, config index, TrialResult, wall seconds, unit)
        self.replays = []  # (index into results, concentration event held)
        self.batteries = []  # (instance key, instance, records, index of first result, timings)
        self.start = 0.0

    def run(self, seconds: float, unit_of_work) -> None:
        """Call ``unit_of_work(round, family)`` for every family, round after
        round, until ``seconds`` have passed."""
        self.start = perf_counter()
        deadline = self.start + seconds
        self.speed = HostSpeed(self.processes)
        try:
            rnd = 0
            while True:
                for family in FAMILIES:
                    self.speed.sample()
                    t0 = perf_counter()
                    unit_of_work(rnd, family)
                    self.units.append(perf_counter() - t0)
                rnd += 1
                if perf_counter() >= deadline:
                    break
            self.speed.sample()
            # Read before the yardstick partner is reaped, so that only pool
            # workers count.
            self.children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        finally:
            self.speed.close()


def run_in_process(setup: Setup, timed: Timed, seconds: float, seed: int, slice_: int, tracer, replay: bool):
    """Closed loop of run_trial calls, each timed from outside."""

    def family_trials(rnd: int, family: str) -> None:
        trial_seed = derive_seed(seed, "trial", slice_, rnd)
        key = (family, rnd % setup.draws)
        instance = setup.instances[key]
        for index, config in enumerate(setup.configs):
            t0 = perf_counter()
            result = trial.run_trial(instance, config, trial_seed)
            outer = perf_counter() - t0
            if tracer is not None:
                tracer.trials.append(tracer.finish_trial(outer, config.algorithm))
            timed.results.append((key, index, result, outer, len(timed.units)))
            if replay and config.algorithm == "alg1":
                report = events.check_concentration_event(instance, setup.schedules[key], trial_seed)
                timed.replays.append((len(timed.results) - 1, report.holds))

    timed.run(seconds, family_trials)


def run_batteries(setup: Setup, timed: Timed, seconds: float, seed: int, slice_: int, scratch: Path):
    """Repeated batteries: run_experiment, aggregate and the three CSV writers."""
    k = len(setup.configs)

    def battery(rnd: int, family: str) -> None:
        key = (family, 0)
        spec = bench.ExperimentSpec(
            instance_source=setup.sources[key],
            algorithms=setup.configs,
            trials=setup.battery_trials,
            base_seed=derive_seed(seed, "battery", slice_, rnd),
        )
        t0 = perf_counter()
        instance, records = bench.run_experiment(spec, jobs=JOBS)
        t1 = perf_counter()
        summaries = bench.aggregate(records)
        t2 = perf_counter()
        bench.emit_results_csv(records, scratch / "results.csv")
        bench.emit_summary_csv(summaries, scratch / "summary.csv")
        bench.emit_plot_data(records, scratch / "plot_data.csv")
        t3 = perf_counter()
        csv_bytes = sum(p.stat().st_size for p in scratch.glob("*.csv"))
        timed.batteries.append((key, instance, records, len(timed.results), (t1 - t0, t2 - t1, t3 - t2, csv_bytes)))
        for i, record in enumerate(records):
            timed.results.append((key, i % k, record.result, record.result.wall_time_s, len(timed.units)))

    timed.run(seconds, battery)


def check_batteries(setup: Setup, batteries, tally: Tally) -> dict:
    """Battery-level checks, and the bench layer's numbers for run.py."""
    k = len(setup.configs)
    stats = {"batteries": len(batteries), "run_experiment_s": 0.0, "busy_s": 0.0, "tasks": 0,
             "task_bytes": 0, "aggregate_s": 0.0, "csv_s": 0.0, "csv_bytes": 0}
    for key, instance, records, first, (run_s, aggregate_s, csv_s, csv_bytes) in batteries:
        if instance != setup.instances[key]:
            tally.fail(first, f"battery instance differs from the {key[0]} instance")
        if [r.trial for r in records] != [i // k for i in range(setup.battery_trials * k)]:
            tally.fail(first, "battery records are not in (trial, config) order")
        stats["run_experiment_s"] += run_s
        stats["busy_s"] += sum(r.result.wall_time_s for r in records)
        stats["tasks"] += len(records)
        stats["task_bytes"] += len(pickle.dumps(instance)) * len(records)
        stats["aggregate_s"] += aggregate_s
        stats["csv_s"] += csv_s
        stats["csv_bytes"] += csv_bytes
    return stats


def check_determinism(setup: Setup, results, tally: Tally) -> None:
    """Re-run one trial per config and require an identical record."""
    for index, config in enumerate(setup.configs):
        family = FAMILIES[index % len(FAMILIES)]
        for i, (key, ci, result, _, _) in enumerate(results):
            if key[0] == family and ci == index:
                again = trial.run_trial(setup.instances[key], config, result.seed)
                if again.to_dict() != result.to_dict():
                    tally.fail(i, f"re-run of {config.algorithm} seed {result.seed} differs")
                break


def check_jobs(setup: Setup, seed: int, tally: Tally) -> None:
    """A small battery must give identical records at jobs = 1 and jobs = JOBS."""
    uniform = ("uniform", 0)
    spec = bench.ExperimentSpec(
        instance_source=setup.sources[uniform],
        algorithms=setup.configs,
        trials=min(3, setup.battery_trials),
        base_seed=derive_seed(seed, "jobs"),
    )
    _, serial = bench.run_experiment(spec, jobs=1)
    _, parallel = bench.run_experiment(spec, jobs=JOBS)
    k = len(setup.configs)
    for i, record in enumerate(parallel):
        key = ("jobs", i)
        tally.check(key, record.result, setup.configs[i % k], setup.n, setup.best[uniform])
        if i >= len(serial) or (serial[i].trial, serial[i].result.to_dict()) != (
            record.trial, record.result.to_dict()
        ):
            tally.fail(key, f"record {i} differs between jobs=1 and jobs={JOBS}")
    if len(serial) != len(parallel):
        tally.fail(("jobs", "count"), f"jobs=1 gave {len(serial)} records, jobs={JOBS} {len(parallel)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--slice", dest="slice_", type=int, required=True)
    p.add_argument("--t0", type=float, required=True, help="parent's perf_counter before the spawn")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="report the set-up time and exit")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    if src not in Path(streambandit.__file__).resolve().parents:
        print(f"streambandit imported from {streambandit.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = args.out
    scratch = out / f"slice{args.slice_}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.traced:
        tracer = Tracer(scratch)
        tracer.install()

    setup = Setup(args.workload, args.seed, args.slice_, args.smoke)
    if args.setup_only:
        print(json.dumps({"setup_s": perf_counter() - args.t0}))
        shutil.rmtree(scratch, ignore_errors=True)
        return 0
    if args.workload == "battery-n200-jobs2":
        timed = Timed(processes=JOBS)
        run_batteries(setup, timed, args.seconds, args.seed, args.slice_, scratch)
    else:
        timed = Timed(processes=1)
        run_in_process(setup, timed, args.seconds, args.seed, args.slice_, tracer,
                       replay=args.workload == "verify-n200")

    trace = None
    if tracer is not None:
        tracer.uninstall()
        tracer.collect_worker_trials()
        tracer.write_spans(out / f"spans-slice{args.slice_}.jsonl")
        trace = tracer.summary()

    results = timed.results
    tally = Tally()
    for i, (key, index, result, _, _) in enumerate(results):
        tally.check(i, result, setup.configs[index], setup.n, setup.best[key])
    for i, holds in timed.replays:
        key, _, result, _, _ = results[i]
        if holds and result.returned_arm != setup.best[key]:
            tally.fail(i, "concentration event held but alg1 returned the wrong arm")
    bench_stats = check_batteries(setup, timed.batteries, tally) if timed.batteries else None
    if args.slice_ == 0:
        check_determinism(setup, results, tally)
        if args.workload == "battery-n200-jobs2":
            check_jobs(setup, args.seed, tally)

    pool_workers = JOBS if args.workload == "battery-n200-jobs2" else 0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + pool_workers * timed.children_peak_kb

    scales = [timed.speed.scale(u) for u in range(len(timed.units))]
    trial_ms = {c.algorithm: [] for c in setup.configs}
    trial_ref_ms = {c.algorithm: [] for c in setup.configs}
    reference = {}
    for (family, _), index, result, wall, unit in results:
        algorithm = setup.configs[index].algorithm
        trial_ms[algorithm].append(wall * 1e3)
        trial_ref_ms[algorithm].append(wall * 1e3 * scales[unit])
        row = reference.setdefault(family, {}).setdefault(
            result.algorithm,
            {"pulls": 0, "passes": 0, "trials": 0,
             "published": REFERENCE_FULL_SCALE.get(family, {}).get(result.algorithm)},
        )
        row["pulls"] += result.total_pulls
        row["passes"] += result.passes_used
        row["trials"] += 1
    shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "setup_s": timed.start - args.t0,
        "timed_s": sum(timed.units),
        "timed_ref_s": sum(w * f for w, f in zip(timed.units, scales)),
        "yardstick_s": statistics.median(timed.speed.samples),
        "trials": len(results),
        "trial_ms": trial_ms,
        "trial_ref_ms": trial_ref_ms,
        "pulls": sum(r[2].total_pulls for r in results),
        "trial_s": sum(r[3] for r in results),
        "replays": len(timed.replays),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": sorted(set(tally.failures.values()))[:20],
        "peak_rss_mb": peak_kb / 1024.0,
        "reference": reference,
        "bench": bench_stats,
        "trace": trace,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
