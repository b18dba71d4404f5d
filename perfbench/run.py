"""Benchmark of the streambandit lab, end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 perfbench/run.py --workload published-n2000 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each run
starts several fresh processes of ``harness.py`` in turn, splits
``--seconds`` of timed work between them and combines their reports.  It
prints every metric by name and unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any output check fails and 2 when the run cannot be made at all.

``--trace 1`` alternates plain and traced processes; the traced ones wrap the
library's public functions at run time (see ``tracer.py``).  ``--smoke`` runs
the workload at a tiny size, for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("published-n2000", "battery-n200-jobs2", "verify-n200")
ALGORITHMS = ("alg1", "alg2", "keepbest", "jhtx")
JOBS = 2

#: Fresh processes of a run, in order: "plain" ones share the timed seconds,
#: "setup" ones only set up, so that set-up time is a median of nine.
PLAIN_PLAN = ("plain", "setup") * 4 + ("plain",)
#: The trace run alternates plain and traced processes, so that host drift
#: hits both sides of the tracing overhead alike.
TRACE_PLAN = ("plain", "traced", "plain", "traced")
#: A run, all its processes included, ends within this many seconds.
RUN_TIMEOUT_S = 170
#: Set-up time is scaled by a reference set-up timed just before each spawn:
#: a fresh interpreter that only imports numpy.  Set-up is process start and
#: imports more than computation, so the compute yardstick does not track
#: it; this reference does, and leaves out everything streambandit adds.
REFERENCE_START_CMD = (sys.executable, "-c", "import numpy")
#: Seconds the reference set-up takes on the host that scaled set-up times
#: refer to (0.12-0.18 s on the machine in NOTES.md).
REFERENCE_START_S = 0.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    **{f"{a}.trial_ms_p50": "ms" for a in ALGORITHMS},
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "session.substreams": "1/trial",
    "session.substream_s": "s/trial",
    "session.draws": "1/trial",
    "session.draw_s": "s/trial",
    "session.pull_calls": "1/trial",
    "session.pull_self_s": "s/trial",
    "session.meter_calls": "1/trial",
    "session.meter_s": "s/trial",
    "session.active_visit_frac": "ratio",
    "session.pulls_per_s": "1/s",
    "algorithms.self_s": "s/trial",
    "schedules.build_calls": "1/trial",
    "schedules.build_s": "s/trial",
    "instances.gap_profile_calls": "1/trial",
    "instances.gap_profile_s": "s/trial",
    "trial.wrapup_s": "s/trial",
    **{f"trial.{a}.ms_p90": "ms" for a in ALGORITHMS},
    **{f"trial.{a}.samples": "count" for a in ALGORITHMS},
    "events.replays": "1/trial",
    "events.replay_draws": "1/replay",
    "events.replay_s": "s/replay",
    "generators.gen_s": "s/call",
    "bench.run_experiment_s": "s/battery",
    "bench.worker_busy_frac": "ratio",
    "bench.tasks": "1/battery",
    "bench.task_bytes_computed": "B/battery",
    "bench.aggregate_s": "s/battery",
    "bench.csv_s": "s/battery",
    "bench.csv_bytes": "B/battery",
    "trace.overhead_ratio": "ratio",
    "trace.trials": "count",
    "trace.unreconciled_trials": "count",
    "trace.worst_gap_frac": "ratio",
    "trace.spans": "count",
    "host.yardstick_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_child(workload: str, seed: int, seconds: float, slice_: int, kind: str, smoke: bool, out: Path,
              deadline: float) -> dict:
    """Run one harness process of ``kind`` to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--slice", str(slice_), "--out", str(out)]
    cmd += {"plain": [], "traced": ["--traced"], "setup": ["--setup-only"]}[kind] + ["--smoke"] * smoke
    t0 = perf_counter()
    subprocess.run(REFERENCE_START_CMD, check=True, timeout=max(1.0, deadline - t0))
    reference_start_s = perf_counter() - t0
    t0 = perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"harness process {slice_} exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_ref_s"] = report["setup_s"] * REFERENCE_START_S / reference_start_s
    return report


def end_to_end(reports: list[dict], setups: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics; timings scaled to the reference host speed
    unless ``scaled`` is false."""
    ms_key, timed_key, setup_key = ("trial_ref_ms", "timed_ref_s", "setup_ref_s") if scaled else (
        "trial_ms", "timed_s", "setup_s")
    trial_ms = {a: [ms for r in reports for ms in r[ms_key][a]] for a in ALGORITHMS}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {
        "setup_s": statistics.median(r[setup_key] for r in reports + setups),
        "trials_per_s": sum(r["trials"] for r in reports) / sum(r[timed_key] for r in reports),
        **{f"{a}.trial_ms_p50": statistics.median(trial_ms[a]) for a in ALGORITHMS},
        "passed_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Layer metrics: counters and self-times from the traced processes; tails,
    pull rate and the bench layer from the plain ones, which run untraced."""
    traces = [r["trace"] for r in traced]
    n = sum(t["trials"] for t in traces)
    self_s = {k: sum(t["self_s"].get(k, 0.0) for t in traces) for k in traces[0]["self_s"]} if n else {}
    counts = {k: sum(t["counts"].get(k, 0.0) for t in traces) for k in traces[0]["counts"]} if n else {}
    totals: dict = {}
    for t in traces:
        for k, v in t["totals"].items():
            totals[k] = totals.get(k, 0.0) + v

    def per_trial_count(key):
        return _ratio(counts.get(key, 0.0), n)

    def per_trial_time(key):
        return _ratio(self_s.get(key, 0.0), n)

    replays = totals.get("events_calls", 0.0)
    benches = [r["bench"] for r in plain if r["bench"]]
    batteries = sum(b["batteries"] for b in benches)

    def per_battery(key):
        return _ratio(sum(b[key] for b in benches), batteries)

    metrics = {
        "session.substreams": per_trial_count("substream_calls"),
        "session.substream_s": per_trial_time("session.substream"),
        "session.draws": per_trial_count("draw_calls"),
        "session.draw_s": per_trial_time("session.draw"),
        "session.pull_calls": per_trial_count("pull_calls"),
        "session.pull_self_s": per_trial_time("session.pull_self"),
        "session.meter_calls": per_trial_count("meter_calls"),
        "session.meter_s": per_trial_time("session.meter"),
        "session.active_visit_frac": _ratio(counts.get("pull_calls", 0.0), counts.get("visits", 0.0)),
        "session.pulls_per_s": _ratio(sum(r["pulls"] for r in plain), sum(r["trial_s"] for r in plain)),
        "algorithms.self_s": per_trial_time("algorithms.self"),
        "schedules.build_calls": per_trial_count("schedules_calls"),
        "schedules.build_s": per_trial_time("schedules.build"),
        "instances.gap_profile_calls": per_trial_count("instances_calls"),
        "instances.gap_profile_s": per_trial_time("instances.gap_profile"),
        "trial.wrapup_s": per_trial_time("trial.wrapup"),
    }
    for a in ALGORITHMS:
        ms = [x for r in plain for x in r["trial_ms"][a]]
        metrics[f"trial.{a}.ms_p90"] = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
        metrics[f"trial.{a}.samples"] = len(ms)
    metrics.update({
        "events.replays": _ratio(replays, n),
        "events.replay_draws": _ratio(totals.get("replay_draws", 0.0), replays),
        "events.replay_s": _ratio(totals.get("events_s", 0.0), replays),
        "generators.gen_s": _ratio(totals.get("generators_s", 0.0), totals.get("generators_calls", 0.0)),
        "bench.run_experiment_s": per_battery("run_experiment_s"),
        "bench.worker_busy_frac": _ratio(sum(b["busy_s"] for b in benches),
                                         JOBS * sum(b["run_experiment_s"] for b in benches)),
        "bench.tasks": per_battery("tasks"),
        "bench.task_bytes_computed": per_battery("task_bytes"),
        "bench.aggregate_s": per_battery("aggregate_s"),
        "bench.csv_s": per_battery("csv_s"),
        "bench.csv_bytes": per_battery("csv_bytes"),
        "trace.overhead_ratio": _ratio(
            _ratio(sum(r["trials"] for r in plain), sum(r["timed_ref_s"] for r in plain)),
            _ratio(sum(r["trials"] for r in traced), sum(r["timed_ref_s"] for r in traced)),
        ),
        "trace.trials": n,
        "trace.unreconciled_trials": sum(t["unreconciled"] for t in traces),
        "trace.worst_gap_frac": max(t["worst_gap_frac"] for t in traces),
        "trace.spans": sum(t["spans"] for t in traces),
        "host.yardstick_ms": statistics.median(r["yardstick_s"] for r in plain + traced) * 1e3,
    })
    return metrics


def print_reference(reports: list[dict], path: Path) -> None:
    """Mean pulls and passes per (family, algorithm) next to the published table."""
    table: dict = {}
    for r in reports:
        for family, algs in r["reference"].items():
            for alg, row in algs.items():
                acc = table.setdefault(family, {}).setdefault(
                    alg, {"pulls": 0, "passes": 0, "trials": 0, "published": row["published"]}
                )
                for k in ("pulls", "passes", "trials"):
                    acc[k] += row[k]
    print("reference (context, not gated): lab mean vs REFERENCE_FULL_SCALE, n = 2000")
    out = {}
    for family, algs in table.items():
        for alg, row in algs.items():
            pulls, passes = row["pulls"] / row["trials"], row["passes"] / row["trials"]
            pub = row["published"]
            entry = {"trials": row["trials"], "mean_pulls": pulls, "mean_passes": passes,
                     "published_pulls": pub and pub["mean_samples"],
                     "published_passes": pub and pub["mean_passes"],
                     "pulls_ratio": pub and pulls / pub["mean_samples"],
                     "passes_ratio": pub and passes / pub["mean_passes"]}
            out.setdefault(family, {})[alg] = entry
            published = (f"published {pub['mean_samples']:.3g} pulls, {pub['mean_passes']:.3g} passes; "
                         f"ratio {entry['pulls_ratio']:.3g}, {entry['passes_ratio']:.3g}") if pub else "no published row"
            print(f"  {family:10s} {alg:8s} {pulls:.3g} pulls, {passes:.3g} passes; {published}")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "streambandit" / "__init__.py").is_file():
        print(f"no streambandit source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    plan = TRACE_PLAN if args.trace else PLAIN_PLAN
    share = args.seconds / sum(kind != "setup" for kind in plan)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        runs = [(kind, run_child(args.workload, args.seed, share, i, kind, args.smoke, out, deadline))
                for i, kind in enumerate(plan)]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 2
    plain = [r for kind, r in runs if kind == "plain"]
    traced = [r for kind, r in runs if kind == "traced"]
    setups = [r for kind, r in runs if kind == "setup"]
    reports = plain + traced

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}, {len(reports)} timed and {len(setups)} set-up-only processes, "
          f"{args.seconds:g} s timed in total{', traced' if args.trace else ''}")
    print(f"  failed_frac = {failed / attempted} ratio ({failed} of {attempted} trials failed a check)")
    for reason in sorted({f for r in reports for f in r["failures"]}):
        print(f"  FAILED: {reason}")
    if args.workload == "published-n2000":
        print_reference(plain, out / "reference.json")

    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER_UNITS
        unreconciled = values["trace.unreconciled_trials"]
        print(f"  trace: {unreconciled} of {values['trace.trials']} traced trials fail to reconcile "
              f"(tolerance {traced[0]['trace']['tolerance']})")
        correct = correct and unreconciled == 0
    else:
        values, units = end_to_end(reports, setups), END_TO_END_UNITS
        raw = end_to_end(reports, setups, scaled=False)
        print(f"  unscaled: setup_s {raw['setup_s']:.4g} s, trials_per_s {raw['trials_per_s']:.4g} 1/s, "
              + ", ".join(f"{a} p50 {raw[f'{a}.trial_ms_p50']:.4g} ms" for a in ALGORITHMS))
    for name, unit in units.items():
        print(f"  {name} = {values[name]} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
