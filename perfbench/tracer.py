"""Run-time tracing of streambandit's layers, installed from the benchmark's side.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
the public functions and session methods of each module with timing wrappers,
in the benchmark process only (pool workers forked from it inherit them), and
``Tracer.uninstall`` puts the originals back.

* Calls into ``algorithms``, ``schedules``, ``instances.gap_profile``,
  ``events``, ``generators`` and ``bench`` each record one span: layer, name,
  start, end, parent span, trial.
* ``StreamSession`` methods and the RNG primitives they call run thousands of
  times per trial, so they only add to per-trial call and busy-time counters.

A trial's layers are reconciled against the benchmark's own timer around the
call: see :func:`reconcile`.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from streambandit import algorithms, bench, events, generators, instances, schedules, session, trial

#: A trial's layer self-times must sum to the benchmark's outer wall time of
#: the call within REL_TOL of it plus ABS_TOL_S, and no self-time may be
#: below -ABS_TOL_S.  The gap is the cost of the outermost wrapper's entry
#: and exit, plus whatever a trace failed to attribute.
REL_TOL = 0.02
ABS_TOL_S = 200e-6

ALGORITHM_FUNCTIONS = (
    "stream_elimination",
    "stream_elimination_re",
    "single_pass_keepbest",
    "doubling_gap_elimination",
)
GENERATOR_FUNCTIONS = ("gen_uniform", "gen_arithmetic", "gen_cluster")
BENCH_FUNCTIONS = ("run_experiment", "aggregate", "emit_results_csv", "emit_summary_csv", "emit_plot_data")


def reconcile(acc: dict, outer_s: float) -> dict:
    """Per-layer self-times of one trial and whether they account for ``outer_s``.

    Session time inside ``pull`` is split into substream creation, reward
    draws and the rest of ``pull``; the algorithm's self-time is its span
    minus its session calls and schedule builds; the trial layer's is the
    ``run_trial`` span minus the algorithm and ``gap_profile`` spans.
    """
    self_s = {
        "session.substream": acc["substream_s"],
        "session.draw": acc["draw_s"],
        "session.pull_self": acc["pull_s"] - acc["substream_s"] - acc["draw_s"],
        "session.meter": acc["meter_s"],
        "algorithms.self": acc["algorithms_s"] - acc["pull_s"] - acc["meter_s"] - acc["schedules_s"],
        "schedules.build": acc["schedules_s"],
        "instances.gap_profile": acc["instances_s"],
        "trial.wrapup": acc["trial_s"] - acc["algorithms_s"] - acc["instances_s"],
    }
    gap = outer_s - sum(self_s.values())
    ok = abs(gap) <= REL_TOL * outer_s + ABS_TOL_S and min(self_s.values()) >= -ABS_TOL_S
    return {"self_s": self_s, "gap_s": gap, "ok": ok}


class Tracer:
    """Wrappers, spans and counters of one benchmark process.

    ``acc`` holds the counters of the trial in progress; ``totals`` those of
    the layers outside trials (events, generators, bench).
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.spans: list = []
        self._stack: list[int] = []
        self.trial_id = -1
        self._trial_first_span = 0
        self.acc: defaultdict = defaultdict(float)
        self.totals: defaultdict = defaultdict(float)
        self.trials: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        session_cls = session.StreamSession
        self._patch(session, "arm_substream", self._counter(session.arm_substream, "substream"))
        self._patch(session, "draw_successes", self._counter(session.draw_successes, "draw"))
        self._patch(session_cls, "pull", self._counter(session_cls.pull, "pull"))
        self._patch(session_cls, "advance", self._advance(session_cls.advance))
        for name in ("begin_pass", "retain", "evict"):
            self._patch(session_cls, name, self._counter(getattr(session_cls, name), "meter"))
        for name in ALGORITHM_FUNCTIONS:
            self._patch(trial, name, self._span(getattr(algorithms, name), "algorithms", self._acc))
        for name in ("build", "build_re"):
            bound = getattr(schedules.EliminationSchedule, name)
            self._patch(schedules.EliminationSchedule, name, staticmethod(self._span(bound, "schedules", self._acc)))
        gap_profile = self._span(instances.gap_profile, "instances", self._acc)
        self._patch(instances, "gap_profile", gap_profile)
        self._patch(trial, "gap_profile", gap_profile)
        self._patch(trial, "run_trial", self._run_trial(trial.run_trial))
        self._patch(bench, "run_trial", trial.run_trial)
        self._patch(bench, "_run_one", self._run_one(bench._run_one))
        self._patch(events, "check_concentration_event",
                    self._span(events.check_concentration_event, "events", self._totals))
        self._patch(events, "draw_successes", self._total_counter(events.draw_successes, "replay_draws"))
        for name in GENERATOR_FUNCTIONS:
            wrapped = self._span(getattr(generators, name), "generators", self._totals)
            self._patch(generators, name, wrapped)
            self._patch(bench, name, wrapped)
        for name in BENCH_FUNCTIONS:
            self._patch(bench, name, self._span(getattr(bench, name), "bench." + name, self._totals))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _acc(self) -> defaultdict:
        return self.acc

    def _totals(self) -> defaultdict:
        return self.totals

    def _counter(self, fn, key: str):
        calls, busy = key + "_calls", key + "_s"

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                acc = self.acc
                acc[calls] += 1
                acc[busy] += perf_counter() - t0

        return wrapper

    def _advance(self, fn):
        end = session.END_OF_PASS

        @functools.wraps(fn)
        def wrapper(sess):
            arm = end
            t0 = perf_counter()
            try:
                arm = fn(sess)
                return arm
            finally:
                acc = self.acc
                acc["meter_calls"] += 1
                if arm is not end:
                    acc["visits"] += 1
                acc["meter_s"] += perf_counter() - t0

        return wrapper

    def _total_counter(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args):
            self.totals[key] += 1
            return fn(*args)

        return wrapper

    def _span(self, fn, layer: str, target):
        calls, busy = layer + "_calls", layer + "_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[index] = (self.trial_id, layer, fn.__name__, t0, t1, parent)
                acc = target()
                acc[calls] += 1
                acc[busy] += t1 - t0

        return wrapper

    def _run_trial(self, fn):
        span = self._span(fn, "trial", self._acc)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.trial_id += 1
            self._trial_first_span = len(self.spans)
            self.acc = defaultdict(float)
            return span(*args, **kwargs)

        return wrapper

    def _run_one(self, fn):
        # Outer timer of a pool task; workers write each trial's record out as
        # it ends, since a pool worker has no hook that runs when it exits.
        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() != self._pid:
                # First task in a forked worker: start from fresh containers,
                # so that copy-on-write faults on the parent's do not land
                # inside the timed call.
                self._pid = os.getpid()
                self.spans, self._stack, self.trials = [], [], []
            t0 = perf_counter()
            out = fn(task)
            record = self.finish_trial(perf_counter() - t0, out[2].algorithm)
            record["pid"] = os.getpid()
            path = self.out_dir / f"worker-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
            return out

        return wrapper

    # -- trial records ------------------------------------------------------

    def finish_trial(self, outer_s: float, algorithm: str) -> dict:
        """Close the trial in progress, timed from outside as ``outer_s``, and
        return its record."""
        acc = self.acc
        record = reconcile(acc, outer_s)
        record["algorithm"] = algorithm
        record["outer_s"] = outer_s
        record["counts"] = {
            k: acc[k] for k in ("substream_calls", "draw_calls", "pull_calls", "meter_calls",
                                "visits", "schedules_calls", "instances_calls")
        }
        record["spans"] = self.spans[self._trial_first_span:]
        del self.spans[self._trial_first_span:]
        self.acc = defaultdict(float)
        return record

    def collect_worker_trials(self) -> None:
        """Read the records pool workers wrote, then remove their files."""
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                self.trials.extend(json.loads(line) for line in f)
            path.unlink()

    def write_spans(self, path: Path) -> None:
        """Write every span, trial spans first, one JSON object a line."""
        keys = ("trial", "layer", "name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as f:
            for record in self.trials:
                for span in record["spans"]:
                    f.write(json.dumps(dict(zip(keys, span))) + "\n")
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self) -> dict:
        """Sums over the traced trials, for the parent to combine."""
        self_s: defaultdict = defaultdict(float)
        counts: defaultdict = defaultdict(float)
        worst_gap = 0.0
        for record in self.trials:
            for k, v in record["self_s"].items():
                self_s[k] += v
            for k, v in record["counts"].items():
                counts[k] += v
            worst_gap = max(worst_gap, abs(record["gap_s"]) / record["outer_s"])
        return {
            "trials": len(self.trials),
            "unreconciled": sum(1 for r in self.trials if not r["ok"]),
            "worst_gap_frac": worst_gap,
            "spans": len(self.spans) + sum(len(r["spans"]) for r in self.trials),
            "self_s": dict(self_s),
            "counts": dict(counts),
            "totals": dict(self.totals),
            "tolerance": f"|outer wall - sum of self-times| <= {REL_TOL} x outer wall + {ABS_TOL_S} s",
        }
