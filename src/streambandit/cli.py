"""Command-line entry point: gen, run, bench, check-bounds, gaps.

Exit codes: 0 success, 1 trial or check failure, 2 usage error.  All
randomness flows from --seed (default 0); no entropy is read from the
environment, so every subcommand is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHMS, AlgorithmConfig
from .bench import (
    FAMILY_KEYS,
    ExperimentSpec,
    aggregate,
    emit_plot_data,
    emit_results_csv,
    emit_summary_csv,
    resolve_instance,
    run_experiment,
)
from .generators import HardInstanceParams, gen_hard_batched
from .infotheory import bound_check_grid, kl_bernoulli, mle_distinguish_success, tvd_bernoulli
from .instances import gap_profile, hardness_budget, load_instance, save_instance
from .trial import run_trial


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    for name in FAMILY_KEYS:
        p.add_argument(f"--{name}", type=float, default=None, help="default: the generator's")


def _instance_source(args) -> dict:
    """The instance source of ``resolve_instance``, with only the family flags set."""
    source = {"generator": args.family, "n": args.n}
    source.update((k, getattr(args, k)) for k in FAMILY_KEYS if getattr(args, k) is not None)
    return source


def _cmd_gen(args) -> int:
    out = Path(args.out)
    if args.family == "hard":
        params = HardInstanceParams(n=args.n, B=args.B, C=args.C, gamma=args.gamma)
        instance, meta = gen_hard_batched(params, args.seed)
        meta.save(out.with_suffix(".meta.json"))
    else:
        instance = resolve_instance({**_instance_source(args), "seed": args.seed}, args.seed)
    save_instance(instance, out)
    print(f"wrote {out} ({instance.n} arms, label={instance.label!r})")
    return 0


def _cmd_run(args) -> int:
    instance = load_instance(args.instance)
    config = AlgorithmConfig(
        algorithm=args.algorithm,
        P=args.P,
        delta=args.delta,
        delta2_source=args.delta2_mode,
        pass_cap=args.pass_cap,
    )
    result = run_trial(instance, config, args.seed)
    print(result.to_json())
    return 0 if result.correct else 1


def _cmd_bench(args) -> int:
    if args.spec:
        spec = ExperimentSpec.from_dict(json.loads(Path(args.spec).read_text(encoding="utf-8")))
    else:
        spec = ExperimentSpec(
            instance_source=_instance_source(args),
            algorithms=tuple(
                AlgorithmConfig(name.strip(), P=args.P, delta=args.delta)
                for name in args.algorithms.split(",")
            ),
            trials=args.trials,
            base_seed=args.seed,
        )
    instance, records = run_experiment(spec, jobs=args.jobs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summaries = aggregate(records)
    emit_results_csv(records, outdir / "results.csv")
    emit_summary_csv(summaries, outdir / "summary.csv")
    emit_plot_data(records, outdir / "plot_data.csv")
    print(f"instance: {instance.label} (n={instance.n}, delta2={instance.known_delta2})")
    for s in summaries:
        print(
            f"{s.algorithm:>9}: mean_samples={s.mean_samples:.4g} "
            f"ci95={s.samples_ci95:.3g} mean_passes={s.mean_passes:.3f} "
            f"success={s.success_rate:.3f}"
        )
    return 0 if all(s.success_rate > 0.0 for s in summaries) else 1


def _cmd_check_bounds(args) -> int:
    if args.pairs < 0:
        raise ValueError(f"--pairs must be >= 0, got {args.pairs}")
    ok = True
    reports = bound_check_grid(step=args.step)
    failures = [r for r in reports if not r.passes]
    print(f"divergence bound grid: {len(reports)} cells, {len(failures)} failures")
    for r in failures:
        ok = False
        print(
            f"  FAIL alpha={r.pair.alpha:.4f} beta={r.pair.beta:.4f} "
            f"kl12={r.kl12:.6g} kl21={r.kl21:.6g} bound8={r.bound8:.6g}"
        )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    worst = 0.0
    for _ in range(args.pairs):
        p = float(rng.uniform(0.001, 0.999))
        q = float(rng.uniform(0.001, 0.999))
        tv = tvd_bernoulli(p, q)
        for a, b in ((p, q), (q, p)):
            bound = (0.5 * kl_bernoulli(a, b)) ** 0.5
            if tv > bound + 1e-12:
                ok = False
                print(f"  FAIL tvd>sqrt(kl/2) at p={p} q={q}")
            worst = max(worst, tv - bound)
        formula = 0.5 + 0.5 * tv
        if abs(mle_distinguish_success(p, q) - formula) > 1e-12:
            ok = False
            print(f"  FAIL MLE success formula at p={p} q={q}")
    print(f"tvd/kl and MLE checks over {args.pairs} random pairs: "
          f"{'all pass' if ok else 'FAILURES'} (max tvd-bound slack {worst:.3g})")
    return 0 if ok else 1


def _cmd_gaps(args) -> int:
    instance = load_instance(args.instance)
    prof = gap_profile(instance)
    payload = {
        "label": instance.label,
        "n": instance.n,
        "best_index": prof.best_index,
        "delta2": prof.sorted_gaps[0] if prof.sorted_gaps else None,
        "sorted_gaps": list(prof.sorted_gaps),
        "hardness_budget": hardness_budget(instance),
    }
    print(json.dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streambandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance JSON file")
    p.add_argument("--family", required=True, choices=["uniform", "arithmetic", "cluster", "hard"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_family_flags(p)
    p.add_argument("--B", type=int, default=2)
    p.add_argument("--C", type=int, default=1)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one trial, print the result as a JSON line")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--P", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--delta2-mode", dest="delta2_mode", default="exact",
                   choices=["exact", "lower_bound", "none"])
    p.add_argument("--pass-cap", dest="pass_cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="run a trial battery, write results/summary CSVs")
    p.add_argument("--spec", default=None, help="experiment spec JSON (overrides other flags)")
    p.add_argument("--family", default="uniform", choices=["uniform", "arithmetic", "cluster"])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--algorithms", default="alg1,jhtx,keepbest")
    p.add_argument("--P", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    _add_family_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check-bounds", help="divergence bound grid and distance checks")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--pairs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_bounds)

    p = sub.add_parser("gaps", help="gap profile and hardness budget of an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_gaps)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
