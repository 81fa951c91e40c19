"""Benchmark command line: dataset generation, solving, training, evaluation.

Every run writes a ``manifest.json`` into its output directory recording the
resolved configuration, seeds, and format versions; rerunning a command with
the same configuration reproduces the metrics/results files byte for byte
(wall-clock timings live in separate ``timings`` sidecars and on stdout).

Exit codes: 0 success, 1 usage error, 2 runtime failure. A ``--config`` file
(INI: one section per subcommand, ``key = value`` using flag names without the
leading dashes) supplies defaults that explicit flags override. Relative
``--out`` paths are resolved under ``$MSTOPLAB_OUT_ROOT`` when it is set.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .checkpoint import FORMAT_VERSION as CKPT_VERSION, atomic_write
from .inference import InferConfig, InferenceError, infer
from .instances import (DATASET_VERSION, GenConfig, PRESETS, PRIZE_MODES,
                        generate_many, load_dataset, save_dataset)
from .model import DdtmConfig, DdtmParameters
from .oracle import EXACT_BUDGET, TsiliParams, brute_force_enum, solve_exact, tsili_solve
from .training import BASELINES, TrainConfig, metrics_rows, train

EXACT_N_LIMIT = 12
BRUTE_N_LIMIT = 8


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_dir(path: str) -> str:
    root = os.environ.get("MSTOPLAB_OUT_ROOT")
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest(out, command, config):
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "package": __version__,
            "dataset_format": DATASET_VERSION,
            "checkpoint_format": CKPT_VERSION,
        },
    }
    with atomic_write(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _gen_config(args, seed=GenConfig.seed) -> GenConfig:
    shape = (args.n, args.k, args.t_max)
    if args.preset:
        if shape != (None, None, None):
            raise UsageError(f"--preset {args.preset} fixes n, K and t_max; drop it or --n/--k/--t-max")
        cfg = GenConfig.preset(args.preset, prize_mode=args.prizes, seed=seed)
    else:
        if None in shape:
            raise UsageError("either --preset or all of --n/--k/--t-max are required")
        cfg = GenConfig(*shape, prize_mode=args.prizes, seed=seed)
    cfg.validate()
    return cfg


def _model_manifest(cfg: DdtmConfig) -> dict:
    return {"d": cfg.d, "heads": cfg.heads, "ff_dim": cfg.ff_dim,
            "enc_layers": cfg.encoder_layers, "dec_layers": cfg.decoder_layers}


def _add_gen_flags(p):
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--prizes", choices=PRIZE_MODES, default=GenConfig.prize_mode)


# --- generate ----------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _gen_config(args, args.seed)
    if args.count < 0:
        raise UsageError("--count must be non-negative")
    instances = generate_many(cfg, args.count)
    out = _out_dir(args.out)
    path = os.path.join(out, "dataset.jsonl")
    save_dataset(instances, path)
    _write_manifest(out, "generate", {
        "n": cfg.n, "k": cfg.k, "t_max": cfg.t_max, "prize_mode": cfg.prize_mode,
        "seed": cfg.seed, "count": args.count, "preset": args.preset,
    })
    print(f"generated count={args.count} n={cfg.n} K={cfg.k} t_max={cfg.t_max} "
          f"prize_mode={cfg.prize_mode} seed={cfg.seed} -> {path}")
    return 0


# --- solve -------------------------------------------------------------------

def _solve_one(job):
    method, inst, budget, tsili, seed, force = job
    if method == "exact":
        return solve_exact(inst, budget=budget)
    if method == "brute":
        return brute_force_enum(inst, max_n=inst.n if force else BRUTE_N_LIMIT)
    return tsili_solve(inst, tsili, seed=seed)


def _mean_gap_pct(refs, objectives) -> float:
    """Mean relative gap to the references, in percent; a reference of 0 has no gap."""
    return 100.0 * float(np.mean([(r - obj) / r if r > 0 else 0.0 for r, obj in zip(refs, objectives)]))


def _reference_objectives(path) -> list:
    """The ``objective`` of every record of a ``solve`` results file."""
    refs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                objective = json.loads(line)["objective"]
                if type(objective) not in (int, float) or not np.isfinite(objective):   # a bool is no number
                    raise TypeError(f"objective {objective!r} is not a finite number")
                refs.append(objective)
            except (json.JSONDecodeError, KeyError, TypeError) as err:
                raise UsageError(f"{path}: line {lineno} is not a results record with an objective "
                                 f"({type(err).__name__}: {err})") from None
    return refs


def cmd_solve(args) -> int:
    tsili = TsiliParams(samples=args.tsili_width, exponent=args.tsili_r, candidates=args.tsili_candidates)
    if args.method == "exact" and args.budget <= 0:
        raise UsageError(f"--budget must be positive, got {args.budget}")
    if args.method == "tsili":
        tsili.validate()
    if args.workers < 0:
        raise UsageError(f"--workers must be >= 0 (0 = logical cores), got {args.workers}")
    instances = load_dataset(args.dataset)
    if instances:
        n = instances[0].n
        if args.method == "exact" and n > EXACT_N_LIMIT and not args.force:
            raise UsageError(f"exact solver intended for n <= {EXACT_N_LIMIT} (dataset has n={n}); "
                             f"pass --force to override")
        if args.method == "brute" and n > BRUTE_N_LIMIT and not args.force:
            raise UsageError(f"brute-force enumeration capped at n <= {BRUTE_N_LIMIT} (dataset has n={n})")
    refs = _reference_objectives(args.ref) if args.ref else None
    if refs is not None and len(refs) != len(instances):
        raise UsageError(f"reference file has {len(refs)} records, dataset has {len(instances)}")
    out = _out_dir(args.out)
    jobs = [(args.method, inst, args.budget, tsili, args.seed + i, args.force)
            for i, inst in enumerate(instances)]
    t0 = time.perf_counter()
    workers = args.workers or os.cpu_count() or 1
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solutions = list(pool.map(_solve_one, jobs, chunksize=max(1, len(jobs) // (8 * workers))))
    else:
        solutions = [_solve_one(j) for j in jobs]
    elapsed = time.perf_counter() - t0

    results_path = os.path.join(out, "results.jsonl")
    with atomic_write(results_path, "w", encoding="utf-8") as fh:
        for i, sol in enumerate(solutions):
            fh.write(json.dumps({
                "instance": i, "objective": sol.objective, "optimal": sol.optimal,
                "routes": [list(r) for r in sol.routes], "expansions": sol.expansions,
            }) + "\n")
    # only the exact solver has a node budget; it reports optimal=False when it ran out
    exhausted = sum(not s.optimal for s in solutions) if args.method == "exact" else 0
    expansions = sum(s.expansions for s in solutions)
    with atomic_write(os.path.join(out, "timings.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"wall_time_s {elapsed!r}\nbudget_exhausted {exhausted}\nexpansions {expansions}\n")
    _write_manifest(out, "solve", {
        "dataset": args.dataset, "method": args.method, "budget": args.budget,
        "tsili_width": args.tsili_width, "tsili_r": args.tsili_r,
        "tsili_candidates": args.tsili_candidates, "seed": args.seed, "ref": args.ref,
    })
    mean_obj = float(np.mean([s.objective for s in solutions])) if solutions else 0.0
    line = f"method={args.method} instances={len(solutions)} mean_objective={mean_obj:.4f}"
    if refs:
        line += f" mean_gap={_mean_gap_pct(refs, [s.objective for s in solutions]):.2f}%"
    line += f" budget_exhausted={exhausted} expansions={expansions} wall_time={elapsed:.2f}s"
    print(line)
    return 0


# --- train -------------------------------------------------------------------

def cmd_train(args) -> int:
    gen_cfg = _gen_config(args)
    model_cfg = DdtmConfig(d=args.d, heads=args.heads, ff_dim=args.ff_dim,
                           encoder_layers=args.enc_layers, decoder_layers=args.dec_layers)
    model_cfg.validate()
    train_cfg = TrainConfig(
        epochs=args.epochs, steps_per_epoch=args.steps, batch=args.batch,
        alpha=args.alpha, baseline=args.baseline, lr=args.lr,
        clip_norm=args.clip_norm, validation_size=args.val_size,
        seed_data=args.seed_data, seed_model=args.seed_model, seed_rollout=args.seed_rollout,
    )
    train_cfg.validate()
    out = _out_dir(args.out)
    _write_manifest(out, "train", {
        "gen": {"n": gen_cfg.n, "k": gen_cfg.k, "t_max": gen_cfg.t_max,
                "prize_mode": gen_cfg.prize_mode},
        "model": _model_manifest(model_cfg),
        "train": {"epochs": train_cfg.epochs, "steps": train_cfg.steps_per_epoch,
                  "batch": train_cfg.batch, "k_aug": train_cfg.k_aug,
                  "alpha": train_cfg.alpha, "baseline": train_cfg.baseline,
                  "lr": train_cfg.lr, "clip_norm": train_cfg.clip_norm,
                  "val_size": train_cfg.validation_size,
                  "seed_data": train_cfg.seed_data, "seed_model": train_cfg.seed_model,
                  "seed_rollout": train_cfg.seed_rollout},
    })
    print(f"training baseline={train_cfg.baseline} alpha={train_cfg.alpha} "
          f"epochs={train_cfg.epochs} steps={train_cfg.steps_per_epoch} batch={train_cfg.batch} "
          f"n={gen_cfg.n} K={gen_cfg.k}")

    def progress(report):
        print(f"epoch {report.epoch:3d}  train {report.train_reward:.4f}  "
              f"baseline {report.baseline_value:.4f}  entropy {report.entropy:.4f}  "
              f"val {report.val_score:.4f}  ({report.wall_time:.1f}s)")

    _, reports = train(None, model_cfg, train_cfg, gen_cfg, checkpoint_dir=out, progress=progress)
    with atomic_write(os.path.join(out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(metrics_rows(reports)) + "\n")
    with atomic_write(os.path.join(out, "timings.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,wall_time_s\n")
        for r in reports:
            fh.write(f"{r.epoch},{r.wall_time!r}\n")
    print(f"wrote {out}/metrics.csv and checkpoints best.ckpt/last.ckpt")
    return 0


# --- eval --------------------------------------------------------------------

def _infer_configs(args) -> dict:
    """Strategy -> InferConfig for ``--strategies``: a non-empty list of
    known strategies, each named once."""
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise UsageError("--strategies names no strategy")
    if len(set(strategies)) < len(strategies):
        raise UsageError(f"--strategies names a strategy twice: {','.join(strategies)}")
    configs = {s: InferConfig(strategy=s, sample_width=args.sample_width, seed=args.seed)
               for s in strategies}
    for icfg in configs.values():
        icfg.validate()
    return configs


def cmd_eval(args) -> int:
    configs = _infer_configs(args)
    strategies = list(configs)
    instances = load_dataset(args.dataset)
    if not instances:
        raise UsageError(f"dataset {args.dataset} is empty")
    params, model_cfg = DdtmParameters.load(args.checkpoint)
    out = _out_dir(args.out)

    per_strategy = {}
    times = {}
    for strategy, icfg in configs.items():
        t0 = time.perf_counter()
        rows = []
        for i, inst in enumerate(instances):
            try:
                sol, census = infer(inst, params, model_cfg, icfg)
            except InferenceError as err:
                raise InferenceError(f"instance {i}, strategy {strategy}: {err}") from err
            rows.append((i, sol.objective, census.count, sol.routes))
        per_strategy[strategy] = rows
        times[strategy] = time.perf_counter() - t0

    n = instances[0].n
    use_exact = args.reference == "exact" or (args.reference == "auto" and n <= EXACT_N_LIMIT)
    if use_exact:
        reference = []
        for i, inst in enumerate(instances):
            sol = solve_exact(inst)
            if not sol.optimal:
                raise RuntimeError(f"exact reference for instance {i} ran out of its node budget "
                                   f"after {sol.expansions} expansions; pass --reference best")
            reference.append(sol.objective)
        ref_label = "exact"
    else:
        reference = [max(per_strategy[s][i][1] for s in strategies) for i in range(len(instances))]
        ref_label = "best-of-methods"

    results_path = os.path.join(out, "results.csv")
    with atomic_write(results_path, "w", encoding="utf-8") as fh:
        fh.write("instance,strategy,reward,trajectories,routes\n")
        for strategy in strategies:
            for i, obj, count, routes in per_strategy[strategy]:
                routes_txt = ";".join("-".join(str(c) for c in r) for r in routes)
                fh.write(f"{i},{strategy},{obj!r},{count},{routes_txt}\n")

    table = [f"{'strategy':<12} {'obj':>8} {'gap':>8} {'time':>8}"]
    summary_rows = ["strategy,mean_objective,mean_gap_pct"]
    for strategy in strategies:
        objectives = [row[1] for row in per_strategy[strategy]]
        mean_obj, gap = float(np.mean(objectives)), _mean_gap_pct(reference, objectives)
        table.append(f"{strategy:<12} {mean_obj:>8.4f} {gap:>7.2f}% {times[strategy]:>7.1f}s")
        summary_rows.append(f"{strategy},{mean_obj!r},{gap!r}")
    with atomic_write(os.path.join(out, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary_rows) + "\n")
    with atomic_write(os.path.join(out, "timings.csv"), "w", encoding="utf-8") as fh:
        fh.write("strategy,wall_time_s,trajectories,trajectories_per_s\n")
        for strategy in strategies:
            count = sum(row[2] for row in per_strategy[strategy])
            fh.write(f"{strategy},{times[strategy]!r},{count},{count / times[strategy]!r}\n")
    _write_manifest(out, "eval", {
        "dataset": args.dataset, "checkpoint": args.checkpoint,
        "strategies": strategies, "sample_width": args.sample_width,
        "seed": args.seed, "reference": ref_label, "model": _model_manifest(model_cfg),
    })
    print(f"reference: {ref_label}")
    print("\n".join(table))
    return 0


# --- entry point ---------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="mstoplab", description=__doc__)
    parser.add_argument("--config", default=None, help="INI file with per-subcommand flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a dataset of random instances")
    _add_gen_flags(p)
    p.add_argument("--seed", type=int, default=GenConfig.seed)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run a classical solver over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=("exact", "brute", "tsili"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=EXACT_BUDGET)
    p.add_argument("--workers", type=int, default=0, help="0 = logical cores")
    p.add_argument("--force", action="store_true", help="override solver size limits")
    p.add_argument("--tsili-width", type=int, default=TsiliParams.samples)
    p.add_argument("--tsili-r", type=float, default=TsiliParams.exponent)
    p.add_argument("--tsili-candidates", type=int, default=TsiliParams.candidates)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", default=None, help="results.jsonl with reference objectives for gaps")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train the policy network")
    _add_gen_flags(p)
    p.add_argument("--d", type=int, default=DdtmConfig.d)
    p.add_argument("--heads", type=int, default=DdtmConfig.heads)
    p.add_argument("--ff-dim", type=int, default=DdtmConfig.ff_dim)
    p.add_argument("--enc-layers", type=int, default=DdtmConfig.encoder_layers)
    p.add_argument("--dec-layers", type=int, default=DdtmConfig.decoder_layers)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--steps", type=int, default=TrainConfig.steps_per_epoch)
    p.add_argument("--batch", type=int, default=TrainConfig.batch)
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p.add_argument("--baseline", choices=BASELINES, default=TrainConfig.baseline)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--clip-norm", type=float, default=TrainConfig.clip_norm)
    p.add_argument("--val-size", type=int, default=TrainConfig.validation_size)
    p.add_argument("--seed-data", type=int, default=TrainConfig.seed_data)
    p.add_argument("--seed-model", type=int, default=TrainConfig.seed_model)
    p.add_argument("--seed-rollout", type=int, default=TrainConfig.seed_rollout)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint with decoding strategies")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategies", default="greedy,perm,perm-aug")
    p.add_argument("--sample-width", type=int, default=InferConfig.sample_width)
    p.add_argument("--seed", type=int, default=InferConfig.seed)
    p.add_argument("--reference", choices=("auto", "exact", "best"), default="auto")
    p.set_defaults(func=cmd_eval)
    return parser


def _config_tokens(path, command, parser):
    """Turn one INI section into flag tokens (prepended, so real flags win).
    A flag that takes no value takes a configparser boolean (true/false,
    yes/no, on/off, 1/0) and is passed only when true."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path}")
    if command not in cp:
        return []
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(command)
    switches = {opt for a in (sub._actions if sub else ()) if a.nargs == 0 for opt in a.option_strings}
    section, tokens = cp[command], []
    for key, value in section.items():
        flag = "--" + key.replace("_", "-")
        if flag not in switches:
            tokens.extend([flag, value])
            continue
        try:
            on = section.getboolean(key)
        except ValueError:
            raise UsageError(f"config key '{key}' under [{command}] takes a boolean, "
                             f"got '{value}'") from None
        if on:
            tokens.append(flag)
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # Peel off --config and the subcommand so config defaults can be injected.
        pre = _Parser(add_help=False)
        pre.add_argument("--config", default=None)
        known, rest = pre.parse_known_args(argv)
        parser = build_parser()
        if known.config and rest:
            command = rest[0]
            rest = [command] + _config_tokens(known.config, command, parser) + rest[1:]
        args = parser.parse_args((["--config", known.config] if known.config else []) + rest)
        return args.func(args)
    except (UsageError, ValueError, FileNotFoundError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
