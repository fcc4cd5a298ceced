"""Command-line interface.

Subcommands: bench, episode, render, gfm-inspect, distill-record.  The
tensor-op oracle checks live in tests/test_nn.py.
Exit code 0 on success; failures print one machine-parsable line to stderr:
``error: <kind>: <message>``.  The --config option (or GRASPSIM_CONFIG)
points at a key=value file overriding the documented defaults; ``main``
loads it once and hands that ``SimConfig`` to the subcommand.  Every output file is
written atomically: to a temporary file beside it, renamed into place once
complete, so a failed run leaves the earlier file (or none), never a part.
"""

from __future__ import annotations

import argparse
import os
import sys

from .atomicfile import atomic_write, check_output_path
from .camera import dump_frame, render_views
from .config import load_config
from .distill import record_distillation
from .episode import decisions, episode_bank, run_episode
from .errors import GraspSimError, InvalidArgumentError, check_integer
from .gfm import alignment_gfm_weights, gfm_forward, save_bank
from .metrics import DEFAULT_STEP_BUDGET, episode_config, run_benchmark, summaries_to_jsonl
from .nn import VIEWS
from .scene import EpisodeConfig, load_catalog, reset_episode
from .se3 import vec6_encode
from .teacher import cached_object_feature


def _check_sweep_seed(seed: int) -> None:
    """derive_seed's 31-bit mask would run a seed of 2**31 or more as a lower one."""
    if not 0 <= seed < 2**31:
        raise InvalidArgumentError(f"--seed must be in 0..{2**31 - 1}, got {seed}")


def _cmd_bench(args, cfg) -> int:
    _check_sweep_seed(args.seed)
    if not os.path.isdir(args.out):                   # else the run reuses it
        check_output_path(args.out)
        if os.path.exists(args.out):
            raise InvalidArgumentError(f"--out is not a directory: {args.out}")
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError as exc:   # int()'s message names the bad token
        raise InvalidArgumentError(
            f"--levels takes comma-separated integers: {exc}") from None
    report, csv_text, summaries = run_benchmark(
        levels,
        episodes_per_level=args.episodes,
        step_budget=args.steps,
        split=args.split,
        seed=args.seed,
        workers=args.workers,
        use_gfm=not args.no_gfm,
        sim_cfg=cfg,
    )
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "metrics.csv")
    log_path = os.path.join(args.out, "episodes.jsonl")
    # Nested: a failed write of either file renames neither.  The renames run
    # in turn, episodes.jsonl first and metrics.csv last (the commit marker).
    with atomic_write(csv_path, "w", encoding="ascii", newline="") as csv_fh, \
            atomic_write(log_path, "w", encoding="ascii", newline="") as log_fh:
        csv_fh.write(csv_text)
        log_fh.write(summaries_to_jsonl(summaries))
    for row in report.rows:
        if row.category == "all":
            tsc = "-" if row.tsc is None else f"{row.tsc:.2f}"
            print(f"level {row.level}: n={row.n_episodes} "
                  f"GSR={row.gsr:.1f}% OSSR={row.ossr:.1f}% TSC={tsc}")
    print(f"wrote {csv_path} and {log_path}")
    return 0


def _cmd_episode(args, cfg) -> int:
    config = EpisodeConfig(level=args.level, object_id=args.object, seed=args.seed,
                           timeout_steps=cfg.timeout_steps)
    if args.dump_log is not None:
        check_output_path(args.dump_log)
    log = run_episode(config, sim_cfg=cfg, log_steps=args.dump_log is not None)
    print(f"outcome={log.outcome} steps={log.n_steps} "
          f"attempts={log.attempt_count} success_step={log.success_step}")
    if args.dump_log is not None:
        with atomic_write(args.dump_log, "w", encoding="ascii", newline="") as fh:
            fh.write(log.to_json() + "\n")
        print(f"wrote {args.dump_log}")
    return 0


def _cmd_render(args, cfg) -> int:
    check_integer("--step", args.step, 0)
    if not args.out_dir:                              # found before the episode runs
        raise InvalidArgumentError("output path is empty")
    head = os.path.abspath(args.out_dir)              # makedirs makes what is missing
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise InvalidArgumentError(f"--out-dir: not a directory: {head}")
    catalog = load_catalog()
    config = EpisodeConfig(level=args.level, object_id=args.object or catalog[0].id,
                           seed=args.seed, timeout_steps=cfg.timeout_steps)
    for step, seen, *_ in decisions(config, cfg, catalog=catalog):
        if step == args.step:
            break
    else:
        raise InvalidArgumentError(f"--step {args.step} is past the episode's end: "
                                   f"its last decision step is {step}")
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    frames = render_views(*seen, cfg, config.seed, args.step)
    for frame, name in zip(frames, VIEWS):
        written += dump_frame(frame, os.path.join(args.out_dir,
                                                  f"step{args.step:04d}_{name}"))
    print("wrote " + " ".join(written))
    return 0


def _cmd_gfm_inspect(args, cfg) -> int:
    if args.save is not None:
        check_output_path(args.save)
    config = EpisodeConfig(level=1, object_id=args.object, seed=args.seed)
    scene = reset_episode(config, load_catalog())
    spec = scene.object_spec
    bank = episode_bank(spec, cfg, args.seed)
    feat = cached_object_feature(spec)
    fused, alphas = gfm_forward(feat, scene.object_pose, bank,
                                alignment_gfm_weights())
    print(f"object {spec.id} ({spec.shape}, dims {spec.dims}); "
          f"bank size {len(bank)} of K={bank.k}")
    for i, (cand, a) in enumerate(zip(bank.candidates, alphas)):
        v = vec6_encode(cand.pose)
        vec = " ".join(f"{x:+.4f}" for x in v)
        print(f"  [{i:02d}] score={cand.score:.3f} alpha={a:.4f}  {vec}")
    fused_v = " ".join(f"{x:+.4f}" for x in vec6_encode(fused))
    print(f"fused world grasp: {fused_v}")
    if args.save is not None:
        save_bank(bank, args.save)
        print(f"wrote {args.save}")
    return 0


def _cmd_distill_record(args, cfg) -> int:
    _check_sweep_seed(args.seed)
    check_integer("--episodes", args.episodes, 1)
    paths = ([f"{args.out}.ep{i:03d}" for i in range(args.episodes)]
             if args.episodes > 1 and args.out else [args.out])  # "" stays an error
    for path in paths:
        check_output_path(path)
    catalog = load_catalog()
    objects = [s for s in catalog if s.split == "seen"]
    total = 0
    for i, path in enumerate(paths):
        config = episode_config(args.level, objects, args.seed, i, cfg.timeout_steps)
        log, obs = run_episode(config, sim_cfg=cfg, collect_observations=True)
        n = record_distillation(log, obs, path)
        total += n
        print(f"episode {i}: {config.object_id} outcome={log.outcome} records={n} -> {path}")
    print(f"total records: {total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="graspsim",
                                description="desk-scale dynamic grasping benchmark")
    p.add_argument("--config", default=None,
                   help="key=value config file (or set GRASPSIM_CONFIG)")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the seeded benchmark sweep")
    b.add_argument("--levels", default="1,2,3,4")
    group = b.add_mutually_exclusive_group()
    group.add_argument("--episodes", type=int, default=None,
                       help="episodes per level")
    group.add_argument("--steps", type=int, default=None,
                       help=f"decision-step budget per level (default {DEFAULT_STEP_BUDGET})")
    b.add_argument("--split", choices=("seen", "unseen", "both"), default="seen")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default="bench_out")
    b.add_argument("--workers", type=int, default=0,
                   help="episodes run in this many processes at once, capped at "
                        "the CPU count (0 or 1: serial); output bytes are the same")
    b.add_argument("--no-gfm", action="store_true",
                   help="ablation: aim at the object centroid")
    b.set_defaults(func=_cmd_bench)

    e = sub.add_parser("episode", help="run one episode")
    e.add_argument("--level", type=int, required=True)
    e.add_argument("--object", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--dump-log", default=None, metavar="PATH",
                   help="write the per-step log as one JSON line; the per-step "
                        "rewards are computed only with this flag")
    e.set_defaults(func=_cmd_episode)

    r = sub.add_parser("render", help="dump mask/depth frames as PGM")
    r.add_argument("--level", type=int, default=1)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--step", type=int, default=0, help="render the frames that the "
                   "episode's decision step N sees (its robot and scene)")
    r.add_argument("--object", default=None)
    r.add_argument("--out-dir", default="frames")
    r.set_defaults(func=_cmd_render)

    g = sub.add_parser("gfm-inspect", help="print a grasp bank and its alphas")
    g.add_argument("--object", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--save", default=None, help="also export the bank file")
    g.set_defaults(func=_cmd_gfm_inspect)

    d = sub.add_parser("distill-record", help="record teacher supervision pairs")
    d.add_argument("--episodes", type=int, default=1)
    d.add_argument("--level", type=int, default=1)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default="distill.bin")
    d.set_defaults(func=_cmd_distill_record)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config))
    except (GraspSimError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
