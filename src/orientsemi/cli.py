"""Command-line entry points.

Subcommands cover the full experiment lifecycle: synthesise scene
datasets, train (with component toggles), evaluate checkpoints, dump
sampled pseudo-labels, and run the two standalone verification sweeps
(transport solver invariants and overlap-rotation curves).

Every command prints exactly one JSON summary line to stdout on
success.  On failure an error record goes to stderr and the process
exits nonzero, so scripts can gate on the exit code alone.  The
``ORIENTSEMI_OUT`` environment variable sets the default output root
(falling back to ``./runs``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from orientsemi.records import canonical_line

OUTPUT_ROOT_ENV = "ORIENTSEMI_OUT"


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )


def _build_config(args):
    from orientsemi.config import RunConfig, apply_overrides, load_ini

    config = load_ini(args.config) if args.config else RunConfig()
    apply_overrides(config, args.overrides)
    return config


def _emit(record: dict) -> None:
    print(canonical_line(record))


def cmd_gen_scenes(args) -> int:
    from orientsemi.scenes import save_dataset

    config = _build_config(args)
    out = args.out or output_root() / "scenes"
    manifest = save_dataset(out, config.scene, count=args.count, seed=args.seed)
    _emit(
        {
            "command": "gen-scenes",
            "out": str(out),
            "count": manifest["count"],
            "seed": manifest["seed"],
            "layout": config.scene.layout,
        }
    )
    return 0


def _apply_train_flags(config, args) -> None:
    if args.supervised_only:
        config.semi.supervised_only = True
    if args.no_gaw:
        config.semi.enable_gaw = False
    if args.no_ngc:
        config.semi.enable_ngc = False
    if args.sampler is not None:
        config.semi.sampler = args.sampler
    if args.seed is not None:
        config.semi.seed = args.seed


def cmd_train(args) -> int:
    from orientsemi.config import save_ini
    from orientsemi.scenes import SceneDataset
    from orientsemi.training import check_run, run_training

    config = _build_config(args)
    _apply_train_flags(config, args)
    labeled = SceneDataset(args.labeled)
    unlabeled = SceneDataset(args.unlabeled) if args.unlabeled else None
    # Before anything is written: a run that cannot start leaves no files.
    check_run(config, labeled, unlabeled)
    out = args.out or output_root() / "train"
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save_ini(config, out / "config.ini")
    started = time.perf_counter()
    state, metrics = run_training(
        config,
        labeled,
        unlabeled,
        out_dir=out,
        resume_from=args.resume,
        checkpoint_every=args.checkpoint_every,
        dump_pseudo=args.dump_pseudo,
        stop_after=args.stop_after,
    )
    _emit(
        {
            "command": "train",
            "out": str(out),
            "iterations": state.iteration,
            "config_digest": config.digest(),
            "has_teacher": state.teacher is not None,
            "final_loss_total": metrics[-1]["loss_total"] if metrics else None,
            "seconds": round(time.perf_counter() - started, 3),
        }
    )
    return 0


def cmd_eval(args) -> int:
    from orientsemi.evaluation import evaluate_model
    from orientsemi.scenes import SceneDataset
    from orientsemi.training import load_checkpoint

    state = load_checkpoint(args.checkpoint)
    if args.model == "teacher" and state.teacher is None:
        raise ValueError("checkpoint has no teacher weights (supervised-only or pre-burn-in)")
    if args.model == "auto":
        model = "teacher" if state.teacher is not None else "student"
    else:
        model = args.model
    params = state.teacher if model == "teacher" else state.student
    dataset = SceneDataset(args.dataset)
    thresholds = (
        [float(t) for t in args.thresholds.split(",")] if args.thresholds else None
    )
    result = evaluate_model(
        params,
        dataset,
        state.config.detector,
        **({"thresholds": thresholds} if thresholds else {}),
        score_floor=args.score_floor,
        nms_iou=args.nms_iou,
        max_detections=args.max_detections,
    )
    result["checkpoint"] = str(args.checkpoint)
    result["dataset"] = str(args.dataset)
    result["model"] = model
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(canonical_line(result) + "\n")
    _emit(result)
    return 0


def cmd_dump_pseudo(args) -> int:
    from orientsemi.detector import predict_dense
    from orientsemi.records import write_records
    from orientsemi.scenes import SceneDataset
    from orientsemi.training import load_checkpoint, pseudo_record, sample_pairs

    state = load_checkpoint(args.checkpoint)
    params = state.teacher if state.teacher is not None else state.student
    dataset = SceneDataset(args.dataset)
    config = state.config
    rng = np.random.default_rng(args.seed)
    count = len(dataset) if args.count is None else min(args.count, len(dataset))
    records = []
    for i in range(count):
        prediction = predict_dense(params, dataset.channels(i), config.detector)
        pairs = sample_pairs(prediction, config, rng)
        records.append(pseudo_record(state.iteration, dataset.scenes[i].scene_id, False, pairs))
    out = args.out or output_root() / "pseudo.jsonl"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    n = write_records(out, records)
    _emit(
        {
            "command": "dump-pseudo",
            "out": str(out),
            "scenes": n,
            "total_pairs": int(sum(r["n_pairs"] for r in records)),
            "sampler": config.semi.sampler,
        }
    )
    return 0


def _lp_cost(problem) -> float:
    """Unregularised optimum via linear programming, for cross-checking
    the entropic solver at small epsilon on small instances."""
    from scipy.optimize import linprog

    n, m = problem.cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([problem.source, problem.target])
    result = linprog(
        problem.cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if result.status != 0:
        raise RuntimeError(f"LP cross-check failed: {result.message}")
    return float(result.fun)


def cmd_ot_bench(args) -> int:
    from orientsemi.records import write_records
    from orientsemi.transport import (
        LOG_DOMAIN_EPSILON,
        TransportProblem,
        sinkhorn_solve,
    )

    sizes = [int(s) for s in args.sizes.split(",")]
    epsilons = [float(e) for e in args.epsilons.split(",")]
    rng = np.random.default_rng(args.seed)
    records = []
    all_ok = True
    for n in sizes:
        cost = rng.uniform(0.0, 2.0, size=(n, n))
        source = rng.uniform(0.5, 1.5, size=n)
        target = rng.uniform(0.5, 1.5, size=n)
        problem = TransportProblem(
            cost=cost, source=source / source.sum(), target=target / target.sum()
        )
        lp_cost = _lp_cost(problem) if n <= args.lp_max_n else None
        for epsilon in epsilons:
            started = time.perf_counter()
            solution = sinkhorn_solve(problem, epsilon=epsilon, max_iters=args.max_iters)
            seconds = time.perf_counter() - started
            dual = solution.dual_value(problem.source, problem.target)
            gap = solution.cost_value - dual
            bound = epsilon * np.log(n * n)
            ok = bool(solution.converged) and bool(abs(gap) <= bound + 1e-9)
            all_ok = all_ok and ok
            record = {
                "n": n,
                "m": n,
                "epsilon": epsilon,
                "solver": "log" if epsilon <= LOG_DOMAIN_EPSILON else "scaling",
                "iterations": int(solution.iterations),
                "converged": bool(solution.converged),
                "marginal_error": float(solution.marginal_error),
                "cost_value": solution.cost_value,
                "dual_value": dual,
                "duality_gap": gap,
                "entropy_bound": bound,
                "gap_within_bound": bool(abs(gap) <= bound + 1e-9),
                "seconds": round(seconds, 6),
            }
            if lp_cost is not None:
                record["lp_cost"] = lp_cost
                record["lp_abs_diff"] = abs(solution.cost_value - lp_cost)
            records.append(record)
    out = args.out or output_root() / "ot_bench.jsonl"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    write_records(out, records)
    _emit(
        {
            "command": "ot-bench",
            "out": str(out),
            "cases": len(records),
            "all_within_bound": all_ok,
        }
    )
    return 0


def cmd_iou_curves(args) -> int:
    from orientsemi.geometry import iou_rotation_curve
    from orientsemi.records import write_records

    aspects = [float(a) for a in args.aspects.split(",")]
    angles = np.linspace(0.0, args.max_angle, args.steps)
    octant = angles <= np.pi / 4 + 1e-12
    records = []
    for aspect in aspects:
        curve = iou_rotation_curve(aspect, angles)
        first = curve[octant]
        records.append(
            {
                "aspect": aspect,
                "angles": [round(float(a), 10) for a in angles],
                "iou": [round(float(v), 10) for v in curve],
                "monotone_first_octant": bool(np.all(np.diff(first) <= 1e-12)),
                "iou_at_tenth_radian": float(np.interp(0.1, angles, curve)),
            }
        )
    out = args.out or output_root() / "iou_curves.jsonl"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    write_records(out, records)
    _emit(
        {
            "command": "iou-curves",
            "out": str(out),
            "aspects": aspects,
            "all_monotone_first_octant": bool(
                all(r["monotone_first_octant"] for r in records)
            ),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from orientsemi import evaluation

    parser = argparse.ArgumentParser(
        prog="orientsemi",
        description="Semi-supervised oriented object detection on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenes", help="synthesise and save a scene dataset")
    _add_config_args(p)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("train", help="run the teacher-student training loop")
    _add_config_args(p)
    p.add_argument("--labeled", type=Path, required=True, help="labeled dataset dir")
    p.add_argument("--unlabeled", type=Path, default=None, help="unlabeled dataset dir")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--supervised-only", action="store_true")
    p.add_argument("--no-gaw", action="store_true", help="disable pair-loss geometry weighting")
    p.add_argument("--no-ngc", action="store_true", help="disable the global consistency term")
    p.add_argument("--sampler", choices=["sids", "topk"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to continue from")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--stop-after", type=int, default=None)
    p.add_argument("--dump-pseudo", action="store_true", help="record sampled pseudo-labels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--model", choices=["auto", "student", "teacher"], default="auto")
    p.add_argument("--thresholds", type=str, default=None, help="comma-separated IoU thresholds")
    p.add_argument("--score-floor", type=float, default=evaluation.SCORE_FLOOR)
    p.add_argument("--nms-iou", type=float, default=evaluation.NMS_IOU)
    p.add_argument("--max-detections", type=int, default=evaluation.MAX_DETECTIONS)
    p.add_argument("--out", type=Path, default=None, help="also write the summary to a file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dump-pseudo", help="sample pseudo-labels from a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_dump_pseudo)

    p = sub.add_parser("ot-bench", help="sweep the transport solver and check invariants")
    p.add_argument("--sizes", type=str, default="8,32,128")
    p.add_argument("--epsilons", type=str, default="0.3,0.1,0.05,0.02")
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--lp-max-n", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_ot_bench)

    p = sub.add_parser("iou-curves", help="overlap-vs-rotation curves per aspect ratio")
    p.add_argument("--aspects", type=str, default="1,2,4,8")
    p.add_argument("--steps", type=int, default=91)
    p.add_argument("--max-angle", type=float, default=float(np.pi / 2))
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_iou_curves)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        record = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        print(canonical_line(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
