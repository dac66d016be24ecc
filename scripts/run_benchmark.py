#!/usr/bin/env python3
"""Component study on the bundled synthetic benchmark.

Trains a grid of (variant, seed) runs and appends one study record per
run to ``study.jsonl``.  Variants toggle the unsupervised machinery:

- ``supervised-only``: labeled data only, no teacher.
- ``sampler-only``:    dense pseudo-label pairs, unweighted, no
                       distribution alignment.
- ``no-gaw``:          alignment on, geometry weighting off.
- ``no-ngc``:          geometry weighting on, alignment off.
- ``full``:            everything on.

Datasets are generated once under ``--data`` and reused on later
invocations, so repeated studies are cheap and byte-reproducible.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from orientsemi.cli import output_root
from orientsemi.config import apply_overrides, load_ini
from orientsemi.evaluation import FULL_THRESHOLDS, evaluate_model
from orientsemi.records import append_record, validate_record
from orientsemi.scenes import SceneDataset, save_dataset
from orientsemi.training import run_training

VARIANTS = {
    "supervised-only": ["semi.supervised_only=true"],
    "sampler-only": ["semi.enable_gaw=false", "semi.enable_ngc=false"],
    "no-gaw": ["semi.enable_gaw=false"],
    "no-ngc": ["semi.enable_ngc=false"],
    "full": [],
}

DATASET_SEEDS = {"labeled": 1000, "unlabeled": 2000, "test": 3000}


def ensure_dataset(root: Path, name: str, config, count: int) -> SceneDataset:
    """Generate the split once; later calls reuse the files on disk while
    their manifest matches the requested count, seed and scene config."""
    split_dir = root / name
    manifest_path = split_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        wanted = {"count": count, "seed": DATASET_SEEDS[name], "config": dataclasses.asdict(config)}
        if all(manifest.get(key) == value for key, value in wanted.items()):
            return SceneDataset(split_dir)
    save_dataset(split_dir, config, count, DATASET_SEEDS[name])
    return SceneDataset(split_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=Path(__file__).resolve().parent.parent / "configs" / "benchmark10.ini")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--data", type=Path, default=None)
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--variants", default=",".join(VARIANTS))
    parser.add_argument("--labeled-count", type=int, default=200)
    parser.add_argument("--unlabeled-count", type=int, default=1800)
    parser.add_argument("--test-count", type=int, default=100)
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE")
    args = parser.parse_args(argv)

    out_dir = args.out if args.out is not None else output_root() / "benchmark"
    data_dir = args.data if args.data is not None else out_dir / "data"
    out_dir.mkdir(parents=True, exist_ok=True)

    base = load_ini(args.config)
    apply_overrides(base, args.overrides)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise SystemExit(f"unknown variants: {sorted(unknown)}")

    labeled = ensure_dataset(data_dir, "labeled", base.scene, args.labeled_count)
    unlabeled = ensure_dataset(data_dir, "unlabeled", base.scene, args.unlabeled_count)
    test = ensure_dataset(data_dir, "test", base.scene, args.test_count)

    study_path = out_dir / "study.jsonl"
    results: dict[tuple[str, int], dict] = {}
    for variant in variants:
        for seed in seeds:
            overrides = args.overrides + VARIANTS[variant] + [f"semi.seed={seed}"]
            config = load_ini(args.config)
            apply_overrides(config, overrides)
            run_dir = out_dir / f"{variant}-s{seed}"
            t0 = time.perf_counter()
            state, _ = run_training(config, labeled, unlabeled, out_dir=run_dir)
            train_seconds = time.perf_counter() - t0
            # Always score the student: every variant then compares the same
            # model role and only the training signal differs.  The teacher
            # is internal machinery (it generates the targets), not the
            # deliverable.  Evaluation knobs are fixed at the eval defaults,
            # decoupled from the sampler's pseudo-label admission floor.
            report = evaluate_model(
                state.student,
                test,
                config.detector,
                thresholds=FULL_THRESHOLDS,
            )
            record = {
                "variant": variant,
                "seed": seed,
                "map50": report["map50"],
                "ap85": report["ap85"],
                "map50_95": report["map50_95"],
                "model": "student",
                "train_seconds": train_seconds,
                "config_digest": config.digest(),
                "overrides": overrides,
            }
            validate_record(record, "study")
            append_record(study_path, record)
            results[(variant, seed)] = record
            print(
                f"{variant:16s} seed {seed}  mAP50 {100 * record['map50']:5.1f}  "
                f"mAP50:95 {100 * record['map50_95']:5.1f}  ({train_seconds:.0f}s)",
                flush=True,
            )

    print()
    for variant in variants:
        rows = [results[(variant, s)] for s in seeds if (variant, s) in results]
        if rows:
            mean50 = sum(r["map50"] for r in rows) / len(rows)
            print(f"{variant:16s} mean mAP50 {100 * mean50:5.1f} over {len(rows)} seed(s)")
    print(f"\nstudy records: {study_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
