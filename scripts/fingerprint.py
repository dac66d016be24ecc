#!/usr/bin/env python3
"""Output fingerprint for pure refactors.

Runs ``gen-scenes``, ``train --dump-pseudo``, ``dump-pseudo`` and
``eval`` in-process through ``orientsemi.cli.main`` for two fixed
configs, then prints one sha256 per output file.  Run it on a checkout
before and after a change that must not alter behaviour; every line
must match.

- ``A``: ``configs/benchmark10.ini`` at 600 iterations with the
  consistency gate at 60 pairs and noise on, so the noisy transport term
  runs on every unsupervised step that samples any pairs (538 of 540)
  and easy pairs appear.
- ``B``: A with the top-k sampler, the pair weighting off and the gate
  at 20 pairs.

Usage: ``python3 scripts/fingerprint.py OUT_DIR``.  OUT_DIR must not
exist yet.  Commands run inside OUT_DIR with relative paths, so the eval
record does not depend on where OUT_DIR is.
"""

import argparse
import hashlib
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orientsemi.cli import main as cli_main  # noqa: E402

BASE = [
    "semi.total_iters=600",
    "tab1.global_threshold=60",
    "tab1.beta=0.3",
]
CONFIGS = {
    "A": BASE,
    "B": BASE + ["semi.sampler=topk", "semi.enable_gaw=false", "tab1.global_threshold=20"],
}
SPLITS = (("labeled", 40, 1), ("unlabeled", 60, 2))


def run(argv: list[str]) -> None:
    if cli_main(argv) != 0:
        raise SystemExit(f"command failed: {' '.join(argv)}")


def run_config(name: str, overrides: list[str]) -> None:
    config = ["--config", str(ROOT / "configs" / "benchmark10.ini")]
    for item in overrides:
        config += ["--set", item]
    for split, count, seed in SPLITS:
        run(["gen-scenes", *config, "--out", f"{name}/{split}", "--count", str(count), "--seed", str(seed)])
    run(["train", *config, "--labeled", f"{name}/labeled", "--unlabeled", f"{name}/unlabeled",
         "--out", f"{name}/train", "--dump-pseudo"])
    run(["dump-pseudo", "--checkpoint", f"{name}/train/checkpoint.bin", "--dataset", f"{name}/unlabeled",
         "--out", f"{name}/dump-pseudo.jsonl"])
    run(["eval", "--checkpoint", f"{name}/train/checkpoint.bin", "--dataset", f"{name}/labeled",
         "--out", f"{name}/eval.jsonl"])


def digests(out: Path) -> list[str]:
    """One line per output file; the channel stacks of a split fold into
    one line over their per-file digests."""
    lines = []
    stacks = defaultdict(list)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        rel = path.relative_to(out)
        if path.suffix == ".npy":
            stacks[rel.parent / "scene_*.npy"].append(digest)
        else:
            lines.append(f"{digest}  {rel}")
    for rel, parts in stacks.items():
        lines.append(f"{hashlib.sha256(''.join(parts).encode()).hexdigest()}  {rel}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory (must not exist)")
    out = parser.parse_args(argv).out.resolve()
    out.mkdir(parents=True)
    os.chdir(out)
    for name, overrides in CONFIGS.items():
        run_config(name, overrides)
    # The command summaries go to stdout first; the digests come last.
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
