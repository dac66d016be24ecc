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

``--check FILE`` compares the lines with a baseline written by
``--write FILE`` (OUT_DIR is then optional; a temporary directory is
used without it).  The bits depend on NumPy's SIMD ``exp``, SciPy's
``expit`` and the BLAS kernels, so a baseline records the machine it was
made on: the Python, NumPy and SciPy versions, NumPy's BLAS and the SIMD
extensions NumPy found.  Exit status of ``--check``: 0 when every line
matches; 1 when a line differs on a machine that matches the baseline's;
2 when a line differs and the machine does not match, which cannot tell
a change of behaviour from a change of arithmetic.
"""

import argparse
import hashlib
import os
import platform
import sys
import tempfile
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


def machine() -> dict[str, str]:
    """What the fingerprint's bits depend on, beyond the source."""
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": " ".join(config["SIMD Extensions"]["found"]),
    }


def baseline_text(lines: list[str], fields: dict[str, str]) -> str:
    return "".join(f"# {key}: {value}\n" for key, value in fields.items()) + "".join(f"{line}\n" for line in lines)


def check(baseline: str, lines: list[str], fields: dict[str, str]) -> tuple[int, str]:
    """The ``--check`` exit status and report for ``lines`` made on a
    machine described by ``fields``, against a baseline file's text."""
    recorded = dict(
        line[2:].split(": ", 1) for line in baseline.splitlines() if line.startswith("# ") and ": " in line
    )
    expected = [line for line in baseline.splitlines() if line and not line.startswith("#")]
    if lines == expected:
        return 0, f"fingerprint: all {len(lines)} lines match the baseline"
    old, new = set(expected), set(lines)
    report = [f"fingerprint: {len(new - old)} of {len(lines)} lines differ from the baseline"]
    report += [f"  baseline {line}" for line in expected if line not in new]
    report += [f"  now      {line}" for line in lines if line not in old]
    moved = [f"{key} {recorded.get(key)} -> {value}" for key, value in fields.items() if recorded.get(key) != value]
    if not moved:
        return 1, "\n".join(report)
    report.append("fingerprint: the baseline was made on another machine (" + "; ".join(moved) + "), "
                  "so the difference may be arithmetic, not behaviour")
    return 2, "\n".join(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?",
                        help="output directory (must not exist); optional with --check or --write")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", type=Path, metavar="FILE", help="compare the lines with this baseline")
    mode.add_argument("--write", type=Path, metavar="FILE", help="write the lines and the machine to this baseline")
    args = parser.parse_args(argv)
    if args.out is None and args.check is None and args.write is None:
        parser.error("OUT_DIR is required without --check or --write")
    with tempfile.TemporaryDirectory() as scratch:
        out = (args.out or Path(scratch) / "out").resolve()
        out.mkdir(parents=True)
        cwd = os.getcwd()
        os.chdir(out)
        try:
            for name, overrides in CONFIGS.items():
                run_config(name, overrides)
            lines = digests(out)
        finally:
            os.chdir(cwd)
    # The command summaries go to stdout first; the digests come last.
    print("\n".join(lines))
    if args.write is not None:
        args.write.write_text(baseline_text(lines, machine()))
    if args.check is not None:
        status, report = check(args.check.read_text(), lines, machine())
        print(report, file=sys.stderr)
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
