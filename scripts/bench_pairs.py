#!/usr/bin/env python3
"""Paired end-to-end benchmark of two revisions, written to one JSON file.

Exports PARENT_TREE and CHANGE_TREE (any git tree-ish of this
repository: a commit, branch or tag) with ``git archive`` into their own
directories, then runs ``perfbench/run.py --trace 0`` in each, K pairs
per workload of ``BENCHMARK.json``.  Pair i runs both sides on seed
FIRST_SEED + i; the parent runs first in even pairs and the change
first in odd ones, so a drift of the machine during the session falls
on both sides alike.  Each side runs its own ``perfbench``.

    python3 scripts/bench_pairs.py HEAD~1 HEAD --pairs 10 --first-seed 1801 --out BENCH_18.json

The file holds the two revisions and the seeds; the machine (Python,
NumPy and SciPy versions, ``nproc``, NumPy's BLAS build and the BLAS
thread count of the runs); every run's metrics; and per workload and
end-to-end metric each side's median and quartiles and the number of
pairs in which the change read lower.  ``validate`` checks a file
against ``SCHEMA`` and recomputes its summaries from its runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# The runs' BLAS threads; perfbench/run.py pins the same count itself.
BLAS_THREADS = 1

_STATS = {
    "type": "object",
    "required": ["median", "q1", "q3"],
    "additionalProperties": False,
    "properties": {name: {"type": "number"} for name in ("median", "q1", "q3")},
}
_SIDE_RUN = {
    "type": "object",
    "required": ["correct", "failed", "metrics"],
    "additionalProperties": False,
    "properties": {
        "correct": {"type": "boolean"},
        "failed": {"type": "integer", "minimum": 0},
        "metrics": {"type": "object", "additionalProperties": {"type": "number"}},
    },
}
SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["format", "revisions", "seeds", "pairs", "run_seconds", "machine", "workloads"],
    "additionalProperties": False,
    "properties": {
        "format": {"const": "bench_pairs/1"},
        "revisions": {
            "type": "object",
            "required": list(SIDES),
            "additionalProperties": False,
            "properties": {side: {"type": "string", "pattern": "^[0-9a-f]{40}$"} for side in SIDES},
        },
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "pairs": {"type": "integer", "minimum": 1},
        "run_seconds": {"type": "number", "exclusiveMinimum": 0},
        "machine": {
            "type": "object",
            "required": ["python", "numpy", "scipy", "nproc", "blas", "blas_threads"],
            "additionalProperties": False,
            "properties": {
                "python": {"type": "string"},
                "numpy": {"type": "string"},
                "scipy": {"type": "string"},
                "nproc": {"type": "integer", "minimum": 1},
                "blas": {
                    "type": "object",
                    "required": ["name", "version"],
                    "properties": {"name": {"type": "string"}, "version": {"type": "string"}},
                },
                "blas_threads": {"type": "integer", "minimum": 1},
            },
        },
        "workloads": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "required": ["runs", "metrics"],
                "additionalProperties": False,
                "properties": {
                    "runs": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["seed", "first", *SIDES],
                            "additionalProperties": False,
                            "properties": {
                                "seed": {"type": "integer"},
                                "first": {"enum": list(SIDES)},
                                **{side: _SIDE_RUN for side in SIDES},
                            },
                        },
                    },
                    "metrics": {
                        "type": "object",
                        "minProperties": 1,
                        "additionalProperties": {
                            "type": "object",
                            "required": ["unit", "better", *SIDES, "change_lower"],
                            "additionalProperties": False,
                            "properties": {
                                "unit": {"type": "string"},
                                "better": {"enum": ["lower", "higher"]},
                                **{side: _STATS for side in SIDES},
                                "change_lower": {"type": "integer", "minimum": 0},
                            },
                        },
                    },
                },
            },
        },
    },
}


def machine() -> dict:
    """The interpreter and libraries the runs use: this interpreter's."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {key: str(blas[key]) for key in ("name", "version", "openblas configuration") if key in blas},
        "blas_threads": BLAS_THREADS,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles over the
    runs, and the pairs in which the change read lower."""
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: quartiles(values[side]) for side in SIDES},
            "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
        }
    return out


def validate(document: dict) -> None:
    """Raise ``ValueError`` if ``document`` breaks ``SCHEMA`` or its
    seeds, pair counts and summaries disagree with its runs."""
    import jsonschema

    try:
        jsonschema.validate(document, SCHEMA)
    except jsonschema.ValidationError as error:
        raise ValueError(f"schema: {error.message}") from None
    if len(document["seeds"]) != document["pairs"]:
        raise ValueError(f"{len(document['seeds'])} seeds for {document['pairs']} pairs")
    for name, workload in document["workloads"].items():
        runs = workload["runs"]
        if [run["seed"] for run in runs] != document["seeds"]:
            raise ValueError(f"{name}: the runs' seeds are not the file's seeds")
        if [run["first"] for run in runs] != [SIDES[i % 2] for i in range(len(runs))]:
            raise ValueError(f"{name}: the sides do not alternate, parent first")
        end_to_end = [{"name": metric, "unit": summary["unit"], "better": summary["better"]}
                      for metric, summary in workload["metrics"].items()]
        try:
            expected = summarize(runs, end_to_end)
        except KeyError as missing:
            raise ValueError(f"{name}: a run lacks the metric {missing}") from None
        if expected != workload["metrics"]:
            raise ValueError(f"{name}: the summaries do not follow from the runs")


def export(tree: str, into: Path) -> str:
    """``git archive`` of ``tree`` extracted into ``into``; returns the
    commit it names."""
    revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{tree}^{{commit}}"],
                              capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return revision


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench`` run; its last stdout line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS))
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(command)} exited {result.returncode}:\n{result.stderr}")
    line = json.loads(result.stdout.strip().splitlines()[-1])
    return {
        "correct": line["correct"],
        "failed": line["failed"],
        "metrics": {name: entry["value"] for name, entry in line["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_TREE", help="git tree-ish of the parent")
    parser.add_argument("change", metavar="CHANGE_TREE", help="git tree-ish of the change")
    parser.add_argument("--pairs", type=int, required=True, metavar="K")
    parser.add_argument("--first-seed", type=int, required=True, help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [args.first_seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        revisions = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        workloads = {}
        for workload in benchmark["workloads"]:
            name = workload["name"]
            runs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(trees[side], name, seed, benchmark["run_seconds"])
                    print(f"bench_pairs: {name} pair {i} {side}: {run[side]['metrics']}", file=sys.stderr)
                runs.append(run)
            workloads[name] = {"runs": runs, "metrics": summarize(runs, benchmark["end_to_end"])}
    document = {
        "format": "bench_pairs/1",
        "revisions": revisions,
        "seeds": seeds,
        "pairs": args.pairs,
        "run_seconds": benchmark["run_seconds"],
        "machine": machine(),
        "workloads": workloads,
    }
    validate(document)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
