"""The committed paired-benchmark record against the schema and the
summaries its runs imply; never runs the benchmark."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
RECORD = ROOT / "BENCH_18.json"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script()


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_committed_record_is_valid(record):
    bench_pairs.validate(record)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record["workloads"]) == {workload["name"] for workload in benchmark["workloads"]}
    for workload in record["workloads"].values():
        assert set(workload["metrics"]) == {metric["name"] for metric in benchmark["end_to_end"]}
        assert all(run[side]["correct"] for run in workload["runs"] for side in bench_pairs.SIDES)


def _drop_machine_field(doc):
    del doc["machine"]["nproc"]


def _short_revision(doc):
    doc["revisions"]["change"] = doc["revisions"]["change"][:12]


def _moved_median(doc):
    doc["workloads"]["semi-full"]["metrics"]["peak_rss_mb"]["change"]["median"] -= 1.0


def _moved_run(doc):
    doc["workloads"]["supervised"]["runs"][3]["parent"]["metrics"]["train_s"] *= 2.0


def _inflated_win_count(doc):
    doc["workloads"]["semi-full"]["metrics"]["eval_s"]["change_lower"] += 1


def _dropped_seed(doc):
    doc["seeds"].pop()


def _same_side_first(doc):
    doc["workloads"]["semi-full"]["runs"][1]["first"] = "parent"


def _missing_metric(doc):
    del doc["workloads"]["supervised"]["runs"][0]["change"]["metrics"]["map50"]


@pytest.mark.parametrize("corrupt", [_drop_machine_field, _short_revision, _moved_median, _moved_run,
                                     _inflated_win_count, _dropped_seed, _same_side_first, _missing_metric],
                         ids=lambda fn: fn.__name__.strip("_"))
def test_corrupted_copy_is_rejected(record, corrupt):
    doc = copy.deepcopy(record)
    corrupt(doc)
    with pytest.raises(ValueError):
        bench_pairs.validate(doc)


def test_summary_of_made_up_runs():
    runs = [{"seed": seed, "first": bench_pairs.SIDES[seed % 2],
             "parent": {"correct": True, "failed": 0, "metrics": {"peak_rss_mb": parent}},
             "change": {"correct": True, "failed": 0, "metrics": {"peak_rss_mb": change}}}
            for seed, (parent, change) in enumerate([(10.0, 9.0), (12.0, 12.0), (11.0, 8.0), (13.0, 14.0)])]
    summary = bench_pairs.summarize(runs, [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"}])
    assert summary["peak_rss_mb"]["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert summary["peak_rss_mb"]["change"] == {"median": 10.5, "q1": 8.75, "q3": 12.5}
    # A tie counts for neither side.
    assert summary["peak_rss_mb"]["change_lower"] == 2
