"""End-to-end command-line lifecycle plus record-schema validation."""

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from orientsemi.cli import main
from orientsemi.records import validate_record, write_atomic, write_records

from tests._support import read_records, validate_file


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    errors = [json.loads(line) for line in captured.err.splitlines() if line.strip()]
    return code, lines, errors


TINY_SCENE = [
    "--set", "scene.height=24",
    "--set", "scene.width=24",
    "--set", "scene.density=3e-3",
    "--set", "scene.long_side_min=5",
    "--set", "scene.long_side_max=9",
]
TINY_TRAIN = TINY_SCENE + [
    "--set", "semi.total_iters=8",
    "--set", "semi.burn_in_frac=0.25",
    "--set", "semi.labeled_batch=1",
    "--set", "semi.score_floor=0.01",
    "--set", "semi.pre_nms_top=100",
    "--set", "semi.iou_pos_samples=8",
    "--set", "semi.iou_neg_samples=8",
    "--set", "tab1.global_threshold=20",
]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    code = main(
        ["gen-scenes", "--out", str(root / "lab"), "--count", "2", "--seed", "1"]
        + TINY_SCENE
    )
    assert code == 0
    code = main(
        ["gen-scenes", "--out", str(root / "unlab"), "--count", "2", "--seed", "2"]
        + TINY_SCENE
    )
    assert code == 0
    return root


class TestGenScenes:
    def test_summary_and_files(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code, lines, _ = run_cli(
            ["gen-scenes", "--out", str(out), "--count", "2", "--seed", "3"] + TINY_SCENE,
            capsys,
        )
        assert code == 0
        assert lines[-1]["command"] == "gen-scenes"
        assert lines[-1]["count"] == 2
        assert (out / "index.jsonl").exists()
        assert (out / "manifest.json").exists()
        assert (out / "scene_00000.npy").exists()

    def test_env_var_sets_default_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORIENTSEMI_OUT", str(tmp_path / "rooted"))
        code, lines, _ = run_cli(
            ["gen-scenes", "--count", "1", "--seed", "4"] + TINY_SCENE, capsys
        )
        assert code == 0
        assert (tmp_path / "rooted" / "scenes" / "index.jsonl").exists()


class TestTrainEval:
    def test_full_cycle(self, datasets, tmp_path, capsys):
        out = tmp_path / "run"
        code, lines, _ = run_cli(
            [
                "train",
                "--labeled", str(datasets / "lab"),
                "--unlabeled", str(datasets / "unlab"),
                "--out", str(out),
                "--dump-pseudo",
            ]
            + TINY_TRAIN,
            capsys,
        )
        assert code == 0
        summary = lines[-1]
        assert summary["command"] == "train"
        assert summary["iterations"] == 8
        assert summary["has_teacher"] is True
        assert (out / "metrics.jsonl").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "config.ini").exists()
        assert validate_file(out / "metrics.jsonl", "metrics") == 8
        assert validate_file(out / "pseudo.jsonl", "pseudo") >= 0

        code, lines, _ = run_cli(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--dataset", str(datasets / "lab"),
                "--thresholds", "0.5",
            ],
            capsys,
        )
        assert code == 0
        report = lines[-1]
        assert report["model"] == "teacher"
        assert 0.0 <= report["map50"] <= 1.0
        validate_record(report, "eval")

    def test_component_flags_respected(self, datasets, tmp_path, capsys):
        out = tmp_path / "ablated"
        code, lines, _ = run_cli(
            [
                "train",
                "--labeled", str(datasets / "lab"),
                "--unlabeled", str(datasets / "unlab"),
                "--out", str(out),
                "--no-gaw", "--no-ngc", "--sampler", "topk",
            ]
            + TINY_TRAIN,
            capsys,
        )
        assert code == 0
        saved = (out / "config.ini").read_text()
        assert "enable_gaw = False" in saved
        assert "enable_ngc = False" in saved
        assert "sampler = topk" in saved
        for record in read_records(out / "metrics.jsonl"):
            assert record["loss_ngc"] == 0.0

    def test_supervised_only_has_no_teacher(self, datasets, tmp_path, capsys):
        out = tmp_path / "sup"
        code, lines, _ = run_cli(
            [
                "train",
                "--labeled", str(datasets / "lab"),
                "--out", str(out),
                "--supervised-only",
            ]
            + TINY_TRAIN,
            capsys,
        )
        assert code == 0
        assert lines[-1]["has_teacher"] is False
        code, lines, _ = run_cli(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--dataset", str(datasets / "lab"),
                "--thresholds", "0.5",
            ],
            capsys,
        )
        assert code == 0
        assert lines[-1]["model"] == "student"

    def test_eval_teacher_on_supervised_checkpoint_fails(self, datasets, tmp_path, capsys):
        out = tmp_path / "sup2"
        run_cli(
            ["train", "--labeled", str(datasets / "lab"), "--out", str(out), "--supervised-only"]
            + TINY_TRAIN,
            capsys,
        )
        code, _, errors = run_cli(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--dataset", str(datasets / "lab"),
                "--model", "teacher",
            ],
            capsys,
        )
        assert code == 1
        assert errors[-1]["error"] == "ValueError"

    def test_dump_pseudo_command(self, datasets, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(
            [
                "train",
                "--labeled", str(datasets / "lab"),
                "--unlabeled", str(datasets / "unlab"),
                "--out", str(out),
            ]
            + TINY_TRAIN,
            capsys,
        )
        pseudo_out = tmp_path / "dump.jsonl"
        code, lines, _ = run_cli(
            [
                "dump-pseudo",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--dataset", str(datasets / "unlab"),
                "--out", str(pseudo_out),
            ],
            capsys,
        )
        assert code == 0
        assert lines[-1]["scenes"] == 2
        assert validate_file(pseudo_out, "pseudo") == 2


class TestVerificationCommands:
    def test_ot_bench(self, tmp_path, capsys):
        out = tmp_path / "ot.jsonl"
        code, lines, _ = run_cli(
            [
                "ot-bench",
                "--sizes", "6,12",
                "--epsilons", "0.3,0.02",
                "--lp-max-n", "6",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert lines[-1]["all_within_bound"] is True
        records = list(read_records(out))
        assert len(records) == 4
        assert validate_file(out, "ot_bench") == 4
        solvers = {r["solver"] for r in records}
        assert solvers == {"scaling", "log"}
        small_eps = [r for r in records if r["n"] == 6 and r["epsilon"] == 0.02]
        assert small_eps[0]["lp_abs_diff"] < 0.05

    def test_iou_curves(self, tmp_path, capsys):
        out = tmp_path / "curves.jsonl"
        code, lines, _ = run_cli(
            ["iou-curves", "--aspects", "1,4", "--steps", "46", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert lines[-1]["all_monotone_first_octant"] is True
        records = list(read_records(out))
        assert validate_file(out, "iou_curve") == 2
        by_aspect = {r["aspect"]: r for r in records}
        assert by_aspect[4.0]["iou_at_tenth_radian"] < by_aspect[1.0]["iou_at_tenth_radian"]


class TestErrorPath:
    def test_missing_checkpoint_gives_error_record(self, tmp_path, capsys):
        code, lines, errors = run_cli(
            [
                "eval",
                "--checkpoint", str(tmp_path / "nope.bin"),
                "--dataset", str(tmp_path / "nope"),
            ],
            capsys,
        )
        assert code == 1
        assert not lines
        assert errors[-1]["command"] == "eval"

    def test_bad_override_gives_error_record(self, tmp_path, capsys):
        code, _, errors = run_cli(
            ["gen-scenes", "--count", "1", "--out", str(tmp_path / "x"), "--set", "semi.nope=1"],
            capsys,
        )
        assert code == 1
        assert errors[-1]["error"] == "KeyError"

    def test_out_of_range_setting_fails_before_any_output(self, datasets, tmp_path, capsys):
        out = tmp_path / "train"
        code, lines, errors = run_cli(
            [
                "train",
                "--labeled", str(datasets / "lab"),
                "--unlabeled", str(datasets / "unlab"),
                "--out", str(out),
            ]
            + TINY_TRAIN
            + ["--set", "semi.score_floor=2.0"],
            capsys,
        )
        assert code == 1
        assert not lines
        assert errors[-1]["error"] == "ValueError"
        for name in ("config.ini", "metrics.jsonl", "checkpoint.bin"):
            assert not (out / name).exists()

    def test_split_that_does_not_fit_leaves_out_empty(self, datasets, tmp_path, capsys):
        out = tmp_path / "train"
        code, lines, errors = run_cli(
            [
                "train",
                "--labeled", str(datasets / "lab"),
                "--unlabeled", str(datasets / "unlab"),
                "--out", str(out),
            ]
            + TINY_TRAIN
            + ["--set", "scene.height=32"],
            capsys,
        )
        assert code == 1
        assert not lines
        assert errors[-1]["error"] == "ValueError"
        assert "has height 24, but scene.height is 32" in errors[-1]["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_split_with_other_channel_count_leaves_out_empty(self, tmp_path, capsys):
        # Rendered with two classes (five channels), trained as three.
        data = tmp_path / "two-class"
        assert main(["gen-scenes", "--out", str(data), "--count", "2", "--seed", "3",
                     "--set", "scene.num_classes=2"] + TINY_SCENE) == 0
        capsys.readouterr()
        out = tmp_path / "train"
        code, lines, errors = run_cli(
            ["train", "--labeled", str(data), "--unlabeled", str(data), "--out", str(out)] + TINY_TRAIN,
            capsys,
        )
        assert code == 1
        assert not lines
        assert errors[-1]["error"] == "ValueError"
        assert "labeled split: scenes have 5 channels, but scene.num_classes=3 needs 6" in errors[-1]["message"]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("empty_split", ["labeled", "unlabeled"])
    def test_empty_split_leaves_out_empty(self, datasets, tmp_path, capsys, empty_split):
        empty = tmp_path / "empty"
        assert main(["gen-scenes", "--out", str(empty), "--count", "0", "--seed", "3"] + TINY_SCENE) == 0
        capsys.readouterr()
        splits = {"labeled": datasets / "lab", "unlabeled": datasets / "unlab", empty_split: empty}
        out = tmp_path / "train"
        code, lines, errors = run_cli(
            ["train", "--labeled", str(splits["labeled"]), "--unlabeled", str(splits["unlabeled"]),
             "--out", str(out)] + TINY_TRAIN,
            capsys,
        )
        assert code == 1
        assert not lines
        assert errors[-1]["error"] == "ValueError"
        assert errors[-1]["message"] == f"{empty_split} split has no scenes"
        assert not out.exists() or not any(out.iterdir())


    def test_resume_with_other_config_leaves_run_unchanged(self, datasets, tmp_path, capsys):
        out = tmp_path / "train"
        argv = ["train", "--labeled", str(datasets / "lab"), "--unlabeled", str(datasets / "unlab"),
                "--out", str(out)] + TINY_TRAIN
        assert main(argv + ["--stop-after", "4"]) == 0
        capsys.readouterr()
        names = ("config.ini", "metrics.jsonl", "checkpoint.bin")
        before = {name: (out / name).read_bytes() for name in names}
        code, lines, errors = run_cli(argv + ["--resume", "--set", "semi.lr=0.5"], capsys)
        assert code == 1
        assert not lines
        assert errors[-1]["message"] == "resume config does not match checkpoint config"
        assert {name: (out / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    def test_resume_without_checkpoint_leaves_out_empty(self, datasets, tmp_path, capsys):
        out = tmp_path / "train"
        out.mkdir()
        code, lines, errors = run_cli(
            ["train", "--labeled", str(datasets / "lab"), "--unlabeled", str(datasets / "unlab"),
             "--out", str(out), "--resume"] + TINY_TRAIN,
            capsys,
        )
        assert code == 1
        assert not lines
        assert errors[-1]["error"] == "FileNotFoundError"
        assert not any(out.iterdir())

    def test_fresh_run_without_dump_pseudo_removes_earlier_pseudo(self, datasets, tmp_path, capsys):
        # The run directory must not pair one run's config and metrics
        # with another run's pseudo-labels.
        out = tmp_path / "train"
        argv = ["train", "--labeled", str(datasets / "lab"), "--unlabeled", str(datasets / "unlab"),
                "--out", str(out)] + TINY_TRAIN + ["--set", "semi.total_iters=6"]
        assert main(argv + ["--dump-pseudo"]) == 0
        assert (out / "pseudo.jsonl").read_text()
        assert main(argv + ["--set", "semi.seed=5"]) == 0
        capsys.readouterr()
        assert "seed = 5" in (out / "config.ini").read_text()
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.bin", "config.ini", "metrics.jsonl"]


class TestRecords:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [{"b": 2, "a": 1}, {"x": [1, 2]}]
        assert write_records(path, records) == 2
        assert list(read_records(path)) == records

    def test_write_records_creates_parent_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "r.jsonl"
        assert write_records(path, [{"a": 1}]) == 1
        assert list(read_records(path)) == [{"a": 1}]

    def test_canonical_form_is_sorted_and_compact(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_records(path, [{"b": 2, "a": 1}])
        assert path.read_text() == '{"a":1,"b":2}\n'

    def test_write_atomic_syncs_file_then_renames_then_syncs_directory(self, tmp_path, monkeypatch):
        # A power loss must find the old file or the whole new one: the
        # temp file's bytes reach the disk before the rename, and the
        # rename itself (a directory entry) after it.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", "dir" if stat.S_ISDIR(info.st_mode) else info.st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", Path(src).name, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(b"old")
        write_atomic(path, b"new bytes")
        assert events == [
            ("fsync", 9),
            ("replace", "checkpoint.bin.tmp", "checkpoint.bin"),
            ("fsync", "dir"),
        ]
        assert path.read_bytes() == b"new bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]

    def test_eval_out_is_written_atomically(self, datasets, tmp_path, capsys, monkeypatch):
        from orientsemi import records

        run = tmp_path / "run"
        assert main(["train", "--labeled", str(datasets / "lab"), "--out", str(run), "--supervised-only"]
                    + TINY_TRAIN) == 0
        written = []
        real = records.write_atomic

        def write_atomic(path, data):
            written.append(Path(path).name)
            real(path, data)

        monkeypatch.setattr(records, "write_atomic", write_atomic)
        out = tmp_path / "reports" / "eval.jsonl"
        code, lines, _ = run_cli(
            ["eval", "--checkpoint", str(run / "checkpoint.bin"), "--dataset", str(datasets / "lab"),
             "--thresholds", "0.5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert written == ["eval.jsonl"]
        assert json.loads(out.read_text()) == lines[-1]

    def test_unknown_schema_rejected(self):
        with pytest.raises(KeyError):
            validate_record({}, "bogus")

    def test_schema_catches_bad_record(self):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError):
            validate_record({"iter": -1}, "metrics")
