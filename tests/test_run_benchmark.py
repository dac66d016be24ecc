"""Split caching in the component-study script."""

import importlib.util
import json
from pathlib import Path

import pytest

from orientsemi.scenes import SceneConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"


@pytest.fixture(scope="module")
def run_benchmark():
    spec = importlib.util.spec_from_file_location("run_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_config(**kwargs) -> SceneConfig:
    return SceneConfig(height=64, width=64, long_side_min=6.0, long_side_max=14.0, **kwargs)


def test_changed_scene_config_regenerates_the_split(run_benchmark, tmp_path):
    run_benchmark.ensure_dataset(tmp_path, "test", small_config(layout="uniform", density=0.004), 2)
    dataset = run_benchmark.ensure_dataset(tmp_path, "test", small_config(layout="clustered", density=0.008), 2)
    manifest = json.loads((tmp_path / "test" / "manifest.json").read_text())
    assert manifest["config"]["layout"] == "clustered"
    assert manifest["config"]["density"] == 0.008
    assert {scene.layout for scene in dataset.scenes} == {"clustered"}


def test_same_request_reuses_the_split(run_benchmark, tmp_path, monkeypatch):
    config = small_config(layout="clustered", density=0.008)
    run_benchmark.ensure_dataset(tmp_path, "labeled", config, 2)

    def regenerate(*args, **kwargs):
        raise AssertionError("split regenerated although its manifest matches")

    monkeypatch.setattr(run_benchmark, "save_dataset", regenerate)
    dataset = run_benchmark.ensure_dataset(tmp_path, "labeled", small_config(layout="clustered", density=0.008), 2)
    assert len(dataset) == 2
