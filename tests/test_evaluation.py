"""Detection extraction and average-precision scoring."""

import numpy as np
import pytest

from orientsemi.detector import DetectorConfig, ToyDetectorParams, predict_dense
from orientsemi.evaluation import (
    Detection,
    detect,
    evaluate_map,
    evaluate_model,
)
from orientsemi.geometry import RotatedBox
from orientsemi.sampling import DensePrediction
from orientsemi.scenes import InMemoryScenes, SceneConfig, SyntheticScene, generate_scene


def make_scene(boxes, classes, size=32):
    return SyntheticScene(
        height=size,
        width=size,
        boxes=np.array(boxes, dtype=np.float64).reshape(-1, 5),
        classes=np.array(classes, dtype=np.int64),
        layout="uniform",
        scene_id=0,
    )


def ground_truth_detections(scene, score=1.0):
    """A scene's ground truth as perfect detections."""
    return [
        Detection(box=RotatedBox(*row), score=score, class_index=int(cls))
        for row, cls in zip(scene.boxes, scene.classes)
    ]


def blank_prediction(height=16, width=16, num_classes=2):
    return DensePrediction(
        class_scores=np.zeros((height, width, num_classes)),
        boxes=np.tile(
            np.array([1.0, 1.0, 2.0, 1.0, 0.0]), (height, width, 1)
        ),
        centerness=np.zeros((height, width)),
        predicted_iou=np.zeros((height, width)),
    )


class TestDetect:
    def test_empty_below_floor(self):
        pred = blank_prediction()
        assert detect(pred) == []

    def test_score_is_class_times_centerness(self):
        pred = blank_prediction()
        pred.class_scores[4, 4, 1] = 0.8
        pred.centerness[4, 4] = 0.5
        pred.boxes[4, 4] = [4.5, 4.5, 6.0, 3.0, 0.3]
        dets = detect(pred, score_floor=0.05)
        assert len(dets) == 1
        assert dets[0].score == pytest.approx(0.4)
        assert dets[0].class_index == 1
        assert dets[0].box.w == pytest.approx(6.0)

    def test_nms_keeps_one_per_cluster(self):
        pred = blank_prediction()
        for ix in (4, 5, 6):
            pred.class_scores[4, ix, 0] = 0.5 + 0.1 * ix
            pred.centerness[4, ix] = 1.0
            pred.boxes[4, ix] = [5.0, 4.5, 6.0, 3.0, 0.0]
        dets = detect(pred)
        assert len(dets) == 1
        assert dets[0].score == pytest.approx(0.5 + 0.6)

    def test_per_class_nms_is_independent(self):
        pred = blank_prediction()
        for k in (0, 1):
            pred.class_scores[4, 4, k] = 0.9
        pred.centerness[4, 4] = 1.0
        pred.boxes[4, 4] = [4.5, 4.5, 6.0, 3.0, 0.0]
        dets = detect(pred)
        assert len(dets) == 2
        assert {d.class_index for d in dets} == {0, 1}

    def test_max_detections_cap(self):
        pred = blank_prediction()
        rng = np.random.default_rng(0)
        for i in range(12):
            iy, ix = divmod(i, 4)
            pred.class_scores[iy * 4, ix * 4, 0] = 0.5 + 0.04 * i
            pred.centerness[iy * 4, ix * 4] = 1.0
            pred.boxes[iy * 4, ix * 4] = [ix * 4 + 0.5, iy * 4 + 0.5, 2.0, 1.0, 0.0]
        dets = detect(pred, max_detections=5)
        assert len(dets) == 5
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)


class TestEvaluateMap:
    def test_ground_truth_is_perfect(self):
        config = SceneConfig(height=64, width=64, density=1e-3, noise_sigma=0.0)
        scenes = [generate_scene(config, np.random.default_rng(i))[0] for i in range(4)]
        detections = [ground_truth_detections(s) for s in scenes]
        result = evaluate_map(detections, scenes)
        assert result["map50"] == pytest.approx(1.0, abs=1e-12)
        assert result["ap85"] == pytest.approx(1.0, abs=1e-12)
        assert result["map50_95"] == pytest.approx(1.0, abs=1e-12)

    def test_single_miss_then_hit_halves_ap(self):
        gt = RotatedBox(10.0, 10.0, 6.0, 3.0, 0.2)
        scene = make_scene([gt.as_array()], [0])
        detections = [
            [
                Detection(box=RotatedBox(25.0, 25.0, 6.0, 3.0, 0.2), score=0.9, class_index=0),
                Detection(box=gt, score=0.8, class_index=0),
            ]
        ]
        result = evaluate_map([detections[0]], [scene], thresholds=[0.5])
        assert result["map50"] == pytest.approx(0.5, abs=1e-12)

    def test_false_positive_between_two_hits(self):
        # Hand-derived: matches [T, F, T] over 2 boxes give
        # AP = (51 * 1 + 50 * 2/3) / 101 = 253/303.
        a = RotatedBox(8.0, 8.0, 6.0, 3.0, 0.0)
        b = RotatedBox(24.0, 24.0, 6.0, 3.0, 0.0)
        scene = make_scene([a.as_array(), b.as_array()], [0, 0])
        dets = [
            Detection(box=a, score=0.9, class_index=0),
            Detection(box=RotatedBox(16.0, 8.0, 6.0, 3.0, 0.0), score=0.8, class_index=0),
            Detection(box=b, score=0.7, class_index=0),
        ]
        result = evaluate_map([dets], [scene], thresholds=[0.5])
        assert result["map50"] == pytest.approx(253.0 / 303.0, abs=1e-12)

    def test_duplicate_detection_is_false_positive(self):
        gt = RotatedBox(10.0, 10.0, 6.0, 3.0, 0.2)
        scene = make_scene([gt.as_array()], [0])
        dets = [
            Detection(box=gt, score=0.9, class_index=0),
            Detection(box=gt, score=0.8, class_index=0),
        ]
        result = evaluate_map([dets], [scene], thresholds=[0.5])
        # The duplicate comes after recall already hit 1, so interpolated
        # AP still sees a perfect curve.
        assert result["map50"] == pytest.approx(1.0, abs=1e-12)

    def test_shuffle_invariance(self):
        config = SceneConfig(height=64, width=64, density=1e-3, noise_sigma=0.0)
        scenes = [generate_scene(config, np.random.default_rng(i + 10))[0] for i in range(3)]
        rng = np.random.default_rng(3)
        detections = []
        for scene in scenes:
            dets = ground_truth_detections(scene, score=1.0)
            # Jitter scores and add noise detections, then shuffle.
            for j, d in enumerate(dets):
                d.score = 0.5 + 0.4 * rng.random()
            dets += [
                Detection(
                    box=RotatedBox(
                        rng.uniform(10, 50), rng.uniform(10, 50), 5.0, 2.0, 0.0
                    ),
                    score=rng.uniform(0.1, 0.9),
                    class_index=int(rng.integers(0, 3)),
                )
                for _ in range(4)
            ]
            detections.append(dets)
        baseline = evaluate_map(detections, scenes)
        shuffled = [list(d) for d in detections]
        for d in shuffled:
            rng.shuffle(d)
        again = evaluate_map(shuffled, scenes)
        assert baseline["map50"] == again["map50"]
        assert baseline["map50_95"] == again["map50_95"]

    def test_class_without_gt_excluded(self):
        gt = RotatedBox(10.0, 10.0, 6.0, 3.0, 0.0)
        scene = make_scene([gt.as_array()], [0])
        dets = [
            Detection(box=gt, score=0.9, class_index=0),
            Detection(box=RotatedBox(20.0, 20.0, 5.0, 2.0, 0.0), score=0.8, class_index=2),
        ]
        result = evaluate_map([dets], [scene], thresholds=[0.5], num_classes=3)
        # Class 2 has no ground truth anywhere: its false positive must
        # not drag the mean down.
        assert result["map50"] == pytest.approx(1.0, abs=1e-12)

    def test_higher_threshold_is_harder(self):
        gt = RotatedBox(10.0, 10.0, 8.0, 4.0, 0.0)
        near = RotatedBox(10.8, 10.0, 8.0, 4.0, 0.0)
        scene = make_scene([gt.as_array()], [0])
        dets = [Detection(box=near, score=0.9, class_index=0)]
        result = evaluate_map([dets], [scene])
        assert result["map50"] == pytest.approx(1.0, abs=1e-12)
        assert result["ap85"] == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < result["map50_95"] < 1.0

    def test_threshold_range_validated(self):
        scene = make_scene([[10.0, 10.0, 6.0, 3.0, 0.0]], [0])
        with pytest.raises(ValueError):
            evaluate_map([[]], [scene], thresholds=[0.3])
        with pytest.raises(ValueError):
            evaluate_map([[]], [scene], thresholds=[])

    def test_mismatched_lengths_rejected(self):
        scene = make_scene([[10.0, 10.0, 6.0, 3.0, 0.0]], [0])
        with pytest.raises(ValueError):
            evaluate_map([[], []], [scene])

    def test_empty_detections_zero_ap(self):
        scene = make_scene([[10.0, 10.0, 6.0, 3.0, 0.0]], [0])
        result = evaluate_map([[]], [scene], thresholds=[0.5])
        assert result["map50"] == 0.0


class TestEvaluateModel:
    def test_untrained_model_scores_poorly(self):
        config = SceneConfig(height=48, width=48, density=8e-4, noise_sigma=0.02)
        items = [generate_scene(config, np.random.default_rng(i)) for i in range(2)]
        dataset = InMemoryScenes(items)
        det_config = DetectorConfig(num_classes=config.num_classes)
        params = ToyDetectorParams.initialize(
            config.num_channels, np.random.default_rng(0), det_config
        )
        result = evaluate_model(params, dataset, det_config)
        assert result["map50"] <= 0.2
        assert result["n_scenes"] == 2
        assert result["n_gt"] > 0
