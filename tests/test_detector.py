"""Linear dense detector: features, initialisation, decoding."""

import math

import numpy as np
import pytest
from scipy.special import expit

from orientsemi.detector import (
    NUM_EXTRA_HEADS,
    OFF_COS,
    OFF_CTR,
    OFF_DX,
    OFF_IOU,
    OFF_LOGH,
    OFF_LOGW,
    OFF_SIN,
    DetectorConfig,
    ToyDetectorParams,
    decode_angle,
    decode_dense,
    extract_features,
    forward,
    predict_dense,
)
from orientsemi.scenes import SceneConfig, generate_scene


class TestFeatures:
    def test_shape(self):
        channels = np.random.default_rng(0).normal(size=(6, 32, 40)).astype(np.float32)
        feats = extract_features(channels)
        assert feats.shape == (3 * 6 + 4, 32 * 40)
        assert feats.dtype == np.float32

    def test_raw_channels_pass_through(self):
        channels = np.random.default_rng(1).normal(size=(6, 16, 16)).astype(np.float32)
        feats = extract_features(channels)
        np.testing.assert_array_equal(feats[:6], channels.reshape(6, -1))

    def test_bias_row_is_ones(self):
        channels = np.zeros((6, 8, 8), dtype=np.float32)
        feats = extract_features(channels)
        np.testing.assert_array_equal(feats[-1], 1.0)

    def test_constant_input_means_equal_input(self):
        channels = np.full((6, 12, 12), 0.7, dtype=np.float32)
        feats = extract_features(channels)
        np.testing.assert_allclose(feats[6:18], 0.7, atol=1e-6)

    def test_count_matches_config(self):
        cfg = DetectorConfig()
        assert cfg.num_features(6) == 22
        params = ToyDetectorParams.initialize(6, 3, np.random.default_rng(0), cfg)
        assert params.weights.shape[0] == 3 + NUM_EXTRA_HEADS
        channels = np.zeros((6, 8, 8), dtype=np.float32)
        assert extract_features(channels).shape[0] == cfg.num_features(6)


class TestParams:
    def test_initialize_biases(self):
        cfg = DetectorConfig()
        params = ToyDetectorParams.initialize(6, 3, np.random.default_rng(0), cfg)
        assert params.weights.shape == (11, 22)
        assert params.num_params == 242
        np.testing.assert_array_equal(params.weights[:3, -1], cfg.cls_bias_init)
        assert params.weights[3 + OFF_LOGW, -1] == pytest.approx(math.log(8.0))
        assert params.weights[3 + OFF_LOGH, -1] == pytest.approx(math.log(8.0))

    def test_wrong_rows_rejected(self):
        with pytest.raises(ValueError):
            ToyDetectorParams(weights=np.zeros((5, 22)), num_classes=3)

    def test_copy_is_independent(self):
        cfg = DetectorConfig()
        params = ToyDetectorParams.initialize(6, 3, np.random.default_rng(0), cfg)
        clone = params.copy()
        clone.weights[0, 0] += 1.0
        assert params.weights[0, 0] != clone.weights[0, 0]


class TestDecode:
    def test_decode_angle_examples(self):
        assert decode_angle(np.array(1.0), np.array(0.0)) == pytest.approx(0.0)
        assert decode_angle(np.array(0.0), np.array(1.0)) == pytest.approx(math.pi / 4)
        assert decode_angle(np.array(0.0), np.array(-1.0)) == pytest.approx(-math.pi / 4)

    def test_angles_in_canonical_range(self):
        rng = np.random.default_rng(3)
        angles = decode_angle(rng.normal(size=500), rng.normal(size=500))
        wrapped = np.where(angles >= math.pi / 2, angles - math.pi, angles)
        assert np.all(wrapped >= -math.pi / 2)
        assert np.all(wrapped < math.pi / 2)

    def test_decode_dense_fields(self):
        cfg = DetectorConfig()
        height, width = 10, 14
        n = height * width
        raw = np.zeros((3 + NUM_EXTRA_HEADS, n))
        raw[3 + OFF_DX] = 0.25
        raw[3 + OFF_LOGW] = math.log(4.0)
        raw[3 + OFF_LOGH] = math.log(2.0)
        raw[3 + OFF_COS] = 1.0
        params = ToyDetectorParams(weights=np.zeros((3 + NUM_EXTRA_HEADS, 22)), num_classes=3)
        pred = decode_dense(params, raw, height, width, cfg)
        assert pred.grid_shape == (height, width)
        # Cell (iy=2, ix=5): center (5.5, 2.5) plus the 0.25 x-offset.
        assert pred.boxes[2, 5, 0] == pytest.approx(5.75)
        assert pred.boxes[2, 5, 1] == pytest.approx(2.5)
        assert pred.boxes[2, 5, 2] == pytest.approx(4.0)
        assert pred.boxes[2, 5, 3] == pytest.approx(2.0)
        assert pred.boxes[2, 5, 4] == pytest.approx(0.0)
        np.testing.assert_allclose(pred.class_scores, 0.5)
        np.testing.assert_allclose(pred.centerness, 0.5)

    def test_sides_clipped_to_range(self):
        cfg = DetectorConfig()
        raw = np.zeros((3 + NUM_EXTRA_HEADS, 4))
        raw[3 + OFF_LOGW] = 50.0
        raw[3 + OFF_LOGH] = -50.0
        params = ToyDetectorParams(weights=np.zeros((3 + NUM_EXTRA_HEADS, 22)), num_classes=3)
        pred = decode_dense(params, raw, 2, 2, cfg)
        np.testing.assert_allclose(pred.boxes[..., 2], cfg.max_side, rtol=1e-12)
        np.testing.assert_allclose(pred.boxes[..., 3], cfg.min_side, rtol=1e-12)

    def test_forward_is_linear(self):
        cfg = DetectorConfig()
        params = ToyDetectorParams.initialize(6, 3, np.random.default_rng(1), cfg)
        feats = np.random.default_rng(2).normal(size=(22, 10)).astype(np.float32)
        out = forward(params, feats)
        np.testing.assert_allclose(
            forward(params, 2.0 * feats), 2.0 * out, rtol=1e-12
        )

    def test_predict_dense_on_scene(self):
        scfg = SceneConfig(height=48, width=48, density=5e-4, noise_sigma=0.02)
        scene, channels = generate_scene(scfg, np.random.default_rng(5))
        cfg = DetectorConfig()
        params = ToyDetectorParams.initialize(scfg.num_channels, scfg.num_classes, np.random.default_rng(0), cfg)
        pred = predict_dense(params, channels, cfg)
        assert pred.grid_shape == (48, 48)
        # Fresh classifier biased to -4: everything close to background.
        assert pred.class_scores.max() < 0.15
        assert np.all(pred.boxes[..., 2] >= cfg.min_side)
        assert np.all(pred.boxes[..., 3] <= cfg.max_side)

    def test_fresh_iou_head_near_half(self):
        cfg = DetectorConfig()
        params = ToyDetectorParams.initialize(6, 3, np.random.default_rng(7), cfg)
        channels = np.random.default_rng(8).normal(size=(6, 16, 16)).astype(np.float32)
        pred = predict_dense(params, channels, cfg)
        assert np.all(np.abs(pred.predicted_iou - expit(0.0)) < 0.2)
