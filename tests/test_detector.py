"""Linear dense detector: features, initialisation, decoding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
    mirror_features,
    predict_dense,
)
from orientsemi.scenes import SceneConfig, SyntheticScene, flip_scene, generate_scene
from tests._oracles import concatenated_features


@st.composite
def dyadic_stacks(draw):
    """(C, H, W) float32 stacks of multiples of 2^-10 below 16 in
    magnitude, on which the box filters' float64 window sums are exact."""
    shape = (draw(st.integers(4, 6)), draw(st.integers(2, 24)), draw(st.integers(2, 24)))
    steps = draw(arrays(np.int32, shape, elements=st.integers(-(2**14) + 1, 2**14 - 1)))
    return (steps * 2.0**-10).astype(np.float32)


def cell_major(features: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 (N, F) copy of an (F, N) feature matrix."""
    return np.ascontiguousarray(features.T, dtype=np.float64)


def features_of_flipped(channels: np.ndarray) -> np.ndarray:
    """Cell-major features extracted from the flipped stack."""
    c, h, w = channels.shape
    blank = SyntheticScene(height=h, width=w, boxes=np.empty((0, 5)), classes=np.empty(0), layout="uniform")
    return cell_major(extract_features(flip_scene(blank, channels)[1]))


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """Equal including the sign of every zero."""
    assert a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMirror:
    """Cell-major features of a flipped stack, from the unflipped stack's
    cell-major features."""

    @settings(max_examples=150, deadline=None)
    @given(dyadic_stacks())
    def test_equals_features_of_flipped_stack(self, channels):
        c, _, w = channels.shape
        mirrored = mirror_features(cell_major(extract_features(channels)), c, w)
        assert_same_bits(mirrored, features_of_flipped(channels))

    @pytest.mark.parametrize("height, width, seed", [(96, 96, 0), (96, 96, 1), (40, 57, 2), (57, 40, 3)])
    def test_rendered_scenes(self, height, width, seed):
        # Noisy scenes, as every shipped config renders them, match bit for
        # bit; noise-free ones only to float32 rounding of the mean rows.
        for noise_sigma in (0.05, 0.0):
            config = SceneConfig(height=height, width=width, density=2e-3, long_side_min=8.0,
                                 long_side_max=24.0, noise_sigma=noise_sigma)
            _, channels = generate_scene(config, np.random.default_rng(seed))
            mirrored = mirror_features(cell_major(extract_features(channels)), config.num_channels, width)
            expected = features_of_flipped(channels)
            if noise_sigma > 0.0:
                assert_same_bits(mirrored, expected)
            else:
                tolerance = np.finfo(np.float32).eps * np.abs(expected).max()
                np.testing.assert_allclose(mirrored, expected, rtol=0.0, atol=tolerance)

    def test_writes_into_out(self):
        # As the trainer uses it: a float32 entry without the ones column,
        # mirrored into the leading columns of a float64 matrix.
        channels = (np.random.default_rng(4).integers(-1000, 1000, size=(6, 9, 12)) * 2.0**-10).astype(np.float32)
        entry = np.ascontiguousarray(extract_features(channels)[:-1].T)
        out = np.empty((entry.shape[0], entry.shape[1] + 1))
        out[:, -1] = 1.0
        columns = out[:, :-1]
        assert mirror_features(entry, 6, 12, out=columns) is columns
        assert_same_bits(out, features_of_flipped(channels))


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

    @pytest.mark.parametrize("num_classes", [1, 3])
    @pytest.mark.parametrize("noise_sigma", [0.05, 0.0], ids=["noisy", "noise-free"])
    def test_equals_concatenated_oracle(self, num_classes, noise_sigma):
        config = SceneConfig(height=40, width=57, num_classes=num_classes, density=2e-3, long_side_min=8.0,
                             long_side_max=24.0, noise_sigma=noise_sigma)
        _, channels = generate_scene(config, np.random.default_rng(5))
        expected = concatenated_features(channels).view(np.uint32)
        np.testing.assert_array_equal(extract_features(channels).view(np.uint32), expected)
        out = np.full(expected.shape, np.nan, dtype=np.float32)
        assert extract_features(channels, out=out) is out
        np.testing.assert_array_equal(out.view(np.uint32), expected)

    @pytest.mark.parametrize("out", [np.empty((22, 64)), np.empty((21, 64), np.float32),
                                     np.empty((64, 22), np.float32).T], ids=["float64", "rows", "strided"])
    def test_rejects_out_it_cannot_fill(self, out):
        with pytest.raises(ValueError, match="expected C-contiguous float32"):
            extract_features(np.zeros((6, 8, 8), dtype=np.float32), out=out)

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
        assert params.weights.size == 242
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
