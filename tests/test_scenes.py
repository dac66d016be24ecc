"""Scene generation, rendering, flips, augmentation, and dataset IO."""

import math

import numpy as np
import pytest

from orientsemi.geometry import RotatedBox, rotated_iou
from orientsemi.scenes import (
    AugmentConfig,
    SceneConfig,
    SceneDataset,
    SceneGenerationError,
    flip_scene,
    generate_dataset,
    generate_scene,
    render_scene,
    save_dataset,
    strong_augment,
)

from tests._oracles import per_channel_blur


def small_config(**kwargs) -> SceneConfig:
    defaults = dict(height=96, width=96, density=6e-4, noise_sigma=0.0)
    defaults.update(kwargs)
    return SceneConfig(**defaults)


class TestGenerateScene:
    def test_deterministic(self):
        cfg = small_config(noise_sigma=0.05)
        a, ch_a = generate_scene(cfg, np.random.default_rng(7))
        b, ch_b = generate_scene(cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(a.boxes, b.boxes)
        np.testing.assert_array_equal(a.classes, b.classes)
        np.testing.assert_array_equal(ch_a, ch_b)

    def test_boxes_inside_canvas(self):
        cfg = small_config()
        scene, _ = generate_scene(cfg, np.random.default_rng(3))
        assert len(scene) >= 2
        for box in [RotatedBox(*r) for r in scene.boxes]:
            x0, y0, x1, y1 = box.aabb()
            assert x0 >= 0.0 and y0 >= 0.0
            assert x1 <= cfg.width and y1 <= cfg.height

    def test_pairwise_overlap_capped(self):
        cfg = small_config(density=1.2e-3)
        scene, _ = generate_scene(cfg, np.random.default_rng(11))
        boxes = [RotatedBox(*r) for r in scene.boxes]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert rotated_iou(boxes[i], boxes[j]) <= cfg.iou_cap + 1e-9

    def test_classes_in_range(self):
        cfg = small_config()
        scene, _ = generate_scene(cfg, np.random.default_rng(5))
        assert np.all(scene.classes >= 0)
        assert np.all(scene.classes < cfg.num_classes)

    def test_impossible_density_raises(self):
        cfg = SceneConfig(
            height=48,
            width=48,
            density=0.02,
            long_side_min=30.0,
            long_side_max=36.0,
            aspect_min=1.0,
            aspect_max=1.2,
            iou_cap=0.01,
            max_attempts=2000,
        )
        with pytest.raises(SceneGenerationError):
            generate_scene(cfg, np.random.default_rng(0))

    def test_grid_regular_shares_base_angle(self):
        cfg = small_config(layout="grid-regular", density=8e-4)
        scene, _ = generate_scene(cfg, np.random.default_rng(2))
        assert len(scene) >= 3
        angles = scene.boxes[:, 4]
        # All angles are small jitters around one base; compare pairwise
        # on the doubled circle to dodge the branch cut.
        spread = np.abs(np.sin(angles[:, None] - angles[None, :]))
        assert spread.max() < math.sin(0.5)


class TestRenderScene:
    def test_shape_and_dtype(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(1))
        assert channels.shape == (cfg.num_classes + 3, cfg.height, cfg.width)
        assert channels.dtype == np.float32

    def test_peak_at_center_in_class_channel(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(4))
        box = RotatedBox(*scene.boxes[0])
        cls = int(scene.classes[0])
        iy, ix = int(box.cy), int(box.cx)
        assert channels[cls, iy, ix] > 0.5 * cfg.amplitude

    def test_orientation_channels_encode_doubled_angle(self):
        cfg = small_config(crosstalk=0.0)
        scene, channels = generate_scene(cfg, np.random.default_rng(9))
        k = cfg.num_classes
        box = RotatedBox(*scene.boxes[0])
        iy, ix = int(box.cy), int(box.cx)
        lum = channels[k, iy, ix]
        # Isolated-enough blob: ratio of orientation channel to luminance
        # recovers cos/sin of the doubled angle.
        if lum > 0.5:
            assert channels[k + 1, iy, ix] / lum == pytest.approx(math.cos(2 * box.angle), abs=0.25)
            assert channels[k + 2, iy, ix] / lum == pytest.approx(math.sin(2 * box.angle), abs=0.25)

    def test_crosstalk_bleeds_into_next_channel(self):
        cfg = small_config(crosstalk=0.2)
        rng = np.random.default_rng(6)
        scene, channels = generate_scene(cfg, rng)
        cls = int(scene.classes[0])
        other = (cls + 1) % cfg.num_classes
        box = RotatedBox(*scene.boxes[0])
        iy, ix = int(box.cy), int(box.cx)
        assert channels[other, iy, ix] >= 0.15 * channels[cls, iy, ix] - 1e-6

    def test_noise_changes_output(self):
        cfg_clean = small_config(noise_sigma=0.0)
        scene, clean = generate_scene(cfg_clean, np.random.default_rng(8))
        cfg_noisy = small_config(noise_sigma=0.1)
        noisy = render_scene(scene, cfg_noisy, np.random.default_rng(123))
        assert not np.array_equal(clean, noisy)
        assert (noisy.astype(np.float64) - clean).std() == pytest.approx(0.1, rel=0.1)


class TestFlip:
    def test_involution(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(12))
        back_scene, back = flip_scene(*flip_scene(scene, channels))
        np.testing.assert_array_equal(back, channels)
        np.testing.assert_allclose(back_scene.boxes, scene.boxes, atol=1e-12)

    def test_flip_matches_rendering_the_flipped_scene(self):
        cfg = small_config(noise_sigma=0.0)
        scene, channels = generate_scene(cfg, np.random.default_rng(13))
        flipped_scene, flipped_channels = flip_scene(scene, channels)
        rerendered = render_scene(flipped_scene, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(flipped_channels, rerendered, atol=1e-4)

    def test_sin_channel_negated(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(14))
        _, flipped = flip_scene(scene, channels)
        np.testing.assert_array_equal(flipped[-1], -channels[-1, :, ::-1])


class TestAugment:
    def test_zero_amplitudes_make_strong_equal_weak(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(21))
        aug = AugmentConfig(add_sigma=0.0, mul_sigma=0.0, blur_sigma=0.0)
        # The weak view is the flipped scene.
        _, weak = flip_scene(scene, channels)
        _, strong, flip = strong_augment(scene, channels, np.random.default_rng(0), aug, flip=True)
        assert flip is True
        np.testing.assert_array_equal(strong, weak)

    def test_strong_respects_pinned_flip(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(22))
        aug = AugmentConfig(add_sigma=0.0, mul_sigma=0.0, blur_sigma=0.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        flipped_scene, out, flip = strong_augment(scene, channels, rng, aug, flip=True)
        assert flip is True
        np.testing.assert_array_equal(out, flip_scene(scene, channels)[1])
        np.testing.assert_array_equal(flipped_scene.boxes, flip_scene(scene, channels)[0].boxes)
        same_scene, same, flip = strong_augment(scene, channels, rng, aug, flip=False)
        assert flip is False and same_scene is scene
        np.testing.assert_array_equal(same, channels)
        # The flip is the caller's: no draw is taken for it.
        assert rng.bit_generator.state == before

    def test_strong_jitter_reproducible(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(23))
        aug = AugmentConfig()
        _, a, _ = strong_augment(scene, channels, np.random.default_rng(5), aug, flip=False)
        _, b, _ = strong_augment(scene, channels, np.random.default_rng(5), aug, flip=False)
        np.testing.assert_array_equal(a, b)
        _, c, _ = strong_augment(scene, channels, np.random.default_rng(6), aug, flip=False)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("blur_sigma", [0.6, 1.3])
    @pytest.mark.parametrize("flip", [False, True])
    def test_blur_matches_per_channel_oracle(self, blur_sigma, flip):
        cfg = small_config(noise_sigma=0.05)
        scene, channels = generate_scene(cfg, np.random.default_rng(25))
        aug = AugmentConfig(add_sigma=0.0, mul_sigma=0.0, blur_sigma=blur_sigma)
        _, out, _ = strong_augment(scene, channels, np.random.default_rng(0), aug, flip=flip)
        view = flip_scene(scene, channels)[1] if flip else channels
        expected = per_channel_blur(view, blur_sigma)
        assert out.dtype == expected.dtype == np.float32
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))

    def test_strong_perturbs_pixels(self):
        cfg = small_config()
        scene, channels = generate_scene(cfg, np.random.default_rng(24))
        _, out, _ = strong_augment(
            scene, channels, np.random.default_rng(1), AugmentConfig(), flip=False
        )
        assert not np.array_equal(out, channels)
        assert out.shape == channels.shape


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        cfg = small_config(noise_sigma=0.05)
        manifest = save_dataset(tmp_path / "ds", cfg, count=3, seed=42)
        assert manifest["count"] == 3
        ds = SceneDataset(tmp_path / "ds")
        assert len(ds) == 3
        regenerated = list(generate_dataset(cfg, 3, seed=42))
        for i, (scene, channels) in enumerate(regenerated):
            np.testing.assert_array_equal(ds.scenes[i].boxes, scene.boxes)
            np.testing.assert_array_equal(ds.scenes[i].classes, scene.classes)
            np.testing.assert_array_equal(ds.channels(i), channels)

    def test_scene_independent_of_count(self):
        cfg = small_config()
        three = list(generate_dataset(cfg, 3, seed=9))
        five = list(generate_dataset(cfg, 5, seed=9))
        for (a, ch_a), (b, ch_b) in zip(three, five):
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_array_equal(ch_a, ch_b)

    @pytest.mark.parametrize(
        "stack",
        [
            np.zeros((6, 96, 96), dtype=np.float64),
            np.zeros((96, 96), dtype=np.float32),
            np.zeros((6, 95, 96), dtype=np.float32),
            np.zeros((6, 96, 97), dtype=np.float32),
        ],
        ids=["float64", "2-D", "height", "width"],
    )
    def test_bad_channel_stack_names_the_file(self, tmp_path, stack):
        save_dataset(tmp_path / "ds", small_config(), count=2, seed=3)
        ds = SceneDataset(tmp_path / "ds")
        np.save(tmp_path / "ds" / "scene_00001.npy", stack)
        assert ds.channels(0).shape == (6, 96, 96)
        with pytest.raises(ValueError, match=r"scene_00001\.npy: channel stack is .*expected float32 \(C, 96, 96\)"):
            ds.channels(1)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SceneDataset(tmp_path / "nope")
