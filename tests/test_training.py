"""Training loop: targets, losses with closed-form gradients, EMA,
burn-in, checkpointing, and bit-exact resume."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from orientsemi.config import RunConfig, SemiConfig, Tab1Config
from orientsemi.consistency import NgcConfig
from orientsemi.detector import (
    DetectorConfig,
    ToyDetectorParams,
    decode_dense,
    extract_features,
    forward,
)
from orientsemi.geometry import RotatedBox, rotated_iou
from orientsemi.sampling import build_pairs
from orientsemi.scenes import InMemoryScenes, SceneConfig, generate_scene
from orientsemi.training import (
    Trainer,
    build_supervised_targets,
    consistency_loss,
    ema_update,
    init_state,
    learning_rate_at,
    load_checkpoint,
    localization_quality_map,
    run_training,
    save_checkpoint,
    supervised_loss,
    weighted_pair_loss,
)
from orientsemi.weighting import PairGeometry, modulating_factor

from tests._oracles import fd_gradient


def tiny_scene_config(**kwargs) -> SceneConfig:
    defaults = dict(
        height=32,
        width=32,
        density=2.5e-3,
        long_side_min=6.0,
        long_side_max=12.0,
        noise_sigma=0.02,
    )
    defaults.update(kwargs)
    return SceneConfig(**defaults)


def tiny_run_config(**semi_kwargs) -> RunConfig:
    config = RunConfig(scene=tiny_scene_config())
    config.semi.total_iters = 20
    config.semi.burn_in_frac = 0.25
    config.semi.labeled_batch = 1
    config.semi.unlabeled_batch = 1
    config.semi.score_floor = 0.01
    config.semi.pre_nms_top = 200
    config.semi.iou_pos_samples = 16
    config.semi.iou_neg_samples = 16
    config.tab1.global_threshold = 20
    for key, value in semi_kwargs.items():
        setattr(config.semi, key, value)
    return config


def make_datasets(config: RunConfig, n_labeled=2, n_unlabeled=2):
    items = [
        generate_scene(config.scene, np.random.default_rng(100 + i), scene_id=i)
        for i in range(n_labeled + n_unlabeled)
    ]
    return InMemoryScenes(items[:n_labeled]), InMemoryScenes(items[n_labeled:])


class TestQualityMap:
    def test_one_at_cell_aligned_center(self):
        scene_box = RotatedBox(8.5, 6.5, 5.0, 3.0, 0.7)
        from orientsemi.scenes import SyntheticScene

        scene = SyntheticScene(
            height=16,
            width=16,
            boxes=np.array([scene_box.as_array()]),
            classes=np.array([0]),
            layout="uniform",
            scene_id=0,
        )
        quality = localization_quality_map(scene, 16, 16)
        assert quality[6 * 16 + 8] == pytest.approx(1.0, abs=1e-12)

    def test_matches_polygon_iou_oracle(self):
        from orientsemi.scenes import SyntheticScene

        box = RotatedBox(8.5, 6.5, 5.0, 3.0, 0.7)
        scene = SyntheticScene(
            height=16,
            width=16,
            boxes=np.array([box.as_array()]),
            classes=np.array([0]),
            layout="uniform",
            scene_id=0,
        )
        quality = localization_quality_map(scene, 16, 16)
        for iy, ix in [(6, 10), (5, 8), (7, 7), (4, 11)]:
            shifted = RotatedBox(ix + 0.5, iy + 0.5, 5.0, 3.0, 0.7)
            assert quality[iy * 16 + ix] == pytest.approx(
                rotated_iou(box, shifted), abs=1e-9
            )

    def test_zero_far_away(self):
        from orientsemi.scenes import SyntheticScene

        scene = SyntheticScene(
            height=24,
            width=24,
            boxes=np.array([[5.0, 5.0, 4.0, 2.0, 0.3]]),
            classes=np.array([0]),
            layout="uniform",
            scene_id=0,
        )
        quality = localization_quality_map(scene, 24, 24)
        assert quality[20 * 24 + 20] == 0.0
        assert quality.min() >= 0.0
        assert quality.max() <= 1.0


class TestSupervisedTargets:
    def test_positive_cells_and_values(self):
        config = tiny_scene_config(noise_sigma=0.0)
        scene, _ = generate_scene(config, np.random.default_rng(42))
        targets = build_supervised_targets(scene, config.height, config.width)
        assert targets.pos_flat.size > 0
        assert np.all(targets.t_ctr >= 0.0) and np.all(targets.t_ctr <= 1.0)
        # Direction targets are on the doubled-angle unit circle.
        np.testing.assert_allclose(targets.t_cos**2 + targets.t_sin**2, 1.0, atol=1e-12)
        # Offsets stay within the owner box's AABB half-diagonal.
        assert np.all(np.abs(targets.t_dx) <= config.long_side_max)

    def test_smallest_box_owns_contested_cells(self):
        from orientsemi.scenes import SyntheticScene

        big = [10.0, 10.0, 12.0, 12.0, 0.0]
        small = [10.0, 10.0, 4.0, 4.0, 0.0]
        scene = SyntheticScene(
            height=24,
            width=24,
            boxes=np.array([big, small]),
            classes=np.array([0, 1]),
            layout="uniform",
            scene_id=0,
        )
        targets = build_supervised_targets(scene, 24, 24)
        # Cell at the shared center must belong to the small box (class 1).
        at_center = targets.pos_flat == 10 * 24 + 10
        assert at_center.sum() == 1
        assert targets.pos_class[at_center][0] == 1

    def test_centered_cell_has_unit_centerness(self):
        from orientsemi.scenes import SyntheticScene

        scene = SyntheticScene(
            height=16,
            width=16,
            boxes=np.array([[8.5, 8.5, 6.0, 4.0, 0.5]]),
            classes=np.array([0]),
            layout="uniform",
            scene_id=0,
        )
        targets = build_supervised_targets(scene, 16, 16)
        at_center = targets.pos_flat == 8 * 16 + 8
        assert targets.t_ctr[at_center][0] == pytest.approx(1.0, abs=1e-12)


class TestSupervisedLoss:
    def _setup(self, seed=0):
        config = tiny_scene_config()
        scene, channels = generate_scene(config, np.random.default_rng(seed))
        features = extract_features(channels)
        targets = build_supervised_targets(scene, config.height, config.width)
        det = DetectorConfig(num_classes=config.num_classes)
        params = ToyDetectorParams.initialize(
            config.num_channels, np.random.default_rng(seed + 1), det
        )
        return params, features, targets

    def test_finite_and_positive(self):
        params, features, targets = self._setup()
        loss, grad, parts = supervised_loss(
            params, features, targets, np.random.default_rng(0), 16, 16
        )
        assert math.isfinite(loss) and loss > 0.0
        assert grad.shape == params.weights.shape
        assert loss == pytest.approx(sum(parts.values()), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        params, features, targets = self._setup(seed=3)
        _, grad, _ = supervised_loss(
            params, features, targets, np.random.default_rng(7), 16, 16
        )
        flat = params.weights.ravel()

        def loss_of(vec):
            p = ToyDetectorParams(
                weights=vec.reshape(params.weights.shape), num_classes=params.num_classes
            )
            return supervised_loss(
                p, features, targets, np.random.default_rng(7), 16, 16
            )[0]

        rng = np.random.default_rng(11)
        picks = rng.choice(flat.size, size=25, replace=False)
        fd = fd_gradient(loss_of, flat, indices=picks, step=1e-6)
        np.testing.assert_allclose(grad.ravel()[picks], fd, rtol=2e-4, atol=1e-7)

    def test_zero_gradient_at_perfect_fit(self):
        # With no positives the only active terms are classification and
        # the background quality head; an extremely negative bias makes
        # both probabilities and gradients vanish.
        from orientsemi.scenes import SyntheticScene

        scene = SyntheticScene(
            height=8,
            width=8,
            boxes=np.empty((0, 5)),
            classes=np.empty(0, dtype=np.int64),
            layout="uniform",
            scene_id=0,
        )
        targets = build_supervised_targets(scene, 8, 8)
        det = DetectorConfig(num_classes=3)
        weights = np.zeros((det.num_heads, 22))
        weights[:3, -1] = -60.0
        weights[3 + 7, -1] = -60.0
        params = ToyDetectorParams(weights=weights, num_classes=3)
        channels = np.zeros((6, 8, 8), dtype=np.float32)
        loss, grad, _ = supervised_loss(
            params, extract_features(channels), targets, np.random.default_rng(0), 4, 4
        )
        assert loss == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(grad, 0.0, atol=1e-20)


def build_test_pairs(seed=0, grid=24):
    """Teacher/student predictions different enough to produce pairs."""
    config = tiny_scene_config(height=grid, width=grid)
    scene, channels = generate_scene(config, np.random.default_rng(seed))
    det = DetectorConfig(num_classes=config.num_classes)
    features = extract_features(channels)
    teacher_params = ToyDetectorParams.initialize(
        config.num_channels, np.random.default_rng(seed + 1), det
    )
    # Push the teacher's class scores up so the sampler finds candidates.
    teacher_params.weights[: det.num_classes, -1] = 0.5
    student_params = ToyDetectorParams.initialize(
        config.num_channels, np.random.default_rng(seed + 2), det
    )
    teacher_raw = forward(teacher_params, features)
    student_raw = forward(student_params, features)
    teacher_pred = decode_dense(teacher_params, teacher_raw, grid, grid, det)
    student_pred = decode_dense(student_params, student_raw, grid, grid, det)
    run = RunConfig(scene=config)
    run.semi.pre_nms_top = 200
    pairs = build_pairs(teacher_pred, student_pred, run.sampler_config(), np.random.default_rng(5))
    return run, det, student_params, student_raw, features, pairs


class TestWeightedPairLoss:
    def test_empty_pairs_are_zero(self):
        run, det, params, raw, features, pairs = build_test_pairs()
        from orientsemi.sampling import PackedItems, PseudoLabelSet

        empty = PseudoLabelSet(
            iy=np.empty(0, dtype=np.int64),
            ix=np.empty(0, dtype=np.int64),
            provenance=np.empty(0, dtype=np.int8),
            teacher=PackedItems(
                boxes=np.empty((0, 5)),
                score_rows=np.empty((0, 3)),
                centerness=np.empty(0),
                class_index=np.empty(0, dtype=np.int64),
            ),
        )
        loss, grad, _ = weighted_pair_loss(
            params, raw, features, empty, run.scene.width, 50.0, True, det.min_side, det.max_side
        )
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_weights_match_reference_factor(self):
        run, det, params, raw, features, pairs = build_test_pairs(seed=2)
        assert len(pairs) > 0
        _, _, parts = weighted_pair_loss(
            params, raw, features, pairs, run.scene.width, 50.0, True, det.min_side, det.max_side
        )
        # Recompute the mean weight from the scalar reference on each pair.
        k = det.num_classes
        cols = pairs.iy * run.scene.width + pairs.ix
        c_raw = raw[k + 4, cols]
        s_raw = raw[k + 5, cols]
        student_angle = 0.5 * np.arctan2(s_raw, c_raw)
        log_lo, log_hi = math.log(det.min_side), math.log(det.max_side)
        lw = np.clip(raw[k + 2, cols], log_lo, log_hi)
        lh = np.clip(raw[k + 3, cols], log_lo, log_hi)
        t_boxes = pairs.teacher.boxes
        factors = [
            modulating_factor(
                PairGeometry(
                    teacher_angle=t_boxes[i, 4],
                    student_angle=student_angle[i],
                    teacher_aspect=max(t_boxes[i, 2], t_boxes[i, 3])
                    / min(t_boxes[i, 2], t_boxes[i, 3]),
                    student_aspect=math.exp(abs(lw[i] - lh[i])),
                ),
                psi=50.0,
            )
            for i in range(len(pairs))
        ]
        assert parts["mean_weight"] == pytest.approx(np.mean(factors), rel=1e-12)

    def test_disabled_weighting_is_plain_mean(self):
        run, det, params, raw, features, pairs = build_test_pairs(seed=4)
        loss_on, _, parts_on = weighted_pair_loss(
            params, raw, features, pairs, run.scene.width, 50.0, True, det.min_side, det.max_side
        )
        loss_off, _, parts_off = weighted_pair_loss(
            params, raw, features, pairs, run.scene.width, 50.0, False, det.min_side, det.max_side
        )
        assert parts_off["mean_weight"] == 1.0
        assert loss_on >= loss_off - 1e-12

    def _reference_omega(self, det, raw, pairs, width):
        k = det.num_classes
        cols = pairs.iy * width + pairs.ix
        c_raw = raw[k + 4, cols]
        s_raw = raw[k + 5, cols]
        student_angle = 0.5 * np.arctan2(s_raw, c_raw)
        log_lo, log_hi = math.log(det.min_side), math.log(det.max_side)
        lw = np.clip(raw[k + 2, cols], log_lo, log_hi)
        lh = np.clip(raw[k + 3, cols], log_lo, log_hi)
        t = pairs.teacher.boxes
        gap = np.abs(t[:, 4] - student_angle)
        aspect_t = np.maximum(t[:, 2], t[:, 3]) / np.minimum(t[:, 2], t[:, 3])
        aspect_s = np.exp(np.abs(lw - lh))
        return 1.0 + (50.0 / math.pi) * gap * 0.5 * (aspect_t + aspect_s)

    def test_weight_is_constant_in_the_gradient(self):
        # The modulating weight grades pair difficulty; it is recomputed
        # each call but enters the gradient as a frozen coefficient.
        run, det, params, raw, features, pairs = build_test_pairs(seed=6)
        omega = self._reference_omega(det, raw, pairs, run.scene.width)
        loss_live, grad_live, _ = weighted_pair_loss(
            params, raw, features, pairs, run.scene.width, 50.0, True,
            det.min_side, det.max_side,
        )
        loss_pin, grad_pin, _ = weighted_pair_loss(
            params, raw, features, pairs, run.scene.width, 50.0, True,
            det.min_side, det.max_side, omega_override=omega,
        )
        assert loss_live == pytest.approx(loss_pin, rel=1e-15)
        np.testing.assert_array_equal(grad_live, grad_pin)

    @pytest.mark.parametrize("enable_gaw", [False, True])
    def test_gradient_matches_finite_differences(self, enable_gaw):
        run, det, params, raw, features, pairs = build_test_pairs(seed=6)
        assert len(pairs) > 0
        # Pin the weights at the base point: the gradient contract treats
        # them as data, so the finite-difference probe must as well.
        omega = (
            self._reference_omega(det, raw, pairs, run.scene.width) if enable_gaw else None
        )
        _, grad, _ = weighted_pair_loss(
            params, raw, features, pairs, run.scene.width, 50.0, enable_gaw,
            det.min_side, det.max_side,
        )
        flat = params.weights.ravel()

        def loss_of(vec):
            p = ToyDetectorParams(
                weights=vec.reshape(params.weights.shape), num_classes=params.num_classes
            )
            raw_p = forward(p, features)
            return weighted_pair_loss(
                p, raw_p, features, pairs, run.scene.width, 50.0, enable_gaw,
                det.min_side, det.max_side, omega_override=omega,
            )[0]

        picks = np.random.default_rng(9).choice(flat.size, size=20, replace=False)
        fd = fd_gradient(loss_of, flat, indices=picks, step=1e-6)
        np.testing.assert_allclose(grad.ravel()[picks], fd, rtol=5e-4, atol=1e-6)


class TestConsistencyLoss:
    def test_gated_below_threshold(self):
        run, det, params, raw, features, pairs = build_test_pairs(seed=2)
        run.tab1.global_threshold = len(pairs) + 1
        loss, grad, diag = consistency_loss(
            params, raw, features, pairs, run.scene.width, run, np.random.default_rng(0)
        )
        assert diag["gated"] is True
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_mass_chain_matches_finite_differences(self):
        # Gradients flow through the student's mass vector only; the cost
        # matrix is data.  Pinning the score vector while the mass varies
        # isolates exactly that path, so central differences must agree.
        from orientsemi.consistency import GlobalDistribution, ngc_loss
        from scipy.special import expit

        rng = np.random.default_rng(0)
        n = 12
        positions = rng.uniform(0.0, 24.0, size=(n, 2))
        t_scores = rng.uniform(0.2, 0.9, size=n)
        cls = rng.integers(0, 3, size=n)
        teacher = GlobalDistribution(np.exp(t_scores), positions, t_scores, cls)
        # Tight solver tolerance: the envelope gradient is exact only at
        # the true fixed point, so solver slack shows up in the match.
        cfg = NgcConfig(beta=0.0, global_threshold=5, tolerance=1e-12, max_iters=20_000)
        pinned_scores = rng.uniform(0.2, 0.9, size=n)
        z0 = rng.normal(size=n)

        def loss_of(z):
            student = GlobalDistribution(np.exp(expit(z)), positions, pinned_scores, cls)
            return ngc_loss(teacher, student, cfg, np.random.default_rng(1)).loss

        p0 = expit(z0)
        result = ngc_loss(
            teacher,
            GlobalDistribution(np.exp(p0), positions, pinned_scores, cls),
            cfg,
            np.random.default_rng(1),
        )
        assert not result.gated
        analytic = result.grad_values * np.exp(p0) * p0 * (1.0 - p0)
        fd = fd_gradient(loss_of, z0, step=1e-6)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-10)

    def test_matches_recomposed_chain(self):
        # The training-side wrapper must equal the composition of the
        # consistency term (independently verified) with the sigmoid/exp
        # chain and the per-pair scatter into the weight gradient.
        from orientsemi.consistency import GlobalDistribution, ngc_loss
        from scipy.special import expit

        run, det, params, raw, features, pairs = build_test_pairs(seed=3)
        assert len(pairs) >= 5
        run.tab1.global_threshold = min(len(pairs), 5)
        loss, grad, diag = consistency_loss(
            params, raw, features, pairs, run.scene.width, run, np.random.default_rng(4)
        )
        assert diag["gated"] is False
        k = det.num_classes
        cols = pairs.iy * run.scene.width + pairs.ix
        cidx = pairs.teacher.class_index
        rows = np.arange(len(pairs))
        t_s = pairs.teacher.score_rows[rows, cidx]
        teacher = GlobalDistribution(np.exp(t_s), pairs.xy(), t_s, cidx)
        p = expit(raw[cidx, cols])
        student = GlobalDistribution(np.exp(p), pairs.xy(), p, cidx)
        result = ngc_loss(teacher, student, run.ngc_config(), np.random.default_rng(4))
        assert loss == pytest.approx(result.loss, abs=1e-15)
        d_z = result.grad_values * student.values * p * (1.0 - p)
        d_cols = np.zeros((raw.shape[0], len(pairs)))
        d_cols[cidx, rows] = d_z
        np.testing.assert_allclose(grad, d_cols @ features[:, cols].T, rtol=1e-12, atol=1e-15)


class TestSchedule:
    def test_learning_rate_steps(self):
        config = tiny_run_config()
        config.semi.total_iters = 900
        config.semi.lr = 0.0025
        assert learning_rate_at(config, 0) == pytest.approx(0.0025)
        assert learning_rate_at(config, 599) == pytest.approx(0.0025)
        assert learning_rate_at(config, 600) == pytest.approx(0.00025)
        assert learning_rate_at(config, 799) == pytest.approx(0.00025)
        assert learning_rate_at(config, 800) == pytest.approx(0.000025)

    def test_ema_closed_form(self):
        config = tiny_run_config()
        config.semi.ema_momentum = 0.9
        state = init_state(config)
        state.teacher = state.student.copy()
        t0 = state.teacher.weights.copy()
        s0 = state.student.weights.copy()
        ema_update(state)
        np.testing.assert_allclose(state.teacher.weights, 0.9 * t0 + 0.1 * s0, rtol=1e-15)
        s1 = state.student.weights
        ema_update(state)
        np.testing.assert_allclose(
            state.teacher.weights, 0.81 * t0 + 0.09 * s0 + 0.1 * s1, rtol=1e-14
        )


class TestTrainingRuns:
    def test_burn_in_then_unsupervised(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        state, metrics = run_training(config, labeled, unlabeled, out_dir=tmp_path / "run")
        burn_in = config.semi.burn_in_iters
        for record in metrics:
            if record["iter"] < burn_in:
                assert record["loss_gaw"] == 0.0
                assert record["loss_ngc"] == 0.0
                assert record["n_pairs"] == 0
        assert state.teacher is not None
        assert any(r["n_pairs"] > 0 for r in metrics if r["iter"] >= burn_in)

    def test_metrics_decompose_exactly(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        _, metrics = run_training(config, labeled, unlabeled)
        assert len(metrics) == config.semi.total_iters
        for record in metrics:
            assert record["loss_total"] == pytest.approx(
                record["loss_s"] + record["loss_gaw"] + record["loss_ngc"], abs=1e-9
            )
            assert record["loss_ngc"] == pytest.approx(
                record["loss_gc"] + record["loss_gc_noisy"] + record["loss_plan"], abs=1e-9
            )
            assert record["n_pairs"] == record["n_easy"] + record["n_hard"]

    def test_supervised_only_never_builds_teacher(self):
        config = tiny_run_config(supervised_only=True)
        labeled, unlabeled = make_datasets(config)
        state, metrics = run_training(config, labeled, unlabeled)
        assert state.teacher is None
        assert all(r["loss_gaw"] == 0.0 and r["n_pairs"] == 0 for r in metrics)

    def test_topk_sampler_runs(self):
        config = tiny_run_config(sampler="topk", topk=32)
        labeled, unlabeled = make_datasets(config)
        _, metrics = run_training(config, labeled, unlabeled)
        post = [r for r in metrics if r["iter"] >= config.semi.burn_in_iters]
        assert any(r["n_pairs"] > 0 for r in post)
        assert all(r["n_pairs"] <= 32 for r in post)

    def test_identical_seeds_identical_runs(self):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        state_a, metrics_a = run_training(config, labeled, unlabeled)
        state_b, metrics_b = run_training(config, labeled, unlabeled)
        np.testing.assert_array_equal(state_a.student.weights, state_b.student.weights)
        assert metrics_a == metrics_b


class TestCheckpointing:
    def test_round_trip(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        state, _ = run_training(config, labeled, unlabeled, out_dir=tmp_path / "run")
        loaded = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        np.testing.assert_array_equal(loaded.student.weights, state.student.weights)
        np.testing.assert_array_equal(loaded.teacher.weights, state.teacher.weights)
        np.testing.assert_array_equal(loaded.momentum_buffer, state.momentum_buffer)
        assert loaded.iteration == state.iteration
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
        assert loaded.config.to_dict() == config.to_dict()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_resume_is_bit_exact(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)

        full_dir = tmp_path / "full"
        state_full, _ = run_training(config, labeled, unlabeled, out_dir=full_dir)

        split_dir = tmp_path / "split"
        run_training(config, labeled, unlabeled, out_dir=split_dir, stop_after=9)
        state_resumed, _ = run_training(
            config,
            labeled,
            unlabeled,
            out_dir=split_dir,
            resume_from=split_dir / "checkpoint.bin",
        )
        np.testing.assert_array_equal(
            state_resumed.student.weights, state_full.student.weights
        )
        assert (split_dir / "metrics.jsonl").read_bytes() == (
            full_dir / "metrics.jsonl"
        ).read_bytes()

    def test_write_failing_midway_keeps_last_checkpoint(self, tmp_path, monkeypatch):
        from orientsemi import records

        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        full_dir = tmp_path / "full"
        run_training(config, labeled, unlabeled, out_dir=full_dir)

        class TornFile:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                raise OSError("No space left on device")

        checkpoint_writes = []

        def failing_open(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            if Path(path).name.startswith("checkpoint.bin"):
                checkpoint_writes.append(path)
                if len(checkpoint_writes) == 2:
                    return TornFile(handle)
            return handle

        split_dir = tmp_path / "split"
        monkeypatch.setattr(records, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            run_training(config, labeled, unlabeled, out_dir=split_dir, checkpoint_every=5)
        monkeypatch.undo()

        assert load_checkpoint(split_dir / "checkpoint.bin").iteration == 5
        run_training(
            config, labeled, unlabeled, out_dir=split_dir, resume_from=split_dir / "checkpoint.bin"
        )
        for name in ("metrics.jsonl", "checkpoint.bin"):
            assert (split_dir / name).read_bytes() == (full_dir / name).read_bytes(), name

    def test_resume_rejects_config_mismatch(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        run_training(config, labeled, unlabeled, out_dir=tmp_path / "run", stop_after=4)
        other = tiny_run_config()
        other.semi.lr = 0.999
        with pytest.raises(ValueError):
            run_training(
                other,
                labeled,
                unlabeled,
                out_dir=tmp_path / "run",
                resume_from=tmp_path / "run" / "checkpoint.bin",
            )

    def test_metrics_file_valid_json(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        run_training(config, labeled, unlabeled, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == config.semi.total_iters
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["iter"] == i

    def test_dump_pseudo_writes_records(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        run_training(
            config, labeled, unlabeled, out_dir=tmp_path / "run", dump_pseudo=True
        )
        path = tmp_path / "run" / "pseudo.jsonl"
        assert path.exists()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records, "expected at least one pseudo-label record"
        for record in records:
            assert record["n_pairs"] == record["n_easy"] + record["n_hard"]
            assert len(record["positions"]) == record["n_pairs"]
