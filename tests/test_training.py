"""Training loop: targets, losses with closed-form gradients, EMA,
burn-in, checkpointing, and bit-exact resume."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orientsemi.config import RunConfig, SemiConfig, Tab1Config
from orientsemi.detector import (
    NUM_EXTRA_HEADS,
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
from orientsemi import training
from tests._oracles import PairGeometry, PerViewFloat32Trainer, fd_gradient, modulating_factor


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
        t_dx, _, _, _, t_cos, t_sin = targets.encoded
        # Direction targets are on the doubled-angle unit circle.
        np.testing.assert_allclose(t_cos**2 + t_sin**2, 1.0, atol=1e-12)
        # Offsets stay within the owner box's AABB half-diagonal.
        assert np.all(np.abs(t_dx) <= config.long_side_max)

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
        params = ToyDetectorParams.initialize(
            config.num_channels, config.num_classes, np.random.default_rng(seed + 1), DetectorConfig()
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
        weights = np.zeros((3 + NUM_EXTRA_HEADS, 22))
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
    det = DetectorConfig()
    features = extract_features(channels)
    teacher_params = ToyDetectorParams.initialize(
        config.num_channels, config.num_classes, np.random.default_rng(seed + 1), det
    )
    # Push the teacher's class scores up so the sampler finds candidates.
    teacher_params.weights[: config.num_classes, -1] = 0.5
    student_params = ToyDetectorParams.initialize(
        config.num_channels, config.num_classes, np.random.default_rng(seed + 2), det
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
        from orientsemi.sampling import PseudoLabelSet

        empty = PseudoLabelSet(
            iy=np.empty(0, dtype=np.int64),
            ix=np.empty(0, dtype=np.int64),
            provenance=np.empty(0, dtype=np.int8),
            boxes=np.empty((0, 5)),
            score_rows=np.empty((0, 3)),
            centerness=np.empty(0),
            class_index=np.empty(0, dtype=np.int64),
        )
        loss, grad, _ = weighted_pair_loss(params, raw, features, empty, run)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_weights_match_reference_factor(self):
        run, det, params, raw, features, pairs = build_test_pairs(seed=2)
        assert len(pairs) > 0
        _, _, parts = weighted_pair_loss(params, raw, features, pairs, run)
        # Recompute the mean weight from the scalar reference on each pair.
        k = params.num_classes
        cols = pairs.iy * run.scene.width + pairs.ix
        c_raw = raw[k + 4, cols]
        s_raw = raw[k + 5, cols]
        student_angle = 0.5 * np.arctan2(s_raw, c_raw)
        log_lo, log_hi = math.log(det.min_side), math.log(det.max_side)
        lw = np.clip(raw[k + 2, cols], log_lo, log_hi)
        lh = np.clip(raw[k + 3, cols], log_lo, log_hi)
        t_boxes = pairs.boxes
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
        loss_on, _, parts_on = weighted_pair_loss(params, raw, features, pairs, run)
        run.semi.enable_gaw = False
        loss_off, _, parts_off = weighted_pair_loss(params, raw, features, pairs, run)
        assert parts_off["mean_weight"] == 1.0
        assert loss_on >= loss_off - 1e-12

    def _reference_omega(self, det, raw, pairs, width):
        k = pairs.score_rows.shape[1]
        cols = pairs.iy * width + pairs.ix
        c_raw = raw[k + 4, cols]
        s_raw = raw[k + 5, cols]
        student_angle = 0.5 * np.arctan2(s_raw, c_raw)
        log_lo, log_hi = math.log(det.min_side), math.log(det.max_side)
        lw = np.clip(raw[k + 2, cols], log_lo, log_hi)
        lh = np.clip(raw[k + 3, cols], log_lo, log_hi)
        t = pairs.boxes
        gap = np.abs(t[:, 4] - student_angle)
        aspect_t = np.maximum(t[:, 2], t[:, 3]) / np.minimum(t[:, 2], t[:, 3])
        aspect_s = np.exp(np.abs(lw - lh))
        return 1.0 + (50.0 / math.pi) * gap * 0.5 * (aspect_t + aspect_s)

    def test_weight_is_constant_in_the_gradient(self):
        # The modulating weight grades pair difficulty; it is recomputed
        # each call but enters the gradient as a frozen coefficient.
        run, det, params, raw, features, pairs = build_test_pairs(seed=6)
        omega = self._reference_omega(det, raw, pairs, run.scene.width)
        loss_live, grad_live, _ = weighted_pair_loss(params, raw, features, pairs, run)
        loss_pin, grad_pin, _ = weighted_pair_loss(params, raw, features, pairs, run, omega_override=omega)
        assert loss_live == pytest.approx(loss_pin, rel=1e-15)
        np.testing.assert_array_equal(grad_live, grad_pin)

    @pytest.mark.parametrize("enable_gaw", [False, True])
    def test_gradient_matches_finite_differences(self, enable_gaw):
        run, det, params, raw, features, pairs = build_test_pairs(seed=6)
        run.semi.enable_gaw = enable_gaw
        assert len(pairs) > 0
        # Pin the weights at the base point: the gradient contract treats
        # them as data, so the finite-difference probe must as well.
        omega = (
            self._reference_omega(det, raw, pairs, run.scene.width) if enable_gaw else None
        )
        _, grad, _ = weighted_pair_loss(params, raw, features, pairs, run)
        flat = params.weights.ravel()

        def loss_of(vec):
            p = ToyDetectorParams(
                weights=vec.reshape(params.weights.shape), num_classes=params.num_classes
            )
            raw_p = forward(p, features)
            return weighted_pair_loss(p, raw_p, features, pairs, run, omega_override=omega)[0]

        picks = np.random.default_rng(9).choice(flat.size, size=20, replace=False)
        fd = fd_gradient(loss_of, flat, indices=picks, step=1e-6)
        np.testing.assert_allclose(grad.ravel()[picks], fd, rtol=5e-4, atol=1e-6)


class TestConsistencyLoss:
    def test_gated_below_threshold(self):
        run, det, params, raw, features, pairs = build_test_pairs(seed=2)
        run.tab1.global_threshold = len(pairs) + 1
        loss, grad, diag = consistency_loss(params, raw, features, pairs, run, np.random.default_rng(0))
        assert diag["gated"] is True
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_mass_chain_matches_finite_differences(self, monkeypatch):
        # Gradients flow through the student's mass vector only; the cost
        # matrix is data.  Pinning the cost matrix while the scores vary
        # isolates exactly that path, so central differences must agree.
        from orientsemi import consistency
        from orientsemi.consistency import ngc_loss
        from orientsemi.transport import build_cost_matrix
        from scipy.special import expit

        rng = np.random.default_rng(0)
        n = 12
        positions = rng.uniform(0.0, 24.0, size=(n, 2))
        t_scores = rng.uniform(0.2, 0.9, size=n)
        # Tight solver tolerance: the envelope gradient is exact only at
        # the true fixed point, so solver slack shows up in the match.
        cfg = RunConfig(
            semi=SemiConfig(ot_tolerance=1e-12, ot_max_iters=20_000), tab1=Tab1Config(beta=0.0, global_threshold=5)
        )
        pinned_scores = rng.uniform(0.2, 0.9, size=n)
        z0 = rng.normal(size=n)
        cost = build_cost_matrix(positions, t_scores, positions, pinned_scores)
        monkeypatch.setattr(consistency, "build_cost_matrix", lambda *args: cost)

        def loss_of(z):
            return ngc_loss(positions, t_scores, expit(z), cfg, np.random.default_rng(1)).loss

        p0 = expit(z0)
        result = ngc_loss(positions, t_scores, p0, cfg, np.random.default_rng(1))
        assert not result.gated
        analytic = result.grad_scores * p0 * (1.0 - p0)
        fd = fd_gradient(loss_of, z0, step=1e-6)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-10)

    def test_matches_recomposed_chain(self):
        # The training-side wrapper must equal the composition of the
        # consistency term (independently verified) with the sigmoid
        # chain and the per-pair scatter into the weight gradient.
        from orientsemi.consistency import ngc_loss
        from scipy.special import expit

        run, det, params, raw, features, pairs = build_test_pairs(seed=3)
        assert len(pairs) >= 5
        run.tab1.global_threshold = min(len(pairs), 5)
        loss, grad, diag = consistency_loss(params, raw, features, pairs, run, np.random.default_rng(4))
        assert diag["gated"] is False
        k = params.num_classes
        cols = pairs.iy * run.scene.width + pairs.ix
        cidx = pairs.class_index
        rows = np.arange(len(pairs))
        p = expit(raw[cidx, cols])
        result = ngc_loss(pairs.xy(), pairs.score_rows[rows, cidx], p, run, np.random.default_rng(4))
        assert loss == pytest.approx(result.loss, abs=1e-15)
        d_z = result.grad_scores * p * (1.0 - p)
        d_cols = np.zeros((raw.shape[0], len(pairs)))
        d_cols[cidx, rows] = d_z
        np.testing.assert_allclose(grad, d_cols @ features[:, cols].T, rtol=1e-12, atol=1e-15)

    def test_unconverged_solve_raises(self):
        # One Sinkhorn iteration cannot meet the tolerance on a scene with
        # several pairs; the run must stop rather than apply that gradient.
        config = tiny_run_config(ot_max_iters=1)
        config.tab1.global_threshold = 2
        labeled, unlabeled = make_datasets(config)
        message = r"n=\d+ pairs did not converge: 1 iterations, marginal error"
        with pytest.raises(RuntimeError, match=message):
            run_training(config, labeled, unlabeled)


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

    def test_nonfinite_gradient_raises_before_update(self):
        config = tiny_run_config(flip_probability=0.0)
        labeled, unlabeled = make_datasets(config)
        trainer = Trainer(config, labeled, unlabeled)
        state = init_state(config)
        _, features = trainer.features_for(0, False)
        features[0, 0] = np.nan  # poisons the cached feature matrix in place
        weights = state.student.weights.copy()
        momentum = state.momentum_buffer.copy()
        message = r"iteration 0: gradient norm is nan \(loss_s=nan, loss_gaw=0\.0, loss_ngc=0\.0\)"
        with pytest.raises(FloatingPointError, match=message):
            trainer.train_step(state, [0], [])
        np.testing.assert_array_equal(state.student.weights, weights)
        np.testing.assert_array_equal(state.momentum_buffer, momentum)
        assert state.iteration == 0


class TestFeaturePath:
    """The float64 path: one cached matrix per labeled scene, flips
    mirrored from it, unlabeled views read once per step, and the step's
    grid-sized arrays in buffers the trainer owns."""

    def test_same_bytes_as_per_view_float32_oracle(self, tmp_path, monkeypatch):
        config = tiny_run_config(flip_probability=0.5)
        labeled, unlabeled = make_datasets(config, n_labeled=3, n_unlabeled=3)
        run_training(config, labeled, unlabeled, out_dir=tmp_path / "new", dump_pseudo=True)
        monkeypatch.setattr(training, "Trainer", PerViewFloat32Trainer)
        run_training(config, labeled, unlabeled, out_dir=tmp_path / "oracle", dump_pseudo=True)
        for name in ("metrics.jsonl", "pseudo.jsonl", "checkpoint.bin"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
        views = [json.loads(line) for line in (tmp_path / "new" / "pseudo.jsonl").read_text().splitlines()]
        assert {view["flip"] for view in views} == {False, True}
        assert sum(view["n_pairs"] for view in views) > 0

    @pytest.mark.parametrize("semi, budget", [(False, 1), (True, 2)], ids=["supervised", "semi"])
    def test_warm_step_allocates_under_budget(self, semi, budget):
        # Budget in float64 feature matrices of the grid.  Flipped labeled
        # views run the mirror; the unlabeled view samples pairs and runs
        # the consistency term.
        config = tiny_run_config(flip_probability=1.0, labeled_batch=2, pre_nms_top=20, max_hard=20)
        config.scene = tiny_scene_config(height=64, width=64, density=6e-4)
        labeled, unlabeled = make_datasets(config, n_labeled=2, n_unlabeled=1)
        trainer = Trainer(config, labeled, unlabeled)
        state = init_state(config)
        if semi:
            state.teacher = state.student.copy()
        unlabeled_idx = [0] if semi else []
        for _ in range(2):
            trainer.train_step(state, [0, 1], unlabeled_idx)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            record = trainer.train_step(state, [0, 1], unlabeled_idx)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (record["n_pairs"] > 0) == semi
        feature_matrix = 8 * config.detector.num_features(config.scene.num_channels) * 64 * 64
        assert peak < budget * feature_matrix


    def test_evicting_cache_gives_same_bytes(self, tmp_path, monkeypatch):
        config = tiny_run_config(flip_probability=0.5, labeled_batch=2)
        labeled, unlabeled = make_datasets(config, n_labeled=5, n_unlabeled=2)
        run_training(config, labeled, unlabeled, out_dir=tmp_path / "unbounded")
        matrix = 8 * config.detector.num_features(config.scene.num_channels) * 32 * 32
        bound = int(2.5 * matrix)
        monkeypatch.setattr(training, "_FEATURE_CACHE_BYTES", bound)
        seen, sizes = set(), []

        class CheckedTrainer(Trainer):
            def features_for(self, index, flip):
                result = super().features_for(index, flip)
                seen.add(index)
                sizes.append(len(self._features))
                assert self._feature_bytes == sum(f.nbytes for f in self._features.values())
                assert len(self._features) == 1 or self._feature_bytes <= bound
                return result

        monkeypatch.setattr(training, "Trainer", CheckedTrainer)
        run_training(config, labeled, unlabeled, out_dir=tmp_path / "bounded")
        assert max(sizes) == 2 and len(seen) == 5
        assert (tmp_path / "bounded" / "metrics.jsonl").read_bytes() == (
            tmp_path / "unbounded" / "metrics.jsonl"
        ).read_bytes()


class TestSplitChecks:
    """A split that does not fit the run fails before iteration 0."""

    def test_canvas_mismatch_raises(self, tmp_path):
        config = tiny_run_config()
        config.scene = tiny_scene_config(height=48, width=48)
        big = tiny_scene_config(height=64, width=64)
        labeled = InMemoryScenes([generate_scene(big, np.random.default_rng(1), scene_id=7)])
        message = r"^labeled split: scene 7 has height 64, but scene\.height is 48$"
        with pytest.raises(ValueError, match=message):
            run_training(config, labeled, out_dir=tmp_path)
        assert not (tmp_path / "metrics.jsonl").exists()
        assert not (tmp_path / "checkpoint.bin").exists()

    def test_class_index_out_of_range_raises(self, tmp_path):
        config = tiny_run_config()
        labeled, _ = make_datasets(config)
        four = tiny_scene_config(num_classes=4)
        items = [generate_scene(four, np.random.default_rng(200 + i), scene_id=i) for i in range(6)]
        assert any(np.any(scene.classes == 3) for scene, _ in items)
        message = r"^unlabeled split: scene \d+ has class index 3, but scene\.num_classes is 3$"
        with pytest.raises(ValueError, match=message):
            run_training(config, labeled, InMemoryScenes(items), out_dir=tmp_path)
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_empty_labeled_split_raises(self, tmp_path):
        config = tiny_run_config()
        _, unlabeled = make_datasets(config)
        with pytest.raises(ValueError, match=r"^labeled split has no scenes$"):
            run_training(config, InMemoryScenes([]), unlabeled, out_dir=tmp_path)
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_empty_unlabeled_split_raises(self, tmp_path):
        # Without the check the run would train supervised-only, silently.
        config = tiny_run_config()
        labeled, _ = make_datasets(config)
        with pytest.raises(ValueError, match=r"^unlabeled split has no scenes$"):
            run_training(config, labeled, InMemoryScenes([]), out_dir=tmp_path)
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_config_mutated_in_code_is_checked(self):
        # The sampler reads score_floor only after burn-in; the check must
        # not wait for it.
        config = tiny_run_config(score_floor=2.0)
        labeled, unlabeled = make_datasets(config)
        with pytest.raises(ValueError, match="score_floor"):
            run_training(config, labeled, unlabeled, stop_after=1)


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

    def test_resume_keeps_earlier_pseudo_records(self, tmp_path):
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        full_dir = tmp_path / "full"
        run_training(config, labeled, unlabeled, out_dir=full_dir, dump_pseudo=True)
        lines = (full_dir / "pseudo.jsonl").read_text().splitlines()
        iters = [json.loads(line)["iter"] for line in lines]
        assert min(iters) < 12 <= max(iters)

        split_dir = tmp_path / "split"
        run_training(config, labeled, unlabeled, out_dir=split_dir, dump_pseudo=True, stop_after=12)
        run_training(
            config,
            labeled,
            unlabeled,
            out_dir=split_dir,
            dump_pseudo=True,
            resume_from=split_dir / "checkpoint.bin",
        )
        assert (split_dir / "pseudo.jsonl").read_bytes() == (full_dir / "pseudo.jsonl").read_bytes()

    def test_resume_after_crash_keeps_pseudo_records(self, tmp_path, monkeypatch):
        # A run killed between periodic checkpoints never reaches its final
        # write; the checkpoint's pseudo records must already be on disk.
        config = tiny_run_config()
        labeled, unlabeled = make_datasets(config)
        full_dir = tmp_path / "full"
        run_training(config, labeled, unlabeled, out_dir=full_dir, dump_pseudo=True)

        class Crash(Exception):
            pass

        step = Trainer.train_step

        def crashing_step(self, state, *args):
            if state.iteration == 13:
                raise Crash
            return step(self, state, *args)

        split_dir = tmp_path / "split"
        monkeypatch.setattr(Trainer, "train_step", crashing_step)
        with pytest.raises(Crash):
            run_training(
                config, labeled, unlabeled, out_dir=split_dir, checkpoint_every=5, dump_pseudo=True
            )
        monkeypatch.setattr(Trainer, "train_step", step)
        assert load_checkpoint(split_dir / "checkpoint.bin").iteration == 10
        with open(split_dir / "pseudo.jsonl", "a") as handle:
            handle.write('{"iter": 10, "cut sh')  # an append killed part-way
        run_training(
            config,
            labeled,
            unlabeled,
            out_dir=split_dir,
            dump_pseudo=True,
            resume_from=split_dir / "checkpoint.bin",
        )
        assert (split_dir / "pseudo.jsonl").read_bytes() == (full_dir / "pseudo.jsonl").read_bytes()

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
