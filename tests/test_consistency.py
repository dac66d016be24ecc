from types import SimpleNamespace

import numpy as np
import pytest

from scipy.special import expit

from orientsemi import consistency, training
from orientsemi.config import RunConfig, SemiConfig, Tab1Config
from orientsemi.consistency import CLAMP_FLOOR, ngc_loss, perturb, plan_divergence
from orientsemi.detector import NUM_EXTRA_HEADS, ToyDetectorParams
from orientsemi.sampling import PROVENANCE_EASY, PseudoLabelSet
from orientsemi.scenes import SceneConfig
from orientsemi.transport import build_cost_matrix, gc_loss

from tests._oracles import fd_gradient


def run_config(global_threshold: int = 150, beta: float = 0.3, **semi) -> RunConfig:
    """The stock run config with the given NGC settings: the ``[tab1]``
    gate and noise scale, and ``[semi]`` fields such as ``ot_max_iters``."""
    return RunConfig(semi=SemiConfig(**semi), tab1=Tab1Config(beta=beta, global_threshold=global_threshold))


def paired(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and the teacher and student scores at each teacher
    row's argmax class."""
    positions = rng.random((n, 2)) * 64.0
    teacher_rows = rng.random((n, 3))
    student_rows = np.clip(teacher_rows + 0.1 * rng.standard_normal((n, 3)), 0.0, 1.0)
    at = np.arange(n)
    class_index = np.argmax(teacher_rows, axis=1)
    return positions, teacher_rows[at, class_index], student_rows[at, class_index]


def built_distributions(score_rows: np.ndarray, class_index: np.ndarray, logits: np.ndarray, monkeypatch):
    """The teacher and student positions, scores and masses that
    ``training.consistency_loss`` builds, through :func:`ngc_loss`, for
    pairs at cells (0, 0), (0, 1), ... of an 8 x 64 grid; ``logits`` are
    the student's (K, n) class logits there.  Read off the cost matrix
    and the clean solve's arguments."""
    k, n = logits.shape
    config = RunConfig(
        scene=SceneConfig(height=8, width=64, num_classes=k), tab1=Tab1Config(beta=0.0, global_threshold=0)
    )
    raw = np.zeros((k + NUM_EXTRA_HEADS, 8 * 64))
    raw[:k, :n] = logits
    pairs = PseudoLabelSet(
        iy=np.zeros(n, dtype=np.int64),
        ix=np.arange(n),
        provenance=np.full(n, PROVENANCE_EASY, dtype=np.int8),
        boxes=np.ones((n, 5)),
        score_rows=score_rows,
        centerness=np.ones(n),
        class_index=class_index,
    )
    teacher, student = SimpleNamespace(), SimpleNamespace()

    def cost_spy(source_positions, source_scores, target_positions, target_scores):
        teacher.positions, teacher.scores = source_positions, source_scores
        student.positions, student.scores = target_positions, target_scores
        return build_cost_matrix(source_positions, source_scores, target_positions, target_scores)

    def solve_spy(teacher_mass, student_mass, cost, **solver):
        teacher.values, student.values = teacher_mass, student_mass
        return gc_loss(teacher_mass, student_mass, cost, **solver)

    monkeypatch.setattr(consistency, "build_cost_matrix", cost_spy)
    monkeypatch.setattr(consistency, "gc_loss", solve_spy)
    params = ToyDetectorParams(weights=np.zeros((k + NUM_EXTRA_HEADS, 3)), num_classes=k)
    training.consistency_loss(params, raw, np.zeros((3, 8 * 64)), pairs, config, np.random.default_rng(0))
    return teacher, student


class TestBuildDistribution:
    """The two mass distributions ``consistency_loss`` builds from a pair
    record."""

    def test_values_are_exp_scores(self, monkeypatch):
        rows = np.array([[0.9, 0.2, 0.1], [0.3, 0.3, 0.8]])
        logits = np.array([[0.5, -1.0], [2.0, 0.0], [-0.5, 1.5]])
        teacher, student = built_distributions(rows, np.array([0, 2]), logits, monkeypatch)
        np.testing.assert_array_equal(teacher.scores, [0.9, 0.8])
        np.testing.assert_array_equal(teacher.values, np.exp([0.9, 0.8]))
        np.testing.assert_array_equal(student.values, np.exp(student.scores))
        np.testing.assert_array_equal(teacher.positions, [[0.5, 0.5], [1.5, 0.5]])
        np.testing.assert_array_equal(student.positions, teacher.positions)

    def test_explicit_class_index(self, monkeypatch):
        # Both sides are read at the pair's class, not at their own argmax,
        # and the student's scores equal the sigmoid of every class logit
        # gathered at that class afterwards, bit for bit.
        rng = np.random.default_rng(3)
        rows = rng.random((40, 3))
        logits = rng.normal(0.0, 3.0, size=(3, 40))
        class_index = rng.integers(0, 3, size=40)
        teacher, student = built_distributions(rows, class_index, logits, monkeypatch)
        at = np.arange(40)
        np.testing.assert_array_equal(teacher.scores, rows[at, class_index])
        np.testing.assert_array_equal(student.scores, expit(logits).T[at, class_index])


class TestPerturb:
    def test_noise_moves_only_values(self):
        values = np.exp(np.random.default_rng(0).random(50))
        before = values.copy()
        out = perturb(values, 0.3, np.random.default_rng(2))
        assert out.shape == values.shape
        assert not np.allclose(out, values)
        np.testing.assert_array_equal(values, before)

    def test_clamp_keeps_values_positive(self):
        out = perturb(np.full(100, 1e-5), 1.0, np.random.default_rng(3))
        assert np.all(out >= CLAMP_FLOOR)
        assert np.any(out == CLAMP_FLOOR)


class TestNgcSettings:
    """The NGC settings live in ``[semi]`` (``ot_*``) and ``[tab1]``
    (``beta``, ``global_threshold``), which check their own ranges."""

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            SemiConfig(ot_epsilon=0.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            Tab1Config(beta=-0.1)

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("semi", "ot_epsilon", 0.0),
            ("semi", "ot_tolerance", 0.0),
            ("semi", "ot_max_iters", 0),
            ("tab1", "beta", -0.1),
            ("tab1", "global_threshold", -1),
        ],
    )
    def test_set_out_of_range_fails_check(self, section, name, value):
        # Set on a built config, so only RunConfig.check can see it.
        config = RunConfig()
        setattr(getattr(config, section), name, value)
        with pytest.raises(ValueError, match=name):
            config.check()


class TestGating:
    def test_below_threshold_all_zero(self):
        rng = np.random.default_rng(4)
        result = ngc_loss(*paired(rng, 149), run_config(global_threshold=150), np.random.default_rng(0))
        assert result.gated
        assert result.loss == 0.0
        assert np.all(result.grad_scores == 0.0)

    def test_at_threshold_active(self):
        rng = np.random.default_rng(4)
        config = run_config(global_threshold=150, ot_max_iters=200)
        result = ngc_loss(*paired(rng, 150), config, np.random.default_rng(0))
        assert not result.gated
        assert result.loss != 0.0


class TestNoiseFreeReduction:
    def test_beta_zero_doubles_clean_term(self):
        rng = np.random.default_rng(5)
        positions, teacher_scores, student_scores = paired(rng, 40)
        config = run_config(beta=0.0, global_threshold=0)
        result = ngc_loss(positions, teacher_scores, student_scores, config, np.random.default_rng(0))
        cost = build_cost_matrix(positions, teacher_scores, positions, student_scores)
        student_mass = np.exp(student_scores)
        solver = dict(epsilon=config.semi.ot_epsilon, max_iters=config.semi.ot_max_iters)
        clean = gc_loss(np.exp(teacher_scores), student_mass, cost, **solver)
        assert result.loss_plan == 0.0
        assert abs(result.loss - 2.0 * clean.loss) < 1e-9
        assert np.allclose(result.grad_scores, 2.0 * clean.grad_student * student_mass)


class TestNgcLoss:
    def test_requires_equal_counts(self):
        rng = np.random.default_rng(6)
        positions, teacher_scores, _ = paired(rng, 20)
        _, short, _ = paired(rng, 10)
        with pytest.raises(ValueError):
            ngc_loss(positions, teacher_scores, short, run_config(global_threshold=0), np.random.default_rng(0))

    def test_nan_score_fails(self):
        positions, teacher_scores, student_scores = paired(np.random.default_rng(6), 20)
        student_scores[3] = np.nan
        with pytest.raises(ValueError, match="marginal must be strictly positive"):
            ngc_loss(positions, teacher_scores, student_scores, run_config(global_threshold=0), np.random.default_rng(0))

    def test_terms_decompose(self):
        rng = np.random.default_rng(7)
        result = ngc_loss(*paired(rng, 60), run_config(global_threshold=0), np.random.default_rng(1))
        assert result.loss == pytest.approx(
            result.loss_gc + result.loss_gc_noisy + result.loss_plan, abs=1e-12
        )
        assert result.loss_plan >= 0.0

    def test_noise_is_reproducible(self):
        rng = np.random.default_rng(8)
        pair_arrays = paired(rng, 30)
        config = run_config(global_threshold=0)
        a = ngc_loss(*pair_arrays, config, np.random.default_rng(99))
        b = ngc_loss(*pair_arrays, config, np.random.default_rng(99))
        assert a.loss == b.loss
        assert np.array_equal(a.grad_scores, b.grad_scores)

    def test_gradient_matches_finite_differences(self, monkeypatch):
        # Perturbing the student's scores through their masses exp(score),
        # with the noise draw, the cost matrix, and the plan penalty held
        # fixed.
        rng = np.random.default_rng(9)
        positions, teacher_scores, student_scores = paired(rng, 12)
        cost = build_cost_matrix(positions, teacher_scores, positions, student_scores)
        monkeypatch.setattr(consistency, "build_cost_matrix", lambda *args: cost)
        beta = 0.3
        noise_rng = np.random.default_rng(17)
        _ = noise_rng.standard_normal(12)  # teacher draw, discarded below
        eps_student = noise_rng.standard_normal(12)
        teacher_values = np.exp(teacher_scores)
        teacher_noisy = perturb(teacher_values, beta, np.random.default_rng(17))

        solver = dict(epsilon=0.1, max_iters=100_000, tolerance=1e-12)

        def dual_terms(scores):
            values = np.exp(scores)
            clean = gc_loss(teacher_values, values, cost, **solver)
            noisy_vals = np.maximum(values + beta * eps_student, CLAMP_FLOOR)
            noisy = gc_loss(teacher_noisy, noisy_vals, cost, **solver)
            return clean.loss + noisy.loss

        config = run_config(
            global_threshold=0, beta=beta, ot_epsilon=0.1, ot_max_iters=100_000, ot_tolerance=1e-12
        )
        result = ngc_loss(positions, teacher_scores, student_scores, config, np.random.default_rng(17))
        fd = fd_gradient(dual_terms, student_scores, step=1e-6)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(result.grad_scores - fd).max() / denom < 1e-3

    @pytest.mark.parametrize("solve, call", [("clean", 0), ("noisy", 1)])
    def test_unconverged_solve_raises(self, solve, call, monkeypatch):
        # One Sinkhorn iteration for that solve only: its potentials are
        # not the optimum the gradient assumes, so no result comes back.
        calls = []

        def capped(teacher_mass, student_mass, cost, **solver):
            if len(calls) == call:
                solver["max_iters"] = 1
            calls.append(solver)
            return gc_loss(teacher_mass, student_mass, cost, **solver)

        monkeypatch.setattr(consistency, "gc_loss", capped)
        pair_arrays = paired(np.random.default_rng(10), 30)
        message = rf"^{solve} Sinkhorn solve on n=30 pairs did not converge: 1 iterations, marginal error"
        with pytest.raises(RuntimeError, match=message):
            ngc_loss(*pair_arrays, run_config(global_threshold=0), np.random.default_rng(0))
        assert len(calls) == call + 1


class TestPlanDivergence:
    def test_zero_for_identical_plans(self):
        plan = np.random.default_rng(0).random((4, 4))
        assert plan_divergence(plan, plan) == 0.0

    def test_mean_of_squared_differences(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[:, 0] = 1.0  # all disagreement in column 0
        assert plan_divergence(a, b) == 0.5
