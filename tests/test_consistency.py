import numpy as np
import pytest

from scipy.special import expit

from orientsemi import training
from orientsemi.config import RunConfig
from orientsemi.consistency import (
    CLAMP_FLOOR,
    GlobalDistribution,
    NgcConfig,
    NgcResult,
    ngc_loss,
    perturb,
    plan_divergence,
)
from orientsemi.detector import NUM_EXTRA_HEADS, ToyDetectorParams
from orientsemi.sampling import PROVENANCE_EASY, PseudoLabelSet
from orientsemi.scenes import SceneConfig
from orientsemi.transport import build_cost_matrix, gc_loss

from tests._oracles import fd_gradient
from tests._support import class_distributions


def paired(rng: np.random.Generator, n: int) -> tuple[GlobalDistribution, GlobalDistribution]:
    positions = rng.random((n, 2)) * 64.0
    teacher_rows = rng.random((n, 3))
    student_rows = np.clip(teacher_rows + 0.1 * rng.standard_normal((n, 3)), 0.0, 1.0)
    return class_distributions(positions, teacher_rows, student_rows)


def built_distributions(score_rows: np.ndarray, class_index: np.ndarray, logits: np.ndarray, monkeypatch):
    """The teacher and student distributions ``training.consistency_loss``
    hands to :func:`ngc_loss` for pairs at cells (0, 0), (0, 1), ... of an
    8 x 64 grid; ``logits`` are the student's (K, n) class logits there."""
    k, n = logits.shape
    config = RunConfig(scene=SceneConfig(height=8, width=64, num_classes=k))
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
    seen = []

    def capture(teacher, student, ngc_config, rng):
        seen.append((teacher, student))
        return NgcResult(0.0, np.zeros(n), True, 0.0, 0.0, 0.0, {})

    monkeypatch.setattr(training, "ngc_loss", capture)
    params = ToyDetectorParams(weights=np.zeros((k + NUM_EXTRA_HEADS, 3)), num_classes=k)
    training.consistency_loss(params, raw, np.zeros((3, 8 * 64)), pairs, config, np.random.default_rng(0))
    return seen[0]


class TestBuildDistribution:
    """The two mass distributions ``consistency_loss`` builds from a pair
    record, and the checks of :class:`GlobalDistribution`."""

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

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            GlobalDistribution(
                values=np.array([1.0, 0.0]),
                positions=np.zeros((2, 2)),
                scores=np.zeros(2),
            )


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


class TestNgcConfig:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            NgcConfig(epsilon=0.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            NgcConfig(beta=-0.1)


class TestGating:
    def test_below_threshold_all_zero(self):
        rng = np.random.default_rng(4)
        teacher, student = paired(rng, 149)
        config = NgcConfig(global_threshold=150)
        result = ngc_loss(teacher, student, config, np.random.default_rng(0))
        assert result.gated
        assert result.loss == 0.0
        assert np.all(result.grad_values == 0.0)

    def test_at_threshold_active(self):
        rng = np.random.default_rng(4)
        teacher, student = paired(rng, 150)
        config = NgcConfig(global_threshold=150, max_iters=200)
        result = ngc_loss(teacher, student, config, np.random.default_rng(0))
        assert not result.gated
        assert result.loss != 0.0


class TestNoiseFreeReduction:
    def test_beta_zero_doubles_clean_term(self):
        rng = np.random.default_rng(5)
        teacher, student = paired(rng, 40)
        config = NgcConfig(beta=0.0, global_threshold=0)
        result = ngc_loss(teacher, student, config, np.random.default_rng(0))
        cost = build_cost_matrix(teacher.positions, teacher.scores, student.positions, student.scores)
        clean = gc_loss(teacher.values, student.values, cost, epsilon=config.epsilon, max_iters=config.max_iters)
        assert result.loss_plan == 0.0
        assert abs(result.loss - 2.0 * clean.loss) < 1e-9
        assert np.allclose(result.grad_values, 2.0 * clean.grad_student)


class TestNgcLoss:
    def test_requires_identical_positions(self):
        rng = np.random.default_rng(6)
        teacher, _ = paired(rng, 20)
        other, _ = paired(rng, 20)
        with pytest.raises(ValueError):
            ngc_loss(teacher, other, NgcConfig(global_threshold=0), np.random.default_rng(0))

    def test_requires_equal_counts(self):
        rng = np.random.default_rng(6)
        teacher, _ = paired(rng, 20)
        short, _ = paired(rng, 10)
        with pytest.raises(ValueError):
            ngc_loss(teacher, short, NgcConfig(global_threshold=0), np.random.default_rng(0))

    def test_terms_decompose(self):
        rng = np.random.default_rng(7)
        teacher, student = paired(rng, 60)
        config = NgcConfig(global_threshold=0)
        result = ngc_loss(teacher, student, config, np.random.default_rng(1))
        assert result.loss == pytest.approx(
            result.loss_gc + result.loss_gc_noisy + result.loss_plan, abs=1e-12
        )
        assert result.loss_plan >= 0.0

    def test_noise_is_reproducible(self):
        rng = np.random.default_rng(8)
        teacher, student = paired(rng, 30)
        config = NgcConfig(global_threshold=0)
        a = ngc_loss(teacher, student, config, np.random.default_rng(99))
        b = ngc_loss(teacher, student, config, np.random.default_rng(99))
        assert a.loss == b.loss
        assert np.array_equal(a.grad_values, b.grad_values)

    def test_gradient_matches_finite_differences(self):
        # Perturbing the student's raw mass vector, with the noise draw,
        # the cost matrix, and the plan penalty held fixed.
        rng = np.random.default_rng(9)
        teacher, student = paired(rng, 12)
        cost = build_cost_matrix(teacher.positions, teacher.scores, student.positions, student.scores)
        beta = 0.3
        noise_rng = np.random.default_rng(17)
        _ = noise_rng.standard_normal(12)  # teacher draw, discarded below
        eps_student = noise_rng.standard_normal(12)
        teacher_noisy = perturb(teacher.values, beta, np.random.default_rng(17))

        solver = dict(epsilon=0.1, max_iters=100_000, tolerance=1e-12)

        def dual_terms(values):
            clean = gc_loss(teacher.values, values, cost, **solver)
            noisy_vals = np.maximum(values + beta * eps_student, CLAMP_FLOOR)
            noisy = gc_loss(teacher_noisy, noisy_vals, cost, **solver)
            return clean.loss + noisy.loss

        config = NgcConfig(global_threshold=0, beta=beta, **solver)
        result = ngc_loss(teacher, student, config, np.random.default_rng(17))
        fd = fd_gradient(dual_terms, student.values, step=1e-6)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(result.grad_values - fd).max() / denom < 1e-3


class TestPlanDivergence:
    def test_zero_for_identical_plans(self):
        plan = np.random.default_rng(0).random((4, 4))
        assert plan_divergence(plan, plan) == 0.0

    def test_mean_of_squared_differences(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[:, 0] = 1.0  # all disagreement in column 0
        assert plan_divergence(a, b) == 0.5
