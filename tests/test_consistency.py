import numpy as np
import pytest

from orientsemi.consistency import (
    CLAMP_FLOOR,
    GlobalDistribution,
    NgcConfig,
    build_distribution,
    ngc_loss,
    perturb,
    plan_divergence,
)
from orientsemi.transport import build_cost_matrix, gc_loss

from tests._oracles import fd_gradient


def make_distribution(rng: np.random.Generator, n: int) -> GlobalDistribution:
    positions = rng.random((n, 2)) * 64.0
    score_rows = rng.random((n, 3))
    return build_distribution(positions, score_rows)


def paired(rng: np.random.Generator, n: int) -> tuple[GlobalDistribution, GlobalDistribution]:
    positions = rng.random((n, 2)) * 64.0
    teacher_rows = rng.random((n, 3))
    student_rows = np.clip(teacher_rows + 0.1 * rng.standard_normal((n, 3)), 0.0, 1.0)
    teacher = build_distribution(positions, teacher_rows)
    student = build_distribution(positions, student_rows, class_index=teacher.class_index)
    return teacher, student


class TestBuildDistribution:
    def test_values_are_exp_scores(self):
        positions = np.array([[1.0, 2.0], [3.0, 4.0]])
        rows = np.array([[0.9, 0.2, 0.1], [0.3, 0.3, 0.8]])
        dist = build_distribution(positions, rows)
        assert np.allclose(dist.values, np.exp([0.9, 0.8]))
        assert dist.class_index.tolist() == [0, 2]
        assert np.allclose(dist.scores, [0.9, 0.8])

    def test_argmax_tie_takes_lowest_class(self):
        rows = np.array([[0.5, 0.5, 0.2]])
        dist = build_distribution(np.zeros((1, 2)), rows)
        assert dist.class_index.tolist() == [0]

    def test_explicit_class_index(self):
        rows = np.array([[0.9, 0.2], [0.3, 0.8]])
        dist = build_distribution(np.zeros((2, 2)), rows, class_index=np.array([1, 0]))
        assert np.allclose(dist.scores, [0.2, 0.3])

    def test_rejects_out_of_range_class(self):
        with pytest.raises(ValueError):
            build_distribution(np.zeros((1, 2)), np.ones((1, 2)), class_index=np.array([5]))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            GlobalDistribution(
                values=np.array([1.0, 0.0]),
                positions=np.zeros((2, 2)),
                scores=np.zeros(2),
                class_index=np.zeros(2, dtype=int),
            )


class TestPerturb:
    def test_beta_zero_returns_input_unchanged(self):
        dist = make_distribution(np.random.default_rng(0), 5)
        rng = np.random.default_rng(1)
        state_before = rng.bit_generator.state
        out = perturb(dist, 0.0, rng)
        assert out is dist
        assert rng.bit_generator.state == state_before

    def test_noise_moves_only_values(self):
        dist = make_distribution(np.random.default_rng(0), 50)
        out = perturb(dist, 0.3, np.random.default_rng(2))
        assert not np.allclose(out.values, dist.values)
        assert out.positions is dist.positions
        assert out.scores is dist.scores
        assert out.class_index is dist.class_index

    def test_clamp_keeps_values_positive(self):
        dist = GlobalDistribution(
            values=np.full(100, 1e-5),
            positions=np.random.default_rng(0).random((100, 2)),
            scores=np.zeros(100),
            class_index=np.zeros(100, dtype=int),
        )
        out = perturb(dist, 1.0, np.random.default_rng(3))
        assert np.all(out.values >= CLAMP_FLOOR)
        assert np.any(out.values == CLAMP_FLOOR)

    def test_rejects_negative_beta(self):
        dist = make_distribution(np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            perturb(dist, -0.1, np.random.default_rng(0))


class TestNgcConfig:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            NgcConfig(epsilon=0.0)


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
        clean = gc_loss(teacher.values, student.values, cost, epsilon=config.epsilon)
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
        teacher_noisy = perturb(teacher, beta, np.random.default_rng(17))

        solver = dict(epsilon=0.1, max_iters=100_000, tolerance=1e-12)

        def dual_terms(values):
            clean = gc_loss(teacher.values, values, cost, **solver)
            noisy_vals = np.maximum(values + beta * eps_student, CLAMP_FLOOR)
            noisy = gc_loss(teacher_noisy.values, noisy_vals, cost, **solver)
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
