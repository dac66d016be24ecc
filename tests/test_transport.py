import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orientsemi.transport import (
    LOG_DOMAIN_EPSILON,
    GcLoss,
    TransportProblem,
    TransportSolution,
    build_cost_matrix,
    gc_loss,
    sinkhorn_solve,
)

from tests._oracles import (
    broadcast_cost_matrix,
    fd_gradient,
    lp_transport,
    plan_per_iteration_sinkhorn,
)


def random_problem(rng: np.random.Generator, n: int, m: int | None = None) -> TransportProblem:
    m = n if m is None else m
    cost = rng.random((n, m)) * 2.0
    source = rng.random(n) + 0.1
    target = rng.random(m) + 0.1
    return TransportProblem(cost, source / source.sum(), target / target.sum())


class TestProblemValidation:
    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            TransportProblem(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))

    def test_rejects_unnormalised_marginal(self):
        with pytest.raises(ValueError):
            TransportProblem(np.zeros((2, 2)), np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_rejects_zero_mass_atom(self):
        with pytest.raises(ValueError):
            TransportProblem(np.zeros((2, 2)), np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            TransportProblem(np.zeros((2, 3)), np.array([0.5, 0.5]), np.array([0.5, 0.5]))


class TestSinkhorn:
    def test_rejects_bad_epsilon(self):
        problem = random_problem(np.random.default_rng(0), 4)
        with pytest.raises(ValueError):
            sinkhorn_solve(problem, epsilon=0.0, max_iters=1000)
        with pytest.raises(ValueError):
            sinkhorn_solve(problem, epsilon=-1.0, max_iters=1000)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("n", [2, 5, 32])
    def test_marginals_match(self, epsilon, n):
        problem = random_problem(np.random.default_rng(n), n)
        sol = sinkhorn_solve(problem, epsilon=epsilon, max_iters=20_000)
        assert sol.converged
        assert np.abs(sol.plan.sum(axis=1) - problem.source).max() < 1e-6
        assert np.abs(sol.plan.sum(axis=0) - problem.target).max() < 1e-6

    def test_marginals_match_large(self):
        problem = random_problem(np.random.default_rng(512), 512)
        sol = sinkhorn_solve(problem, epsilon=0.1, max_iters=5000)
        assert sol.converged
        assert sol.marginal_error < 1e-6

    def test_rectangular(self):
        problem = random_problem(np.random.default_rng(3), 4, 7)
        sol = sinkhorn_solve(problem, epsilon=0.1, max_iters=5000)
        assert sol.converged
        assert sol.plan.shape == (4, 7)

    def test_plan_nonnegative(self):
        problem = random_problem(np.random.default_rng(1), 8)
        sol = sinkhorn_solve(problem, epsilon=0.05, max_iters=1000)
        assert np.all(sol.plan >= 0.0)

    def test_matches_lp_at_small_epsilon(self):
        # Entropic cost converges to the LP optimum as epsilon -> 0.
        rng = np.random.default_rng(42)
        for _ in range(10):
            problem = random_problem(rng, 3)
            sol = sinkhorn_solve(problem, epsilon=1e-3, max_iters=200_000)
            _, lp_cost = lp_transport(problem.cost, problem.source, problem.target)
            assert sol.converged
            assert sol.cost_value == pytest.approx(lp_cost, abs=1e-2)

    def test_log_and_scaling_forms_agree(self):
        # Both update forms solve the same fixed point; compare at an
        # epsilon where the scaling form is still stable.
        problem = random_problem(np.random.default_rng(9), 6)
        log_sol = sinkhorn_solve(problem, epsilon=0.05, max_iters=50_000, tolerance=1e-10)
        scaled = sinkhorn_solve(problem, epsilon=0.05000001, max_iters=50_000, tolerance=1e-10)
        assert np.abs(log_sol.plan - scaled.plan).max() < 1e-6

    def test_dual_gauge_mean_zero_source(self):
        problem = random_problem(np.random.default_rng(5), 7)
        sol = sinkhorn_solve(problem, epsilon=0.1, max_iters=1000)
        assert abs(sol.dual_source.mean()) < 1e-12

    def test_duality_gap_is_entropy(self):
        # <C,P> - <f,a> - <g,b> = eps * H(P), and H(P) <= log(n*m).
        rng = np.random.default_rng(11)
        for n in (2, 8, 64):
            problem = random_problem(rng, n)
            for epsilon in (0.05, 0.3):
                sol = sinkhorn_solve(problem, epsilon=epsilon, max_iters=50_000, tolerance=1e-10)
                assert sol.converged
                gap = sol.cost_value - sol.dual_value(problem.source, problem.target)
                entropy = -float(np.sum(sol.plan * np.log(sol.plan + 1e-300)))
                assert gap == pytest.approx(epsilon * entropy, abs=1e-6)
                assert gap <= epsilon * math.log(n * n) + 1e-9

    def test_identity_cost_prefers_diagonal(self):
        # Cost 0 on the diagonal, 1 off it: the plan should be (nearly)
        # diagonal at small epsilon.
        n = 4
        cost = 1.0 - np.eye(n)
        marg = np.full(n, 1.0 / n)
        sol = sinkhorn_solve(TransportProblem(cost, marg, marg), epsilon=0.01, max_iters=10_000)
        assert np.abs(sol.plan - np.eye(n) / n).max() < 1e-3

    def test_unconverged_flag(self):
        problem = random_problem(np.random.default_rng(2), 16)
        sol = sinkhorn_solve(problem, epsilon=0.01, max_iters=2, tolerance=1e-12)
        assert not sol.converged
        assert sol.iterations == 2


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestMatchesPlanPerIterationOracle:
    """The fast loops stop on the oracle's iteration with its exact bytes."""

    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
        epsilon=st.one_of(st.sampled_from([0.15, 0.03]), st.floats(0.005, 1.0)),
        tolerance=st.sampled_from([1e-6, 1e-10]),
        max_iters=st.one_of(st.integers(1, 12), st.just(2000)),
    )
    # Both domains, each both converging and stopped at max_iters.
    @example(n=30, m=25, seed=1, epsilon=0.15, tolerance=1e-10, max_iters=2000)
    @example(n=30, m=25, seed=1, epsilon=0.15, tolerance=1e-6, max_iters=4)
    @example(n=30, m=25, seed=2, epsilon=0.03, tolerance=1e-10, max_iters=2000)
    @example(n=30, m=25, seed=2, epsilon=0.03, tolerance=1e-6, max_iters=4)
    @settings(max_examples=60, deadline=None)
    def test_sinkhorn_solve(self, n, m, seed, epsilon, tolerance, max_iters):
        rng = np.random.default_rng(seed)
        source_scores, target_scores = rng.random(n), rng.random(m)
        cost = build_cost_matrix(
            rng.integers(0, 24, (n, 2)), source_scores, rng.integers(0, 24, (m, 2)), target_scores
        )
        source, target = np.exp(source_scores), np.exp(target_scores)
        problem = TransportProblem(cost, source / source.sum(), target / target.sum())
        fast = sinkhorn_solve(problem, epsilon=epsilon, max_iters=max_iters, tolerance=tolerance)
        slow = plan_per_iteration_sinkhorn(
            problem.cost,
            problem.source,
            problem.target,
            epsilon,
            max_iters,
            tolerance,
            log_domain=epsilon <= LOG_DOMAIN_EPSILON,
        )
        assert fast.iterations == slow["iterations"]
        assert fast.converged == slow["converged"]
        for field in ("marginal_error", "plan", "dual_source", "dual_target", "cost_value"):
            assert same_bits(getattr(fast, field), slow[field]), field

    @given(
        n=st.integers(0, 30),
        m=st.integers(0, 30),
        seed=st.integers(0, 2**31 - 1),
        coincident=st.booleans(),
        equal_scores=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_build_cost_matrix(self, n, m, seed, coincident, equal_scores):
        rng = np.random.default_rng(seed)
        if coincident:
            source_pos = np.full((n, 2), 7.5)
            target_pos = np.full((m, 2), 7.5)
        else:
            source_pos = rng.random((n, 2)) * 96.0
            target_pos = rng.random((m, 2)) * 96.0
        if equal_scores:
            source_scores, target_scores = np.full(n, 0.4), np.full(m, 0.4)
        else:
            source_scores, target_scores = rng.random(n), rng.random(m)
        fast = build_cost_matrix(source_pos, source_scores, target_pos, target_scores)
        slow = broadcast_cost_matrix(source_pos, source_scores, target_pos, target_scores)
        assert fast.shape == slow.shape == (n, m)
        assert same_bits(fast, slow)


def traced_size_problem() -> tuple[tuple, TransportProblem]:
    """Cost-matrix inputs and transport problem at the traced median
    atom count (270) of the ``semi-full`` benchmark workload: cells
    clustered around six objects on a 96x96 grid, confident teacher
    scores, an undecided student.  The solve takes 27 iterations at
    eps=0.15 (the workload's median is 41)."""
    rng = np.random.default_rng(270)
    centers = rng.uniform(10.0, 86.0, (6, 2))
    positions = np.floor(centers[rng.integers(0, 6, 270)] + rng.normal(0.0, 4.0, (270, 2))) + 0.5
    teacher_scores = rng.uniform(0.3, 1.0, 270)
    student_scores = 0.5 + rng.normal(0.0, 0.02, 270)
    inputs = (positions, teacher_scores, positions, student_scores)
    teacher, student = np.exp(teacher_scores), np.exp(student_scores)
    cost = build_cost_matrix(*inputs)
    problem = TransportProblem(cost, teacher / teacher.sum(), student / student.sum())
    return inputs, problem


class TestKernelBenchmarks:
    """Timings of the transport kernels; short, so tier-1 barely grows."""

    def test_sinkhorn_solve_n270(self, benchmark):
        _, problem = traced_size_problem()
        sol = benchmark.pedantic(
            sinkhorn_solve, args=(problem,), kwargs={"epsilon": 0.15, "max_iters": 1000}, rounds=30, warmup_rounds=1
        )
        assert sol.converged

    def test_build_cost_matrix_n270(self, benchmark):
        inputs, _ = traced_size_problem()
        cost = benchmark.pedantic(build_cost_matrix, args=inputs, rounds=100, warmup_rounds=1)
        assert cost.shape == (270, 270)


class TestCostMatrix:
    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        pos_a, pos_b = rng.random((5, 2)) * 100, rng.random((7, 2)) * 100
        s_a, s_b = rng.random(5), rng.random(7)
        cost = build_cost_matrix(pos_a, s_a, pos_b, s_b)
        assert cost.shape == (5, 7)
        assert cost.min() >= 0.0 and cost.max() <= 2.0
        # Each max-normalised term attains 1 somewhere, so max is near 1..2.
        assert cost.max() >= 1.0

    def test_identical_positions_zero_distance_term(self):
        pos = np.zeros((3, 2))
        scores_a = np.array([0.1, 0.5, 0.9])
        scores_b = np.array([0.2, 0.4, 0.8])
        cost = build_cost_matrix(pos, scores_a, pos, scores_b)
        # Distance max is 0, so only the score term contributes.
        assert cost.max() <= 1.0
        assert cost[0, 2] == pytest.approx(0.7 / 0.7)

    def test_all_equal_scores_zero_score_term(self):
        rng = np.random.default_rng(1)
        pos_a, pos_b = rng.random((4, 2)), rng.random((4, 2))
        scores = np.full(4, 0.3)
        cost = build_cost_matrix(pos_a, scores, pos_b, scores)
        assert cost.max() <= 1.0

    def test_fully_degenerate_gives_zero_matrix(self):
        pos = np.ones((3, 2))
        scores = np.full(3, 0.5)
        cost = build_cost_matrix(pos, scores, pos, scores)
        assert np.all(cost == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_cost_matrix(np.zeros((3, 2)), np.zeros(2), np.zeros((3, 2)), np.zeros(3))


class TestGcLoss:
    def test_rejects_nonpositive_mass(self):
        cost = np.random.default_rng(0).random((3, 3))
        with pytest.raises(ValueError):
            gc_loss(np.array([1.0, 0.0, 1.0]), np.ones(3), cost, max_iters=1000)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for n in (4, 8):
            cost = rng.random((n, n)) * 2.0
            teacher = rng.random(n) + 0.5
            student = rng.random(n) + 0.5

            def loss_of(masses):
                return gc_loss(teacher, masses, cost, epsilon=0.1, tolerance=1e-12, max_iters=50_000).loss

            result = gc_loss(teacher, student, cost, epsilon=0.1, tolerance=1e-12, max_iters=50_000)
            fd = fd_gradient(loss_of, student, step=1e-6)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(result.grad_student - fd).max() / denom < 1e-3

    def test_gradient_orthogonal_to_mass_direction(self):
        # Scaling all student masses leaves normalised inputs unchanged,
        # so the gradient has no component along the mass vector.
        rng = np.random.default_rng(7)
        n = 6
        cost = rng.random((n, n))
        teacher, student = rng.random(n) + 0.2, rng.random(n) + 0.2
        result = gc_loss(teacher, student, cost, epsilon=0.1, max_iters=1000)
        assert abs(result.grad_student @ student) < 1e-9

    def test_identical_inputs_near_zero_gradient(self):
        # With matched distributions and symmetric cost the matching is
        # already optimal; at small epsilon the potentials flatten and the
        # gradient vanishes.
        rng = np.random.default_rng(3)
        n = 5
        pos = rng.random((n, 2)) * 10
        scores = rng.random(n)
        cost = build_cost_matrix(pos, scores, pos, scores)
        masses = np.exp(scores)
        result = gc_loss(masses, masses, cost, epsilon=1e-3, max_iters=100_000, tolerance=1e-10)
        assert np.abs(result.grad_student).max() < 1e-4

    def test_scale_invariance_of_loss(self):
        rng = np.random.default_rng(8)
        n = 5
        cost = rng.random((n, n))
        teacher, student = rng.random(n) + 0.2, rng.random(n) + 0.2
        a = gc_loss(teacher, student, cost, epsilon=0.1, max_iters=1000)
        b = gc_loss(teacher * 3.0, student * 7.0, cost, epsilon=0.1, max_iters=1000)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)

    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_loss_close_to_primal_cost(self, n, seed):
        # Dual value and primal cost differ by eps * H(P) <= eps*log(n^2).
        rng = np.random.default_rng(seed)
        cost = rng.random((n, n)) * 2.0
        teacher, student = rng.random(n) + 0.1, rng.random(n) + 0.1
        result = gc_loss(teacher, student, cost, epsilon=0.05, max_iters=50_000, tolerance=1e-9)
        primal = float(np.sum(cost * result.plan))
        assert result.loss <= primal + 1e-7
        assert primal - result.loss <= 0.05 * math.log(n * n) + 1e-7
