"""Entropy-regularised optimal transport between discrete distributions.

``sinkhorn_solve`` alternates scaling updates until the plan's marginals
match the inputs.  Two numerically equivalent update forms are used:
plain scaling vectors for moderate regularisation, and log-domain
updates once the regularisation is small enough that ``exp(-C/eps)``
would underflow.  Both produce the plan, the transport cost, and the
dual potentials.  Neither builds the n x m plan on every iteration:
each tracks the marginal residuals from the products it already needs
for its next update, and builds the plan only to confirm convergence.

``gc_loss`` evaluates the dual objective on normalised mass vectors and
returns its analytic gradient with respect to the raw student masses.
The potentials are a subgradient of the regularised cost in the
marginals (the plan is held fixed at the optimum), and the remaining
chain rule through mass normalisation is closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

# Below this regularisation the scaling form underflows (exp(-C/eps) with
# normalised costs up to 2 reaches exp(-2000) at eps=1e-3), so updates
# move to the log domain.
LOG_DOMAIN_EPSILON = 0.05


@dataclass
class TransportProblem:
    """A discrete transport instance: cost matrix and two marginals.

    Marginals must be strictly positive and each sum to 1 within 1e-9.
    Zero-mass atoms are not supported; drop them before building the
    problem.
    """

    cost: np.ndarray
    source: np.ndarray
    target: np.ndarray

    def __post_init__(self) -> None:
        self.cost = np.asarray(self.cost, dtype=np.float64)
        self.source = np.asarray(self.source, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        n, m = self.shape
        if self.cost.ndim != 2:
            raise ValueError(f"cost must be a matrix, got ndim={self.cost.ndim}")
        if self.source.shape != (n,) or self.target.shape != (m,):
            raise ValueError(
                f"marginal shapes {self.source.shape}, {self.target.shape} "
                f"do not match cost shape {self.cost.shape}"
            )
        if not np.all(np.isfinite(self.cost)) or np.any(self.cost < 0.0):
            raise ValueError("cost entries must be finite and non-negative")
        for name, marg in (("source", self.source), ("target", self.target)):
            if not np.all(np.isfinite(marg)) or np.any(marg <= 0.0):
                raise ValueError(f"{name} marginal must be strictly positive")
            total = float(marg.sum())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{name} marginal sums to {total!r}, expected 1")

    @property
    def shape(self) -> tuple[int, int]:
        return self.cost.shape


@dataclass
class TransportSolution:
    """Output of a Sinkhorn solve.

    ``dual_source`` is gauged to mean zero; the constant is moved onto
    ``dual_target`` so the pair stays a valid potential.  ``cost_value``
    is ``<cost, plan>`` without the entropy term.
    """

    plan: np.ndarray
    dual_source: np.ndarray
    dual_target: np.ndarray
    cost_value: float
    iterations: int
    converged: bool
    marginal_error: float

    def dual_value(self, source: np.ndarray, target: np.ndarray) -> float:
        return float(self.dual_source @ source + self.dual_target @ target)


def sinkhorn_solve(
    problem: TransportProblem,
    epsilon: float = 0.1,
    *,
    max_iters: int,
    tolerance: float = 1e-6,
) -> TransportSolution:
    """Solve entropy-regularised transport by Sinkhorn iteration.

    Convergence is declared when the worst absolute marginal violation of
    the current plan drops below ``tolerance``.  The returned solution
    always carries the final iterate, with ``converged`` recording
    whether the tolerance was met within ``max_iters``.

    Each iteration computes the residuals ``|u * (K v) - a|`` and
    ``|v * (K^T u) - b|`` (or their log-domain forms) from the products
    the updates need anyway.  They equal the plan's marginal violations
    up to rounding, so the plan is built and its exact marginal error
    taken only once the residual is below ``2 * tolerance``, or at
    ``max_iters``.  The solve therefore stops on the same iteration, with
    the same ``marginal_error``, as one that built the plan every time.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if epsilon <= LOG_DOMAIN_EPSILON:
        return _sinkhorn_log(problem, epsilon, max_iters, tolerance)
    return _sinkhorn_scaling(problem, epsilon, max_iters, tolerance)


def _finish(
    problem: TransportProblem,
    plan: np.ndarray,
    dual_source: np.ndarray,
    dual_target: np.ndarray,
    iterations: int,
    converged: bool,
    marginal_error: float,
) -> TransportSolution:
    # Potentials are defined up to a constant; pin the gauge by making the
    # source potential mean-zero.
    shift = float(dual_source.mean())
    return TransportSolution(
        plan=plan,
        dual_source=dual_source - shift,
        dual_target=dual_target + shift,
        cost_value=float(np.sum(problem.cost * plan)),
        iterations=iterations,
        converged=converged,
        marginal_error=marginal_error,
    )


def _marginal_error(plan: np.ndarray, source: np.ndarray, target: np.ndarray) -> float:
    row_err = np.abs(plan.sum(axis=1) - source).max()
    col_err = np.abs(plan.sum(axis=0) - target).max()
    return float(max(row_err, col_err))


def _sinkhorn_scaling(
    problem: TransportProblem, epsilon: float, max_iters: int, tolerance: float
) -> TransportSolution:
    source, target = problem.source, problem.target
    kernel = np.divide(problem.cost, -epsilon)  # exp(-C / eps), built in place
    np.exp(kernel, out=kernel)
    u = np.ones_like(source)
    v = np.ones_like(target)
    # One product with the kernel per half-step: ``kernel @ v`` feeds both
    # the next u-update and the row residual of the current iterate.
    kv = kernel @ v
    for iterations in range(1, max_iters + 1):
        u = source / kv
        ktu = kernel.T @ u
        v = target / ktu
        kv = kernel @ v
        residual = max(np.abs(u * kv - source).max(), np.abs(v * ktu - target).max())
        if residual < 2.0 * tolerance or iterations == max_iters:
            plan = np.multiply(u[:, None], kernel)  # (u_i K_ij) v_j, built in place
            plan *= v
            err = _marginal_error(plan, source, target)
            if err < tolerance:
                break
    dual_source = epsilon * np.log(u)
    dual_target = epsilon * np.log(v)
    converged = err < tolerance
    return _finish(problem, plan, dual_source, dual_target, iterations, converged, err)


def _sinkhorn_log(
    problem: TransportProblem, epsilon: float, max_iters: int, tolerance: float
) -> TransportSolution:
    source, target = problem.source, problem.target
    log_source = np.log(source)
    log_target = np.log(target)
    neg_cost = -problem.cost / epsilon
    f = np.zeros_like(source)
    g = np.zeros_like(target)
    # The row log-sum-exp feeds both the next f-update and the row
    # residual of the current iterate, as ``kernel @ v`` does above.
    row_lse = logsumexp(neg_cost + g[None, :] / epsilon, axis=1)
    for iterations in range(1, max_iters + 1):
        f = epsilon * (log_source - row_lse)
        col_lse = logsumexp(neg_cost + f[:, None] / epsilon, axis=0)
        g = epsilon * (log_target - col_lse)
        row_lse = logsumexp(neg_cost + g[None, :] / epsilon, axis=1)
        residual = max(
            np.abs(np.exp(f / epsilon + row_lse) - source).max(),
            np.abs(np.exp(g / epsilon + col_lse) - target).max(),
        )
        if residual < 2.0 * tolerance or iterations == max_iters:
            plan = np.exp(neg_cost + f[:, None] / epsilon + g[None, :] / epsilon)
            err = _marginal_error(plan, source, target)
            if err < tolerance:
                break
    return _finish(problem, plan, f, g, iterations, err < tolerance, err)


def build_cost_matrix(
    source_positions: np.ndarray,
    source_scores: np.ndarray,
    target_positions: np.ndarray,
    target_scores: np.ndarray,
) -> np.ndarray:
    """Pairwise cost: max-normalised distance plus max-normalised score gap.

    Each term is divided by its own maximum, so entries land in [0, 2].
    A term whose maximum is 0 (all positions coincide, or all scores
    equal) contributes a zero matrix rather than 0/0.
    """
    source_positions = np.asarray(source_positions, dtype=np.float64)
    target_positions = np.asarray(target_positions, dtype=np.float64)
    source_scores = np.asarray(source_scores, dtype=np.float64)
    target_scores = np.asarray(target_scores, dtype=np.float64)
    if source_positions.shape[0] != source_scores.shape[0]:
        raise ValueError("source positions and scores differ in length")
    if target_positions.shape[0] != target_scores.shape[0]:
        raise ValueError("target positions and scores differ in length")
    # Squared distance accumulated one axis at a time, in place: the same
    # sum, in the same order, as reducing an (n, m, 2) difference array,
    # without building it or a temporary per operation.
    squared = np.zeros((source_positions.shape[0], target_positions.shape[0]))
    for axis in range(source_positions.shape[1]):
        delta = np.subtract.outer(source_positions[:, axis], target_positions[:, axis])
        delta *= delta
        squared += delta
    cost = np.sqrt(squared, out=squared)
    # A term whose maximum is 0 is already all zeros.
    d_max = cost.max() if cost.size else 0.0
    if d_max > 0.0:
        cost /= d_max
    score_gap = np.subtract.outer(source_scores, target_scores)
    np.abs(score_gap, out=score_gap)
    s_max = score_gap.max() if score_gap.size else 0.0
    if s_max > 0.0:
        score_gap /= s_max
        cost += score_gap
    return cost


@dataclass
class GcLoss:
    """Dual-form matching loss between two unnormalised mass vectors."""

    loss: float
    grad_student: np.ndarray
    plan: np.ndarray
    solution: TransportSolution = field(repr=False)


def gc_loss(
    teacher_mass: np.ndarray,
    student_mass: np.ndarray,
    cost: np.ndarray,
    epsilon: float = 0.1,
    *,
    max_iters: int,
    tolerance: float = 1e-6,
) -> GcLoss:
    """Evaluate the dual transport objective and its student gradient.

    Masses are normalised to distributions internally; the loss is
    ``<f, teacher_hat> + <g, student_hat>`` at the converged potentials.
    Only the student side carries a gradient: with ``s = student_mass``
    and ``g`` the student-side potential,

        d loss / d s  =  (g - <g, s_hat>) / sum(s)

    which is the potential recentred by its mean under the student
    distribution, divided by total mass.  The gradient is invariant to
    the potential gauge, and sums to zero against ``s_hat``.
    """
    teacher_mass = np.asarray(teacher_mass, dtype=np.float64)
    student_mass = np.asarray(student_mass, dtype=np.float64)
    if np.any(teacher_mass <= 0.0) or np.any(student_mass <= 0.0):
        raise ValueError("mass vectors must be strictly positive")
    teacher_total = float(teacher_mass.sum())
    student_total = float(student_mass.sum())
    teacher_hat = teacher_mass / teacher_total
    student_hat = student_mass / student_total
    problem = TransportProblem(cost=cost, source=teacher_hat, target=student_hat)
    solution = sinkhorn_solve(problem, epsilon=epsilon, max_iters=max_iters, tolerance=tolerance)
    loss = solution.dual_value(teacher_hat, student_hat)
    g = solution.dual_target
    grad_student = (g - float(g @ student_hat)) / student_total
    return GcLoss(loss=loss, grad_student=grad_student, plan=solution.plan, solution=solution)
