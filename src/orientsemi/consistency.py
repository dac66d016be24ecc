"""Global distribution consistency between teacher and student.

Dense pseudo-label pairs are lifted into a discrete distribution: each
sampled position contributes mass ``exp(score)`` at its class of
interest.  The teacher and student distributions are then aligned with
an entropic transport solve, evaluated in dual form (:func:`gc_loss`).

A second, noise-perturbed copy of the matching makes the alignment
contrastive: both mass vectors are jittered with Gaussian noise, the
matching is re-solved, and the two transport plans are pulled together
by a mean-squared plan-difference penalty.  The penalty itself carries
no gradient; gradients flow only through the two dual objectives.

Scenes with fewer pairs than ``global_threshold`` are gated off: the
matching is only meaningful when the distribution covers enough of the
scene, so below the threshold the loss and gradient are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orientsemi.transport import build_cost_matrix, gc_loss

# Perturbed masses are clamped here to stay strictly positive; entries at
# the floor have zero gradient (the clamp is flat).
CLAMP_FLOOR = 1e-6


@dataclass
class GlobalDistribution:
    """Unnormalised mass at sampled positions, one atom per pair.

    ``values`` is ``exp(scores)`` as the training loss builds it; the
    relation is not enforced here.
    """

    values: np.ndarray
    positions: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        n = self.values.shape[0]
        if self.positions.shape != (n, 2):
            raise ValueError(f"positions must be ({n}, 2), got {self.positions.shape}")
        if self.scores.shape != (n,):
            raise ValueError("scores must match values in length")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0.0):
            raise ValueError("values must be finite and strictly positive")

    def __len__(self) -> int:
        return self.values.shape[0]


def perturb(values: np.ndarray, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian jitter on a mass vector, clamped positive."""
    return np.maximum(values + beta * rng.standard_normal(values.shape[0]), CLAMP_FLOOR)


@dataclass
class NgcConfig:
    epsilon: float = 0.1
    max_iters: int = 10000
    tolerance: float = 1e-6
    beta: float = 0.3
    global_threshold: int = 150

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.global_threshold < 0:
            raise ValueError(f"global_threshold must be >= 0, got {self.global_threshold}")


@dataclass
class NgcResult:
    """Loss value, gradient with respect to the student mass vector, and
    the term breakdown.  A gated result is all zeros."""

    loss: float
    grad_values: np.ndarray
    gated: bool
    loss_gc: float
    loss_gc_noisy: float
    loss_plan: float
    diagnostics: dict


def plan_divergence(plan: np.ndarray, noisy_plan: np.ndarray) -> float:
    """Mean squared difference between two transport plans."""
    diff = plan - noisy_plan
    return float((diff * diff).mean())


def ngc_loss(
    teacher: GlobalDistribution,
    student: GlobalDistribution,
    config: NgcConfig,
    rng: np.random.Generator,
) -> NgcResult:
    """Noise-contrasted global consistency loss.

    The two distributions must pair position-for-position.  The rng is
    consumed only for the noise draws (teacher first, then student), so
    a caller that seeds it per step gets reproducible noise.
    """
    n = len(teacher)
    if len(student) != n:
        raise ValueError(f"teacher has {n} pairs, student has {len(student)}")
    if not np.array_equal(teacher.positions, student.positions):
        raise ValueError("teacher and student must be sampled at identical positions")
    if n < config.global_threshold:
        return NgcResult(
            loss=0.0,
            grad_values=np.zeros(n),
            gated=True,
            loss_gc=0.0,
            loss_gc_noisy=0.0,
            loss_plan=0.0,
            diagnostics={"n_pairs": n},
        )

    cost = build_cost_matrix(
        teacher.positions, teacher.scores, student.positions, student.scores
    )
    clean = gc_loss(
        teacher.values,
        student.values,
        cost,
        epsilon=config.epsilon,
        max_iters=config.max_iters,
        tolerance=config.tolerance,
    )

    if config.beta == 0.0:
        # No noise: the second matching is identical, the plan penalty
        # vanishes, and the loss is exactly twice the clean term.
        noisy = clean
        grad_noisy = clean.grad_student
        loss_plan = 0.0
    else:
        teacher_noisy = perturb(teacher.values, config.beta, rng)
        student_noisy = perturb(student.values, config.beta, rng)
        noisy = gc_loss(
            teacher_noisy,
            student_noisy,
            cost,
            epsilon=config.epsilon,
            max_iters=config.max_iters,
            tolerance=config.tolerance,
        )
        # Chain rule through value -> clamp(value + noise): identity where
        # the clamp is inactive, zero where it pinned the mass.
        unclamped = student_noisy > CLAMP_FLOOR
        grad_noisy = np.where(unclamped, noisy.grad_student, 0.0)
        loss_plan = plan_divergence(clean.plan, noisy.plan)

    loss = clean.loss + noisy.loss + loss_plan
    grad = clean.grad_student + grad_noisy
    return NgcResult(
        loss=loss,
        grad_values=grad,
        gated=False,
        loss_gc=clean.loss,
        loss_gc_noisy=noisy.loss,
        loss_plan=loss_plan,
        diagnostics={
            "n_pairs": n,
            "clean_iterations": clean.solution.iterations,
            "clean_converged": clean.solution.converged,
            "clean_marginal_error": clean.solution.marginal_error,
            "noisy_iterations": noisy.solution.iterations,
            "noisy_converged": noisy.solution.converged,
            "noisy_marginal_error": noisy.solution.marginal_error,
        },
    )
