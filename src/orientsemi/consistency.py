"""Global distribution consistency between teacher and student.

Dense pseudo-label pairs are lifted into two discrete distributions over
one set of positions: each pair contributes mass ``exp(score)`` at its
class of interest, on the teacher side and on the student side.  The
two are aligned with an entropic transport solve, evaluated in dual form
(:func:`gc_loss`).

A second, noise-perturbed copy of the matching makes the alignment
contrastive: both mass vectors are jittered with Gaussian noise, the
matching is re-solved, and the two transport plans are pulled together
by a mean-squared plan-difference penalty.  The penalty itself carries
no gradient; gradients flow only through the two dual objectives.

Scenes with fewer pairs than ``[tab1] global_threshold`` are gated off:
the matching is only meaningful when the distribution covers enough of
the scene, so below the threshold the loss and gradient are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orientsemi.config import RunConfig
from orientsemi.transport import GcLoss, build_cost_matrix, gc_loss

# Perturbed masses are clamped here to stay strictly positive; entries at
# the floor have zero gradient (the clamp is flat).
CLAMP_FLOOR = 1e-6


def perturb(values: np.ndarray, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian jitter on a mass vector, clamped positive."""
    return np.maximum(values + beta * rng.standard_normal(values.shape[0]), CLAMP_FLOOR)


@dataclass
class NgcResult:
    """Loss value, gradient with respect to the student scores, and the
    term breakdown.  A gated result is all zeros."""

    loss: float
    grad_scores: np.ndarray
    gated: bool
    loss_gc: float
    loss_gc_noisy: float
    loss_plan: float


def plan_divergence(plan: np.ndarray, noisy_plan: np.ndarray) -> float:
    """Mean squared difference between two transport plans."""
    diff = plan - noisy_plan
    return float((diff * diff).mean())


def _solve(
    name: str, teacher_mass: np.ndarray, student_mass: np.ndarray, cost: np.ndarray, config: RunConfig
) -> GcLoss:
    """One matching under the ``[semi] ot_*`` settings; raises
    ``RuntimeError`` if it stops at ``ot_max_iters`` without meeting
    ``ot_tolerance``, since its potentials are then not the optimum the
    gradient assumes."""
    semi = config.semi
    result = gc_loss(
        teacher_mass,
        student_mass,
        cost,
        epsilon=semi.ot_epsilon,
        max_iters=semi.ot_max_iters,
        tolerance=semi.ot_tolerance,
    )
    solution = result.solution
    if not solution.converged:
        raise RuntimeError(
            f"{name} Sinkhorn solve on n={len(student_mass)} pairs did not converge: "
            f"{solution.iterations} iterations, marginal error {solution.marginal_error!r} "
            f"(tolerance {semi.ot_tolerance!r})"
        )
    return result


def ngc_loss(
    positions: np.ndarray,
    teacher_scores: np.ndarray,
    student_scores: np.ndarray,
    config: RunConfig,
    rng: np.random.Generator,
) -> NgcResult:
    """Noise-contrasted global consistency loss over one set of pairs.

    Pair ``i`` sits at ``positions[i]`` with mass ``exp(score)`` on each
    side.  Gated at ``[tab1] global_threshold`` pairs, with noise scale
    ``[tab1] beta``.  The rng is consumed only for the noise draws
    (teacher first, then student), so a caller that seeds it per step
    gets reproducible noise.  ``grad_scores`` flows through the student
    masses only: the cost matrix built from the scores is data.
    """
    n = positions.shape[0]
    if n < config.tab1.global_threshold:
        return NgcResult(0.0, np.zeros(n), gated=True, loss_gc=0.0, loss_gc_noisy=0.0, loss_plan=0.0)

    teacher_mass = np.exp(teacher_scores)
    student_mass = np.exp(student_scores)
    cost = build_cost_matrix(positions, teacher_scores, positions, student_scores)
    clean = _solve("clean", teacher_mass, student_mass, cost, config)

    beta = config.tab1.beta
    if beta == 0.0:
        # No noise: the second matching is identical, the plan penalty
        # vanishes, and the loss is exactly twice the clean term.
        noisy = clean
        grad_noisy = clean.grad_student
        loss_plan = 0.0
    else:
        teacher_noisy = perturb(teacher_mass, beta, rng)
        student_noisy = perturb(student_mass, beta, rng)
        noisy = _solve("noisy", teacher_noisy, student_noisy, cost, config)
        # Chain rule through mass -> clamp(mass + noise): identity where
        # the clamp is inactive, zero where it pinned the mass.
        unclamped = student_noisy > CLAMP_FLOOR
        grad_noisy = np.where(unclamped, noisy.grad_student, 0.0)
        loss_plan = plan_divergence(clean.plan, noisy.plan)

    # d mass / d score = mass.
    return NgcResult(
        loss=clean.loss + noisy.loss + loss_plan,
        grad_scores=(clean.grad_student + grad_noisy) * student_mass,
        gated=False,
        loss_gc=clean.loss,
        loss_gc_noisy=noisy.loss,
        loss_plan=loss_plan,
    )
