"""Geometry-aware weighting of teacher-student pair losses.

Orientation disagreement hurts elongated objects far more than square
ones: at a fixed angle error the overlap of a high-aspect box collapses
while a square box barely moves.  The weight below scales each dense
pair's loss by the angle gap between teacher and student, amplified by
the mean aspect ratio of the two predictions.
"""

from __future__ import annotations

import math

import numpy as np


def pair_weights(
    teacher_angle: np.ndarray,
    student_angle: np.ndarray,
    teacher_aspect: np.ndarray,
    student_aspect: np.ndarray,
    psi: float,
) -> np.ndarray:
    """Weight ``1 + (psi / pi) * |angle gap| * mean aspect``, one per pair.

    Angles are in radians; aspects are long side over short side.  The
    angle gap is the raw difference of the stored angles, not the wrapped
    distance: a pair sitting on opposite sides of the angle branch cut is
    exactly the kind of disagreement the weight should amplify.  Equal
    angles give weight 1 regardless of aspect.
    """
    gap = np.abs(teacher_angle - student_angle)
    mean_aspect = 0.5 * (teacher_aspect + student_aspect)
    return 1.0 + (psi / math.pi) * gap * mean_aspect
