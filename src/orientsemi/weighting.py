"""Geometry-aware weighting of teacher-student pair losses.

Orientation disagreement hurts elongated objects far more than square
ones: at a fixed angle error the overlap of a high-aspect box collapses
while a square box barely moves.  The weight below scales each dense
pair's loss by the angle gap between teacher and student, amplified by
the mean aspect ratio of the two predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PairGeometry:
    """Orientation and aspect of one teacher-student prediction pair.

    Angles are in radians; aspects are long side over short side and so
    must be >= 1.
    """

    teacher_angle: float
    student_angle: float
    teacher_aspect: float
    student_aspect: float

    def __post_init__(self) -> None:
        for name in ("teacher_angle", "student_angle", "teacher_aspect", "student_aspect"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.teacher_aspect < 1.0 or self.student_aspect < 1.0:
            raise ValueError(
                "aspects must be >= 1, got "
                f"{self.teacher_aspect}, {self.student_aspect}"
            )


def modulating_factor(geometry: PairGeometry, psi: float = 50.0) -> float:
    """Weight ``1 + psi * |angle gap| / pi * mean aspect``.

    The angle gap is the raw difference of the stored angles, not the
    wrapped distance: a pair sitting on opposite sides of the angle
    branch cut is exactly the kind of disagreement the weight should
    amplify.  Equal angles give weight 1 regardless of aspect.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    gap = abs(geometry.teacher_angle - geometry.student_angle)
    mean_aspect = 0.5 * (geometry.teacher_aspect + geometry.student_aspect)
    return 1.0 + psi * (gap / math.pi) * mean_aspect


def pair_weights(
    teacher_angle: np.ndarray,
    student_angle: np.ndarray,
    teacher_aspect: np.ndarray,
    student_aspect: np.ndarray,
    psi: float,
) -> np.ndarray:
    """Vectorised :func:`modulating_factor`, one weight per pair.

    Same formula, grouped as ``1 + (psi / pi) * gap * mean aspect``, so
    values agree with the scalar form to rounding, not bit for bit.
    """
    gap = np.abs(teacher_angle - student_angle)
    mean_aspect = 0.5 * (teacher_aspect + student_aspect)
    return 1.0 + (psi / math.pi) * gap * mean_aspect
