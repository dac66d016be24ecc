"""Rotated rectangles: representation, exact IoU, and greedy NMS.

Boxes use the long-edge convention: ``w`` is the first edge, ``h`` the
second, and ``angle`` is the rotation of the ``w`` edge measured
counter-clockwise, normalised to ``[-pi/2, pi/2)``.  Nothing here assumes
``w >= h``; the convention only fixes which edge the angle refers to.

IoU is exact polygon arithmetic (Sutherland-Hodgman clipping + shoelace),
not a raster approximation.  ``rotated_iou`` orders its arguments by a
canonical key before clipping so that ``iou(a, b) == iou(b, a)`` holds
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

HALF_PI = math.pi / 2.0

# Intersections smaller than this are treated as empty: clipping two boxes
# that merely touch along an edge produces slivers of this order from
# rounding, and downstream consumers need touch == disjoint.
MIN_INTERSECTION_AREA = 1e-12


def normalize_angle(angle: float) -> float:
    """Wrap an angle to ``[-pi/2, pi/2)``.

    The map is idempotent and identifies angles that differ by a multiple
    of pi, which is the symmetry group of a rectangle's edge direction.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    wrapped = (angle + HALF_PI) % math.pi - HALF_PI
    # Float rounding in the modulo can land exactly on the open end.
    if wrapped >= HALF_PI:
        wrapped -= math.pi
    elif wrapped < -HALF_PI:
        wrapped += math.pi
    return wrapped


@dataclass(frozen=True)
class RotatedBox:
    """An oriented rectangle ``(cx, cy, w, h, angle)``.

    ``angle`` is normalised on construction, so two boxes describing the
    same rectangle with angles pi apart compare equal field-by-field.
    """

    cx: float
    cy: float
    w: float
    h: float
    angle: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "w", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        object.__setattr__(self, "angle", normalize_angle(self.angle))

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def aspect(self) -> float:
        """Long side over short side, always >= 1."""
        return max(self.w, self.h) / min(self.w, self.h)

    def corners(self) -> np.ndarray:
        """Corner coordinates, shape (4, 2), in counter-clockwise order."""
        return np.array(_corner_list(self))

    def aabb(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounds ``(xmin, ymin, xmax, ymax)``."""
        c = abs(math.cos(self.angle))
        s = abs(math.sin(self.angle))
        ex = 0.5 * (self.w * c + self.h * s)
        ey = 0.5 * (self.w * s + self.h * c)
        return (self.cx - ex, self.cy - ey, self.cx + ex, self.cy + ey)

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h, self.angle])


def _corner_list(box: RotatedBox) -> list[tuple[float, float]]:
    c = math.cos(box.angle)
    s = math.sin(box.angle)
    hw = 0.5 * box.w
    hh = 0.5 * box.h
    wx, wy = hw * c, hw * s
    hx, hy = -hh * s, hh * c
    return [
        (box.cx - wx - hx, box.cy - wy - hy),
        (box.cx + wx - hx, box.cy + wy - hy),
        (box.cx + wx + hx, box.cy + wy + hy),
        (box.cx - wx + hx, box.cy - wy + hy),
    ]


def _clip_polygon(polygon: list[tuple[float, float]], clipper: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex polygon by a convex clipper.

    Points exactly on a clip edge count as inside, so clipping a polygon
    by its own box returns the polygon's vertices verbatim.
    """
    output = polygon
    n_clip = len(clipper)
    for i in range(n_clip):
        if not output:
            return []
        ax, ay = clipper[i]
        bx, by = clipper[(i + 1) % n_clip]
        ex, ey = bx - ax, by - ay
        inputs = output
        output = []
        n_in = len(inputs)
        px, py = inputs[-1]
        p_side = ex * (py - ay) - ey * (px - ax)
        for j in range(n_in):
            qx, qy = inputs[j]
            q_side = ex * (qy - ay) - ey * (qx - ax)
            if q_side >= 0.0:
                if p_side < 0.0:
                    t = p_side / (p_side - q_side)
                    output.append((px + t * (qx - px), py + t * (qy - py)))
                output.append((qx, qy))
            elif p_side >= 0.0:
                t = p_side / (p_side - q_side)
                output.append((px + t * (qx - px), py + t * (qy - py)))
            px, py, p_side = qx, qy, q_side
    return output


def _shoelace_area(polygon: list[tuple[float, float]]) -> float:
    n = len(polygon)
    if n < 3:
        return 0.0
    acc = 0.0
    px, py = polygon[-1]
    for qx, qy in polygon:
        acc += px * qy - qx * py
        px, py = qx, qy
    return 0.5 * abs(acc)


def intersection_area(a: RotatedBox, b: RotatedBox) -> float:
    """Exact intersection area of two rotated boxes.

    Areas below ``MIN_INTERSECTION_AREA`` collapse to exactly 0.
    """
    ax0, ay0, ax1, ay1 = a.aabb()
    bx0, by0, bx1, by1 = b.aabb()
    if ax0 >= bx1 or bx0 >= ax1 or ay0 >= by1 or by0 >= ay1:
        return 0.0
    clipped = _clip_polygon(_corner_list(a), _corner_list(b))
    area = _shoelace_area(clipped)
    if area < MIN_INTERSECTION_AREA:
        return 0.0
    return area


def rotated_iou(a: RotatedBox, b: RotatedBox) -> float:
    """Intersection over union of two rotated boxes, in ``[0, 1]``.

    Arguments are ordered by a canonical key before clipping, so the
    result is exactly symmetric in ``a`` and ``b``.  Identical boxes give
    exactly 1.0 (boundary points count as inside during clipping).
    """
    key_a = (a.cx, a.cy, a.w, a.h, a.angle)
    key_b = (b.cx, b.cy, b.w, b.h, b.angle)
    if key_a == key_b:
        return 1.0
    if key_b < key_a:
        a, b = b, a
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    union = a.area + b.area - inter
    # Near-identical boxes can round the ratio a ulp past 1.
    return min(inter / union, 1.0)


def iou_rotation_curve(aspect: float, angles: Sequence[float]) -> np.ndarray:
    """IoU of a unit-height box of the given aspect against a copy of
    itself rotated in place by each angle.

    The curve is non-increasing on ``[0, pi/4]``, and at a fixed angle a
    higher aspect gives a lower IoU: elongated boxes are the ones whose
    overlap is sensitive to orientation error.  (Past pi/4 a square's
    curve turns back up toward its 90-degree symmetry, so monotonicity
    only holds on the first octant.)
    """
    if aspect < 1.0:
        raise ValueError(f"aspect must be >= 1, got {aspect}")
    base = RotatedBox(0.0, 0.0, float(aspect), 1.0, 0.0)
    out = np.empty(len(angles))
    for i, phi in enumerate(angles):
        rotated = RotatedBox(0.0, 0.0, float(aspect), 1.0, float(phi))
        out[i] = rotated_iou(base, rotated)
    return out


# Pads the row bounds that prefilter NMS pairs: ``RotatedBox`` normalises
# the angle again, so its exact bounds can lie an ulp outside a row's.  A
# pair admitted only by the pad fails the exact test in
# ``intersection_area``, so the pad never changes a result.
AABB_PAD = 1e-9


def rotated_nms(
    boxes: np.ndarray,
    scores: Sequence[float],
    iou_threshold: float = 0.1,
    max_keep: Optional[int] = None,
) -> list[int]:
    """Greedy non-maximum suppression on (N, 5) rows of
    ``(cx, cy, w, h, angle)``.

    Returns indices of kept boxes in descending score order.  Ties in
    score are broken by lower index, so the result is deterministic for
    any input ordering.  A box is suppressed when its IoU with an
    already-kept box exceeds ``iou_threshold``; only the boxes whose
    axis-aligned bounds overlap the kept box's become a ``RotatedBox``
    and reach ``rotated_iou``.  ``max_keep`` stops the scan once that
    many boxes are kept; because the greedy order never revisits a
    decision, the truncated result equals the prefix of the full result.
    """
    rows = np.asarray(boxes, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise ValueError(f"boxes must be (N, 5) rows, got shape {rows.shape}")
    n = len(rows)
    if n != len(scores):
        raise ValueError(f"boxes and scores differ in length: {n} vs {len(scores)}")
    score_arr = np.asarray(scores, dtype=float)
    if not (np.all(np.isfinite(score_arr)) and np.all(np.isfinite(rows)) and np.all(rows[:, 2:4] > 0.0)):
        raise ValueError("scores and boxes must be finite, with positive sides")
    order = np.lexsort((np.arange(n), -score_arr))
    cos, sin = np.abs(np.cos(rows[:, 4])), np.abs(np.sin(rows[:, 4]))
    extent = 0.5 * np.stack([rows[:, 2] * cos + rows[:, 3] * sin, rows[:, 2] * sin + rows[:, 3] * cos], axis=1)
    lo = rows[:, :2] - extent - AABB_PAD
    hi = rows[:, :2] + extent + AABB_PAD
    kept: list[int] = []
    live = np.ones(n, dtype=bool)
    for i in order.tolist():
        if not live[i]:
            continue
        kept.append(i)
        if max_keep is not None and len(kept) >= max_keep:
            break
        live[i] = False
        near = np.flatnonzero(live & np.all(lo < hi[i], axis=1) & np.all(lo[i] < hi, axis=1))
        if near.size == 0:
            continue
        box = RotatedBox(*rows[i].tolist())
        for j in near.tolist():
            if rotated_iou(box, RotatedBox(*rows[j].tolist())) > iou_threshold:
                live[j] = False
    return kept


def grid_cells_in_box(box: RotatedBox, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid cells whose centers fall inside the box.

    Cell ``(iy, ix)`` has center ``(ix + 0.5, iy + 0.5)``.  Returns
    ``(iy, ix)`` index arrays in row-major order.  Only the box's
    axis-aligned bounds are scanned, so cost scales with box size, not
    grid size.
    """
    x0, y0, x1, y1 = box.aabb()
    ix_lo = max(int(math.floor(x0 - 0.5)), 0)
    ix_hi = min(int(math.ceil(x1 - 0.5)), width - 1)
    iy_lo = max(int(math.floor(y0 - 0.5)), 0)
    iy_hi = min(int(math.ceil(y1 - 0.5)), height - 1)
    if ix_lo > ix_hi or iy_lo > iy_hi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    xs = np.arange(ix_lo, ix_hi + 1, dtype=np.float64) + 0.5 - box.cx
    ys = np.arange(iy_lo, iy_hi + 1, dtype=np.float64) + 0.5 - box.cy
    gx, gy = np.meshgrid(xs, ys)
    c = math.cos(box.angle)
    s = math.sin(box.angle)
    local_x = gx * c + gy * s
    local_y = -gx * s + gy * c
    inside = (np.abs(local_x) <= 0.5 * box.w) & (np.abs(local_y) <= 0.5 * box.h)
    iy, ix = np.nonzero(inside)
    return iy + iy_lo, ix + ix_lo
