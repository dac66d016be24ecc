"""Rotated rectangles: representation, exact IoU, and greedy NMS.

Boxes use the long-edge convention: ``w`` is the first edge, ``h`` the
second, and ``angle`` is the rotation of the ``w`` edge measured
counter-clockwise, normalised to ``[-pi/2, pi/2)``.  Nothing here assumes
``w >= h``; the convention only fixes which edge the angle refers to.

IoU is exact polygon arithmetic (Sutherland-Hodgman clipping + shoelace),
not a raster approximation.  ``rotated_iou`` orders its arguments by a
canonical key before clipping so that ``iou(a, b) == iou(b, a)`` holds
bit-for-bit.  ``rotated_iou_pairs`` is the same arithmetic on a batch of
(M, 5) row pairs, equal to ``rotated_iou`` bit for bit; NMS and mAP
matching use it, and the scalar form stays as its reference.
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


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """``normalize_angle`` on an array, equal to it bit for bit."""
    angles = np.asarray(angles, dtype=np.float64)
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    wrapped = (angles + HALF_PI) % math.pi - HALF_PI
    wrapped[wrapped >= HALF_PI] -= math.pi
    wrapped[wrapped < -HALF_PI] += math.pi
    return wrapped


def _bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``RotatedBox.aabb`` of (M, 5) rows as ``(lo, hi)``, each (M, 2)."""
    c, s = np.abs(np.cos(rows[:, 4])), np.abs(np.sin(rows[:, 4]))
    w, h = rows[:, 2], rows[:, 3]
    extent = np.stack([0.5 * (w * c + h * s), 0.5 * (w * s + h * c)], axis=1)
    return rows[:, :2] - extent, rows[:, :2] + extent


# Corner k of ``_corner_list`` is center + W_SIGN[k] * w_vec + H_SIGN[k] *
# h_vec, summed left to right; adding a negated term is subtracting it.
W_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])[None, :, None]
H_SIGN = np.array([-1.0, -1.0, 1.0, 1.0])[None, :, None]


def _corners(rows: np.ndarray) -> np.ndarray:
    """``_corner_list`` of (M, 5) rows, shape (M, 4, 2)."""
    c, s = np.cos(rows[:, 4]), np.sin(rows[:, 4])
    w_vec = np.empty((len(rows), 1, 2))
    h_vec = np.empty_like(w_vec)
    w_vec[:, 0, 0], w_vec[:, 0, 1] = c, s
    h_vec[:, 0, 0], h_vec[:, 0, 1] = -s, c
    w_vec *= 0.5 * rows[:, 2, None, None]
    h_vec *= 0.5 * rows[:, 3, None, None]
    return rows[:, None, :2] + W_SIGN * w_vec + H_SIGN * h_vec


def _previous(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For vertices listed pair by pair in polygon order, the index of
    each one's previous vertex (a polygon's first wraps to its last, as
    ``inputs[-1]`` does in the scalar loops), and each polygon's first
    index."""
    n = len(pair)
    first = np.ones(n, dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    starts = first.nonzero()[0]
    prev = np.arange(-1, n - 1)
    prev[starts] = np.concatenate((starts[1:], [n])) - 1
    return prev, starts


def _clipped_areas(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """``_shoelace_area(_clip_polygon(...))`` for (M, 4, 2) corner pairs.

    The clipped polygons are one flat (n, 2) vertex list, sorted by pair
    and in each pair's vertex order.  Each clip edge emits, per vertex,
    an optional crossing point and then the vertex itself; selecting the
    emitted entries of that interleaved list keeps the scalar loop's
    order, and a polygon left with no vertex drops out.  The shoelace
    sums each polygon's terms one vertex at a time, in that order.
    """
    m = len(subject)
    xy = subject.reshape(-1, 2)
    # Per clip edge: (M, 4) rows of its start point and direction.
    edges = np.concatenate((clipper, clipper[:, [1, 2, 3, 0]] - clipper), axis=2).transpose(1, 0, 2).copy()
    pair = np.repeat(np.arange(m), 4)
    for edge in edges:
        ax, ay, ex, ey = edge[pair].T
        q_side = ex * (xy[:, 1] - ay) - ey * (xy[:, 0] - ax)
        prev, _ = _previous(pair)
        p_xy, p_side = xy[prev], q_side[prev]
        q_in = q_side >= 0.0
        emit = np.empty((len(pair), 2), dtype=bool)
        np.not_equal(q_in, p_side >= 0.0, out=emit[:, 0])
        emit[:, 1] = q_in
        # Every vertex gets a crossing point; only those where the side
        # changes are emitted, and they are the scalar loop's points.
        t = p_side / (p_side - q_side)
        out = np.empty((len(pair), 2, 2))
        out[:, 0] = p_xy + t[:, None] * (xy - p_xy)
        out[:, 1] = xy
        emitted = emit.ravel().nonzero()[0]
        xy, pair = out.reshape(-1, 2)[emitted], pair[emitted >> 1]
    prev, starts = _previous(pair)
    terms = xy[prev, 0] * xy[:, 1] - xy[:, 0] * xy[prev, 1]
    count = np.bincount(pair, minlength=m)
    slot = np.arange(len(pair)) - np.repeat(starts, count[pair[starts]])
    columns = np.zeros((count.max(initial=0), m))
    columns[slot, pair] = terms
    acc = np.zeros(m)
    for column in columns:
        acc += column
    return np.where(count >= 3, 0.5 * np.abs(acc), 0.0)


def rotated_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``rotated_iou`` of each pair of rows of two (M, 5) arrays, equal
    to it bit for bit.

    Angles must already be normalised, as ``RotatedBox`` holds them.
    Each pair is put in canonical key order, and only pairs with unequal
    keys whose exact bounds overlap are clipped, all in one batch.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 5 or a.shape != b.shape:
        raise ValueError(f"a and b must be (M, 5) rows of one shape, got {a.shape} and {b.shape}")
    m = len(a)
    rows = np.concatenate((a, b))
    lo, hi = _bounds(rows)
    unequal = a != b
    same = ~unequal.any(axis=1)
    clip = np.flatnonzero(~same & np.all(lo[:m] < hi[m:], axis=1) & np.all(lo[m:] < hi[:m], axis=1))
    # Canonical order: the row with the smaller key, compared at the
    # first unequal column as tuples are, is the clipped polygon.
    key = unequal[clip].argmax(axis=1)
    swap = b[clip, key] < a[clip, key]
    subject = np.where(swap, clip + m, clip)
    clipper = np.where(swap, clip, clip + m)
    corners = _corners(rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        inter = _clipped_areas(corners[subject], corners[clipper])
    inter[inter < MIN_INTERSECTION_AREA] = 0.0
    area = rows[:, 2] * rows[:, 3]
    union = area[subject] + area[clipper] - inter
    out = same.astype(np.float64)
    out[clip] = np.where(inter > 0.0, np.minimum(inter / union, 1.0), 0.0)
    return out


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
    rotated = np.zeros((len(angles), 5))
    rotated[:, 2:4] = float(aspect), 1.0
    base = rotated.copy()
    rotated[:, 4] = normalize_angles(np.asarray(angles, dtype=np.float64).reshape(-1))
    return rotated_iou_pairs(base, rotated)


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
    any input ordering.  A box is suppressed when its IoU with a
    higher-ranked kept box exceeds ``iou_threshold``.

    The greedy scan runs in rounds.  Each round keeps every undecided
    box whose bounds overlap no higher-ranked undecided box (no box left
    can suppress it), then clips every pair of a newly kept box and a
    lower-ranked undecided box whose bounds overlap it, in one
    ``rotated_iou_pairs`` call.  The result equals the one-box-at-a-time
    scan.  ``max_keep`` truncates it to its first boxes; the rounds stop
    once that prefix is decided.  The bounds test is an N x N bool mask,
    4 MB at the 2,000 candidates that the callers cap N at.
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
    if max_keep is not None and max_keep < 0:
        raise ValueError(f"max_keep must be >= 0, got {max_keep}")
    order = np.lexsort((np.arange(n), -score_arr))
    # Ranked rows, angles normalised as ``RotatedBox`` holds them, so the
    # bounds below are the boxes' exact bounds.
    ranked = rows[order]
    ranked[:, 4] = normalize_angles(ranked[:, 4])
    lo, hi = _bounds(ranked)
    # overlap[i, j]: the bounds of i and j overlap (so does i with itself).
    overlap = np.ones((n, n), dtype=bool)
    for axis in range(2):
        low, high = lo[:, axis].copy(), hi[:, axis].copy()
        overlap &= low[:, None] < high
        overlap &= high[:, None] > low
    kept = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        open_ = undecided.nonzero()[0]
        # The first undecided box in each open row is the box itself
        # unless a higher-ranked undecided box overlaps it.
        new = open_[(overlap[open_] & undecided).argmax(axis=1) == open_]
        kept[new] = True
        undecided[new] = False
        if max_keep is not None and np.count_nonzero(kept[: undecided.argmax() if undecided.any() else n]) >= max_keep:
            break
        # No undecided box that overlaps a new one ranks above it.
        pair_new, pair_open = (overlap[new] & undecided).nonzero()
        iou = rotated_iou_pairs(ranked[new[pair_new]], ranked[pair_open])
        undecided[pair_open[iou > iou_threshold]] = False
    return order[np.flatnonzero(kept)[:max_keep]].tolist()


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
