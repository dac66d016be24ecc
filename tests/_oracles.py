"""Independent reference implementations used only by the test suite.

Each oracle deliberately avoids the code path it checks: IoU is estimated
by Monte Carlo rasterisation, transport plans come from scipy's LP solver,
gradients from central finite differences.  The slow forms that fast
paths replaced (Sinkhorn with a plan per iteration, the broadcast cost
matrix, the per-channel blur, the float32 feature cache per scene view,
feature extraction that concatenates separately allocated rows, scene
rendering over a meshgrid, NMS over a list of box objects, the
full sort of capped grid cells, mAP matching that clips each pair once
per threshold, supervised targets precomputed for every positive cell
with a dense localisation-quality map, the IoU head's negatives drawn
from a listed pool) are kept here, and the fast paths must match them
bit for bit.  The scalar closed form of the pair weight
(:func:`modulating_factor`) is the reference for
``weighting.pair_weights``, which groups the same formula differently
and so agrees to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.ndimage import gaussian_filter, uniform_filter
from scipy.optimize import linprog
from scipy.special import logsumexp

from orientsemi.detector import encode_boxes
from orientsemi.evaluation import _interpolated_ap
from orientsemi.geometry import RotatedBox, grid_cells_in_box, rotated_iou
from orientsemi.scenes import SceneConfig, SyntheticScene, flip_scene, strong_augment
from orientsemi.training import Trainer


def mc_intersection_area(a: RotatedBox, b: RotatedBox, pool: np.ndarray) -> float:
    """Monte Carlo estimate of the intersection area of two rotated boxes.

    ``pool`` is an (N, 2) array of uniform samples in [0, 1)^2, rescaled to
    the overlap of the two axis-aligned bounding boxes.  Box areas are exact,
    so only the intersection carries sampling noise.
    """
    ax0, ay0, ax1, ay1 = a.aabb()
    bx0, by0, bx1, by1 = b.aabb()
    x0, y0 = max(ax0, bx0), max(ay0, by0)
    x1, y1 = min(ax1, bx1), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return 0.0
    region_area = (x1 - x0) * (y1 - y0)
    px = x0 + pool[:, 0] * (x1 - x0)
    py = y0 + pool[:, 1] * (y1 - y0)
    inside = _points_in_box(px, py, a) & _points_in_box(px, py, b)
    return region_area * float(np.count_nonzero(inside)) / pool.shape[0]


def _points_in_box(px: np.ndarray, py: np.ndarray, box: RotatedBox) -> np.ndarray:
    dx = px - box.cx
    dy = py - box.cy
    c = math.cos(box.angle)
    s = math.sin(box.angle)
    local_x = dx * c + dy * s
    local_y = -dx * s + dy * c
    return (np.abs(local_x) <= 0.5 * box.w) & (np.abs(local_y) <= 0.5 * box.h)


def mc_iou(a: RotatedBox, b: RotatedBox, pool: np.ndarray) -> float:
    inter = mc_intersection_area(a, b, pool)
    union = a.area + b.area - inter
    return inter / union if inter > 0.0 else 0.0


class MonteCarloIoU:
    """Budget Monte-Carlo IoU estimator for large sample counts.

    Samples are drawn once and rescaled per pair into the overlap of the
    two axis-aligned bounding boxes, so every sample is spent where the
    intersection can live; the union uses exact rectangle areas.  All
    buffers are float32 and preallocated, which is what makes 10^7
    samples per pair affordable.
    """

    def __init__(self, n_samples: int, rng: np.random.Generator) -> None:
        self.n = n_samples
        self.pool = rng.random((2, n_samples), dtype=np.float32)
        self._px = np.empty(n_samples, dtype=np.float32)
        self._py = np.empty(n_samples, dtype=np.float32)
        self._dx = np.empty(n_samples, dtype=np.float32)
        self._dy = np.empty(n_samples, dtype=np.float32)
        self._bu = np.empty(n_samples, dtype=np.float32)
        self._bv = np.empty(n_samples, dtype=np.float32)
        self._fs = np.empty(n_samples, dtype=np.float32)
        self._ma = np.empty(n_samples, dtype=bool)
        self._mb = np.empty(n_samples, dtype=bool)
        self._mt = np.empty(n_samples, dtype=bool)

    def _inside(self, box: RotatedBox, out: np.ndarray) -> np.ndarray:
        c = np.float32(math.cos(box.angle))
        s = np.float32(math.sin(box.angle))
        np.subtract(self._px, np.float32(box.cx), out=self._dx)
        np.subtract(self._py, np.float32(box.cy), out=self._dy)
        np.multiply(self._dx, c, out=self._bu)
        np.multiply(self._dy, s, out=self._fs)
        np.add(self._bu, self._fs, out=self._bu)
        np.multiply(self._dx, -s, out=self._bv)
        np.multiply(self._dy, c, out=self._fs)
        np.add(self._bv, self._fs, out=self._bv)
        np.abs(self._bu, out=self._bu)
        np.abs(self._bv, out=self._bv)
        np.less_equal(self._bu, np.float32(box.w / 2), out=out)
        np.less_equal(self._bv, np.float32(box.h / 2), out=self._mt)
        np.logical_and(out, self._mt, out=out)
        return out

    def iou(self, a: RotatedBox, b: RotatedBox) -> float:
        ax0, ay0, ax1, ay1 = a.aabb()
        bx0, by0, bx1, by1 = b.aabb()
        x0, y0 = max(ax0, bx0), max(ay0, by0)
        x1, y1 = min(ax1, bx1), min(ay1, by1)
        if x0 >= x1 or y0 >= y1:
            return 0.0
        np.multiply(self.pool[0], np.float32(x1 - x0), out=self._px)
        np.add(self._px, np.float32(x0), out=self._px)
        np.multiply(self.pool[1], np.float32(y1 - y0), out=self._py)
        np.add(self._py, np.float32(y0), out=self._py)
        in_a = self._inside(a, self._ma)
        in_b = self._inside(b, self._mb)
        np.logical_and(in_a, in_b, out=in_a)
        inter = np.count_nonzero(in_a) / self.n * (x1 - x0) * (y1 - y0)
        union = a.w * a.h + b.w * b.h - inter
        return inter / union


def vertex_transport_cost(cost: np.ndarray, source: np.ndarray, target: np.ndarray) -> float:
    """Exact optimal transport cost by enumerating polytope vertices.

    Every vertex of the transportation polytope is a basic feasible
    solution: pick ``n + m - 1`` cells, solve the marginal equations
    restricted to them, and keep the solution if all mass is
    non-negative.  A linear objective over a bounded polytope attains
    its minimum at a vertex, so the minimum over all bases is exact.
    Only practical for tiny problems (n, m <= 3 means at most C(9, 5)
    = 126 candidate bases).
    """
    from itertools import combinations

    n, m = cost.shape
    n_cells = n * m
    # Marginal constraint matrix over all cells; the last row is
    # redundant because both marginals sum to the same total.
    full = np.zeros((n + m, n_cells))
    for k in range(n_cells):
        full[k // m, k] = 1.0
        full[n + k % m, k] = 1.0
    rhs = np.concatenate([source, target])
    best = math.inf
    for basis in combinations(range(n_cells), n + m - 1):
        basis = list(basis)
        square = full[:-1][:, basis]
        try:
            mass = np.linalg.solve(square, rhs[:-1])
        except np.linalg.LinAlgError:
            continue
        if np.any(mass < -1e-10):
            continue
        if not np.allclose(full[:, basis] @ mass, rhs, atol=1e-9):
            continue
        value = float(cost.ravel()[basis] @ mass)
        best = min(best, value)
    assert math.isfinite(best), "no feasible basis found"
    return best


def lp_transport(cost: np.ndarray, source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact (unregularised) optimal transport via linear programming.

    Returns the optimal plan and its transport cost.  Feasible because
    ``source`` and ``target`` both sum to 1.
    """
    n, m = cost.shape
    a_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        a_eq.append(row)
    for j in range(m):
        col = np.zeros(n * m)
        col[j::m] = 1.0
        a_eq.append(col)
    b_eq = np.concatenate([source, target])
    result = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.status == 0, f"LP solve failed: {result.message}"
    return result.x.reshape(n, m), float(result.fun)


def fd_gradient(fn, x: np.ndarray, step: float = 1e-6, indices=None) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector.

    With ``indices``, differentiates only those flat coordinates and
    returns a vector of the same length as ``indices``.
    """
    x = np.asarray(x, dtype=float)
    which = range(x.size) if indices is None else list(indices)
    grad = np.zeros(len(which) if indices is not None else x.size)
    for slot, i in enumerate(which):
        bumped = x.copy()
        bumped.flat[i] += step
        hi = fn(bumped)
        bumped.flat[i] -= 2.0 * step
        lo = fn(bumped)
        grad[slot] = (hi - lo) / (2.0 * step)
    return grad


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
    """Weight ``1 + psi * |angle gap| / pi * mean aspect`` of one pair, on
    the raw angle gap.  Equal angles give weight 1 regardless of aspect."""
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    gap = abs(geometry.teacher_angle - geometry.student_angle)
    mean_aspect = 0.5 * (geometry.teacher_aspect + geometry.student_aspect)
    return 1.0 + psi * (gap / math.pi) * mean_aspect


def random_box_pair(rng: np.random.Generator) -> tuple[RotatedBox, RotatedBox]:
    """A pair of boxes spanning aspects 1-8, all relative angles, and a mix
    of heavy, light, and zero overlap."""
    scale = rng.uniform(0.5, 3.0)
    boxes = []
    for _ in range(2):
        aspect = rng.uniform(1.0, 8.0)
        h = scale * rng.uniform(0.5, 1.5)
        w = h * aspect
        angle = rng.uniform(-math.pi / 2, math.pi / 2)
        boxes.append((w, h, angle))
    (w1, h1, a1), (w2, h2, a2) = boxes
    spread = 0.5 * (w1 + h1 + w2 + h2) / 2.0
    offset_r = rng.uniform(0.0, spread)
    offset_t = rng.uniform(0.0, 2.0 * math.pi)
    cx2 = offset_r * math.cos(offset_t)
    cy2 = offset_r * math.sin(offset_t)
    return (
        RotatedBox(0.0, 0.0, w1, h1, a1),
        RotatedBox(cx2, cy2, w2, h2, a2),
    )


def plan_per_iteration_sinkhorn(
    cost: np.ndarray,
    source: np.ndarray,
    target: np.ndarray,
    epsilon: float,
    max_iters: int,
    tolerance: float,
    log_domain: bool,
) -> dict:
    """Sinkhorn that builds the plan and takes its marginal error on every
    iteration, in the scaling or the log domain.  Returns the fields of a
    ``TransportSolution`` as a dict."""

    def marginal_error(plan):
        row_err = np.abs(plan.sum(axis=1) - source).max()
        col_err = np.abs(plan.sum(axis=0) - target).max()
        return float(max(row_err, col_err))

    err = math.inf
    iterations = 0
    converged = False
    if log_domain:
        log_source = np.log(source)
        log_target = np.log(target)
        neg_cost = -cost / epsilon
        f = np.zeros_like(source)
        g = np.zeros_like(target)
        for iterations in range(1, max_iters + 1):
            f = epsilon * (log_source - logsumexp(neg_cost + g[None, :] / epsilon, axis=1))
            g = epsilon * (log_target - logsumexp(neg_cost + f[:, None] / epsilon, axis=0))
            plan = np.exp(neg_cost + f[:, None] / epsilon + g[None, :] / epsilon)
            err = marginal_error(plan)
            if err < tolerance:
                converged = True
                break
        plan = np.exp(neg_cost + f[:, None] / epsilon + g[None, :] / epsilon)
    else:
        kernel = np.exp(-cost / epsilon)
        u = np.ones_like(source)
        v = np.ones_like(target)
        for iterations in range(1, max_iters + 1):
            u = source / (kernel @ v)
            v = target / (kernel.T @ u)
            plan = u[:, None] * kernel * v[None, :]
            err = marginal_error(plan)
            if err < tolerance:
                converged = True
                break
        plan = u[:, None] * kernel * v[None, :]
        f = epsilon * np.log(u)
        g = epsilon * np.log(v)
    shift = float(f.mean())
    return {
        "plan": plan,
        "dual_source": f - shift,
        "dual_target": g + shift,
        "cost_value": float(np.sum(cost * plan)),
        "iterations": iterations,
        "converged": converged,
        "marginal_error": err,
    }


def broadcast_cost_matrix(
    source_positions: np.ndarray,
    source_scores: np.ndarray,
    target_positions: np.ndarray,
    target_scores: np.ndarray,
) -> np.ndarray:
    """The cost matrix built from an (n, m, 2) difference array."""
    delta = source_positions[:, None, :] - target_positions[None, :, :]
    distance = np.sqrt(np.sum(delta * delta, axis=2))
    score_gap = np.abs(source_scores[:, None] - target_scores[None, :])
    cost = np.zeros_like(distance)
    d_max = distance.max() if distance.size else 0.0
    if d_max > 0.0:
        cost += distance / d_max
    s_max = score_gap.max() if score_gap.size else 0.0
    if s_max > 0.0:
        cost += score_gap / s_max
    return cost


def per_channel_blur(channels: np.ndarray, sigma: float) -> np.ndarray:
    """The strong view's blur as one 2-D ``gaussian_filter`` call per
    channel."""
    out = channels.copy()
    for ch in range(out.shape[0]):
        out[ch] = gaussian_filter(out[ch], sigma=sigma, mode="nearest")
    return out


def concatenated_features(channels: np.ndarray) -> np.ndarray:
    """``detector.extract_features`` with each row block allocated on its
    own and the blocks joined by ``np.concatenate``."""
    channels = np.asarray(channels, dtype=np.float32)
    c, h, w = channels.shape
    lum = channels[c - 3]
    rows = [channels]
    for size in (3, 7):
        rows.append(uniform_filter(channels, size=(1, size, size), mode="nearest"))
    wide = np.empty((2, h, w), dtype=np.float32)
    wide[0] = uniform_filter(lum, size=15, mode="nearest")
    wide[1] = uniform_filter(lum, size=31, mode="nearest")
    gy, gx = np.gradient(lum.astype(np.float32))
    grad = np.sqrt(gx * gx + gy * gy, dtype=np.float32)[None]
    ones = np.ones((1, h, w), dtype=np.float32)
    stack = np.concatenate(rows + [wide, grad, ones], axis=0)
    return stack.reshape(stack.shape[0], h * w)


class PerViewFloat32Trainer(Trainer):
    """A ``Trainer`` whose feature path is one float32 matrix per (split,
    scene, flip), each extracted from flipped channels, unbounded.  Weak
    unlabeled views come from that cache too; the strong view reads the
    channels again and flips them itself."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._per_view: dict = {}

    def _view(self, dataset, index: int, flip: bool):
        key = (dataset is self.labeled, index, flip)
        if key not in self._per_view:
            scene, channels = dataset.scenes[index], dataset.channels(index)
            if flip:
                scene, channels = flip_scene(scene, channels)
            self._per_view[key] = (scene, concatenated_features(channels))
        return self._per_view[key]

    def features_for(self, index, flip):
        return self._view(self.labeled, index, flip)[1]

    def unlabeled_views(self, index, flip, rng):
        scene, weak = self._view(self.unlabeled, index, flip)
        _, strong, _ = strong_augment(
            self.unlabeled.scenes[index], self.unlabeled.channels(index), rng, self.config.augment_config(), flip=flip
        )
        return scene, weak, concatenated_features(strong)


def localization_quality_map(scene: SyntheticScene, height: int, width: int) -> np.ndarray:
    """Per-cell localisation quality over the whole grid: per box, the
    IoU of a congruent box at each cell of its window, and the max over
    boxes (``SupervisedTargets.localization_quality`` at every cell)."""
    quality = np.zeros(height * width)
    for row in scene.boxes:
        cx, cy, w, h, angle = row
        c, s = math.cos(angle), math.sin(angle)
        ex = w * abs(c) + h * abs(s)
        ey = w * abs(s) + h * abs(c)
        ix_lo = max(int(math.floor(cx - ex - 0.5)), 0)
        ix_hi = min(int(math.ceil(cx + ex - 0.5)), width - 1)
        iy_lo = max(int(math.floor(cy - ey - 0.5)), 0)
        iy_hi = min(int(math.ceil(cy + ey - 0.5)), height - 1)
        if ix_lo > ix_hi or iy_lo > iy_hi:
            continue
        xs = np.arange(ix_lo, ix_hi + 1) + 0.5 - cx
        ys = np.arange(iy_lo, iy_hi + 1) + 0.5 - cy
        gx, gy = np.meshgrid(xs, ys)
        u = gx * c + gy * s
        v = -gx * s + gy * c
        inter = np.maximum(w - np.abs(u), 0.0) * np.maximum(h - np.abs(v), 0.0)
        iou = inter / (2.0 * w * h - inter)
        cell_iy, cell_ix = np.meshgrid(np.arange(iy_lo, iy_hi + 1), np.arange(ix_lo, ix_hi + 1), indexing="ij")
        flat = (cell_iy * width + cell_ix).ravel()
        quality[flat] = np.maximum(quality[flat], iou.ravel())
    return quality


@dataclass
class DenseSupervisedTargets:
    """Every target a supervised step can read, precomputed: the positive
    cells and their classes, the six box targets and the centerness at
    each, and the quality map over the whole grid."""

    pos_flat: np.ndarray
    pos_class: np.ndarray
    encoded: tuple[np.ndarray, ...]
    t_ctr: np.ndarray
    quality: np.ndarray


def dense_supervised_targets(scene: SyntheticScene, height: int, width: int) -> DenseSupervisedTargets:
    """``training.build_supervised_targets`` with every target computed
    up front, from an int64 owner map."""
    owner = np.full(height * width, -1, dtype=np.int64)
    areas = scene.boxes[:, 2] * scene.boxes[:, 3]
    for gi in np.argsort(-areas):
        box = RotatedBox(*scene.boxes[gi])
        iy, ix = grid_cells_in_box(box, height, width)
        owner[iy * width + ix] = gi
    pos_flat = np.nonzero(owner >= 0)[0]
    gt = owner[pos_flat]
    boxes = scene.boxes[gt]
    encoded = encode_boxes(boxes, pos_flat // width, pos_flat % width)
    dx, dy = encoded[:2]
    c = np.cos(boxes[:, 4])
    s = np.sin(boxes[:, 4])
    lx = -(dx * c + dy * s)
    ly = -(-dx * s + dy * c)
    half_w = boxes[:, 2] / 2.0
    half_h = boxes[:, 3] / 2.0
    ratio_x = (half_w - np.abs(lx)) / (half_w + np.abs(lx))
    ratio_y = (half_h - np.abs(ly)) / (half_h + np.abs(ly))
    t_ctr = np.sqrt(np.clip(ratio_x * ratio_y, 0.0, 1.0))
    return DenseSupervisedTargets(
        pos_flat=pos_flat,
        pos_class=scene.classes[gt],
        encoded=encoded,
        t_ctr=t_ctr,
        quality=localization_quality_map(scene, height, width),
    )


def neg_pool_draw(pos: np.ndarray, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """The IoU head's negative draw from the listed pool of the ``n``
    cells outside ``pos``, as ``training.supervised_loss`` drew it with
    an N-cell mask (nothing is drawn from an empty pool)."""
    neg_mask = np.ones(n, dtype=bool)
    neg_mask[pos] = False
    neg_pool = np.nonzero(neg_mask)[0]
    if not neg_pool.size:
        return np.empty(0, dtype=np.int64)
    return rng.choice(neg_pool, size=min(size, neg_pool.size), replace=False)


def meshgrid_render_scene(scene: SyntheticScene, config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """``scenes.render_scene`` with each blob window built by
    ``np.meshgrid`` and the noise scaled in a temporary."""
    h, w = scene.height, scene.width
    k = config.num_classes
    channels = np.zeros((k + 3, h, w), dtype=np.float64)
    lum, cos_ch, sin_ch = channels[k], channels[k + 1], channels[k + 2]
    for row, cls in zip(scene.boxes, scene.classes):
        box = RotatedBox(*row)
        x0, y0, x1, y1 = box.aabb()
        pad = config.sigma_frac * max(box.w, box.h)
        ix0 = max(int(math.floor(x0 - pad)), 0)
        ix1 = min(int(math.ceil(x1 + pad)), w)
        iy0 = max(int(math.floor(y0 - pad)), 0)
        iy1 = min(int(math.ceil(y1 + pad)), h)
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        xs = np.arange(ix0, ix1, dtype=np.float64) + 0.5 - box.cx
        ys = np.arange(iy0, iy1, dtype=np.float64) + 0.5 - box.cy
        gx, gy = np.meshgrid(xs, ys)
        c, s = math.cos(box.angle), math.sin(box.angle)
        local_x = gx * c + gy * s
        local_y = -gx * s + gy * c
        sigma_x = config.sigma_frac * box.w
        sigma_y = config.sigma_frac * box.h
        blob = config.amplitude * np.exp(
            -0.5 * ((local_x / sigma_x) ** 2 + (local_y / sigma_y) ** 2)
        )
        channels[int(cls), iy0:iy1, ix0:ix1] += blob
        if k > 1 and config.crosstalk > 0.0:
            channels[(int(cls) + 1) % k, iy0:iy1, ix0:ix1] += config.crosstalk * blob
        lum[iy0:iy1, ix0:ix1] += blob
        cos_ch[iy0:iy1, ix0:ix1] += blob * math.cos(2.0 * box.angle)
        sin_ch[iy0:iy1, ix0:ix1] += blob * math.sin(2.0 * box.angle)
    if config.noise_sigma > 0.0:
        channels += config.noise_sigma * rng.standard_normal(channels.shape)
    return channels.astype(np.float32)


def object_list_nms(
    boxes: Sequence[RotatedBox],
    scores: Sequence[float],
    iou_threshold: float = 0.1,
    max_keep: Optional[int] = None,
) -> list[int]:
    """Greedy rotated NMS over ``RotatedBox`` objects: a scalar loop over
    every later live box, with each pair's axis-aligned bounds tested
    before it is clipped."""
    n = len(boxes)
    order = np.lexsort((np.arange(n), -np.asarray(scores, dtype=float)))
    aabbs = [box.aabb() for box in boxes]
    kept: list[int] = []
    suppressed = np.zeros(n, dtype=bool)
    for oi in range(n):
        i = int(order[oi])
        if suppressed[i]:
            continue
        kept.append(i)
        if max_keep is not None and len(kept) >= max_keep:
            break
        xi0, yi0, xi1, yi1 = aabbs[i]
        for oj in range(oi + 1, n):
            j = int(order[oj])
            if suppressed[j]:
                continue
            xj0, yj0, xj1, yj1 = aabbs[j]
            if xi0 >= xj1 or xj0 >= xi1 or yi0 >= yj1 or yj0 >= yi1:
                continue
            if rotated_iou(boxes[i], boxes[j]) > iou_threshold:
                suppressed[j] = True
    return kept


def lexsort_top_cells(
    scores: np.ndarray, keep: np.ndarray, top: Optional[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sampling.top_cells`` by a full sort of every kept cell on
    (-score, flat index)."""
    iy, ix = np.nonzero(keep)
    values = scores[iy, ix]
    if top is not None and iy.size > top:
        order = np.lexsort((iy * scores.shape[1] + ix, -values))[:top]
        iy, ix, values = iy[order], ix[order], values[order]
    return iy, ix, values


def scalar_match_class(
    detections: list,
    gt_by_scene: dict[int, list[RotatedBox]],
    iou_threshold: float,
) -> np.ndarray:
    """Greedy matching for one class at one threshold, one ``rotated_iou``
    per free ground-truth box of the detection's scene.  Detections are
    ``(scene, index, Detection)`` sorted by (-score, scene, index)."""
    taken: dict[int, np.ndarray] = {
        scene: np.zeros(len(boxes), dtype=bool) for scene, boxes in gt_by_scene.items()
    }
    matched = np.zeros(len(detections), dtype=bool)
    for slot, (scene, _, det) in enumerate(detections):
        boxes = gt_by_scene.get(scene, [])
        best_iou = -1.0
        best = -1
        for gi, gt in enumerate(boxes):
            if taken[scene][gi]:
                continue
            iou = rotated_iou(det.box, gt)
            if iou >= iou_threshold and iou > best_iou:
                best_iou = iou
                best = gi
        if best >= 0:
            taken[scene][best] = True
            matched[slot] = True
    return matched


def scalar_per_class_ap(detections_per_scene, scenes, thresholds: Sequence[float]) -> dict:
    """The ``per_class_ap`` field of ``evaluation.evaluate_map``'s report,
    from :func:`scalar_match_class`."""
    by_class_dets: dict[int, list] = {}
    by_class_gt: dict[int, dict[int, list[RotatedBox]]] = {}
    for scene_idx, (dets, scene) in enumerate(zip(detections_per_scene, scenes)):
        for det_idx, det in enumerate(dets):
            by_class_dets.setdefault(det.class_index, []).append((scene_idx, det_idx, det))
        for row, cls in zip(scene.boxes, scene.classes):
            by_class_gt.setdefault(int(cls), {}).setdefault(scene_idx, []).append(RotatedBox(*row))
    out: dict = {}
    for t in thresholds:
        per_class = {}
        for k in sorted(by_class_gt):
            dets = sorted(by_class_dets.get(k, []), key=lambda item: (-item[2].score, item[0], item[1]))
            n_gt = sum(len(boxes) for boxes in by_class_gt[k].values())
            per_class[str(k)] = _interpolated_ap(scalar_match_class(dets, by_class_gt[k], t), n_gt)
        out[f"{float(t):.2f}"] = per_class
    return out
