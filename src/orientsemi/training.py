"""Teacher-student training loop with burn-in and an EMA teacher.

One optimisation step consumes a labeled batch and (after burn-in) an
unlabeled batch.  Labeled scenes get a standard dense supervised loss.
Unlabeled scenes are seen twice: the teacher reads a weakly augmented
view (flip only) and emits dense pseudo-labels through the pair
sampler; the student reads a strongly augmented view sharing the same
flip, so sampled grid positions line up across views without any
coordinate remapping.  The unsupervised loss is the geometry-weighted
pair loss plus the global consistency term, both differentiated in
closed form back to the linear detector's weight matrix.

Determinism: one generator drives every stochastic choice in a fixed
order (batch indices, flips, jitter, sampler, noise), and its state
travels through checkpoints, so a resumed run continues the exact
random stream of an uninterrupted one.
"""

from __future__ import annotations

import functools
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from orientsemi.config import RunConfig, save_ini
from orientsemi.consistency import NgcResult, ngc_loss
from orientsemi.detector import (
    DIRECTION_EPS,
    NUM_EXTRA_HEADS,
    OFF_COS,
    OFF_CTR,
    OFF_DX,
    OFF_DY,
    OFF_IOU,
    OFF_LOGH,
    OFF_LOGW,
    OFF_SIN,
    ToyDetectorParams,
    decode_angle,
    decode_dense,
    encode_boxes,
    extract_features,
    forward,
    mirror_features,
)
from orientsemi.geometry import RotatedBox, grid_cells_in_box
from orientsemi.records import append_records, canonical_line, write_atomic
from orientsemi.sampling import PROVENANCE_EASY, DensePrediction, PseudoLabelSet, build_pairs, topk_pairs
from orientsemi.scenes import SceneConfig, SyntheticScene, flip_ground_truth, flip_scene, strong_augment
from orientsemi.weighting import pair_weights

CHECKPOINT_MAGIC = b"ORIENTSEMI-CKPT v1\n"
# Labeled feature matrices dominate run memory (H*W cells x 21 float32
# columns, 0.77 MB at 96x96), so the cache is bounded by bytes rather
# than entry count: about 1,940 scenes of 96x96.
_FEATURE_CACHE_BYTES = 1_500_000_000


def binary_cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Elementwise BCE on logits, stable for large |logits|:
    max(z, 0) - z t + log1p(exp(-|z|)).

    The result goes to ``out`` and an intermediate to ``scratch``; both
    have the shape of ``logits`` and are allocated when not given.
    """
    out = np.empty_like(logits) if out is None else out
    scratch = np.empty_like(logits) if scratch is None else scratch
    np.maximum(logits, 0.0, out=out)
    np.multiply(logits, targets, out=scratch)
    np.subtract(out, scratch, out=out)
    np.abs(logits, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    return np.add(out, scratch, out=out)


def smooth_l1(err: np.ndarray) -> np.ndarray:
    a = np.abs(err)
    return np.where(a < 1.0, 0.5 * err * err, a - 0.5)


def smooth_l1_grad(err: np.ndarray) -> np.ndarray:
    return np.clip(err, -1.0, 1.0)


@dataclass
class SupervisedTargets:
    """Parameter-free training targets for one (scene, flip) view, kept at
    their true size: the view's ground truth ``boxes`` and ``classes``,
    its grid ``width``, the positive cells ``pos_flat`` (int32,
    ascending) and each one's ``owner`` box index (the smallest unsigned
    dtype that holds the box count).  A step computes the targets it
    reads from these: :meth:`at_positives` and
    :meth:`localization_quality`."""

    boxes: np.ndarray
    classes: np.ndarray
    width: int
    pos_flat: np.ndarray
    owner: np.ndarray

    def at_positives(self) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
        """``(classes, encoded, t_ctr)`` at the positive cells: the owner
        box's class, its :func:`~orientsemi.detector.encode_boxes` target
        and the centerness target."""
        boxes = self.boxes[self.owner]
        pos = self.pos_flat
        encoded = encode_boxes(boxes, pos // self.width, pos % self.width)
        dx, dy = encoded[:2]
        c = np.cos(boxes[:, 4])
        s = np.sin(boxes[:, 4])
        # Cell center in the box frame; distances to the four edges give the
        # centerness target.
        lx = -(dx * c + dy * s)
        ly = -(-dx * s + dy * c)
        half_w = boxes[:, 2] / 2.0
        half_h = boxes[:, 3] / 2.0
        ratio_x = (half_w - np.abs(lx)) / (half_w + np.abs(lx))
        ratio_y = (half_h - np.abs(ly)) / (half_h + np.abs(ly))
        t_ctr = np.sqrt(np.clip(ratio_x * ratio_y, 0.0, 1.0))
        return self.classes[self.owner], encoded, t_ctr

    def localization_quality(self, cells: np.ndarray) -> np.ndarray:
        """Localisation quality at the flat ``cells``: the IoU a
        ground-truth-shaped box centered at the cell would have with the
        nearest ground truth, the regression target of the predicted-IoU
        head.

        Congruent parallel rectangles overlap in a rectangle, so the value
        is closed form in the displacement expressed in the box frame.  A
        box counts only inside the window of cells its overlap can reach;
        the value is the max over boxes, and exactly 0 away from them."""
        cx, cy, w, h, angle = self.boxes.T[:, :, None]
        # libm's cos and sin per box, as the quality map has always used:
        # NumPy's SIMD forms are not bound to match them bit for bit.
        c = np.array([math.cos(a) for a in angle.ravel()])[:, None]
        s = np.array([math.sin(a) for a in angle.ravel()])[:, None]
        ex = w * abs(c) + h * abs(s)
        ey = w * abs(s) + h * abs(c)
        iy, ix = np.divmod(cells, self.width)
        inside = (
            (ix >= np.floor(cx - ex - 0.5))
            & (ix <= np.ceil(cx + ex - 0.5))
            & (iy >= np.floor(cy - ey - 0.5))
            & (iy <= np.ceil(cy + ey - 0.5))
        )
        gx = (ix + 0.5) - cx
        gy = (iy + 0.5) - cy
        u = gx * c + gy * s
        v = -gx * s + gy * c
        inter = np.maximum(w - np.abs(u), 0.0) * np.maximum(h - np.abs(v), 0.0)
        iou = inter / (2.0 * w * h - inter)
        return np.where(inside, iou, 0.0).max(axis=0, initial=0.0)


def build_supervised_targets(scene: SyntheticScene, height: int, width: int) -> SupervisedTargets:
    """Dense assignment: a cell is positive for the smallest ground-truth
    box containing its center (larger boxes painted first, so overwrites
    leave the smallest owner)."""
    count = len(scene.boxes)
    owner = np.full(height * width, count, dtype=np.min_scalar_type(count))
    areas = scene.boxes[:, 2] * scene.boxes[:, 3]
    for gi in np.argsort(-areas):
        box = RotatedBox(*scene.boxes[gi])
        iy, ix = grid_cells_in_box(box, height, width)
        owner[iy * width + ix] = gi
    pos_flat = np.flatnonzero(owner < count).astype(np.int32)
    return SupervisedTargets(boxes=scene.boxes, classes=scene.classes, width=width,
                             pos_flat=pos_flat, owner=owner[pos_flat])


def _direction_grads(
    c_raw: np.ndarray, s_raw: np.ndarray, g_cos: np.ndarray, g_sin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate through unit normalisation of the direction pair.

    Given upstream gradients on (c/n, s/n) with n = sqrt(c^2+s^2+eps),
    returns gradients on the raw (c, s)."""
    n2 = c_raw * c_raw + s_raw * s_raw + DIRECTION_EPS
    inv3 = 1.0 / (n2 * np.sqrt(n2))
    dc = inv3 * (g_cos * (s_raw * s_raw + DIRECTION_EPS) - g_sin * c_raw * s_raw)
    ds = inv3 * (g_sin * (c_raw * c_raw + DIRECTION_EPS) - g_cos * c_raw * s_raw)
    return dc, ds


def head_errors(
    raw: np.ndarray,
    k: int,
    cols: np.ndarray,
    encoded: Sequence[np.ndarray],
) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Head outputs against box targets at the grid columns ``cols``, the
    forward part shared by the supervised and the pair loss.  ``encoded``
    is the six-array target of :func:`~orientsemi.detector.encode_boxes`.

    Returns ``(errs, c_raw, s_raw, err_cos, err_sin, z_ctr)``: ``errs``
    maps each offset/size head (dx, dy, log w, log h, in that order) to
    output minus target; the direction errors are on the unit-normalised
    (c, s) pair; ``z_ctr`` are the centerness logits.  Each caller keeps
    its own reduction and gradient scaling.
    """
    *box_targets, t_cos, t_sin = encoded
    errs = {
        offset: raw[k + offset, cols] - target
        for offset, target in zip((OFF_DX, OFF_DY, OFF_LOGW, OFF_LOGH), box_targets)
    }
    c_raw = raw[k + OFF_COS, cols]
    s_raw = raw[k + OFF_SIN, cols]
    norm = np.sqrt(c_raw * c_raw + s_raw * s_raw + DIRECTION_EPS)
    return errs, c_raw, s_raw, c_raw / norm - t_cos, s_raw / norm - t_sin, raw[k + OFF_CTR, cols]


@functools.lru_cache(maxsize=None)
def _transpose_keeps_bits(heads: int, num_features: int, n: int) -> bool:
    """Whether ``W @ Xt.T`` has the bits of ``W @ X`` for a (heads, F)
    ``W``, an (F, n) ``X`` and its C-contiguous transpose ``Xt``.

    dgemm runs another kernel for the transposed operand on some shapes:
    with OpenBLAS 0.3.31 on AVX-512, grids of up to about 4,100 cells
    whose count is 1 to 4 past a multiple of 8 (9x12, 63x63) differ in
    those last cells.  A random probe shows whether this shape is one,
    on this BLAS."""
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((heads, num_features))
    features_t = rng.standard_normal((n, num_features))
    direct = weights @ features_t.T
    copied = weights @ np.ascontiguousarray(features_t.T)
    return bool(np.array_equal(direct.view(np.uint64), copied.view(np.uint64)))


@dataclass
class SupervisedWorkspace:
    """The arrays :func:`supervised_loss` writes for a grid of N cells:
    head outputs and their gradient, (num_heads, N), the features
    cell-major, (N, F), and three (K, N) classification arrays.
    ``cls_targets`` is all zero between calls.

    ``features_t``'s last column is the constant ones feature, set here;
    :meth:`Trainer.features_for` writes the other columns.  ``features``
    is the (F, N) matrix ``forward`` reads: ``features_t.T`` itself, or,
    on a grid where that operand changes the product's bits
    (:func:`_transpose_keeps_bits`), a copy that :meth:`loaded_features`
    refreshes."""

    raw: np.ndarray
    d_raw: np.ndarray
    features_t: np.ndarray
    features: np.ndarray
    cls_targets: np.ndarray
    cls_loss: np.ndarray
    scratch: np.ndarray

    @classmethod
    def for_grid(cls, num_classes: int, num_features: int, n: int) -> "SupervisedWorkspace":
        heads = (num_classes + NUM_EXTRA_HEADS, n)
        per_class = (num_classes, n)
        features_t = np.empty((n, num_features))
        features_t[:, -1] = 1.0
        exact = _transpose_keeps_bits(heads[0], num_features, n)
        return cls(
            raw=np.empty(heads),
            d_raw=np.empty(heads),
            features_t=features_t,
            features=features_t.T if exact else np.empty((num_features, n)),
            cls_targets=np.zeros(per_class),
            cls_loss=np.empty(per_class),
            scratch=np.empty(per_class),
        )

    def loaded_features(self) -> np.ndarray:
        """``features``, once ``features_t`` holds a scene's features."""
        if self.features.base is not self.features_t:
            np.copyto(self.features, self.features_t.T)
        return self.features


def draw_negatives(pos: np.ndarray, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Up to ``size`` distinct cells of an N-cell grid outside the
    ascending positive cells ``pos``, drawn as ``rng.choice`` draws from
    the ascending list of those cells, without listing them: the j-th
    negative is j plus the count of positives p_i with p_i - i <= j
    (p_i - i negatives lie before the i-th positive).  Nothing is drawn
    when every cell is positive."""
    n_neg = n - pos.size
    if not n_neg:
        return np.empty(0, dtype=np.int64)
    drawn = rng.choice(n_neg, size=min(size, n_neg), replace=False)
    return drawn + np.searchsorted(pos - np.arange(pos.size), drawn, side="right")


def supervised_loss(
    params: ToyDetectorParams,
    features: np.ndarray,
    targets: SupervisedTargets,
    rng: np.random.Generator,
    iou_pos_samples: int,
    iou_neg_samples: int,
    workspace: Optional[SupervisedWorkspace] = None,
) -> tuple[float, np.ndarray, dict]:
    """Dense supervised loss and its gradient on the weight matrix.

    Classification is BCE over every cell and class; box regression,
    direction, and centerness are evaluated at positive cells; the
    predicted-IoU head trains on a per-step subsample of positives and
    negatives against the geometric localisation quality.  All terms
    normalise by the positive count.  The box, centerness and quality
    targets are computed from ``targets`` at the cells read here: every
    positive cell, and the drawn subsample.  The grid-sized arrays are
    written into ``workspace``, or into a fresh one.  ``features`` is any
    (F, N) matrix; the workspace's own ``features`` is read in place.
    """
    k = params.num_classes
    ws = SupervisedWorkspace.for_grid(k, *features.shape) if workspace is None else workspace
    if features is not ws.features:
        # Copied cell-major, a C-contiguous right operand for the gradient
        # whatever the features' dtype and layout: dgemm's kernel for a
        # transposed one sums in another order on some grids, so the
        # gradient's bits would depend on them.
        np.copyto(ws.features_t, features.T)
    raw = forward(params, features, out=ws.raw)
    n = raw.shape[1]
    pos = targets.pos_flat
    n_pos = max(pos.size, 1)
    d_raw = ws.d_raw
    d_raw[k:] = 0.0

    pos_class, encoded, t_ctr = targets.at_positives()
    cls_targets = ws.cls_targets
    cls_targets[pos_class, pos] = 1.0
    loss_cls = float(binary_cross_entropy(raw[:k], cls_targets, ws.cls_loss, ws.scratch).sum()) / n_pos
    d_cls = expit(raw[:k], out=d_raw[:k])
    d_cls -= cls_targets
    d_cls /= n_pos
    cls_targets[pos_class, pos] = 0.0

    loss_reg = 0.0
    loss_ctr = 0.0
    if pos.size:
        errs, c_raw, s_raw, err_cos, err_sin, z_ctr = head_errors(raw, k, pos, encoded)
        for offset, err in errs.items():
            d_raw[k + offset, pos] = smooth_l1_grad(err) / n_pos
        dc, ds = _direction_grads(c_raw, s_raw, smooth_l1_grad(err_cos), smooth_l1_grad(err_sin))
        d_raw[k + OFF_COS, pos] = dc / n_pos
        d_raw[k + OFF_SIN, pos] = ds / n_pos
        loss_reg = float(
            sum(smooth_l1(e).sum() for e in errs.values())
            + smooth_l1(err_cos).sum()
            + smooth_l1(err_sin).sum()
        ) / n_pos
        loss_ctr = float(binary_cross_entropy(z_ctr, t_ctr).sum()) / n_pos
        d_raw[k + OFF_CTR, pos] = (expit(z_ctr) - t_ctr) / n_pos

    sample_pos = (
        rng.choice(pos, size=min(iou_pos_samples, pos.size), replace=False)
        if pos.size
        else np.empty(0, dtype=np.int64)
    )
    sample = np.concatenate([sample_pos, draw_negatives(pos, n, iou_neg_samples, rng)])
    loss_iou = 0.0
    if sample.size:
        z_iou = raw[k + OFF_IOU, sample]
        t_iou = targets.localization_quality(sample)
        loss_iou = float(binary_cross_entropy(z_iou, t_iou).sum()) / sample.size
        d_raw[k + OFF_IOU, sample] = (expit(z_iou) - t_iou) / sample.size

    loss = loss_cls + loss_reg + loss_ctr + loss_iou
    grad = d_raw @ ws.features_t
    parts = {"cls": loss_cls, "reg": loss_reg, "ctr": loss_ctr, "iou": loss_iou}
    return loss, grad, parts


def weighted_pair_loss(
    params: ToyDetectorParams,
    raw: np.ndarray,
    features: np.ndarray,
    pairs: PseudoLabelSet,
    config: RunConfig,
) -> tuple[float, np.ndarray, dict]:
    """Geometry-weighted teacher-student pair loss and its gradient.

    Per pair: BCE of the student's class logits against the teacher's
    probabilities, smooth-L1 on the box parameterisation (offsets, log
    sizes, unit direction pair) against the teacher's decoded box, and
    BCE on centerness; the mean over pairs is modulated by the
    angle-gap/aspect weight (``tab1.psi``; all ones when
    ``semi.enable_gaw`` is off).  The weight is recomputed from the current
    student outputs each call but enters the gradient as a constant
    coefficient: it grades pair difficulty, it is not itself a training
    target (and it is unbounded above, so descending through it is
    unstable).
    """
    n_pairs = len(pairs)
    if n_pairs == 0:
        return 0.0, np.zeros_like(params.weights), {"n_pairs": 0}
    k = params.num_classes
    cols = pairs.iy * config.scene.width + pairs.ix
    t_boxes = pairs.boxes

    z_cls = raw[:k][:, cols]
    t_cls = pairs.score_rows.T
    p_cls = expit(z_cls)
    cls_pair = binary_cross_entropy(z_cls, t_cls).sum(axis=0)

    errs, c_raw, s_raw, err_cos, err_sin, z_ctr = head_errors(raw, k, cols, encode_boxes(t_boxes, pairs.iy, pairs.ix))
    reg_pair = (
        sum(smooth_l1(e) for e in errs.values()) + smooth_l1(err_cos) + smooth_l1(err_sin)
    )

    t_ctr = pairs.centerness
    ctr_pair = binary_cross_entropy(z_ctr, t_ctr)

    pair_total = cls_pair + reg_pair + ctr_pair

    if config.semi.enable_gaw:
        log_lo, log_hi = math.log(config.detector.min_side), math.log(config.detector.max_side)
        lw = np.clip(raw[k + OFF_LOGW, cols], log_lo, log_hi)
        lh = np.clip(raw[k + OFF_LOGH, cols], log_lo, log_hi)
        omega = pair_weights(
            t_boxes[:, 4],
            decode_angle(c_raw, s_raw),
            np.maximum(t_boxes[:, 2], t_boxes[:, 3]) / np.minimum(t_boxes[:, 2], t_boxes[:, 3]),
            np.exp(np.abs(lw - lh)),
            config.tab1.psi,
        )
    else:
        omega = np.ones(n_pairs)

    loss = float(omega @ pair_total) / n_pairs

    scaled = omega / n_pairs
    d_cols = np.zeros((raw.shape[0], n_pairs))
    d_cols[:k] = scaled[None, :] * (p_cls - t_cls)
    for offset, err in errs.items():
        d_cols[k + offset] = scaled * smooth_l1_grad(err)
    dc, ds = _direction_grads(c_raw, s_raw, scaled * smooth_l1_grad(err_cos), scaled * smooth_l1_grad(err_sin))
    d_cols[k + OFF_COS] = dc
    d_cols[k + OFF_SIN] = ds
    d_cols[k + OFF_CTR] = scaled * (expit(z_ctr) - t_ctr)

    # Gathered as rows, so C-contiguous (see supervised_loss).
    grad = d_cols @ features.T[cols]
    parts = {
        "n_pairs": n_pairs,
        "mean_weight": float(omega.mean()),
        "cls": float(omega @ cls_pair) / n_pairs,
        "reg": float(omega @ reg_pair) / n_pairs,
        "ctr": float(omega @ ctr_pair) / n_pairs,
    }
    return loss, grad, parts


def consistency_loss(
    params: ToyDetectorParams,
    raw: np.ndarray,
    features: np.ndarray,
    pairs: PseudoLabelSet,
    config: RunConfig,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray, NgcResult]:
    """Global consistency term, its gradient via the student's class
    logits at the paired positions, and the term breakdown.

    Raises ``RuntimeError`` if either transport solve does not converge
    (see :func:`orientsemi.consistency.ngc_loss`).
    """
    n_pairs = len(pairs)
    zero = np.zeros_like(params.weights)
    if n_pairs == 0:
        return 0.0, zero, NgcResult(0.0, np.zeros(0), gated=True, loss_gc=0.0, loss_gc_noisy=0.0, loss_plan=0.0)
    cols = pairs.iy * config.scene.width + pairs.ix
    cls_idx = pairs.class_index
    rows = np.arange(n_pairs)
    # Student score is sigmoid(logit) at the teacher's class.
    p_pair = expit(raw[cls_idx, cols])
    result = ngc_loss(pairs.xy(), pairs.score_rows[rows, cls_idx], p_pair, config, rng)
    if result.gated:
        return 0.0, zero, result
    # Chain: score = sigmoid(z), d score/dz = p * (1 - p).
    d_z = result.grad_scores * p_pair * (1.0 - p_pair)
    d_cols = np.zeros((raw.shape[0], n_pairs))
    d_cols[cls_idx, rows] = d_z
    grad = d_cols @ features.T[cols]
    return result.loss, grad, result


def sample_pairs(teacher: DensePrediction, config: RunConfig, rng: np.random.Generator) -> PseudoLabelSet:
    """Pair positions from the configured sampler: the dense SIDS sampler
    or the top-k baseline (which draws nothing from ``rng``).  Both read
    the teacher only; the student's views share its grid."""
    if config.semi.sampler == "sids":
        return build_pairs(teacher, teacher, config.sampler_config(), rng)
    return topk_pairs(teacher, config.semi.topk, config.semi.score_floor)


def pseudo_record(iteration: int, scene_id: int, flip: bool, pairs: PseudoLabelSet) -> dict:
    """One ``pseudo.jsonl`` record: the pairs sampled on one scene view."""
    easy = int(np.count_nonzero(pairs.provenance == PROVENANCE_EASY))
    return {
        "iter": iteration,
        "scene_id": scene_id,
        "flip": flip,
        "n_pairs": len(pairs),
        "n_easy": easy,
        "n_hard": len(pairs) - easy,
        "positions": np.stack([pairs.iy, pairs.ix, pairs.provenance], axis=1).tolist() if len(pairs) else [],
    }


@dataclass
class TrainState:
    student: ToyDetectorParams
    teacher: Optional[ToyDetectorParams]
    momentum_buffer: np.ndarray
    iteration: int
    rng: np.random.Generator
    config: RunConfig


def init_state(config: RunConfig) -> TrainState:
    rng = np.random.default_rng(config.semi.seed)
    student = ToyDetectorParams.initialize(config.scene.num_channels, config.scene.num_classes, rng, config.detector)
    return TrainState(
        student=student,
        teacher=None,
        momentum_buffer=np.zeros_like(student.weights),
        iteration=0,
        rng=rng,
        config=config,
    )


def learning_rate_at(config: RunConfig, iteration: int) -> float:
    semi = config.semi
    lr = semi.lr
    for frac in (semi.lr_step_frac1, semi.lr_step_frac2):
        if iteration >= int(math.floor(frac * semi.total_iters)):
            lr *= semi.lr_gamma
    return lr


def ema_update(state: TrainState) -> TrainState:
    """teacher <- m * teacher + (1 - m) * student, elementwise."""
    if state.teacher is None:
        raise RuntimeError("EMA update before the teacher was initialised")
    m = state.config.semi.ema_momentum
    state.teacher.weights *= m
    state.teacher.weights += (1.0 - m) * state.student.weights
    return state


class Trainer:
    """Binds a config to datasets and owns the per-run caches and the
    per-step arrays.

    Each labeled scene's features are memoised once, in an LRU bounded
    by bytes: the float32 matrix that
    :func:`~orientsemi.detector.extract_features` returns, transposed to
    cell-major (N, F - 1) without its constant ones row.  A lookup casts
    the entry, or mirrors it for a flip, straight into the supervised
    workspace's float64 ``features_t``.  Supervised targets are memoised
    per (scene, flip) at their true size, the positive cells and their
    owner boxes (:class:`SupervisedTargets`), and each step computes the
    box, centerness and quality targets it reads from them.  Unlabeled
    scenes are read once per step and not cached: drawn from a large
    pool, few recur within a run.  Head outputs, their gradient and the
    views' feature matrices are written into arrays allocated once per
    run, which the next step overwrites.
    """

    def __init__(self, config: RunConfig, labeled, unlabeled=None):
        self.config = config
        self.labeled = labeled
        self.unlabeled = unlabeled
        self._features: OrderedDict[int, np.ndarray] = OrderedDict()
        self._feature_bytes = 0
        self._targets: dict = {}
        cells = config.scene.height * config.scene.width
        num_classes = config.scene.num_classes
        features = (config.detector.num_features(config.scene.num_channels), cells)
        heads = (num_classes + NUM_EXTRA_HEADS, cells)
        self._extracted = np.empty(features, dtype=np.float32)
        self._weak = np.empty(features)
        self._strong = np.empty(features)
        self._teacher_raw = np.empty(heads)
        self._student_raw = np.empty(heads)
        self._supervised = SupervisedWorkspace.for_grid(num_classes, *features)

    def features_for(self, index: int, flip: bool) -> np.ndarray:
        """The float64 (F, N) feature matrix of labeled scene ``index``,
        flipped if ``flip``, as the supervised workspace's ``features``:
        the cached entry is cast, or for a flip mirrored
        (:func:`~orientsemi.detector.mirror_features`), into the first
        F - 1 columns of its ``features_t``.  The next lookup overwrites
        it."""
        entry = self._features.get(index)
        if entry is None:
            features = extract_features(self.labeled.channels(index), out=self._extracted)
            entry = np.ascontiguousarray(features[:-1].T)
            self._features[index] = entry
            self._feature_bytes += entry.nbytes
            while self._feature_bytes > _FEATURE_CACHE_BYTES and len(self._features) > 1:
                _, evicted = self._features.popitem(last=False)
                self._feature_bytes -= evicted.nbytes
        else:
            self._features.move_to_end(index)
        workspace = self._supervised
        columns = workspace.features_t[:, :-1]
        if flip:
            scene = self.config.scene
            mirror_features(entry, scene.num_channels, scene.width, out=columns)
        else:
            np.copyto(columns, entry)
        return workspace.loaded_features()

    def unlabeled_views(
        self, index: int, flip: bool, rng: np.random.Generator
    ) -> tuple[SyntheticScene, np.ndarray, np.ndarray]:
        """Unlabeled scene ``index`` under the shared ``flip``, with the
        float64 feature matrices of its weak view (flip only) and its
        strong view (:func:`~orientsemi.scenes.strong_augment`, which
        draws from ``rng``).  The channels are read once; each view is
        extracted into one float32 scratch and cast from it into its
        float64 buffer, which the next call overwrites."""
        scene = self.unlabeled.scenes[index]
        channels = self.unlabeled.channels(index)
        if flip:
            scene, channels = flip_scene(scene, channels)
        np.copyto(self._weak, extract_features(channels, out=self._extracted))
        # The weak view is flipped already; the strong view adds pixel
        # jitter and blur to it.
        _, strong, _ = strong_augment(scene, channels, rng, self.config.augment_config(), flip=False)
        np.copyto(self._strong, extract_features(strong, out=self._extracted))
        return scene, self._weak, self._strong

    def targets_for(self, index: int, flip: bool) -> SupervisedTargets:
        """Supervised targets of labeled scene ``index``, from its ground
        truth flipped if ``flip``: the positive cells and their owner
        boxes, assigned once per (scene, flip) and kept for the run."""
        key = (index, flip)
        if key not in self._targets:
            scene = self.labeled.scenes[index]
            cfg = self.config.scene
            self._targets[key] = build_supervised_targets(
                flip_ground_truth(scene) if flip else scene, cfg.height, cfg.width
            )
        return self._targets[key]

    def train_step(
        self,
        state: TrainState,
        labeled_indices: Sequence[int],
        unlabeled_indices: Sequence[int],
    ) -> tuple[dict, list[dict]]:
        """One SGD step; returns the metrics record for this iteration and
        the :func:`pseudo_record` of each unlabeled view, whose pair counts
        the record sums.

        Consumes state.rng in a fixed order: per labeled image a flip
        and the quality-head subsample; per unlabeled image a shared
        flip, the strong-view jitter, the sampler draw, and the
        consistency noise.
        """
        config = state.config
        semi = config.semi
        rng = state.rng
        height, width = config.scene.height, config.scene.width
        grad = np.zeros_like(state.student.weights)

        loss_s = 0.0
        for index in labeled_indices:
            flip = bool(rng.random() < semi.flip_probability)
            features = self.features_for(int(index), flip)
            targets = self.targets_for(int(index), flip)
            loss_i, grad_i, _ = supervised_loss(
                state.student,
                features,
                targets,
                rng,
                semi.iou_pos_samples,
                semi.iou_neg_samples,
                workspace=self._supervised,
            )
            loss_s += loss_i / len(labeled_indices)
            grad += grad_i / len(labeled_indices)

        unsup = dict.fromkeys(("loss_gaw", "loss_ngc", "loss_gc", "loss_gc_noisy", "loss_plan"), 0.0)
        views = []
        use_unsup = state.teacher is not None and not semi.supervised_only
        if use_unsup and unlabeled_indices:
            w = semi.unsup_weight
            batch = len(unlabeled_indices)
            for index in unlabeled_indices:
                flip = bool(rng.random() < semi.flip_probability)
                scene, weak_features, strong_features = self.unlabeled_views(int(index), flip, rng)
                teacher_raw = forward(state.teacher, weak_features, out=self._teacher_raw)
                teacher_pred = decode_dense(state.teacher, teacher_raw, height, width, config.detector)
                student_raw = forward(state.student, strong_features, out=self._student_raw)
                pairs = sample_pairs(teacher_pred, config, rng)
                gaw_i, gaw_grad, _ = weighted_pair_loss(state.student, student_raw, strong_features, pairs, config)
                grad += (w / batch) * gaw_grad
                terms = {"loss_gaw": gaw_i}
                if semi.enable_ngc:
                    ngc_i, ngc_grad, ngc = consistency_loss(
                        state.student, student_raw, strong_features, pairs, config, rng
                    )
                    grad += (w / batch) * ngc_grad
                    terms.update(
                        loss_ngc=ngc_i, loss_gc=ngc.loss_gc, loss_gc_noisy=ngc.loss_gc_noisy, loss_plan=ngc.loss_plan
                    )
                for name, value in terms.items():
                    unsup[name] += w * value / batch
                views.append(pseudo_record(state.iteration, scene.scene_id, flip, pairs))

        lr = learning_rate_at(config, state.iteration)
        grad += semi.weight_decay * state.student.weights
        grad_norm = float(np.linalg.norm(grad))
        if not math.isfinite(grad_norm):
            raise FloatingPointError(
                f"iteration {state.iteration}: gradient norm is {grad_norm!r} "
                f"(loss_s={loss_s!r}, loss_gaw={unsup['loss_gaw']!r}, loss_ngc={unsup['loss_ngc']!r}); "
                "weights left unchanged"
            )
        if semi.grad_clip > 0.0 and grad_norm > semi.grad_clip:
            grad *= semi.grad_clip / grad_norm
        state.momentum_buffer *= semi.momentum
        state.momentum_buffer += grad
        state.student.weights -= lr * state.momentum_buffer

        state.iteration += 1
        if not semi.supervised_only:
            if state.iteration == semi.burn_in_iters or (
                state.teacher is None and state.iteration > semi.burn_in_iters
            ):
                state.teacher = state.student.copy()
            elif state.teacher is not None:
                ema_update(state)

        metrics = {
            "iter": state.iteration - 1,
            "lr": lr,
            "loss_total": loss_s + unsup["loss_gaw"] + unsup["loss_ngc"],
            "loss_s": loss_s,
            **unsup,
            **{count: sum(view[count] for view in views) for count in ("n_pairs", "n_easy", "n_hard")},
            "grad_norm": grad_norm,
        }
        return metrics, views


def save_checkpoint(path: Path, state: TrainState) -> None:
    """Versioned flat-binary checkpoint: magic line, one JSON meta line,
    then raw float64 weight/buffer bytes in a fixed order.  Contains the
    rng state, so loading resumes the exact random stream."""
    meta = {
        "version": 1,
        "iteration": state.iteration,
        "num_classes": state.student.num_classes,
        "weights_shape": list(state.student.weights.shape),
        "has_teacher": state.teacher is not None,
        "rng_state": state.rng.bit_generator.state,
        "config": state.config.to_dict(),
    }
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += (canonical_line(meta) + "\n").encode()
    blob += np.ascontiguousarray(state.student.weights).tobytes()
    if state.teacher is not None:
        blob += np.ascontiguousarray(state.teacher.weights).tobytes()
    blob += np.ascontiguousarray(state.momentum_buffer).tobytes()
    write_atomic(path, bytes(blob))


def load_checkpoint(path: Path) -> TrainState:
    data = Path(path).read_bytes()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    rest = data[len(CHECKPOINT_MAGIC):]
    newline = rest.index(b"\n")
    meta = json.loads(rest[:newline].decode())
    if meta.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    payload = rest[newline + 1:]
    shape = tuple(meta["weights_shape"])
    block = 8 * shape[0] * shape[1]
    expected = block * (3 if meta["has_teacher"] else 2)
    if len(payload) != expected:
        raise ValueError(f"checkpoint payload is {len(payload)} bytes, expected {expected}")
    config = RunConfig.from_dict(meta["config"])
    offset = 0

    def take() -> np.ndarray:
        nonlocal offset
        arr = np.frombuffer(payload[offset : offset + block], dtype=np.float64).reshape(shape).copy()
        offset += block
        return arr

    student = ToyDetectorParams(weights=take(), num_classes=meta["num_classes"])
    teacher = (
        ToyDetectorParams(weights=take(), num_classes=meta["num_classes"])
        if meta["has_teacher"]
        else None
    )
    momentum = take()
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng_state"]
    return TrainState(
        student=student,
        teacher=teacher,
        momentum_buffer=momentum,
        iteration=meta["iteration"],
        rng=rng,
        config=config,
    )


def check_split(name: str, dataset, config: SceneConfig) -> None:
    """Raise ``ValueError`` if ``dataset`` has no scenes, or a scene does
    not fit the run: its canvas differs from ``config``, a class index is
    out of range, or the first scene's channel count differs."""
    if not dataset.scenes:
        raise ValueError(f"{name} split has no scenes")
    for scene in dataset.scenes:
        for side in ("height", "width"):
            if getattr(scene, side) != getattr(config, side):
                raise ValueError(
                    f"{name} split: scene {scene.scene_id} has {side} {getattr(scene, side)}, "
                    f"but scene.{side} is {getattr(config, side)}"
                )
        bad = scene.classes[(scene.classes < 0) | (scene.classes >= config.num_classes)]
        if bad.size:
            raise ValueError(
                f"{name} split: scene {scene.scene_id} has class index {bad[0]}, "
                f"but scene.num_classes is {config.num_classes}"
            )
    if dataset.channels(0).shape[0] != config.num_channels:
        raise ValueError(
            f"{name} split: scenes have {dataset.channels(0).shape[0]} channels, but "
            f"scene.num_classes={config.num_classes} needs {config.num_channels}"
        )


def check_run(config: RunConfig, labeled, unlabeled=None) -> None:
    """Raise ``ValueError`` if a setting is out of range
    (:meth:`RunConfig.check`) or a split does not fit the run
    (:func:`check_split`)."""
    config.check()
    check_split("labeled", labeled, config.scene)
    if unlabeled is not None:
        check_split("unlabeled", unlabeled, config.scene)


def _records_before(path: Path, iteration: int) -> list[bytes]:
    """The whole lines of the record stream ``path`` (none if it is
    missing) with ``iter`` below ``iteration``: what a resume there keeps.
    A torn last line, cut off by a crash mid-append, is not whole."""
    lines = path.read_bytes().splitlines(keepends=True) if path.exists() else []
    return [line for line in lines if line.endswith(b"\n") and json.loads(line)["iter"] < iteration]


def run_training(
    config: RunConfig,
    labeled,
    unlabeled=None,
    *,
    out_dir: Path,
    resume: bool = False,
    checkpoint_every: int = 0,
    dump_pseudo: bool = False,
    stop_after: Optional[int] = None,
) -> tuple[TrainState, list[dict]]:
    """Drive the full loop in the run directory ``out_dir``, which it owns.

    Every check runs before the first write: :func:`check_run`, and with
    ``resume`` that ``out_dir/checkpoint.bin`` loads, holds ``config``
    and follows one ``metrics.jsonl`` record per earlier iteration, and
    that ``out_dir/pseudo.jsonl`` exists exactly when ``dump_pseudo``.  Then
    ``config.ini`` is written, and ``metrics.jsonl`` (and with
    ``dump_pseudo`` ``pseudo.jsonl``) created empty, or on resume cut
    back to its whole records before the checkpoint's iteration; a fresh
    run without ``dump_pseudo`` removes an earlier ``pseudo.jsonl``.
    Each checkpoint (every ``checkpoint_every`` iterations, and at the
    end) appends and syncs the new records, then writes
    ``checkpoint.bin``, so a resumed run ends byte-identical to an
    uninterrupted one.
    ``stop_after`` halts below the configured total, which models an
    interrupted run.
    """
    check_run(config, labeled, unlabeled)
    out_dir = Path(out_dir)
    streams: dict[str, Sequence[bytes]] = dict.fromkeys(("metrics", "pseudo") if dump_pseudo else ("metrics",), ())
    if resume:
        state = load_checkpoint(out_dir / "checkpoint.bin")
        if state.config.to_dict() != config.to_dict():
            raise ValueError("resume config does not match checkpoint config")
        pseudo = out_dir / "pseudo.jsonl"
        if dump_pseudo and not pseudo.exists():
            raise ValueError(f"resume with dump_pseudo, but {pseudo} is missing: the run did not dump pseudo-labels")
        if not dump_pseudo and pseudo.exists():
            raise ValueError(f"resume without dump_pseudo, but {pseudo} exists: the run dumped pseudo-labels")
        streams = {name: _records_before(out_dir / f"{name}.jsonl", state.iteration) for name in streams}
        if [json.loads(line)["iter"] for line in streams["metrics"]] != list(range(state.iteration)):
            raise ValueError(f"{out_dir / 'metrics.jsonl'} does not hold iterations 0..{state.iteration - 1}")
    else:
        state = init_state(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_ini(config, out_dir / "config.ini")
    for name, kept in streams.items():
        write_atomic(out_dir / f"{name}.jsonl", b"".join(kept))
    if not (resume or dump_pseudo):
        (out_dir / "pseudo.jsonl").unlink(missing_ok=True)
    pending: dict[str, list[dict]] = {name: [] for name in streams}

    def write_outputs() -> None:
        # Records first: a checkpoint never runs ahead of its records.
        for name, records in pending.items():
            append_records(out_dir / f"{name}.jsonl", records)
            records.clear()
        save_checkpoint(out_dir / "checkpoint.bin", state)

    trainer = Trainer(config, labeled, unlabeled)
    semi = config.semi
    all_metrics: list[dict] = []
    n_labeled = len(labeled.scenes)
    n_unlabeled = len(unlabeled.scenes) if unlabeled is not None else 0
    last_iter = semi.total_iters if stop_after is None else min(stop_after, semi.total_iters)
    while state.iteration < last_iter:
        labeled_idx = state.rng.integers(0, n_labeled, size=semi.labeled_batch)
        use_unsup = not semi.supervised_only and state.teacher is not None and n_unlabeled > 0
        unlabeled_idx = state.rng.integers(0, n_unlabeled, size=semi.unlabeled_batch) if use_unsup else []
        record, views = trainer.train_step(state, labeled_idx, unlabeled_idx)
        all_metrics.append(record)
        pending["metrics"].append(record)
        if dump_pseudo:
            pending["pseudo"] += views
        if checkpoint_every > 0 and state.iteration % checkpoint_every == 0 and state.iteration < last_iter:
            write_outputs()
    write_outputs()
    return state, all_metrics
