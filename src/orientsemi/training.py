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

import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from orientsemi.config import RunConfig
from orientsemi.consistency import ngc_loss
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
from orientsemi.records import canonical_line, write_atomic
from orientsemi.sampling import PROVENANCE_EASY, DensePrediction, PseudoLabelSet, build_pairs, topk_pairs
from orientsemi.scenes import SceneConfig, SyntheticScene, flip_ground_truth, flip_scene, strong_augment
from orientsemi.weighting import pair_weights

CHECKPOINT_MAGIC = b"ORIENTSEMI-CKPT v1\n"
# Feature matrices dominate run memory (22 rows x H*W float64), so the
# cache is bounded by bytes rather than entry count.
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


def localization_quality_map(scene: SyntheticScene, height: int, width: int) -> np.ndarray:
    """Per-cell localisation quality: the IoU a ground-truth-shaped box
    centered at the cell would have with the nearest ground truth.

    Congruent parallel rectangles overlap in a rectangle, so the value is
    closed form in the displacement expressed in the box frame.  The map
    is the max over ground-truth boxes and is exactly 0 away from them.
    This is the regression target for the predicted-IoU head; it depends
    only on geometry, never on model parameters.
    """
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
class SupervisedTargets:
    """Parameter-free training targets for one (scene, flip) view.

    ``encoded`` is the owner box's :func:`~orientsemi.detector.encode_boxes`
    target at each positive cell."""

    pos_flat: np.ndarray
    pos_class: np.ndarray
    encoded: tuple[np.ndarray, ...]
    t_ctr: np.ndarray
    quality: np.ndarray


def build_supervised_targets(scene: SyntheticScene, height: int, width: int) -> SupervisedTargets:
    """Dense assignment: a cell is positive for the smallest ground-truth
    box containing its center (larger boxes painted first, so overwrites
    leave the smallest owner)."""
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
    # Cell center in the box frame; distances to the four edges give the
    # centerness target.
    lx = -(dx * c + dy * s)
    ly = -(-dx * s + dy * c)
    half_w = boxes[:, 2] / 2.0
    half_h = boxes[:, 3] / 2.0
    ratio_x = (half_w - np.abs(lx)) / (half_w + np.abs(lx))
    ratio_y = (half_h - np.abs(ly)) / (half_h + np.abs(ly))
    t_ctr = np.sqrt(np.clip(ratio_x * ratio_y, 0.0, 1.0))
    return SupervisedTargets(
        pos_flat=pos_flat,
        pos_class=scene.classes[gt],
        encoded=encoded,
        t_ctr=t_ctr,
        quality=localization_quality_map(scene, height, width),
    )


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


@dataclass
class SupervisedWorkspace:
    """The arrays :func:`supervised_loss` writes for a grid of N cells:
    head outputs and their gradient, (num_heads, N), the features
    cell-major, (N, F), and three (K, N) classification arrays.
    ``cls_targets`` is all zero between calls."""

    raw: np.ndarray
    d_raw: np.ndarray
    features_t: np.ndarray
    cls_targets: np.ndarray
    cls_loss: np.ndarray
    scratch: np.ndarray

    @classmethod
    def for_grid(cls, num_classes: int, num_features: int, n: int) -> "SupervisedWorkspace":
        heads = (num_classes + NUM_EXTRA_HEADS, n)
        per_class = (num_classes, n)
        return cls(
            raw=np.empty(heads),
            d_raw=np.empty(heads),
            features_t=np.empty((n, num_features)),
            cls_targets=np.zeros(per_class),
            cls_loss=np.empty(per_class),
            scratch=np.empty(per_class),
        )


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
    negatives against the geometric quality map.  All terms normalise by
    the positive count.  The grid-sized arrays are written into
    ``workspace``, or into a fresh one.
    """
    k = params.num_classes
    ws = SupervisedWorkspace.for_grid(k, *features.shape) if workspace is None else workspace
    raw = forward(params, features, out=ws.raw)
    n = raw.shape[1]
    pos = targets.pos_flat
    n_pos = max(pos.size, 1)
    d_raw = ws.d_raw
    d_raw[k:] = 0.0

    cls_targets = ws.cls_targets
    cls_targets[targets.pos_class, pos] = 1.0
    loss_cls = float(binary_cross_entropy(raw[:k], cls_targets, ws.cls_loss, ws.scratch).sum()) / n_pos
    d_cls = expit(raw[:k], out=d_raw[:k])
    d_cls -= cls_targets
    d_cls /= n_pos
    cls_targets[targets.pos_class, pos] = 0.0

    loss_reg = 0.0
    loss_ctr = 0.0
    if pos.size:
        errs, c_raw, s_raw, err_cos, err_sin, z_ctr = head_errors(raw, k, pos, targets.encoded)
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
        loss_ctr = float(binary_cross_entropy(z_ctr, targets.t_ctr).sum()) / n_pos
        d_raw[k + OFF_CTR, pos] = (expit(z_ctr) - targets.t_ctr) / n_pos

    sample_pos = (
        rng.choice(pos, size=min(iou_pos_samples, pos.size), replace=False)
        if pos.size
        else np.empty(0, dtype=np.int64)
    )
    neg_mask = np.ones(n, dtype=bool)
    neg_mask[pos] = False
    neg_pool = np.nonzero(neg_mask)[0]
    sample_neg = (
        rng.choice(neg_pool, size=min(iou_neg_samples, neg_pool.size), replace=False)
        if neg_pool.size
        else np.empty(0, dtype=np.int64)
    )
    sample = np.concatenate([sample_pos, sample_neg])
    loss_iou = 0.0
    if sample.size:
        z_iou = raw[k + OFF_IOU, sample]
        t_iou = targets.quality[sample]
        loss_iou = float(binary_cross_entropy(z_iou, t_iou).sum()) / sample.size
        d_raw[k + OFF_IOU, sample] = (expit(z_iou) - t_iou) / sample.size

    loss = loss_cls + loss_reg + loss_ctr + loss_iou
    # A C-contiguous right operand whatever the features' dtype and
    # layout: dgemm's kernel for a transposed one sums in another order
    # on some grids, so the gradient's bits would depend on them.
    np.copyto(ws.features_t, features.T)
    grad = d_raw @ ws.features_t
    parts = {"cls": loss_cls, "reg": loss_reg, "ctr": loss_ctr, "iou": loss_iou}
    return loss, grad, parts


def weighted_pair_loss(
    params: ToyDetectorParams,
    raw: np.ndarray,
    features: np.ndarray,
    pairs: PseudoLabelSet,
    config: RunConfig,
    omega_override: Optional[np.ndarray] = None,
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
    unstable).  ``omega_override`` pins the weights to given values,
    which makes the loss an ordinary differentiable function of the
    parameters for gradient checking.
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

    if omega_override is not None:
        omega = np.asarray(omega_override, dtype=np.float64)
    elif config.semi.enable_gaw:
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
) -> tuple[float, np.ndarray, dict]:
    """Global consistency term and its gradient via the student's class
    logits at the paired positions.

    Raises ``RuntimeError`` if either transport solve does not converge
    (see :func:`orientsemi.consistency.ngc_loss`).
    """
    n_pairs = len(pairs)
    zero = np.zeros_like(params.weights)
    if n_pairs == 0:
        return 0.0, zero, {"gated": True, "loss_gc": 0.0, "loss_gc_noisy": 0.0, "loss_plan": 0.0}
    cols = pairs.iy * config.scene.width + pairs.ix
    cls_idx = pairs.class_index
    rows = np.arange(n_pairs)
    # Student score is sigmoid(logit) at the teacher's class.
    p_pair = expit(raw[cls_idx, cols])
    result = ngc_loss(pairs.xy(), pairs.score_rows[rows, cls_idx], p_pair, config, rng)
    diag = {
        "gated": result.gated,
        "loss_gc": result.loss_gc,
        "loss_gc_noisy": result.loss_gc_noisy,
        "loss_plan": result.loss_plan,
    }
    if result.gated:
        return 0.0, zero, diag
    # Chain: score = sigmoid(z), d score/dz = p * (1 - p).
    d_z = result.grad_scores * p_pair * (1.0 - p_pair)
    d_cols = np.zeros((raw.shape[0], n_pairs))
    d_cols[cls_idx, rows] = d_z
    grad = d_cols @ features.T[cols]
    return result.loss, grad, diag


def sample_pairs(teacher: DensePrediction, config: RunConfig, rng: np.random.Generator) -> PseudoLabelSet:
    """Pair positions from the configured sampler: the dense SIDS sampler
    or the top-k baseline (which draws nothing from ``rng``).  Both read
    the teacher only; the student's views share its grid."""
    if config.semi.sampler == "sids":
        return build_pairs(teacher, teacher, config.sampler_config(), rng)
    return topk_pairs(teacher, teacher, config.semi.topk, config.semi.score_floor)


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

    Each labeled scene's float64 feature matrix is memoised once, in an
    LRU bounded by bytes; its flipped view is mirrored from it.
    Supervised targets are memoised per (scene, flip).  Unlabeled scenes
    are read once per step and not cached: drawn from a large pool, few
    recur within a run.  Head outputs, their gradient and the views'
    feature matrices are written into arrays allocated once per run,
    which the next step overwrites.
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
        self._mirrored = np.empty(features)
        self._weak = np.empty(features)
        self._strong = np.empty(features)
        self._teacher_raw = np.empty(heads)
        self._student_raw = np.empty(heads)
        self._supervised = SupervisedWorkspace.for_grid(num_classes, *features)
        # (scene_id, flip, pairs) per unlabeled view of the last step.
        self.last_pairs: list[tuple[int, bool, PseudoLabelSet]] = []

    def features_for(self, index: int, flip: bool) -> tuple[SyntheticScene, np.ndarray]:
        """Labeled scene ``index`` and its float64 feature matrix, both
        flipped if ``flip``.  The flipped matrix is mirrored
        (:func:`~orientsemi.detector.mirror_features`) into a buffer that
        the next flipped lookup overwrites."""
        scene = self.labeled.scenes[index]
        features = self._features.get(index)
        if features is None:
            features = extract_features(self.labeled.channels(index)).astype(np.float64)
            self._features[index] = features
            self._feature_bytes += features.nbytes
            while self._feature_bytes > _FEATURE_CACHE_BYTES and len(self._features) > 1:
                _, evicted = self._features.popitem(last=False)
                self._feature_bytes -= evicted.nbytes
        else:
            self._features.move_to_end(index)
        if not flip:
            return scene, features
        mirrored = mirror_features(features, self.config.scene.num_channels, scene.width, out=self._mirrored)
        return flip_ground_truth(scene), mirrored

    def unlabeled_views(
        self, index: int, flip: bool, rng: np.random.Generator
    ) -> tuple[SyntheticScene, np.ndarray, np.ndarray]:
        """Unlabeled scene ``index`` under the shared ``flip``, with the
        float64 feature matrices of its weak view (flip only) and its
        strong view (:func:`~orientsemi.scenes.strong_augment`, which
        draws from ``rng``).  The channels are read once; the matrices
        are buffers that the next call overwrites."""
        scene = self.unlabeled.scenes[index]
        channels = self.unlabeled.channels(index)
        if flip:
            scene, channels = flip_scene(scene, channels)
        np.copyto(self._weak, extract_features(channels))
        # The weak view is flipped already; the strong view adds pixel
        # jitter and blur to it.
        _, strong, _ = strong_augment(scene, channels, rng, self.config.augment_config(), flip=False)
        np.copyto(self._strong, extract_features(strong))
        return scene, self._weak, self._strong

    def targets_for(self, index: int, flip: bool, scene: SyntheticScene) -> SupervisedTargets:
        key = (index, flip)
        if key not in self._targets:
            cfg = self.config.scene
            self._targets[key] = build_supervised_targets(scene, cfg.height, cfg.width)
        return self._targets[key]

    def train_step(
        self,
        state: TrainState,
        labeled_indices: Sequence[int],
        unlabeled_indices: Sequence[int],
    ) -> dict:
        """One SGD step; returns the metrics record for this iteration.

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
            scene_f, features = self.features_for(int(index), flip)
            targets = self.targets_for(int(index), flip, scene_f)
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

        loss_gaw = 0.0
        loss_ngc = 0.0
        loss_gc = 0.0
        loss_gc_noisy = 0.0
        loss_plan = 0.0
        n_pairs = 0
        n_easy = 0
        n_hard = 0
        self.last_pairs = []
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
                loss_gaw += w * gaw_i / batch
                grad += (w / batch) * gaw_grad

                if semi.enable_ngc:
                    ngc_i, ngc_grad, diag = consistency_loss(
                        state.student, student_raw, strong_features, pairs, config, rng
                    )
                    loss_ngc += w * ngc_i / batch
                    loss_gc += w * diag["loss_gc"] / batch
                    loss_gc_noisy += w * diag["loss_gc_noisy"] / batch
                    loss_plan += w * diag["loss_plan"] / batch
                    grad += (w / batch) * ngc_grad

                n_pairs += len(pairs)
                easy = int(np.count_nonzero(pairs.provenance == PROVENANCE_EASY))
                n_easy += easy
                n_hard += len(pairs) - easy
                self.last_pairs.append((scene.scene_id, flip, pairs))

        lr = learning_rate_at(config, state.iteration)
        grad += semi.weight_decay * state.student.weights
        grad_norm = float(np.linalg.norm(grad))
        if not math.isfinite(grad_norm):
            raise FloatingPointError(
                f"iteration {state.iteration}: gradient norm is {grad_norm!r} "
                f"(loss_s={loss_s!r}, loss_gaw={loss_gaw!r}, loss_ngc={loss_ngc!r}); "
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
            "loss_total": loss_s + loss_gaw + loss_ngc,
            "loss_s": loss_s,
            "loss_gaw": loss_gaw,
            "loss_ngc": loss_ngc,
            "loss_gc": loss_gc,
            "loss_gc_noisy": loss_gc_noisy,
            "loss_plan": loss_plan,
            "n_pairs": n_pairs,
            "n_easy": n_easy,
            "n_hard": n_hard,
            "grad_norm": grad_norm,
        }
        return metrics


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


def run_training(
    config: RunConfig,
    labeled,
    unlabeled=None,
    out_dir: Optional[Path] = None,
    resume_from: Optional[Path] = None,
    checkpoint_every: int = 0,
    dump_pseudo: bool = False,
    stop_after: Optional[int] = None,
) -> tuple[TrainState, list[dict]]:
    """Drive the full loop and write metrics/checkpoint artifacts.

    Writes ``metrics.jsonl`` (one record per iteration),
    ``checkpoint.bin`` and, with ``dump_pseudo``, ``pseudo.jsonl`` under
    ``out_dir`` if given.  With ``resume_from`` the loop continues a
    saved state; previously written metric lines and pseudo-label
    records past the checkpoint's iteration are discarded, and those
    before it kept, so the finished files are byte-identical to an
    uninterrupted run's.  ``stop_after`` halts at
    an iteration count below the configured total (state is still
    checkpointed), which models an interrupted run.

    Raises ``ValueError`` before the first iteration if
    :func:`check_run` does.
    """
    check_run(config, labeled, unlabeled)
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if state.config.to_dict() != config.to_dict():
            raise ValueError("resume config does not match checkpoint config")
    else:
        state = init_state(config)
    trainer = Trainer(config, labeled, unlabeled)
    semi = config.semi

    metrics_path = pseudo_path = checkpoint_path = None
    lines: list[str] = []
    pending_pseudo: list[str] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_path = out_dir / "metrics.jsonl"
        checkpoint_path = out_dir / "checkpoint.bin"
        if dump_pseudo:
            pseudo_path = out_dir / "pseudo.jsonl"
        # On resume, keep the lines of the iterations the checkpoint covers.
        if state.iteration > 0 and metrics_path.exists():
            lines = metrics_path.read_text().splitlines()[: state.iteration]
        if pseudo_path is not None:
            kept = []
            if state.iteration > 0 and pseudo_path.exists():
                # Whole lines only: an append cut short leaves a torn tail.
                kept = [
                    line
                    for line in pseudo_path.read_text().splitlines(keepends=True)
                    if line.endswith("\n") and json.loads(line)["iter"] < state.iteration
                ]
            write_atomic(pseudo_path, "".join(kept).encode())

    def write_outputs() -> None:
        # Lines first: a checkpoint never runs ahead of its lines.  Pseudo
        # records are appended, as they far outgrow the metrics lines.
        write_atomic(metrics_path, "".join(line + "\n" for line in lines).encode())
        if pseudo_path is not None:
            with open(pseudo_path, "ab") as handle:
                handle.write("".join(line + "\n" for line in pending_pseudo).encode())
            pending_pseudo.clear()
        save_checkpoint(checkpoint_path, state)

    all_metrics: list[dict] = []
    n_labeled = len(labeled.scenes)
    n_unlabeled = len(unlabeled.scenes) if unlabeled is not None else 0
    last_iter = semi.total_iters if stop_after is None else min(stop_after, semi.total_iters)
    while state.iteration < last_iter:
        labeled_idx = state.rng.integers(0, n_labeled, size=semi.labeled_batch)
        use_unsup = (
            not semi.supervised_only and state.teacher is not None and n_unlabeled > 0
        )
        unlabeled_idx = (
            state.rng.integers(0, n_unlabeled, size=semi.unlabeled_batch) if use_unsup else []
        )
        record = trainer.train_step(state, labeled_idx, unlabeled_idx)
        all_metrics.append(record)
        lines.append(canonical_line(record))
        if pseudo_path is not None:
            pending_pseudo += [
                canonical_line(pseudo_record(record["iter"], *view)) for view in trainer.last_pairs
            ]
        if (
            checkpoint_path is not None
            and checkpoint_every > 0
            and state.iteration % checkpoint_every == 0
            and state.iteration < semi.total_iters
        ):
            write_outputs()
    if metrics_path is not None:
        write_outputs()
    return state, all_metrics
