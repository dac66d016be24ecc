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
from orientsemi.consistency import build_distribution, ngc_loss
from orientsemi.detector import (
    DIRECTION_EPS,
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
    extract_features,
    forward,
)
from orientsemi.geometry import RotatedBox, grid_cells_in_box
from orientsemi.records import canonical_line, write_atomic, write_records
from orientsemi.sampling import PROVENANCE_EASY, DensePrediction, PseudoLabelSet, build_pairs, topk_pairs
from orientsemi.scenes import SyntheticScene, flip_scene, strong_augment
from orientsemi.weighting import pair_weights

CHECKPOINT_MAGIC = b"ORIENTSEMI-CKPT v1\n"
# Feature matrices dominate run memory (22 rows x H*W float64), so the
# cache is bounded by bytes rather than entry count.
_FEATURE_CACHE_BYTES = 1_500_000_000


def binary_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Elementwise BCE on logits, stable for large |logits|."""
    return np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))


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
    """Parameter-free training targets for one (scene, flip) view."""

    pos_flat: np.ndarray
    pos_class: np.ndarray
    t_dx: np.ndarray
    t_dy: np.ndarray
    t_logw: np.ndarray
    t_logh: np.ndarray
    t_cos: np.ndarray
    t_sin: np.ndarray
    t_ctr: np.ndarray
    quality: np.ndarray


def build_supervised_targets(scene: SyntheticScene, height: int, width: int) -> SupervisedTargets:
    """Dense assignment: a cell is positive for the smallest ground-truth
    box containing its center (larger boxes painted first, so overwrites
    leave the smallest owner)."""
    owner = np.full(height * width, -1, dtype=np.int64)
    areas = scene.boxes[:, 2] * scene.boxes[:, 3] if len(scene) else np.empty(0)
    for gi in np.argsort(-areas):
        box = RotatedBox(*scene.boxes[gi])
        iy, ix = grid_cells_in_box(box, height, width)
        owner[iy * width + ix] = gi
    pos_flat = np.nonzero(owner >= 0)[0]
    gt = owner[pos_flat]
    boxes = scene.boxes[gt] if pos_flat.size else np.empty((0, 5))
    px = pos_flat % width + 0.5
    py = pos_flat // width + 0.5
    dx = boxes[:, 0] - px
    dy = boxes[:, 1] - py
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
        pos_class=scene.classes[gt] if pos_flat.size else np.empty(0, dtype=np.int64),
        t_dx=dx,
        t_dy=dy,
        t_logw=np.log(boxes[:, 2]) if pos_flat.size else np.empty(0),
        t_logh=np.log(boxes[:, 3]) if pos_flat.size else np.empty(0),
        t_cos=np.cos(2.0 * boxes[:, 4]) if pos_flat.size else np.empty(0),
        t_sin=np.sin(2.0 * boxes[:, 4]) if pos_flat.size else np.empty(0),
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
    box_targets: Sequence[np.ndarray],
    t_cos: np.ndarray,
    t_sin: np.ndarray,
) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Head outputs against box targets at the grid columns ``cols``, the
    forward part shared by the supervised and the pair loss.

    Returns ``(errs, c_raw, s_raw, err_cos, err_sin, z_ctr)``: ``errs``
    maps each offset/size head (dx, dy, log w, log h, in that order) to
    output minus target; the direction errors are on the unit-normalised
    (c, s) pair; ``z_ctr`` are the centerness logits.  Each caller keeps
    its own reduction and gradient scaling.
    """
    errs = {
        offset: raw[k + offset, cols] - target
        for offset, target in zip((OFF_DX, OFF_DY, OFF_LOGW, OFF_LOGH), box_targets)
    }
    c_raw = raw[k + OFF_COS, cols]
    s_raw = raw[k + OFF_SIN, cols]
    norm = np.sqrt(c_raw * c_raw + s_raw * s_raw + DIRECTION_EPS)
    return errs, c_raw, s_raw, c_raw / norm - t_cos, s_raw / norm - t_sin, raw[k + OFF_CTR, cols]


def supervised_loss(
    params: ToyDetectorParams,
    features: np.ndarray,
    targets: SupervisedTargets,
    rng: np.random.Generator,
    iou_pos_samples: int,
    iou_neg_samples: int,
) -> tuple[float, np.ndarray, dict]:
    """Dense supervised loss and its gradient on the weight matrix.

    Classification is BCE over every cell and class; box regression,
    direction, and centerness are evaluated at positive cells; the
    predicted-IoU head trains on a per-step subsample of positives and
    negatives against the geometric quality map.  All terms normalise by
    the positive count.
    """
    k = params.num_classes
    raw = forward(params, features)
    n = raw.shape[1]
    pos = targets.pos_flat
    n_pos = max(pos.size, 1)
    d_raw = np.zeros_like(raw)

    cls_targets = np.zeros((k, n))
    if pos.size:
        cls_targets[targets.pos_class, pos] = 1.0
    probs = expit(raw[:k])
    loss_cls = float(binary_cross_entropy(raw[:k], cls_targets).sum()) / n_pos
    d_raw[:k] = (probs - cls_targets) / n_pos

    loss_reg = 0.0
    loss_ctr = 0.0
    if pos.size:
        errs, c_raw, s_raw, err_cos, err_sin, z_ctr = head_errors(
            raw, k, pos, (targets.t_dx, targets.t_dy, targets.t_logw, targets.t_logh), targets.t_cos, targets.t_sin
        )
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
    grad = d_raw @ features.T
    parts = {"cls": loss_cls, "reg": loss_reg, "ctr": loss_ctr, "iou": loss_iou}
    return loss, grad, parts


def weighted_pair_loss(
    params: ToyDetectorParams,
    raw: np.ndarray,
    features: np.ndarray,
    pairs: PseudoLabelSet,
    width: int,
    psi: float,
    enable_gaw: bool,
    min_side: float,
    max_side: float,
    omega_override: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray, dict]:
    """Geometry-weighted teacher-student pair loss and its gradient.

    Per pair: BCE of the student's class logits against the teacher's
    probabilities, smooth-L1 on the box parameterisation (offsets, log
    sizes, unit direction pair) against the teacher's decoded box, and
    BCE on centerness; the mean over pairs is modulated by the
    angle-gap/aspect weight.  The weight is recomputed from the current
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
    cols = pairs.iy * width + pairs.ix
    t_boxes = pairs.teacher.boxes
    px = pairs.ix + 0.5
    py = pairs.iy + 0.5

    z_cls = raw[:k][:, cols]
    t_cls = pairs.teacher.score_rows.T
    p_cls = expit(z_cls)
    cls_pair = binary_cross_entropy(z_cls, t_cls).sum(axis=0)

    errs, c_raw, s_raw, err_cos, err_sin, z_ctr = head_errors(
        raw,
        k,
        cols,
        (t_boxes[:, 0] - px, t_boxes[:, 1] - py, np.log(t_boxes[:, 2]), np.log(t_boxes[:, 3])),
        np.cos(2.0 * t_boxes[:, 4]),
        np.sin(2.0 * t_boxes[:, 4]),
    )
    reg_pair = (
        sum(smooth_l1(e) for e in errs.values()) + smooth_l1(err_cos) + smooth_l1(err_sin)
    )

    t_ctr = pairs.teacher.centerness
    ctr_pair = binary_cross_entropy(z_ctr, t_ctr)

    pair_total = cls_pair + reg_pair + ctr_pair

    if omega_override is not None:
        omega = np.asarray(omega_override, dtype=np.float64)
    elif enable_gaw:
        log_lo, log_hi = math.log(min_side), math.log(max_side)
        lw = np.clip(raw[k + OFF_LOGW, cols], log_lo, log_hi)
        lh = np.clip(raw[k + OFF_LOGH, cols], log_lo, log_hi)
        omega = pair_weights(
            t_boxes[:, 4],
            decode_angle(c_raw, s_raw),
            np.maximum(t_boxes[:, 2], t_boxes[:, 3]) / np.minimum(t_boxes[:, 2], t_boxes[:, 3]),
            np.exp(np.abs(lw - lh)),
            psi,
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

    grad = d_cols @ features[:, cols].T
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
    width: int,
    config: RunConfig,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray, dict]:
    """Global consistency term and its gradient via the student's class
    logits at the paired positions."""
    n_pairs = len(pairs)
    zero = np.zeros_like(params.weights)
    if n_pairs == 0:
        return 0.0, zero, {"gated": True, "loss_gc": 0.0, "loss_gc_noisy": 0.0, "loss_plan": 0.0}
    k = params.num_classes
    cols = pairs.iy * width + pairs.ix
    cls_idx = pairs.teacher.class_index
    xy = pairs.xy()
    teacher_dist = build_distribution(xy, pairs.teacher.score_rows, cls_idx)
    # Student mass is exp(sigmoid(logit)) at the teacher's class.
    student_dist = build_distribution(xy, expit(raw[:k][:, cols]).T, cls_idx)
    p_pair = student_dist.scores
    result = ngc_loss(teacher_dist, student_dist, config.ngc_config(), rng)
    diag = {
        "gated": result.gated,
        "loss_gc": result.loss_gc,
        "loss_gc_noisy": result.loss_gc_noisy,
        "loss_plan": result.loss_plan,
    }
    if result.gated:
        return 0.0, zero, diag
    # Chain: mass = exp(sigmoid(z)), d mass/dz = mass * p * (1 - p).
    d_z = result.grad_values * student_dist.values * p_pair * (1.0 - p_pair)
    d_cols = np.zeros((raw.shape[0], n_pairs))
    d_cols[cls_idx, np.arange(n_pairs)] = d_z
    grad = d_cols @ features[:, cols].T
    return result.loss, grad, diag


def sample_pairs(
    teacher: DensePrediction, student: DensePrediction, config: RunConfig, rng: np.random.Generator
) -> PseudoLabelSet:
    """Pair positions from the configured sampler: the dense SIDS sampler
    or the top-k baseline (which draws nothing from ``rng``)."""
    if config.semi.sampler == "sids":
        return build_pairs(teacher, student, config.sampler_config(), rng)
    return topk_pairs(teacher, student, config.semi.topk, config.semi.score_floor)


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
    student = ToyDetectorParams.initialize(config.scene.num_channels, rng, config.detector)
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
    """Binds a config to datasets and owns the per-run caches.

    Feature matrices and supervised targets are pure functions of
    (scene, flip), so they are memoised; the feature cache is bounded
    LRU because the unlabeled pool can be large.
    """

    def __init__(self, config: RunConfig, labeled, unlabeled=None):
        self.config = config
        self.labeled = labeled
        self.unlabeled = unlabeled
        self._features: OrderedDict = OrderedDict()
        self._feature_bytes = 0
        self._targets: dict = {}
        # (scene_id, flip, pairs) per unlabeled view of the last step.
        self.last_pairs: list[tuple[int, bool, PseudoLabelSet]] = []

    def features_for(self, tag: str, index: int, flip: bool) -> tuple[SyntheticScene, np.ndarray]:
        dataset = self.labeled if tag == "lab" else self.unlabeled
        scene = dataset.scenes[index]
        key = (tag, index, flip)
        cached = self._features.get(key)
        if cached is None:
            channels = dataset.channels(index)
            if flip:
                scene_f, channels = flip_scene(scene, channels)
            else:
                scene_f = scene
            cached = (scene_f, extract_features(channels))
            self._features[key] = cached
            self._feature_bytes += cached[1].nbytes
            while self._feature_bytes > _FEATURE_CACHE_BYTES and len(self._features) > 1:
                _, (_, evicted) = self._features.popitem(last=False)
                self._feature_bytes -= evicted.nbytes
        else:
            self._features.move_to_end(key)
        return cached

    def targets_for(self, tag: str, index: int, flip: bool, scene: SyntheticScene) -> SupervisedTargets:
        key = (tag, index, flip)
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
            scene_f, features = self.features_for("lab", int(index), flip)
            targets = self.targets_for("lab", int(index), flip, scene_f)
            loss_i, grad_i, _ = supervised_loss(
                state.student,
                features,
                targets,
                rng,
                semi.iou_pos_samples,
                semi.iou_neg_samples,
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
                weak_scene, weak_features = self.features_for("unlab", int(index), flip)
                teacher_raw = forward(state.teacher, weak_features)
                teacher_pred = decode_dense(state.teacher, teacher_raw, height, width, config.detector)

                channels = self.unlabeled.channels(int(index))
                scene = self.unlabeled.scenes[int(index)]
                _, strong_channels, _ = strong_augment(
                    scene, channels, rng, config.augment_config(), flip=flip
                )
                strong_features = extract_features(strong_channels)
                student_raw = forward(state.student, strong_features)
                student_pred = decode_dense(state.student, student_raw, height, width, config.detector)

                pairs = sample_pairs(teacher_pred, student_pred, config, rng)
                gaw_i, gaw_grad, _ = weighted_pair_loss(
                    state.student,
                    student_raw,
                    strong_features,
                    pairs,
                    width,
                    config.tab1.psi,
                    semi.enable_gaw,
                    config.detector.min_side,
                    config.detector.max_side,
                )
                loss_gaw += w * gaw_i / batch
                grad += (w / batch) * gaw_grad

                if semi.enable_ngc:
                    ngc_i, ngc_grad, diag = consistency_loss(
                        state.student, student_raw, strong_features, pairs, width, config, rng
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

    Writes ``metrics.jsonl`` (one record per iteration) and
    ``checkpoint.bin`` under ``out_dir`` if given.  With ``resume_from``
    the loop continues a saved state; previously written metric lines
    past the checkpoint's iteration are discarded so the finished file
    is byte-identical to an uninterrupted run.  ``stop_after`` halts at
    an iteration count below the configured total (state is still
    checkpointed), which models an interrupted run.
    """
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if state.config.to_dict() != config.to_dict():
            raise ValueError("resume config does not match checkpoint config")
    else:
        state = init_state(config)
    trainer = Trainer(config, labeled, unlabeled)
    semi = config.semi

    metrics_path = pseudo_path = checkpoint_path = None
    kept_lines: list[str] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_path = out_dir / "metrics.jsonl"
        checkpoint_path = out_dir / "checkpoint.bin"
        if dump_pseudo:
            pseudo_path = out_dir / "pseudo.jsonl"
        if state.iteration > 0 and metrics_path.exists():
            kept_lines = metrics_path.read_text().splitlines()[: state.iteration]

    all_metrics: list[dict] = []
    lines: list[str] = list(kept_lines)
    pseudo: list[dict] = []
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
        if dump_pseudo:
            pseudo += [pseudo_record(record["iter"], *view) for view in trainer.last_pairs]
        if (
            checkpoint_path is not None
            and checkpoint_every > 0
            and state.iteration % checkpoint_every == 0
            and state.iteration < semi.total_iters
        ):
            # Metrics first: a checkpoint never runs ahead of its lines.
            write_atomic(metrics_path, "".join(line + "\n" for line in lines).encode())
            save_checkpoint(checkpoint_path, state)
    if metrics_path is not None:
        write_atomic(metrics_path, "".join(line + "\n" for line in lines).encode())
        save_checkpoint(checkpoint_path, state)
        if pseudo_path is not None:
            write_records(pseudo_path, pseudo)
    return state, all_metrics
