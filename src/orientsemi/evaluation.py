"""Detection extraction and rotated-box average precision.

Detections come from the dense grid by per-class score filtering and
rotated NMS; the detection score is class probability times centerness,
so far-off-center duplicates rank below well-centered ones before NMS
even runs.

AP follows the standard protocol: detections sorted by score are
greedily matched (at most one per ground-truth box) at an IoU
threshold, and the precision-recall curve is averaged at 101 evenly
spaced recall points.  Sorting ties break on (scene, detection index)
so the result is independent of input ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from orientsemi.geometry import RotatedBox, rotated_iou_pairs, rotated_nms
from orientsemi.sampling import DensePrediction, top_cells

FULL_THRESHOLDS = tuple(np.round(np.arange(0.5, 0.96, 0.05), 2))
# Detection defaults of every scoring path: library calls and ``eval``.
SCORE_FLOOR = 0.05
NMS_IOU = 0.1
MAX_DETECTIONS = 100
PRE_NMS_TOP = 2000


@dataclass
class Detection:
    box: RotatedBox
    score: float
    class_index: int


def detect(
    prediction: DensePrediction,
    score_floor: float = SCORE_FLOOR,
    nms_iou: float = NMS_IOU,
    max_detections: int = MAX_DETECTIONS,
) -> list[Detection]:
    """Extract scored detections from a dense prediction.

    Per class: score = class probability * centerness, floor filter, the
    ``PRE_NMS_TOP`` best cells, rotated NMS; then a global cap keeps the
    ``max_detections`` highest scores.  Deterministic for a fixed
    prediction.
    """
    out: list[Detection] = []
    for k in range(prediction.num_classes):
        scores = prediction.class_scores[:, :, k] * prediction.centerness
        iy, ix, flat_scores = top_cells(scores, scores >= score_floor, PRE_NMS_TOP)
        rows = prediction.boxes[iy, ix]
        # Per class only the best max_detections boxes can survive the
        # global cap, so the NMS scan may stop there: its kept list is
        # already in descending score order.
        for i in rotated_nms(rows, flat_scores, iou_threshold=nms_iou, max_keep=max_detections):
            out.append(Detection(box=RotatedBox(*rows[i].tolist()), score=float(flat_scores[i]), class_index=k))
    out.sort(key=lambda d: -d.score)
    return out[:max_detections]


def _class_pairs(
    detections: list[tuple[int, int, Detection]], gt_rows: np.ndarray, gt_scene: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (detection, ground truth in the same scene) pair of one
    class and its IoU, from one ``rotated_iou_pairs`` call.

    ``gt_scene`` must be ascending.  Pairs come in detection order, and
    in ground-truth order within a detection.
    """
    det_rows = np.array([(d.box.cx, d.box.cy, d.box.w, d.box.h, d.box.angle) for _, _, d in detections])
    det_scene = np.array([scene for scene, _, _ in detections], dtype=np.int64)
    first = np.searchsorted(gt_scene, det_scene, side="left")
    count = np.searchsorted(gt_scene, det_scene, side="right") - first
    pair_det = np.repeat(np.arange(len(detections)), count)
    pair_gt = np.arange(len(pair_det)) + np.repeat(first - (np.cumsum(count) - count), count)
    iou = rotated_iou_pairs(det_rows.reshape(-1, 5)[pair_det], gt_rows[pair_gt])
    return pair_det, pair_gt, iou


def _match_class(
    pair_det: np.ndarray, pair_gt: np.ndarray, pair_iou: np.ndarray, n_detections: int, iou_threshold: float
) -> np.ndarray:
    """Greedy matching for one class, over the pairs of
    :func:`_class_pairs` (detections sorted by (-score, scene, index)).
    Returns a bool vector, one entry per detection, True where it
    claimed a ground-truth box."""
    matched = np.zeros(n_detections, dtype=bool)
    taken: set[int] = set()
    hit = pair_iou >= iou_threshold
    current, best, best_iou = -1, -1, -1.0
    for det, gt, iou in zip(pair_det[hit].tolist(), pair_gt[hit].tolist(), pair_iou[hit].tolist()):
        if det != current:
            if best >= 0:
                taken.add(best)
                matched[current] = True
            current, best, best_iou = det, -1, -1.0
        # Claim the highest-overlap free box; equal overlaps resolve
        # to the lowest ground-truth index via the strict compare.
        if gt not in taken and iou > best_iou:
            best, best_iou = gt, iou
    if best >= 0:
        matched[current] = True
    return matched


def _interpolated_ap(matched: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP for a score-sorted match vector."""
    if n_gt == 0:
        return float("nan")
    if matched.size == 0:
        return 0.0
    tp = np.cumsum(matched)
    fp = np.cumsum(~matched)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ap / 101.0


def evaluate_map(
    detections_per_scene: Sequence[Sequence[Detection]],
    scenes: Sequence,
    thresholds: Sequence[float] = FULL_THRESHOLDS,
) -> dict:
    """Mean average precision over classes and IoU thresholds.

    ``scenes`` supply ground truth (``boxes`` array and ``classes``).
    Classes absent from every scene's ground truth are excluded from the
    mean.  Returns per-threshold means plus the standard summary keys
    when their thresholds are present: ``map50`` (0.50), ``ap85``
    (0.85), and ``map50_95`` (mean over all given thresholds).
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("need at least one IoU threshold")
    for t in thresholds:
        if not 0.5 - 1e-9 <= t <= 0.95 + 1e-9:
            raise ValueError(f"IoU thresholds must lie in [0.5, 0.95], got {t}")
    if len(detections_per_scene) != len(scenes):
        raise ValueError(
            f"{len(detections_per_scene)} detection lists for {len(scenes)} scenes"
        )
    num_classes = 0
    for scene in scenes:
        if len(scene.classes):
            num_classes = max(num_classes, int(scene.classes.max()) + 1)
    for dets in detections_per_scene:
        for det in dets:
            num_classes = max(num_classes, det.class_index + 1)

    by_class_dets: dict[int, list[tuple[int, int, Detection]]] = {k: [] for k in range(num_classes)}
    by_class_gt: dict[int, list[tuple[int, RotatedBox]]] = {k: [] for k in range(num_classes)}
    for scene_idx, (dets, scene) in enumerate(zip(detections_per_scene, scenes)):
        for det_idx, det in enumerate(dets):
            by_class_dets[det.class_index].append((scene_idx, det_idx, det))
        for row, cls in zip(scene.boxes, scene.classes):
            by_class_gt[int(cls)].append((scene_idx, RotatedBox(*row)))
    n_gt = np.array([len(by_class_gt[k]) for k in range(num_classes)], dtype=np.int64)

    present = [k for k in range(num_classes) if n_gt[k] > 0]
    ap = np.full((len(thresholds), num_classes), np.nan)
    for k in range(num_classes):
        dets = sorted(by_class_dets[k], key=lambda item: (-item[2].score, item[0], item[1]))
        gt_rows = np.array([(b.cx, b.cy, b.w, b.h, b.angle) for _, b in by_class_gt[k]]).reshape(-1, 5)
        gt_scene = np.array([scene for scene, _ in by_class_gt[k]], dtype=np.int64)
        pairs = _class_pairs(dets, gt_rows, gt_scene)
        for ti, threshold in enumerate(thresholds):
            matched = _match_class(*pairs, len(dets), threshold)
            ap[ti, k] = _interpolated_ap(matched, int(n_gt[k]))

    result: dict = {
        "thresholds": thresholds,
        "per_class_ap": {
            f"{t:.2f}": {str(k): float(ap[ti, k]) for k in present}
            for ti, t in enumerate(thresholds)
        },
        "mean_ap_per_threshold": {
            f"{t:.2f}": (float(np.mean([ap[ti, k] for k in present])) if present else 0.0)
            for ti, t in enumerate(thresholds)
        },
        "n_scenes": len(scenes),
        "n_gt": int(n_gt.sum()),
        "n_detections": int(sum(len(d) for d in detections_per_scene)),
    }
    means = result["mean_ap_per_threshold"]
    result["map50_95"] = float(np.mean(list(means.values())))
    if "0.50" in means:
        result["map50"] = means["0.50"]
    if "0.85" in means:
        result["ap85"] = means["0.85"]
    return result


def evaluate_model(
    params,
    dataset,
    detector_config,
    thresholds: Sequence[float] = FULL_THRESHOLDS,
    score_floor: float = SCORE_FLOOR,
    nms_iou: float = NMS_IOU,
    max_detections: int = MAX_DETECTIONS,
) -> dict:
    """Run detection over every scene in a dataset and score it."""
    from orientsemi.detector import predict_dense

    detections = []
    for i in range(len(dataset.scenes)):
        prediction = predict_dense(params, dataset.channels(i), detector_config)
        detections.append(
            detect(
                prediction,
                score_floor=score_floor,
                nms_iou=nms_iou,
                max_detections=max_detections,
            )
        )
    return evaluate_map(detections, dataset.scenes, thresholds=thresholds)

