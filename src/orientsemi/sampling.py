"""Dense pseudo-label sampling from a teacher's dense prediction.

Instead of keeping only post-NMS detections as pseudo-boxes, the sampler
selects a set of grid positions at which teacher and student dense
outputs are paired:

1. positions are filtered at a max-class score floor and deduplicated
   with rotated NMS on the decoded boxes;
2. inside every kept box a fixed ratio of its cells is sampled
   ("easy" positions, at least one per box via the ceiling);
3. background cells whose predicted-IoU head is still confident are
   added as "hard" positions: places where the detector thinks a box
   fits although the classifier sees nothing.

Counts are therefore dynamic: crowded scenes yield more pairs, which is
what the downstream distribution alignment wants to see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from orientsemi.geometry import RotatedBox, grid_cells_in_box, rotated_nms

PROVENANCE_EASY = 0
PROVENANCE_HARD = 1


@dataclass
class DensePrediction:
    """Per-cell detector outputs on an H x W grid.

    ``class_scores`` are probabilities in [0, 1], shape (H, W, K);
    ``boxes`` are decoded (cx, cy, w, h, angle) rows, shape (H, W, 5);
    ``centerness`` and ``predicted_iou`` are in [0, 1], shape (H, W).
    """

    class_scores: np.ndarray
    boxes: np.ndarray
    centerness: np.ndarray
    predicted_iou: np.ndarray

    def __post_init__(self) -> None:
        h, w, k = self.class_scores.shape
        if k < 1:
            raise ValueError("need at least one class channel")
        if self.boxes.shape != (h, w, 5):
            raise ValueError(f"boxes shape {self.boxes.shape}, expected {(h, w, 5)}")
        if self.centerness.shape != (h, w):
            raise ValueError(f"centerness shape {self.centerness.shape}, expected {(h, w)}")
        if self.predicted_iou.shape != (h, w):
            raise ValueError(f"predicted_iou shape {self.predicted_iou.shape}, expected {(h, w)}")

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.class_scores.shape[:2]

    @property
    def num_classes(self) -> int:
        return self.class_scores.shape[2]

    def box_at(self, iy: int, ix: int) -> RotatedBox:
        cx, cy, w, h, angle = self.boxes[iy, ix]
        return RotatedBox(float(cx), float(cy), float(w), float(h), float(angle))


@dataclass
class SamplerConfig:
    score_floor: float = 0.05
    nms_iou: float = 0.1
    sample_ratio: float = 0.25
    hard_iou_threshold: float = 0.1
    pre_nms_top: int = 2000
    max_hard: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score_floor <= 1.0:
            raise ValueError(f"score_floor must be in [0, 1], got {self.score_floor}")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ValueError(f"sample_ratio must be in (0, 1], got {self.sample_ratio}")
        if self.pre_nms_top < 1:
            raise ValueError(f"pre_nms_top must be >= 1, got {self.pre_nms_top}")


@dataclass
class PackedItems:
    """One model's dense outputs gathered at the sampled positions."""

    boxes: np.ndarray
    score_rows: np.ndarray
    centerness: np.ndarray
    class_index: np.ndarray


@dataclass
class PseudoLabelSet:
    """Teacher items at the grid positions where teacher and student are
    paired; the student side is read from its raw outputs at the same
    cells.

    ``provenance`` is 0 for ratio-sampled in-box positions and 1 for
    mined hard background positions.  ``teacher.class_index`` is the
    teacher's argmax class: the class at which the pair is compared.
    """

    iy: np.ndarray
    ix: np.ndarray
    provenance: np.ndarray
    teacher: PackedItems

    def __len__(self) -> int:
        return self.iy.shape[0]

    def xy(self) -> np.ndarray:
        """Cell-center coordinates, shape (N, 2), columns (x, y)."""
        return np.stack([self.ix + 0.5, self.iy + 0.5], axis=1).astype(np.float64)


def top_cells(
    scores: np.ndarray, keep: np.ndarray, top: Optional[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid cells where ``keep`` holds, capped at the ``top`` highest
    ``scores`` (no cap for ``None``).

    Returns ``(iy, ix, scores at those cells)``: in row-major order when
    the cap does not bite, otherwise in descending score order with ties
    broken by flat index.
    """
    iy, ix = np.nonzero(keep)
    values = scores[iy, ix]
    if top is not None and iy.size > top:
        order = np.lexsort((iy * scores.shape[1] + ix, -values))[:top]
        iy, ix, values = iy[order], ix[order], values[order]
    return iy, ix, values


def candidate_detections(
    prediction: DensePrediction, config: SamplerConfig
) -> tuple[list[RotatedBox], np.ndarray]:
    """Score-filtered, NMS-deduplicated boxes, descending score order.

    Returns the kept boxes and their scores.  At most ``pre_nms_top``
    highest-scoring candidates enter NMS; the cap only matters when a
    barely-trained model floods the floor, and exists to bound runtime.
    """
    max_scores = prediction.class_scores.max(axis=2)
    iy, ix, scores = top_cells(max_scores, max_scores >= config.score_floor, config.pre_nms_top)
    if iy.size == 0:
        return [], np.empty(0)
    boxes = [prediction.box_at(int(y), int(x)) for y, x in zip(iy, ix)]
    kept = rotated_nms(boxes, scores, iou_threshold=config.nms_iou)
    return [boxes[i] for i in kept], scores[kept]


def sample_easy(
    prediction: DensePrediction,
    kept_boxes: Sequence[RotatedBox],
    ratio: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``ceil(ratio * |pool|)`` cells inside each kept box.

    ``kept_boxes`` must be in descending score order: when boxes overlap,
    a cell belongs to the pool of the first (higher-scoring) box that
    covers it, so pools are disjoint and sampling is without replacement.
    Every box with a non-empty pool contributes at least one position.
    Returns ``(iy, ix)`` arrays sorted per box for deterministic layout.
    """
    height, width = prediction.grid_shape
    claimed = np.zeros((height, width), dtype=bool)
    out_iy: list[np.ndarray] = []
    out_ix: list[np.ndarray] = []
    for box in kept_boxes:
        cell_iy, cell_ix = grid_cells_in_box(box, height, width)
        if cell_iy.size == 0:
            continue
        fresh = ~claimed[cell_iy, cell_ix]
        claimed[cell_iy, cell_ix] = True
        pool_iy, pool_ix = cell_iy[fresh], cell_ix[fresh]
        if pool_iy.size == 0:
            continue
        take = math.ceil(ratio * pool_iy.size)
        picked = rng.choice(pool_iy.size, size=take, replace=False)
        picked.sort()
        out_iy.append(pool_iy[picked])
        out_ix.append(pool_ix[picked])
    if not out_iy:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(out_iy), np.concatenate(out_ix)


def mine_hard(
    prediction: DensePrediction,
    kept_boxes: Sequence[RotatedBox],
    easy_iy: np.ndarray,
    easy_ix: np.ndarray,
    threshold: float,
    max_hard: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Background cells whose predicted IoU exceeds the threshold.

    Background means not inside any kept box; already-sampled positions
    are excluded.  Results come back in row-major order.  ``max_hard``
    optionally keeps only the highest-predicted-IoU positions.
    """
    height, width = prediction.grid_shape
    foreground = np.zeros((height, width), dtype=bool)
    for box in kept_boxes:
        cell_iy, cell_ix = grid_cells_in_box(box, height, width)
        foreground[cell_iy, cell_ix] = True
    foreground[easy_iy, easy_ix] = True
    candidate = (prediction.predicted_iou > threshold) & ~foreground
    hard_iy, hard_ix, _ = top_cells(prediction.predicted_iou, candidate, max_hard)
    return _row_major(hard_iy, hard_ix, width)


def _row_major(iy: np.ndarray, ix: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(iy * width + ix)
    return iy[order], ix[order]


def _pack(prediction: DensePrediction, iy: np.ndarray, ix: np.ndarray, class_index: np.ndarray) -> PackedItems:
    return PackedItems(
        boxes=prediction.boxes[iy, ix].copy(),
        score_rows=prediction.class_scores[iy, ix].copy(),
        centerness=prediction.centerness[iy, ix].copy(),
        class_index=class_index,
    )


def _assemble(teacher: DensePrediction, iy: np.ndarray, ix: np.ndarray, provenance: np.ndarray) -> PseudoLabelSet:
    class_index = np.argmax(teacher.class_scores[iy, ix], axis=1)
    return PseudoLabelSet(iy=iy, ix=ix, provenance=provenance, teacher=_pack(teacher, iy, ix, class_index))


def _check_grids(teacher: DensePrediction, student: DensePrediction) -> None:
    if teacher.grid_shape != student.grid_shape:
        raise ValueError(
            f"grid mismatch: teacher {teacher.grid_shape}, student {student.grid_shape}"
        )


def build_pairs(
    teacher: DensePrediction,
    student: DensePrediction,
    config: SamplerConfig,
    rng: np.random.Generator,
) -> PseudoLabelSet:
    """Run the full sampler and gather the teacher's items at the positions.

    Teacher and student must share a grid; the student is read only for
    that check.  The rng is consumed only by the in-box ratio sampling.
    """
    _check_grids(teacher, student)
    kept_boxes, _ = candidate_detections(teacher, config)
    easy_iy, easy_ix = sample_easy(teacher, kept_boxes, config.sample_ratio, rng)
    hard_iy, hard_ix = mine_hard(
        teacher, kept_boxes, easy_iy, easy_ix, config.hard_iou_threshold, config.max_hard
    )
    iy = np.concatenate([easy_iy, hard_iy])
    ix = np.concatenate([easy_ix, hard_ix])
    provenance = np.concatenate(
        [
            np.full(easy_iy.size, PROVENANCE_EASY, dtype=np.int8),
            np.full(hard_iy.size, PROVENANCE_HARD, dtype=np.int8),
        ]
    )
    return _assemble(teacher, iy, ix, provenance)


def topk_pairs(
    teacher: DensePrediction,
    student: DensePrediction,
    k: int,
    score_floor: float = 0.05,
) -> PseudoLabelSet:
    """Baseline sampler: the k highest max-class-score positions.

    No NMS, no ratio sampling, no hard mining; ties break toward
    row-major order.  Used as the comparison point for the ratio
    sampler.
    """
    _check_grids(teacher, student)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    max_scores = teacher.class_scores.max(axis=2)
    iy, ix, _ = top_cells(max_scores, max_scores >= score_floor, k)
    iy, ix = _row_major(iy, ix, teacher.grid_shape[1])
    provenance = np.full(iy.size, PROVENANCE_EASY, dtype=np.int8)
    return _assemble(teacher, iy, ix, provenance)
