import math

import numpy as np
import pytest

from orientsemi.geometry import RotatedBox, grid_cells_in_box
from orientsemi.sampling import (
    PROVENANCE_EASY,
    PROVENANCE_HARD,
    DensePrediction,
    SamplerConfig,
    build_pairs,
    candidate_detections,
    mine_hard,
    sample_easy,
    topk_pairs,
)


def blank_prediction(height: int = 32, width: int = 32, num_classes: int = 3) -> DensePrediction:
    boxes = np.zeros((height, width, 5))
    boxes[..., 2] = 4.0
    boxes[..., 3] = 2.0
    ys, xs = np.mgrid[0:height, 0:width]
    boxes[..., 0] = xs + 0.5
    boxes[..., 1] = ys + 0.5
    return DensePrediction(
        class_scores=np.zeros((height, width, num_classes)),
        boxes=boxes,
        centerness=np.zeros((height, width)),
        predicted_iou=np.zeros((height, width)),
    )


def paint_instance(pred: DensePrediction, box: RotatedBox, cls: int, score: float) -> None:
    """Give every cell inside the box the same decoded box and a score
    that peaks at the cell nearest the center."""
    h, w = pred.grid_shape
    iy, ix = grid_cells_in_box(box, h, w)
    d2 = (ix + 0.5 - box.cx) ** 2 + (iy + 0.5 - box.cy) ** 2
    pred.class_scores[iy, ix, cls] = score - 1e-4 * d2
    pred.boxes[iy, ix] = box.as_array()


class TestCandidateDetections:
    def test_empty_when_all_below_floor(self):
        pred = blank_prediction()
        kept, scores = candidate_detections(pred, SamplerConfig())
        assert kept == [] and scores.size == 0

    def test_one_instance_one_box(self):
        pred = blank_prediction()
        box = RotatedBox(16.0, 16.0, 8.0, 4.0, 0.5)
        paint_instance(pred, box, cls=1, score=0.9)
        kept, scores = candidate_detections(pred, SamplerConfig())
        assert len(kept) == 1
        assert kept[0].cx == box.cx and kept[0].cy == box.cy
        assert scores[0] == pytest.approx(0.9, abs=1e-3)

    def test_two_instances_two_boxes_descending(self):
        pred = blank_prediction()
        paint_instance(pred, RotatedBox(8.0, 8.0, 6.0, 3.0, 0.0), cls=0, score=0.6)
        paint_instance(pred, RotatedBox(24.0, 24.0, 6.0, 3.0, 1.0), cls=2, score=0.8)
        kept, scores = candidate_detections(pred, SamplerConfig())
        assert len(kept) == 2
        assert scores[0] > scores[1]
        assert kept[0].cx == 24.0

    def test_pre_nms_cap_bounds_candidates(self):
        pred = blank_prediction()
        pred.class_scores[..., 0] = 0.5  # every cell passes the floor
        config = SamplerConfig(pre_nms_top=10)
        kept, _ = candidate_detections(pred, config)
        assert len(kept) >= 1  # all cells share one box, NMS collapses them


class TestSampleEasy:
    def test_exact_count_per_box(self):
        pred = blank_prediction()
        rng = np.random.default_rng(0)
        boxes = [
            RotatedBox(8.0, 8.0, 6.0, 4.0, 0.0),
            RotatedBox(24.0, 24.0, 5.0, 3.0, 0.7),
        ]
        iy, ix = sample_easy(pred, boxes, 0.25, rng)
        expected = 0
        for box in boxes:
            cells = grid_cells_in_box(box, 32, 32)[0].size
            expected += math.ceil(0.25 * cells)
        assert iy.size == expected

    def test_at_least_one_per_box(self):
        pred = blank_prediction()
        tiny = RotatedBox(10.5, 10.5, 1.2, 1.2, 0.0)
        iy, ix = sample_easy(pred, [tiny], 0.25, np.random.default_rng(1))
        assert iy.size >= 1

    def test_positions_inside_their_box(self):
        pred = blank_prediction()
        box = RotatedBox(16.0, 12.0, 10.0, 4.0, 0.9)
        iy, ix = sample_easy(pred, [box], 0.5, np.random.default_rng(2))
        c, s = math.cos(box.angle), math.sin(box.angle)
        for y, x in zip(iy, ix):
            dx, dy = x + 0.5 - box.cx, y + 0.5 - box.cy
            lx = dx * c + dy * s
            ly = -dx * s + dy * c
            assert abs(lx) <= box.w / 2 + 1e-9 and abs(ly) <= box.h / 2 + 1e-9

    def test_no_duplicate_positions(self):
        pred = blank_prediction()
        boxes = [
            RotatedBox(10.0, 10.0, 8.0, 6.0, 0.2),
            RotatedBox(13.0, 10.0, 8.0, 6.0, 0.2),  # overlaps the first
        ]
        iy, ix = sample_easy(pred, boxes, 1.0, np.random.default_rng(3))
        flat = iy * 32 + ix
        assert np.unique(flat).size == flat.size

    def test_overlap_attributed_to_earlier_box(self):
        # With ratio 1 every pool cell is taken; overlapping cells appear
        # once, attributed to the first (higher-score) box.
        pred = blank_prediction()
        a = RotatedBox(10.0, 10.0, 6.0, 6.0, 0.0)
        b = RotatedBox(12.0, 10.0, 6.0, 6.0, 0.0)
        iy, ix = sample_easy(pred, [a, b], 1.0, np.random.default_rng(4))
        union_cells = set()
        for box in (a, b):
            cy, cx = grid_cells_in_box(box, 32, 32)
            union_cells |= set(zip(cy.tolist(), cx.tolist()))
        assert set(zip(iy.tolist(), ix.tolist())) == union_cells

    def test_deterministic_for_seed(self):
        pred = blank_prediction()
        box = RotatedBox(16.0, 16.0, 12.0, 8.0, 0.4)
        a = sample_easy(pred, [box], 0.25, np.random.default_rng(5))
        b = sample_easy(pred, [box], 0.25, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestMineHard:
    def test_positions_above_threshold_only(self):
        pred = blank_prediction()
        pred.predicted_iou[5, 5] = 0.3
        pred.predicted_iou[6, 6] = 0.05
        iy, ix = mine_hard(pred, [], np.empty(0, int), np.empty(0, int), 0.1)
        assert list(zip(iy.tolist(), ix.tolist())) == [(5, 5)]

    def test_threshold_is_strict(self):
        pred = blank_prediction()
        pred.predicted_iou[5, 5] = 0.1
        iy, _ = mine_hard(pred, [], np.empty(0, int), np.empty(0, int), 0.1)
        assert iy.size == 0

    def test_excludes_kept_box_interior(self):
        pred = blank_prediction()
        box = RotatedBox(8.0, 8.0, 6.0, 6.0, 0.0)
        pred.predicted_iou[...] = 0.5
        iy, ix = mine_hard(pred, [box], np.empty(0, int), np.empty(0, int), 0.1)
        cells_y, cells_x = grid_cells_in_box(box, 32, 32)
        inside = set(zip(cells_y.tolist(), cells_x.tolist()))
        assert inside.isdisjoint(set(zip(iy.tolist(), ix.tolist())))
        assert iy.size == 32 * 32 - len(inside)

    def test_excludes_easy_positions(self):
        pred = blank_prediction()
        pred.predicted_iou[...] = 0.5
        easy_iy = np.array([3])
        easy_ix = np.array([4])
        iy, ix = mine_hard(pred, [], easy_iy, easy_ix, 0.1)
        assert (3, 4) not in set(zip(iy.tolist(), ix.tolist()))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pred = blank_prediction()
            pred.predicted_iou[...] = rng.random((32, 32))
            low = mine_hard(pred, [], np.empty(0, int), np.empty(0, int), 0.1)[0].size
            high = mine_hard(pred, [], np.empty(0, int), np.empty(0, int), 0.3)[0].size
            assert high <= low

    def test_max_hard_keeps_best(self):
        pred = blank_prediction()
        pred.predicted_iou[0, 0] = 0.9
        pred.predicted_iou[1, 1] = 0.5
        pred.predicted_iou[2, 2] = 0.7
        iy, ix = mine_hard(pred, [], np.empty(0, int), np.empty(0, int), 0.1, max_hard=2)
        got = set(zip(iy.tolist(), ix.tolist()))
        assert got == {(0, 0), (2, 2)}


class TestBuildPairs:
    def make_scene(self):
        teacher = blank_prediction()
        student = blank_prediction()
        box_a = RotatedBox(8.0, 8.0, 6.0, 4.0, 0.3)
        box_b = RotatedBox(24.0, 22.0, 8.0, 3.0, -0.6)
        paint_instance(teacher, box_a, cls=0, score=0.9)
        paint_instance(teacher, box_b, cls=2, score=0.7)
        teacher.predicted_iou[30, 2] = 0.4  # lone hard background cell
        student.class_scores[...] = teacher.class_scores * 0.8
        return teacher, student, (box_a, box_b)

    def test_counts_and_provenance(self):
        teacher, student, (box_a, box_b) = self.make_scene()
        pairs = build_pairs(teacher, student, SamplerConfig(), np.random.default_rng(0))
        expected_easy = 0
        for box in (box_a, box_b):
            cells = grid_cells_in_box(box, 32, 32)[0].size
            expected_easy += math.ceil(0.25 * cells)
        easy = pairs.provenance == PROVENANCE_EASY
        hard = pairs.provenance == PROVENANCE_HARD
        assert easy.sum() == expected_easy
        assert hard.sum() == 1
        assert (pairs.iy[hard].tolist(), pairs.ix[hard].tolist()) == ([30], [2])

    def test_pairing_is_positionwise(self):
        teacher, student, _ = self.make_scene()
        pairs = build_pairs(teacher, student, SamplerConfig(), np.random.default_rng(0))
        # Teacher items sit at the paired cells; the student side is read
        # from its raw outputs at the same cells by the losses.
        np.testing.assert_array_equal(pairs.teacher.score_rows, teacher.class_scores[pairs.iy, pairs.ix])
        np.testing.assert_array_equal(pairs.teacher.boxes, teacher.boxes[pairs.iy, pairs.ix])
        np.testing.assert_array_equal(pairs.teacher.centerness, teacher.centerness[pairs.iy, pairs.ix])

    def test_class_index_is_teacher_argmax(self):
        teacher, student, _ = self.make_scene()
        # Student disagrees everywhere; pairing class must follow teacher.
        student.class_scores[...] = 0.0
        student.class_scores[..., 1] = 0.99
        pairs = build_pairs(teacher, student, SamplerConfig(), np.random.default_rng(0))
        expected = np.argmax(teacher.class_scores[pairs.iy, pairs.ix], axis=1)
        assert np.array_equal(pairs.teacher.class_index, expected)

    def test_xy_centers(self):
        teacher, student, _ = self.make_scene()
        pairs = build_pairs(teacher, student, SamplerConfig(), np.random.default_rng(0))
        xy = pairs.xy()
        assert np.allclose(xy[:, 0], pairs.ix + 0.5)
        assert np.allclose(xy[:, 1], pairs.iy + 0.5)

    def test_grid_mismatch_rejected(self):
        teacher = blank_prediction(32, 32)
        student = blank_prediction(16, 16)
        with pytest.raises(ValueError):
            build_pairs(teacher, student, SamplerConfig(), np.random.default_rng(0))

    def test_empty_scene_gives_empty_set(self):
        teacher, student = blank_prediction(), blank_prediction()
        pairs = build_pairs(teacher, student, SamplerConfig(), np.random.default_rng(0))
        assert len(pairs) == 0

    def test_crowded_scene_yields_more_pairs(self):
        sparse_t, sparse_s, _ = self.make_scene()
        crowded_t, crowded_s = blank_prediction(), blank_prediction()
        for i, (cx, cy) in enumerate([(5, 5), (15, 5), (25, 5), (5, 16), (15, 16), (25, 16), (5, 27), (15, 27)]):
            paint_instance(crowded_t, RotatedBox(cx, cy, 6.0, 4.0, 0.1 * i), cls=i % 3, score=0.8)
        crowded_s.class_scores[...] = crowded_t.class_scores
        config = SamplerConfig()
        sparse_pairs = build_pairs(sparse_t, sparse_s, config, np.random.default_rng(0))
        crowded_pairs = build_pairs(crowded_t, crowded_s, config, np.random.default_rng(0))
        assert len(crowded_pairs) > len(sparse_pairs)


class TestTopkPairs:
    def test_topk_count(self):
        teacher = blank_prediction()
        student = blank_prediction()
        paint_instance(teacher, RotatedBox(16.0, 16.0, 10.0, 8.0, 0.0), cls=0, score=0.9)
        pairs = topk_pairs(teacher, student, k=5)
        assert len(pairs) == 5
        # All selected scores at least as high as any unselected one.
        max_scores = teacher.class_scores.max(axis=2)
        chosen = max_scores[pairs.iy, pairs.ix]
        mask = np.ones((32, 32), dtype=bool)
        mask[pairs.iy, pairs.ix] = False
        assert chosen.min() >= max_scores[mask].max()

    def test_floor_limits_take(self):
        teacher, student = blank_prediction(), blank_prediction()
        teacher.class_scores[4, 4, 0] = 0.6
        pairs = topk_pairs(teacher, student, k=50)
        assert len(pairs) == 1
