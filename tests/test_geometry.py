import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientsemi import geometry
from orientsemi.detector import decode_angle
from orientsemi.geometry import (
    MIN_INTERSECTION_AREA,
    RotatedBox,
    grid_cells_in_box,
    intersection_area,
    iou_rotation_curve,
    normalize_angle,
    normalize_angles,
    rotated_iou,
    rotated_iou_pairs,
    rotated_nms,
)

from tests import _oracles
from tests._oracles import mc_iou, object_list_nms, random_box_pair

HALF_PI = math.pi / 2


finite_angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)

boxes = st.builds(
    RotatedBox,
    cx=st.floats(-20.0, 20.0),
    cy=st.floats(-20.0, 20.0),
    w=st.floats(0.1, 30.0),
    h=st.floats(0.1, 30.0),
    angle=st.floats(-math.pi, math.pi),
)


class TestNormalizeAngle:
    @given(finite_angles)
    def test_range(self, angle):
        wrapped = normalize_angle(angle)
        assert -HALF_PI <= wrapped < HALF_PI

    @given(finite_angles)
    def test_idempotent(self, angle):
        once = normalize_angle(angle)
        assert normalize_angle(once) == once

    @given(st.floats(-HALF_PI, HALF_PI, exclude_max=True), st.integers(-3, 3))
    def test_period_pi(self, angle, k):
        # Compare on the period-pi circle: adding k*pi and rounding can
        # push a value sitting at the branch cut to the other end.
        wrapped = normalize_angle(angle + k * math.pi)
        diff = abs(wrapped - angle)
        assert min(diff, math.pi - diff) < 1e-9

    def test_examples(self):
        assert normalize_angle(3 * math.pi / 4) == pytest.approx(-math.pi / 4)
        assert normalize_angle(HALF_PI) == -HALF_PI
        assert normalize_angle(-HALF_PI) == -HALF_PI
        assert normalize_angle(0.0) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_angle(float("nan"))
        with pytest.raises(ValueError):
            normalize_angle(float("inf"))


class TestRotatedBox:
    def test_rejects_bad_sides(self):
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 1, -2, 0)

    def test_angle_normalized_on_construction(self):
        box = RotatedBox(0, 0, 2, 1, math.pi)
        assert box.angle == 0.0

    def test_aspect(self):
        assert RotatedBox(0, 0, 4, 1, 0).aspect == 4.0
        assert RotatedBox(0, 0, 1, 4, 0).aspect == 4.0

    @given(boxes)
    def test_corners_shoelace_matches_area(self, box):
        pts = box.corners()
        x, y = pts[:, 0], pts[:, 1]
        signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert signed == pytest.approx(box.area, rel=1e-9)

    @given(boxes)
    def test_aabb_contains_corners(self, box):
        x0, y0, x1, y1 = box.aabb()
        pts = box.corners()
        assert np.all(pts[:, 0] >= x0 - 1e-9) and np.all(pts[:, 0] <= x1 + 1e-9)
        assert np.all(pts[:, 1] >= y0 - 1e-9) and np.all(pts[:, 1] <= y1 + 1e-9)


class TestRotatedIou:
    def test_unit_square_rotated_45deg(self):
        # Octagonal overlap; the closed form reduces to 1/sqrt(2).
        a = RotatedBox(0, 0, 1, 1, 0)
        b = RotatedBox(0, 0, 1, 1, math.pi / 4)
        assert rotated_iou(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_axis_aligned_half_shift(self):
        # 2x1 boxes shifted by 0.5 along the long edge: 1.5 / 2.5.
        a = RotatedBox(0, 0, 2, 1, 0)
        b = RotatedBox(0.5, 0, 2, 1, 0)
        assert rotated_iou(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_identical_boxes_give_exactly_one(self):
        box = RotatedBox(3.7, -1.2, 5.0, 2.0, 0.3)
        assert rotated_iou(box, box) == 1.0

    def test_contained_box(self):
        outer = RotatedBox(0, 0, 10, 10, 0.2)
        inner = RotatedBox(0, 0, 2, 1, 0.2)
        assert rotated_iou(outer, inner) == pytest.approx(2.0 / 100.0, rel=1e-12)

    def test_touching_boxes_are_disjoint(self):
        a = RotatedBox(0, 0, 2, 2, 0)
        b = RotatedBox(2, 0, 2, 2, 0)
        assert rotated_iou(a, b) == 0.0

    def test_far_apart(self):
        a = RotatedBox(0, 0, 2, 1, 0.4)
        b = RotatedBox(100, 100, 2, 1, -0.4)
        assert rotated_iou(a, b) == 0.0

    @given(boxes, boxes)
    @settings(max_examples=200)
    def test_symmetric_bitwise(self, a, b):
        assert rotated_iou(a, b) == rotated_iou(b, a)

    @given(boxes, boxes)
    @settings(max_examples=200)
    def test_bounds(self, a, b):
        iou = rotated_iou(a, b)
        assert 0.0 <= iou <= 1.0

    @given(boxes)
    def test_self_iou_is_one(self, box):
        assert rotated_iou(box, box) == 1.0

    @given(boxes, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    @settings(max_examples=100)
    def test_translation_invariant(self, box, tx, ty):
        other = RotatedBox(box.cx + 1.0, box.cy + 0.5, box.w, box.h, box.angle + 0.3)
        moved_a = RotatedBox(box.cx + tx, box.cy + ty, box.w, box.h, box.angle)
        moved_b = RotatedBox(other.cx + tx, other.cy + ty, other.w, other.h, other.angle)
        assert rotated_iou(moved_a, moved_b) == pytest.approx(rotated_iou(box, other), abs=1e-9)

    def test_matches_monte_carlo_sample(self, mc_pool):
        # Smoke-scale version of the full 200-pair acceptance sweep.
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = random_box_pair(rng)
            assert rotated_iou(a, b) == pytest.approx(mc_iou(a, b, mc_pool), abs=3e-3)


class TestIntersectionArea:
    def test_quarter_overlap(self):
        a = RotatedBox(0, 0, 2, 2, 0)
        b = RotatedBox(1, 1, 2, 2, 0)
        assert intersection_area(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_sliver_floors_to_zero(self):
        a = RotatedBox(0, 0, 1, 1, 0)
        b = RotatedBox(1.0 - 1e-14, 0, 1, 1, 0)
        assert intersection_area(a, b) == 0.0


class TestRotationCurve:
    def test_monotone_on_first_octant(self):
        angles = np.linspace(0.0, math.pi / 4, 46)
        for aspect in (1.0, 2.0, 4.0, 8.0):
            curve = iou_rotation_curve(aspect, angles)
            assert curve[0] == 1.0
            assert np.all(np.diff(curve) <= 1e-12)

    def test_ordered_by_aspect(self):
        curves = [iou_rotation_curve(a, [0.1])[0] for a in (1.0, 2.0, 4.0, 8.0)]
        assert curves[0] > curves[1] > curves[2] > curves[3]

    def test_rejects_aspect_below_one(self):
        with pytest.raises(ValueError):
            iou_rotation_curve(0.5, [0.1])


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def scalar_ious(a_boxes, b_boxes) -> np.ndarray:
    return np.array([rotated_iou(a, b) for a, b in zip(a_boxes, b_boxes)], dtype=np.float64)


class TestNormalizeAngles:
    @given(st.lists(st.one_of(finite_angles, st.sampled_from([HALF_PI, -HALF_PI, math.pi, -math.pi, 0.0, -0.0]))))
    def test_matches_scalar_bitwise(self, angles):
        expected = np.array([normalize_angle(a) for a in angles], dtype=np.float64)
        assert same_bits(normalize_angles(np.array(angles, dtype=np.float64)), expected)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_angles(np.array([0.0, np.nan]))


def lattice_box(cx, cy, w, h, angle) -> RotatedBox:
    return RotatedBox(cx / 2, cy / 2, w, h, angle)


# Boxes on a coarse lattice, so pairs hold identical, touching, nested and
# half-turn copies; plus arbitrary boxes with aspects down to 1e-4.
lattice_boxes = st.builds(
    lattice_box,
    st.integers(0, 6),
    st.integers(0, 6),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([0.0, HALF_PI, -HALF_PI, math.pi / 4, math.pi, 3.0]),
)
thin_boxes = st.builds(
    RotatedBox,
    cx=st.floats(-2.0, 2.0),
    cy=st.floats(-2.0, 2.0),
    w=st.floats(1e-4, 1e-3),
    h=st.floats(1.0, 4.0),
    angle=st.floats(-math.pi, math.pi),
)
pair_boxes = st.one_of(lattice_boxes, boxes, thin_boxes)


class TestRotatedIouPairs:
    """``rotated_iou_pairs`` equals the scalar ``rotated_iou`` bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(pair_boxes, pair_boxes), max_size=12))
    def test_matches_scalar_bitwise(self, pairs):
        a_boxes = [a for a, _ in pairs]
        b_boxes = [b for _, b in pairs]
        a, b = as_rows(a_boxes), as_rows(b_boxes)
        assert same_bits(rotated_iou_pairs(a, b), scalar_ious(a_boxes, b_boxes))
        assert same_bits(rotated_iou_pairs(b, a), scalar_ious(b_boxes, a_boxes))

    def test_random_pairs_bitwise(self):
        rng = np.random.default_rng(5)
        pairs = [random_box_pair(rng) for _ in range(3000)]
        a_boxes = [a for a, _ in pairs]
        b_boxes = [b for _, b in pairs]
        expected = scalar_ious(a_boxes, b_boxes)
        assert np.count_nonzero(expected) > 1500
        assert same_bits(rotated_iou_pairs(as_rows(a_boxes), as_rows(b_boxes)), expected)

    def test_special_pairs(self):
        box = RotatedBox(1.0, 2.0, 4.0, 1.5, 0.3)
        half_turn = RotatedBox(1.0, 2.0, 4.0, 1.5, 0.3 + math.pi)
        pairs = [
            (box, box),
            (box, half_turn),
            (RotatedBox(0, 0, 1, 1, 0), RotatedBox(1, 0, 1, 1, 0)),  # touching
            (RotatedBox(0, 0, 4, 4, 0.2), RotatedBox(0.1, 0, 1, 1, 0.7)),  # nested
            (RotatedBox(0, 0, 1, 1, 0), RotatedBox(1.0 - 1e-14, 0, 1, 1, 0)),  # sliver
            (RotatedBox(0, 0, 1e-4, 3.0, 0.0), RotatedBox(0, 0, 1e-4, 3.0, 1e-3)),
            (RotatedBox(0, 0, 2, 1, HALF_PI), RotatedBox(0, 0, 2, 1, -HALF_PI)),
            (RotatedBox(0, 0, 2, 1, 0.0), RotatedBox(50, 0, 2, 1, 0.0)),
        ]
        a_boxes = [a for a, _ in pairs]
        b_boxes = [b for _, b in pairs]
        expected = scalar_ious(a_boxes, b_boxes)
        got = rotated_iou_pairs(as_rows(a_boxes), as_rows(b_boxes))
        assert same_bits(got, expected)
        # A half-turn copy re-normalises to within an ulp of the angle.
        assert got[0] == got[6] == 1.0 and got[1] == pytest.approx(1.0)
        assert got[2] == got[4] == got[7] == 0.0
        assert got[3] == pytest.approx(1.0 / 16.0)

    def test_sliver_below_floor_is_zero(self):
        a = RotatedBox(0, 0, 1, 1, 0)
        b = RotatedBox(1.0 - 1e-13, 0, 1, 1, 0)
        assert 0.0 < 1e-13 < MIN_INTERSECTION_AREA
        assert rotated_iou_pairs(as_rows([a]), as_rows([b]))[0] == rotated_iou(a, b) == 0.0

    def test_empty(self):
        out = rotated_iou_pairs(np.empty((0, 5)), np.empty((0, 5)))
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("shapes", [((2, 5), (3, 5)), ((2, 4), (2, 4)), ((5,), (5,))])
    def test_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(ValueError, match="rows"):
            rotated_iou_pairs(np.zeros(shapes[0]), np.zeros(shapes[1]))


def as_rows(boxes_in) -> np.ndarray:
    return np.array([box.as_array() for box in boxes_in]).reshape(-1, 5)


# Rows on a coarse lattice, so draws hold identical, touching and nested
# boxes; angles include the ends of the range, values outside it, and
# arbitrary floats whose re-normalisation moves their last bits.
nms_rows = st.lists(
    st.tuples(
        st.integers(0, 8).map(lambda v: v / 2),
        st.integers(0, 8).map(lambda v: v / 2),
        st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0]),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        st.one_of(
            st.sampled_from([0.0, HALF_PI, -HALF_PI, math.pi / 4, 0.1, 3.0]),
            st.floats(-math.pi, math.pi),
        ),
    ),
    max_size=14,
)


def decoded_rows(rng: np.random.Generator, n: int, extent: float = 24.0) -> np.ndarray:
    """Rows as ``decode_dense`` writes them: angles from ``decode_angle``,
    many of which ``RotatedBox`` re-normalises in their last bits."""
    rows = np.empty((n, 5))
    rows[:, :2] = rng.uniform(0.0, extent, (n, 2))
    rows[:, 2:4] = np.exp(rng.uniform(0.0, 2.0, (n, 2)))
    rows[:, 4] = decode_angle(rng.standard_normal(n), rng.standard_normal(n))
    return rows


class TestRotatedNms:
    def test_keeps_all_disjoint(self):
        boxes_in = [RotatedBox(10 * i, 0, 2, 1, 0.1 * i) for i in range(4)]
        scores = [0.9, 0.8, 0.7, 0.6]
        assert rotated_nms(as_rows(boxes_in), scores) == [0, 1, 2, 3]

    def test_suppresses_overlap(self):
        a = RotatedBox(0, 0, 4, 2, 0.0)
        b = RotatedBox(0.5, 0, 4, 2, 0.05)
        c = RotatedBox(20, 0, 4, 2, 0.0)
        kept = rotated_nms(as_rows([a, b, c]), [0.5, 0.9, 0.7])
        assert kept == [1, 2]

    def test_descending_score_order(self):
        boxes_in = [RotatedBox(10 * i, 0, 2, 1, 0) for i in range(4)]
        scores = [0.2, 0.9, 0.5, 0.7]
        assert rotated_nms(as_rows(boxes_in), scores) == [1, 3, 2, 0]

    def test_score_tie_prefers_lower_index(self):
        a = RotatedBox(0, 0, 4, 2, 0.0)
        b = RotatedBox(0.1, 0, 4, 2, 0.0)
        assert rotated_nms(as_rows([a, b]), [0.5, 0.5]) == [0]
        assert rotated_nms(as_rows([b, a]), [0.5, 0.5]) == [0]

    def test_threshold_boundary_is_strict(self):
        # IoU exactly at the threshold is kept; suppression needs IoU > thr.
        a = RotatedBox(0, 0, 2, 1, 0)
        b = RotatedBox(1.0, 0, 2, 1, 0)  # IoU = 1/3 with a
        kept = rotated_nms(as_rows([a, b]), [0.9, 0.8], iou_threshold=1.0 / 3.0)
        assert kept == [0, 1]
        kept = rotated_nms(as_rows([a, b]), [0.9, 0.8], iou_threshold=0.33)
        assert kept == [0]

    def test_empty(self):
        assert rotated_nms(np.empty((0, 5)), []) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rotated_nms(as_rows([RotatedBox(0, 0, 1, 1, 0)]), [0.5, 0.6])

    @pytest.mark.parametrize("rows", [np.zeros(5), np.zeros((2, 4))])
    def test_rejects_shapes_other_than_rows(self, rows):
        with pytest.raises(ValueError, match="rows"):
            rotated_nms(rows, [0.5] * len(rows))

    @pytest.mark.parametrize("bad", [(0, np.nan), (2, 0.0), (3, -1.0), (4, np.inf)])
    def test_rejects_invalid_rows(self, bad):
        rows = as_rows([RotatedBox(0, 0, 2, 1, 0), RotatedBox(5, 0, 2, 1, 0)])
        rows[1, bad[0]] = bad[1]
        with pytest.raises(ValueError):
            rotated_nms(rows, [0.9, 0.8])

    @settings(max_examples=300, deadline=None)
    @given(
        nms_rows,
        st.data(),
        st.sampled_from([0.0, 0.1, 1.0 / 3.0, 1.0]),
    )
    def test_matches_object_list_oracle(self, rows, data, threshold):
        scores = data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]), min_size=len(rows), max_size=len(rows)))
        max_keep = data.draw(st.one_of(st.none(), st.integers(1, len(rows) + 1)))
        rows = np.array(rows, dtype=float).reshape(-1, 5)
        expected = object_list_nms([RotatedBox(*row) for row in rows], scores, threshold, max_keep)
        assert rotated_nms(rows, scores, threshold, max_keep) == expected

    def test_prefilter_admits_every_pair_the_exact_bounds_admit(self, monkeypatch):
        # Each pair is a decoded box and an axis-aligned box whose exact
        # left edge lies an ulp inside the first one's exact right edge.
        # Bounds taken from the raw decoded angle can lie an ulp inside
        # the box's exact bounds, so NMS must take them from the angle
        # re-normalised as ``RotatedBox`` holds it.  The oracle records the
        # pairs it clips, NMS the pairs its batched kernel receives.
        rng = np.random.default_rng(3)
        rows = []
        for k in range(300):
            a = [10.0, 40.0 * k, *np.exp(rng.uniform(0.0, 2.0, 2)), float(decode_angle(*rng.standard_normal(2)))]
            right = RotatedBox(*a).aabb()[2]
            cx = right + 1.0
            while RotatedBox(cx, a[1], 2.0, 2.0, 0.0).aabb()[0] >= right:
                cx = math.nextafter(cx, -math.inf)
            rows += [a, [cx, a[1], 2.0, 2.0, 0.0]]
        rows = np.array(rows)
        scores = np.tile([0.9, 0.5], 300)
        clipped = {"oracle": set(), "rows": set()}

        def record_oracle(a, b):
            clipped["oracle"].add((a, b))
            return rotated_iou(a, b)

        def record_rows(a, b):
            clipped["rows"].update((RotatedBox(*p), RotatedBox(*q)) for p, q in zip(a.tolist(), b.tolist()))
            return rotated_iou_pairs(a, b)

        monkeypatch.setattr(_oracles, "rotated_iou", record_oracle)
        monkeypatch.setattr(geometry, "rotated_iou_pairs", record_rows)
        expected = object_list_nms([RotatedBox(*row) for row in rows], scores, 0.0)
        assert rotated_nms(rows, scores, 0.0) == expected == list(range(0, 600, 2)) + list(range(1, 600, 2))
        assert len(clipped["oracle"]) == 300 and clipped["oracle"] <= clipped["rows"]

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0 / 3.0])
    def test_max_keep_on_decoded_rows_with_tied_scores(self, threshold):
        rows = decoded_rows(np.random.default_rng(9), 160)
        scores = np.random.default_rng(10).choice([0.5, 0.9], len(rows))
        boxes_in = [RotatedBox(*row) for row in rows]
        full = object_list_nms(boxes_in, scores, threshold)
        assert len(full) > 3
        for max_keep in (1, 2, len(full) // 2, len(full) - 1, len(full), len(full) + 5):
            assert rotated_nms(rows, scores, threshold, max_keep) == full[:max_keep]

    def test_max_keep_binds_partway_through_a_round(self, monkeypatch):
        # Five disjoint boxes all keep in the first round; a sixth, last
        # in rank, overlaps the best one and waits for it.  max_keep=3
        # binds inside that first round, before any pair is clipped.
        boxes_in = [RotatedBox(10.0 * k, 0.0, 2.0, 1.0, 0.1) for k in range(5)]
        boxes_in.append(RotatedBox(0.2, 0.0, 2.0, 1.0, 0.1))
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        calls = []

        def record(a, b):
            calls.append(len(a))
            return rotated_iou_pairs(a, b)

        monkeypatch.setattr(geometry, "rotated_iou_pairs", record)
        assert rotated_nms(as_rows(boxes_in), scores, 0.1, 3) == [0, 1, 2]
        assert calls == []
        assert rotated_nms(as_rows(boxes_in), scores, 0.1) == [0, 1, 2, 3, 4]
        assert calls == [1]

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0 / 3.0, 1.0])
    def test_matches_object_list_oracle_on_decoded_rows(self, threshold):
        # Decoded angles are re-normalised by RotatedBox, which changes the
        # last bits of many of them; the row bounds must still admit every
        # pair that the boxes' exact bounds admit.
        rng = np.random.default_rng(7)
        rows = decoded_rows(rng, 400)
        renormalised = sum(RotatedBox(*row).angle != row[4] for row in rows)
        assert renormalised > 0
        scores = rng.choice([0.3, 0.6, 0.9], len(rows))
        expected = object_list_nms([RotatedBox(*row) for row in rows], scores, threshold)
        assert rotated_nms(rows, scores, threshold) == expected


class TestGridCells:
    def test_axis_aligned_counts(self):
        box = RotatedBox(8.0, 8.0, 4.0, 2.0, 0.0)
        iy, ix = grid_cells_in_box(box, 16, 16)
        # Cell centers x in {6.5, 7.5, 8.5, 9.5}, y in {7.5, 8.5}.
        assert len(iy) == 8
        assert set(ix.tolist()) == {6, 7, 8, 9}
        assert set(iy.tolist()) == {7, 8}

    def test_rotated_box_matches_bruteforce(self):
        box = RotatedBox(10.0, 9.0, 9.0, 3.0, 0.7)
        iy, ix = grid_cells_in_box(box, 24, 24)
        got = set(zip(iy.tolist(), ix.tolist()))
        expected = set()
        corners = box.corners()
        for gy in range(24):
            for gx in range(24):
                px, py = gx + 0.5, gy + 0.5
                dx, dy = px - box.cx, py - box.cy
                c, s = math.cos(box.angle), math.sin(box.angle)
                lx = dx * c + dy * s
                ly = -dx * s + dy * c
                if abs(lx) <= box.w / 2 and abs(ly) <= box.h / 2:
                    expected.add((gy, gx))
        assert got == expected
        assert corners.shape == (4, 2)

    def test_off_canvas_clipped(self):
        box = RotatedBox(-5.0, -5.0, 2.0, 2.0, 0.3)
        iy, ix = grid_cells_in_box(box, 16, 16)
        assert len(iy) == 0


def benchmark_pairs(m: int) -> tuple[np.ndarray, np.ndarray, list, list]:
    rng = np.random.default_rng(m)
    pairs = [random_box_pair(rng) for _ in range(m)]
    a_boxes = [a for a, _ in pairs]
    b_boxes = [b for _, b in pairs]
    return as_rows(a_boxes), as_rows(b_boxes), a_boxes, b_boxes


class TestKernelBenchmarks:
    """Timings of the batched IoU against the scalar loop it replaces, at
    the median batch of an evaluation NMS round (about 45 pairs once
    bounds are tested) and at 2,000 pairs; and of NMS on about 220
    decoded rows, the median evaluation call.  Short, so tier-1 barely
    grows."""

    @pytest.mark.parametrize("m", [45, 2000])
    def test_rotated_iou_pairs(self, benchmark, m):
        a, b, a_boxes, b_boxes = benchmark_pairs(m)
        out = benchmark.pedantic(rotated_iou_pairs, args=(a, b), rounds=max(10, 4000 // m), warmup_rounds=1)
        assert same_bits(out, scalar_ious(a_boxes, b_boxes))

    @pytest.mark.parametrize("m", [45, 2000])
    def test_scalar_loop(self, benchmark, m):
        _, _, a_boxes, b_boxes = benchmark_pairs(m)
        out = benchmark.pedantic(scalar_ious, args=(a_boxes, b_boxes), rounds=max(5, 1000 // m), warmup_rounds=1)
        assert out.shape == (m,)

    def test_rotated_nms_220_decoded_rows(self, benchmark):
        rng = np.random.default_rng(220)
        rows = decoded_rows(rng, 220, extent=48.0)
        scores = rng.random(220)
        kept = benchmark.pedantic(rotated_nms, args=(rows, scores, 0.1), rounds=30, warmup_rounds=1)
        assert kept == object_list_nms([RotatedBox(*row) for row in rows], scores, 0.1)
