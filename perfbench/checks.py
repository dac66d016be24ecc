"""Output checks that the benchmark applies to every run.

Each check recomputes its answer apart from the code it checks: IoU
comes from an adaptive raster of square cells, AP from a 101-point interpolation
written here, transport optima from ``scipy.optimize.linprog``, and
gradients from central differences.  Nothing is imported from
``orientsemi.geometry`` or ``orientsemi.evaluation``.

Every check returns a list of problems, empty when the output passes,
so a run can report all of them at once and the tests can feed each
check a deliberately corrupted output.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# Raster cells start at COARSEST px and halve, where the boundary of the
# intersection runs through them, until the IoU bracket clears the
# threshold or the cells reach FINEST px.
COARSEST = 0.25
FINEST = 1.0 / 1024.0
# Largest gap allowed between the strict and the lenient mAP50; a wider
# gap would make the mAP50 check too loose to reject anything.
MAX_MAP_BRACKET = 0.03


def _local(px, py, box):
    cx, cy, w, h, angle = box
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = px - cx, py - cy
    return np.abs(dx * c + dy * s) - 0.5 * w, np.abs(-dx * s + dy * c) - 0.5 * h


def points_in_box(px, py, box, margin=0.0):
    """True where a point lies inside ``box`` shrunk by ``margin``
    (grown when ``margin`` is negative; growth uses the exact distance
    to the rectangle)."""
    over_u, over_v = _local(np.asarray(px, float), np.asarray(py, float), box)
    if margin >= 0.0:
        return (over_u <= -margin) & (over_v <= -margin)
    out_u, out_v = np.maximum(over_u, 0.0), np.maximum(over_v, 0.0)
    return out_u * out_u + out_v * out_v <= margin * margin


def _aabb(box):
    cx, cy, w, h, angle = box
    c, s = abs(math.cos(angle)), abs(math.sin(angle))
    ex, ey = 0.5 * (w * c + h * s), 0.5 * (w * s + h * c)
    return cx - ex, cy - ey, cx + ex, cy + ey


def raster_iou(a, b, threshold):
    """(lower, estimate, upper) IoU of two (cx, cy, w, h, angle) boxes.

    Square cells tile the overlap of the two bounding boxes.  A cell
    whose centre lies at least half a cell diagonal inside both boxes is
    wholly inside the intersection, and one whose centre lies farther
    than that from either box misses it; the cells in between are split
    in four and tested again.  The counts bound the intersection area
    and the box areas are exact, so the bracket is rigorous.  Refinement
    stops once the bracket lies on one side of ``threshold``.
    """
    ax0, ay0, ax1, ay1 = _aabb(a)
    bx0, by0, bx1, by1 = _aabb(b)
    x0, y0 = max(ax0, bx0), max(ay0, by0)
    x1, y1 = min(ax1, bx1), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return 0.0, 0.0, 0.0
    step = COARSEST
    xs = x0 + step * (np.arange(math.ceil((x1 - x0) / step)) + 0.5)
    ys = y0 + step * (np.arange(math.ceil((y1 - y0) / step)) + 0.5)
    px, py = (g.ravel() for g in np.meshgrid(xs, ys))
    union = a[2] * a[3] + b[2] * b[3]

    def iou(area):
        return min(area / (union - area), 1.0)

    inside = 0.0
    while True:
        r = step * math.sqrt(0.5)
        deep = points_in_box(px, py, a, r) & points_in_box(px, py, b, r)
        near = points_in_box(px, py, a, -r) & points_in_box(px, py, b, -r)
        inside += step * step * np.count_nonzero(deep)
        px, py = px[near & ~deep], py[near & ~deep]
        lower, upper = iou(inside), iou(inside + step * step * px.size)
        if not lower < threshold < upper or step <= FINEST:
            hit = np.count_nonzero(points_in_box(px, py, a) & points_in_box(px, py, b))
            return lower, iou(inside + step * step * hit), upper
        step *= 0.5
        q = 0.5 * step
        px = np.concatenate([px - q, px + q, px - q, px + q])
        py = np.concatenate([py - q, py - q, py + q, py + q])


def ap101(matched, n_gt):
    """101-point interpolated AP of a score-ordered match vector."""
    matched = np.asarray(matched, dtype=bool)
    if matched.size == 0:
        return 0.0
    tp = np.cumsum(matched)
    precision = tp / np.arange(1, matched.size + 1)
    recall = tp / n_gt
    total = 0.0
    for level in np.linspace(0.0, 1.0, 101):
        reached = recall >= level - 1e-12
        total += float(precision[reached].max()) if reached.any() else 0.0
    return total / 101.0


def independent_map50(detections, ground_truth, threshold=0.5):
    """mAP at one IoU threshold under three readings of the raster IoU.

    ``detections`` is one ``(boxes (D, 5), scores (D,), classes (D,))``
    tuple per scene and ``ground_truth`` one ``(boxes (G, 5), classes
    (G,))`` tuple per scene.  Returns ``{"strict", "estimate",
    "lenient"}``: a pair is eligible when the lower bound, the estimate,
    or the upper bound of its IoU reaches the threshold.  Greedy matching
    follows the usual protocol: by descending score, each detection takes
    the free ground-truth box of its class with the highest IoU.
    """
    classes = sorted({int(c) for _, gcls in ground_truth for c in gcls})
    bounds_of: dict = {}
    result = {}
    for slot, name in enumerate(("strict", "estimate", "lenient")):
        aps = []
        for k in classes:
            order = []
            for si, (boxes, scores, dcls) in enumerate(detections):
                for di in np.nonzero(np.asarray(dcls) == k)[0]:
                    order.append((-float(scores[di]), si, int(di)))
            order.sort()
            taken = {si: np.zeros(len(g), bool) for si, (g, _) in enumerate(ground_truth)}
            matched = []
            for _, si, di in order:
                gboxes, gcls = ground_truth[si]
                best, best_iou = -1, -1.0
                for gi in np.nonzero(np.asarray(gcls) == k)[0]:
                    if taken[si][gi]:
                        continue
                    key = (si, di, int(gi))
                    if key not in bounds_of:
                        bounds_of[key] = raster_iou(detections[si][0][di], gboxes[gi], threshold)
                    bounds = bounds_of[key]
                    if bounds[slot] >= threshold and bounds[1] > best_iou:
                        best, best_iou = gi, bounds[1]
                if best >= 0:
                    taken[si][best] = True
                matched.append(best >= 0)
            n_gt = sum(int(np.count_nonzero(np.asarray(g) == k)) for _, g in ground_truth)
            aps.append(ap101(matched, n_gt))
        result[name] = float(np.mean(aps)) if aps else 0.0
    return result


def check_map50(reported, bracket):
    """The reported mAP50 must lie between the strict and the lenient
    raster readings, and those must be close enough to mean something."""
    lo = min(bracket.values())
    hi = max(bracket.values())
    problems = []
    if hi - lo > MAX_MAP_BRACKET:
        problems.append(f"raster mAP50 bracket [{lo:.4f}, {hi:.4f}] is wider than {MAX_MAP_BRACKET}")
    if not lo - 1e-9 <= reported <= hi + 1e-9:
        problems.append(f"mAP50 {reported:.6f} outside the raster bracket [{lo:.6f}, {hi:.6f}]")
    return problems


def check_metrics_lines(lines, total_iters, schema):
    """One schema-valid record with finite numbers per iteration, in order.
    Returns ``(problems, bad_iterations)``."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(schema)
    problems = []
    bad = 0
    if len(lines) != total_iters:
        problems.append(f"metrics.jsonl has {len(lines)} records, expected {total_iters}")
        bad += abs(total_iters - len(lines))
    for i, line in enumerate(lines[:total_iters]):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"record {i} is not JSON: {exc}")
            bad += 1
            continue
        errors = [e.message for e in validator.iter_errors(record)]
        if record.get("iter") != i:
            errors.append(f"iter is {record.get('iter')!r}")
        if any(isinstance(v, float) and not math.isfinite(v) for v in record.values()):
            errors.append("non-finite value")
        if errors:
            problems.append(f"record {i}: {'; '.join(errors[:3])}")
            bad += 1
    return problems[:10], bad


def check_checkpoint(iteration, weights, total_iters, final_weights):
    """The reloaded checkpoint sits at the last iteration with the final
    student weights."""
    if iteration != total_iters or not np.array_equal(weights, final_weights):
        return [f"checkpoint reloads at iteration {iteration}, expected {total_iters} with the final weights"]
    return []


def check_scoring(reports, untrained_map50):
    """Repeated scoring passes of one model agree, and the trained
    student beats the untrained weights."""
    problems = []
    if any(r["map50"] != reports[0]["map50"] or r["map50_95"] != reports[0]["map50_95"] for r in reports):
        problems.append("repeated scoring passes of one model disagree")
    if not reports[0]["map50"] > untrained_map50:
        problems.append(f"trained mAP50 {reports[0]['map50']:.4f} does not beat the untrained {untrained_map50:.4f}")
    return problems


def check_same_bytes(untraced, traced):
    """Tracing must not change what a run writes."""
    if untraced != traced:
        return ["metrics.jsonl differs between the untraced and the traced run"]
    return []


def lp_optimum(cost, source, target):
    """Unregularised transport optimum by linear programming."""
    n, m = cost.shape
    rows = sparse.kron(sparse.eye(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m))
    result = linprog(
        cost.ravel(),
        A_eq=sparse.vstack([rows, cols]).tocsr(),
        b_eq=np.concatenate([source, target]),
        bounds=(0, None),
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"linprog failed: {result.message}")
    return float(result.fun)


def check_transport(plan, cost_value, cost, teacher_mass, student_mass, epsilon, tolerance):
    """Plan marginals against masses normalised here, and the plan's cost
    between the LP optimum and that optimum plus epsilon * log(n * m)."""
    source = teacher_mass / teacher_mass.sum()
    target = student_mass / student_mass.sum()
    row_err = np.abs(plan.sum(axis=1) - source)
    col_err = np.abs(plan.sum(axis=0) - target)
    problems = []
    if max(row_err.max(), col_err.max()) > tolerance:
        problems.append(
            f"plan marginals off by {max(row_err.max(), col_err.max()):.2e} (tolerance {tolerance:.0e})"
        )
    own_cost = float(np.sum(cost * plan))
    if abs(own_cost - cost_value) > 1e-9 * max(1.0, abs(own_cost)):
        problems.append(f"reported cost {cost_value!r} differs from <C, P> = {own_cost!r}")
    n, m = cost.shape
    optimum = lp_optimum(cost, source, target)
    # A plan whose marginals are off by delta can undercut the optimum by
    # at most max(C) * |delta|_1.
    slack = float(cost.max()) * float(row_err.sum() + col_err.sum()) + 1e-12
    upper = optimum + epsilon * math.log(n * m)
    if not optimum - slack <= cost_value <= upper + slack:
        problems.append(f"transport cost {cost_value:.6f} outside [{optimum:.6f}, {upper:.6f}]")
    return problems


def check_gradient(loss_at, point, grad, coords, step=1e-4, rtol=1e-3):
    """Analytic gradient against central differences on ``coords``."""
    numeric = []
    for i in coords:
        bumped = np.array(point, dtype=float)
        bumped[i] += step
        hi = loss_at(bumped)
        bumped[i] -= 2.0 * step
        numeric.append((hi - loss_at(bumped)) / (2.0 * step))
    numeric = np.array(numeric)
    analytic = np.asarray(grad, dtype=float)[list(coords)]
    scale = max(float(np.abs(numeric).max()), 1e-12)
    error = float(np.abs(analytic - numeric).max()) / scale
    if error > rtol:
        return [f"gradient differs from central differences by {error:.2e} (relative, limit {rtol:.0e})"]
    return []


def check_pairs(kept, iy, ix, provenance, nms_iou, sample_ratio, height, width, max_hard=None):
    """Sampler output against its definition.

    ``kept`` holds the NMS survivors as (K, 5) rows in descending score
    order.  Survivors overlap pairwise at most ``nms_iou``; easy
    positions (provenance 0) lie inside a kept box and hard ones
    (provenance 1) outside all of them; no position repeats; and each
    kept box contributes ceil(sample_ratio * pool) easy positions, where
    its pool is its cells that no earlier kept box covers.
    """
    kept = np.asarray(kept, dtype=float).reshape(-1, 5)
    iy, ix, provenance = (np.asarray(a) for a in (iy, ix, provenance))
    problems = []
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            lower = raster_iou(kept[i], kept[j], nms_iou)[0]
            if lower > nms_iou:
                problems.append(f"kept boxes {i} and {j} overlap at IoU >= {lower:.3f} > {nms_iou}")
    flat = iy.astype(np.int64) * width + ix.astype(np.int64)
    if np.unique(flat).size != flat.size:
        problems.append(f"{flat.size - np.unique(flat).size} positions repeat")
    if not np.all(np.isin(provenance, (0, 1))):
        problems.append("provenance outside {0, 1}")
    easy, hard = provenance == 0, provenance == 1
    if max_hard is not None and np.count_nonzero(hard) > max_hard:
        problems.append(f"{np.count_nonzero(hard)} hard positions, cap {max_hard}")

    cy, cx = np.divmod(np.arange(height * width), width)
    cx, cy = cx + 0.5, cy + 0.5
    owner = np.full(height * width, -1)
    expected = np.zeros(len(kept), dtype=np.int64)
    for b, box in enumerate(kept):
        pool = points_in_box(cx, cy, box, -1e-9) & (owner < 0)
        owner[pool] = b
        expected[b] = math.ceil(sample_ratio * np.count_nonzero(pool))
    px, py = ix + 0.5, iy + 0.5
    inside_any = np.zeros(flat.size, dtype=bool)
    deep_any = np.zeros(flat.size, dtype=bool)
    for box in kept:
        inside_any |= points_in_box(px, py, box, -1e-9)
        deep_any |= points_in_box(px, py, box, 1e-9)
    if np.any(easy & ~inside_any):
        problems.append(f"{np.count_nonzero(easy & ~inside_any)} easy positions outside every kept box")
    if np.any(hard & deep_any):
        problems.append(f"{np.count_nonzero(hard & deep_any)} hard positions inside a kept box")
    got = np.bincount(owner[flat[easy & inside_any]], minlength=len(kept)) if len(kept) else expected
    wrong = np.nonzero(got != expected)[0]
    if wrong.size:
        b = int(wrong[0])
        problems.append(
            f"{wrong.size} kept boxes with the wrong easy count (box {b}: {got[b]}, expected {expected[b]})"
        )
    return problems
