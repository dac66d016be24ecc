"""Each output check passes the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import checks  # noqa: E402
from orientsemi.config import RunConfig  # noqa: E402
from orientsemi.evaluation import Detection, evaluate_map  # noqa: E402
from orientsemi.geometry import RotatedBox, rotated_iou  # noqa: E402
from orientsemi.sampling import DensePrediction, SamplerConfig, build_pairs, candidate_detections  # noqa: E402
from orientsemi.scenes import InMemoryScenes, SceneConfig, generate_dataset  # noqa: E402
from orientsemi.training import run_training  # noqa: E402
from orientsemi.transport import gc_loss  # noqa: E402

SCHEMA = json.loads((HERE.parent.parent / "src" / "orientsemi" / "schemas" / "metrics.schema.json").read_text())


def random_box(rng, around=None):
    if around is None:
        return np.array([rng.uniform(8, 24), rng.uniform(8, 24), rng.uniform(1, 16), rng.uniform(0.6, 6),
                         rng.uniform(-1.5, 1.5)])
    box = around + np.array([*rng.normal(0, 1, 2), *rng.normal(0, 0.5, 2), rng.normal(0, 0.2)])
    box[2:4] = np.abs(box[2:4]) + 0.3
    return box


# -- raster IoU ----------------------------------------------------------


def test_raster_bracket_holds_the_exact_iou():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = random_box(rng)
        b = random_box(rng, a)
        exact = rotated_iou(RotatedBox(*a), RotatedBox(*b))
        lower, estimate, upper = checks.raster_iou(a, b, 0.5)
        assert lower - 1e-12 <= exact <= upper + 1e-12
        assert lower <= estimate <= upper


def test_raster_bracket_decides_the_threshold_unless_within_a_hair():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = random_box(rng)
        lower, _, upper = checks.raster_iou(a, random_box(rng, a), 0.5)
        assert not lower < 0.5 < upper or upper - lower < 0.01


# -- metrics.jsonl -------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    config = RunConfig()
    config.scene = SceneConfig(height=24, width=24, density=0.004, long_side_min=6.0, long_side_max=10.0)
    config.semi.total_iters = 6
    config.semi.burn_in_frac = 0.5
    labeled = InMemoryScenes(list(generate_dataset(config.scene, 4, 1)))
    unlabeled = InMemoryScenes(list(generate_dataset(config.scene, 4, 2)))
    out = tmp_path_factory.mktemp("run")
    run_training(config, labeled, unlabeled, out_dir=out)
    return (out / "metrics.jsonl").read_text().splitlines()


def test_metrics_check_passes_a_real_run(tiny_run):
    assert checks.check_metrics_lines(tiny_run, 6, SCHEMA) == ([], 0)


@pytest.mark.parametrize("corrupt", ["drop", "nan", "iter", "extra_key", "truncate"])
def test_metrics_check_rejects_corruption(tiny_run, corrupt):
    lines = list(tiny_run)
    record = json.loads(lines[3])
    if corrupt == "drop":
        del lines[3]
    elif corrupt == "truncate":
        lines[3] = lines[3][:-5]
    else:
        if corrupt == "nan":
            record["grad_norm"] = float("nan")
        elif corrupt == "iter":
            record["iter"] = 2
        else:
            record["wall_s"] = 1.0
        lines[3] = json.dumps(record)
    problems, bad = checks.check_metrics_lines(lines, 6, SCHEMA)
    assert problems and bad >= 1


# -- mAP50 ---------------------------------------------------------------


@pytest.fixture(scope="module")
def detection_set():
    """Noisy detections around ground truth plus clutter, on 20 scenes."""
    rng = np.random.default_rng(3)
    truth, detections = [], []
    for _ in range(20):
        gt = np.array([random_box(rng) for _ in range(4)])
        gcls = rng.integers(0, 2, size=4)
        dets = [(random_box(rng, g), rng.uniform(0.3, 1.0), c) for g, c in zip(gt, gcls)]
        dets += [(random_box(rng), rng.uniform(0.0, 0.6), rng.integers(0, 2)) for _ in range(3)]
        truth.append((gt, gcls))
        detections.append(dets)
    return truth, detections


def as_arrays(dets):
    return (np.array([d[0] for d in dets]).reshape(-1, 5), np.array([d[1] for d in dets]),
            np.array([d[2] for d in dets], dtype=int))


def program_map50(truth, detections):
    scenes = [type("Scene", (), {"boxes": g, "classes": c})() for g, c in truth]
    dets = [[Detection(RotatedBox(*b), float(s), int(c)) for b, s, c in scene] for scene in detections]
    return evaluate_map(dets, scenes, thresholds=(0.5,))["map50"]


def test_map50_check_passes_the_evaluator(detection_set):
    truth, detections = detection_set
    bracket = checks.independent_map50([as_arrays(d) for d in detections], truth)
    assert checks.check_map50(program_map50(truth, detections), bracket) == []


def test_map50_check_rejects_a_shifted_score(detection_set):
    truth, detections = detection_set
    bracket = checks.independent_map50([as_arrays(d) for d in detections], truth)
    assert checks.check_map50(program_map50(truth, detections) + 0.02, bracket)


def test_map50_check_rejects_detections_scored_against_other_boxes(detection_set):
    truth, detections = detection_set
    moved = [[(b + np.array([3.0, 0, 0, 0, 0]), s, c) for b, s, c in scene] for scene in detections]
    bracket = checks.independent_map50([as_arrays(d) for d in detections], truth)
    assert checks.check_map50(program_map50(truth, moved), bracket)


# -- transport -----------------------------------------------------------


@pytest.fixture(scope="module")
def transport_case():
    rng = np.random.default_rng(4)
    n = 40
    xy = rng.uniform(0, 32, (n, 2))
    t_score, s_score = rng.uniform(0.3, 1.0, n), rng.uniform(0.0, 1.0, n)
    dist = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    gap = np.abs(t_score[:, None] - s_score[None, :])
    cost = dist / dist.max() + gap / gap.max()
    t_mass, s_mass = np.exp(t_score), np.exp(s_score)
    result = gc_loss(t_mass, s_mass, cost, epsilon=0.15, max_iters=1000, tolerance=1e-6)
    return cost, t_mass, s_mass, result


def test_transport_check_passes_gc_loss(transport_case):
    cost, t_mass, s_mass, result = transport_case
    assert checks.check_transport(result.plan, result.solution.cost_value, cost, t_mass, s_mass, 0.15, 1e-6) == []


@pytest.mark.parametrize("corrupt", ["rows", "columns", "cost_low", "cost_high", "cost_mismatch"])
def test_transport_check_rejects_corruption(transport_case, corrupt):
    cost, t_mass, s_mass, result = transport_case
    plan, value = result.plan.copy(), result.solution.cost_value
    n, m = plan.shape
    if corrupt == "rows":
        plan[0] *= 1.5
    elif corrupt == "columns":
        plan[:, 0] *= 0.5
    elif corrupt == "cost_low":
        # A plan with the right marginals and a cost below the LP optimum
        # cannot exist; report one.
        value = checks.lp_optimum(cost, t_mass / t_mass.sum(), s_mass / s_mass.sum()) - 0.05
    elif corrupt == "cost_high":
        plan = np.outer(t_mass / t_mass.sum(), s_mass / s_mass.sum())
        value = float(np.sum(cost * plan)) + 0.15 * math.log(n * m)
    else:
        value += 0.01
    assert checks.check_transport(plan, value, cost, t_mass, s_mass, 0.15, 1e-6)


def test_gradient_check_passes_and_rejects(transport_case):
    cost, t_mass, s_mass, _ = transport_case

    def loss_at(mass):
        return gc_loss(t_mass, mass, cost, epsilon=0.15, max_iters=100_000, tolerance=1e-12).loss

    grad = gc_loss(t_mass, s_mass, cost, epsilon=0.15, max_iters=100_000, tolerance=1e-12).grad_student
    coords = [0, 7, 19]
    assert checks.check_gradient(loss_at, s_mass, grad, coords) == []
    wrong = grad.copy()
    wrong[7] *= 1.1
    assert checks.check_gradient(loss_at, s_mass, wrong, coords)
    assert checks.check_gradient(loss_at, s_mass, -grad, coords)


# -- sampler -------------------------------------------------------------


@pytest.fixture(scope="module")
def sampler_case():
    """A teacher that sees four objects, with confident background cells."""
    rng = np.random.default_rng(5)
    height = width = 40
    objects = [np.array([10, 10, 12, 4, 0.3]), np.array([28, 12, 8, 6, -0.8]),
               np.array([12, 30, 14, 3, 1.2]), np.array([30, 30, 6, 6, 0.0])]
    scores = np.full((height, width, 2), 0.02)
    boxes = np.zeros((height, width, 5))
    cy, cx = np.mgrid[0:height, 0:width] + 0.5
    boxes[..., 0], boxes[..., 1], boxes[..., 2], boxes[..., 3] = cx, cy, 2.0, 2.0
    for k, obj in enumerate(objects):
        inside = checks.points_in_box(cx, cy, obj)
        closeness = np.exp(-((cx - obj[0]) ** 2 + (cy - obj[1]) ** 2) / 20.0)
        scores[..., k % 2] = np.where(inside, np.maximum(scores[..., k % 2], 0.3 + 0.6 * closeness), scores[..., k % 2])
        boxes[inside] = obj + rng.normal(0, 0.3, (np.count_nonzero(inside), 5)) * [1, 1, 0.2, 0.2, 0.05]
    prediction = DensePrediction(class_scores=scores, boxes=boxes, centerness=np.full((height, width), 0.5),
                                 predicted_iou=rng.uniform(0.0, 0.2, (height, width)))
    config = SamplerConfig(score_floor=0.3, nms_iou=0.1, sample_ratio=0.25, hard_iou_threshold=0.1, max_hard=30)
    pairs = build_pairs(prediction, prediction, config, np.random.default_rng(6))
    kept, _ = candidate_detections(prediction, config)
    kept = np.array([[b.cx, b.cy, b.w, b.h, b.angle] for b in kept])
    return kept, pairs.iy.copy(), pairs.ix.copy(), pairs.provenance.copy(), config, height, width


def pair_problems(kept, iy, ix, provenance, config, height, width):
    return checks.check_pairs(kept, iy, ix, provenance, config.nms_iou, config.sample_ratio, height, width,
                              config.max_hard)


def test_pair_check_passes_build_pairs(sampler_case):
    kept, iy, ix, provenance, config, height, width = sampler_case
    assert len(kept) >= 3 and np.count_nonzero(provenance == 0) and np.count_nonzero(provenance == 1)
    assert pair_problems(*sampler_case) == []


@pytest.mark.parametrize("corrupt", ["repeat", "easy_outside", "hard_inside", "easy_missing", "overlap", "provenance"])
def test_pair_check_rejects_corruption(sampler_case, corrupt):
    kept, iy, ix, provenance, config, height, width = sampler_case
    kept, iy, ix, provenance = kept.copy(), iy.copy(), ix.copy(), provenance.copy()
    easy, hard = np.nonzero(provenance == 0)[0], np.nonzero(provenance == 1)[0]
    if corrupt == "repeat":
        iy[easy[1]], ix[easy[1]] = iy[easy[0]], ix[easy[0]]
    elif corrupt == "easy_outside":
        provenance[hard[0]] = 0
    elif corrupt == "hard_inside":
        provenance[easy[0]] = 1
    elif corrupt == "easy_missing":
        iy, ix, provenance = (np.delete(a, easy[0]) for a in (iy, ix, provenance))
    elif corrupt == "overlap":
        kept = np.vstack([kept, kept[0] + [0.5, 0, 0, 0, 0]])
    else:
        provenance[hard[0]] = 2
    assert pair_problems(kept, iy, ix, provenance, config, height, width)


# -- checkpoint, scoring, tracing ------------------------------------------


def test_checkpoint_check(tmp_path):
    from orientsemi.training import init_state, load_checkpoint, save_checkpoint

    state = init_state(RunConfig())
    state.iteration = 6
    save_checkpoint(tmp_path / "checkpoint.bin", state)
    restored = load_checkpoint(tmp_path / "checkpoint.bin")
    assert checks.check_checkpoint(restored.iteration, restored.student.weights, 6, state.student.weights) == []
    assert checks.check_checkpoint(restored.iteration, restored.student.weights, 7, state.student.weights)
    stale = state.student.weights.copy()
    stale[0, 0] += 1e-3
    assert checks.check_checkpoint(restored.iteration, restored.student.weights, 6, stale)


def test_scoring_check():
    reports = [{"map50": 0.5, "map50_95": 0.2}] * 3
    assert checks.check_scoring(reports, 0.0) == []
    assert checks.check_scoring(reports, 0.5)
    assert checks.check_scoring(reports + [{"map50": 0.5, "map50_95": 0.21}], 0.0)


def test_same_bytes_check(tiny_run):
    data = ("\n".join(tiny_run) + "\n").encode()
    assert checks.check_same_bytes(data, data) == []
    assert checks.check_same_bytes(data, data.replace(b'"iter":3', b'"iter":3 '))
