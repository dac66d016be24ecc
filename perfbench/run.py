#!/usr/bin/env python3
"""Train-and-score benchmark for orientsemi.

One run generates a workload's labeled, unlabeled and test splits,
trains with ``run_training`` for the workload's fixed iteration count,
scores the student with ``evaluate_model``, checks the outputs, and
prints one JSON line of metrics last on stdout.

    python3 perfbench/run.py --workload semi-full --seed 0 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` trains and
scores twice on the same splits, untraced in a fresh child process and
then traced, and prints the per-layer metrics of the traced pass; both
passes must write the same ``metrics.jsonl`` bytes.  See
perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "runs"

# Every workload starts from configs/benchmark10.ini.  The iteration
# counts keep a run within the time the benchmark allows; the training
# seed is fixed (see README: at these lengths the student's mAP moves by
# tens of percent between training seeds).  ``semi-dense`` runs at the
# study's own length and is not in BENCHMARK.json (see README).
WORKLOADS = {
    "semi-full": ["semi.total_iters=1200"],
    "supervised": ["semi.total_iters=1200", "semi.supervised_only=true"],
    "semi-dense": ["semi.total_iters=1000", "scene.density=0.0025"],
}
SPLITS = (("labeled", 200, 1000), ("unlabeled", 1800, 2000), ("test", 100, 3000))
TRAINING_SEED = 0
BLAS_THREADS = 1
# Unlabeled scenes that the transport and sampler checks replay, the
# most pairs of one scene that the transport check keeps (the LP grows
# with the square of it: 0.6 s at 250 atoms, 4 s at 500), and the
# student-mass coordinates whose gradient it differences.
CHECK_SCENES = 2
CHECK_ATOMS = 200
CHECK_COORDS = 3


def _age_before_start() -> float:
    """Seconds the process had lived when ``_STARTED`` was taken, from the
    kernel's record of its start time (in clock ticks) where there is one."""
    try:
        start_ticks = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    return max(age - (time.perf_counter() - _STARTED), 0.0)


_BEFORE_START = _age_before_start()


def process_age() -> float:
    """Seconds since this process started."""
    return _BEFORE_START + time.perf_counter() - _STARTED


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Captured:
    """Binds ``module.attr`` to a wrapper that keeps every result."""

    def __init__(self, module, attr):
        self.module, self.attr, self.results = module, attr, []

    def __enter__(self):
        original = self.original = getattr(self.module, self.attr)

        def keep(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        setattr(self.module, self.attr, keep)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def train_and_score(os_mods, config, data, run_dir, seconds):
    """The measured phase: train once, then score the student until
    scoring has taken ``seconds`` (at least once)."""
    training, evaluation = os_mods["training"], os_mods["evaluation"]
    began = time.perf_counter()
    state, _ = training.run_training(config, data["labeled"], data["unlabeled"], out_dir=run_dir)
    train_s = time.perf_counter() - began
    eval_s, reports = [], []

    def score():
        start = time.perf_counter()
        reports.append(
            evaluation.evaluate_model(state.student, data["test"], config.detector, thresholds=evaluation.FULL_THRESHOLDS)
        )
        eval_s.append(time.perf_counter() - start)

    with Captured(evaluation, "detect") as detections:
        score()
    while sum(eval_s) < seconds:
        score()
    return {"state": state, "train_s": train_s, "eval_s": eval_s, "reports": reports,
            "detections": detections.results, "run_dir": run_dir}


def output_checks(os_mods, config, data, measured, seed):
    """Every output check of ``perfbench/checks.py`` on one measured run.
    Returns ``(problems, failed_iterations)``."""
    # numpy loads only after load_program has pinned the BLAS threads.
    import numpy as np

    import checks

    training, evaluation = os_mods["training"], os_mods["evaluation"]
    total = config.semi.total_iters
    state, run_dir = measured["state"], measured["run_dir"]
    schema = json.loads((ROOT / "src" / "orientsemi" / "schemas" / "metrics.schema.json").read_text())
    problems, failed = checks.check_metrics_lines(
        (run_dir / "metrics.jsonl").read_text().splitlines(), total, schema
    )
    restored = training.load_checkpoint(run_dir / "checkpoint.bin")
    problems += checks.check_checkpoint(restored.iteration, restored.student.weights, total, state.student.weights)
    reports = measured["reports"]
    test = data["test"]
    detections = [
        (np.array([[d.box.cx, d.box.cy, d.box.w, d.box.h, d.box.angle] for d in dets]).reshape(-1, 5),
         np.array([d.score for d in dets]), np.array([d.class_index for d in dets], dtype=int))
        for dets in measured["detections"]
    ]
    truth = [(scene.boxes, scene.classes) for scene in test.scenes]
    if len(detections) != len(truth):
        problems.append(f"detect ran on {len(detections)} of {len(truth)} test scenes")
    else:
        problems += checks.check_map50(reports[0]["map50"], checks.independent_map50(detections, truth))
    untrained = training.init_state(config).student
    untrained_map50 = evaluation.evaluate_model(untrained, test, config.detector, thresholds=(0.5,))["map50"]
    problems += checks.check_scoring(reports, untrained_map50)

    if not config.semi.supervised_only:
        problems += unlabeled_checks(os_mods, config, data["unlabeled"], state, seed)
    return problems, failed


def unlabeled_checks(os_mods, config, unlabeled, state, seed):
    """Sampler and transport checks on a few unlabeled scenes, replayed
    under the trained teacher and student."""
    import numpy as np

    import checks

    detector, sampling, scenes, transport = (os_mods[m] for m in ("detector", "sampling", "scenes", "transport"))
    semi, height, width = config.semi, config.scene.height, config.scene.width
    sampler = config.sampler_config()
    rng = np.random.default_rng([seed, 17])
    problems = []
    for index in rng.choice(len(unlabeled), size=CHECK_SCENES, replace=False):
        channels, scene = unlabeled.channels(int(index)), unlabeled.scenes[int(index)]
        teacher = detector.predict_dense(state.teacher, channels, config.detector)
        _, strong, _ = scenes.strong_augment(scene, channels, rng, config.augment_config(), flip=False)
        student_raw = detector.forward(state.student, detector.extract_features(strong))
        student = detector.decode_dense(state.student, student_raw, height, width, config.detector)
        pairs = sampling.build_pairs(teacher, student, sampler, rng)
        kept, _ = sampling.candidate_detections(teacher, sampler)
        kept = np.array([[b.cx, b.cy, b.w, b.h, b.angle] for b in kept]).reshape(-1, 5)
        found = checks.check_pairs(kept, pairs.iy, pairs.ix, pairs.provenance, sampler.nms_iou,
                                   sampler.sample_ratio, height, width, sampler.max_hard)
        problems += [f"scene {index}: {p}" for p in found]
        if len(pairs) < 2:
            continue
        # Masses as the consistency term defines them: exp(teacher score)
        # and exp(sigmoid(student logit)), both at the teacher's class.
        keep = np.sort(rng.choice(len(pairs), size=min(CHECK_ATOMS, len(pairs)), replace=False))
        iy, ix = pairs.iy[keep], pairs.ix[keep]
        scores = teacher.class_scores[iy, ix]
        cls = np.argmax(scores, axis=1)
        t_score = scores[np.arange(keep.size), cls]
        s_score = 1.0 / (1.0 + np.exp(-student_raw[cls, iy * width + ix]))
        xy = np.stack([ix + 0.5, iy + 0.5], axis=1)
        dist = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
        gap = np.abs(t_score[:, None] - s_score[None, :])
        cost = np.zeros_like(dist)
        for term in (dist, gap):
            if term.max() > 0.0:
                cost += term / term.max()
        t_mass, s_mass = np.exp(t_score), np.exp(s_score)
        result = transport.gc_loss(t_mass, s_mass, cost, epsilon=semi.ot_epsilon,
                                   max_iters=semi.ot_max_iters, tolerance=semi.ot_tolerance)
        found = checks.check_transport(result.plan, result.solution.cost_value, cost, t_mass, s_mass,
                                       semi.ot_epsilon, semi.ot_tolerance)

        def loss_at(mass):
            return transport.gc_loss(t_mass, mass, cost, epsilon=semi.ot_epsilon, max_iters=100_000, tolerance=1e-12).loss

        tight = transport.gc_loss(t_mass, s_mass, cost, epsilon=semi.ot_epsilon, max_iters=100_000, tolerance=1e-12)
        coords = rng.choice(keep.size, size=min(CHECK_COORDS, keep.size), replace=False)
        found += checks.check_gradient(loss_at, s_mass, tight.grad_student, coords)
        problems += [f"scene {index} ({keep.size} atoms): {p}" for p in found]
    return problems


def settle_writes(root):
    """Flush the splits just written to disk, so that their write-back
    does not run alongside the timed phase."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def load_program(workload):
    """Import the program from the checkout and build the workload's
    run config."""
    # One BLAS thread: the per-step matrices are small, and a second
    # OpenBLAS thread made training slower here while doubling CPU time.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from orientsemi import config as os_config
    from orientsemi import detector, evaluation, sampling, scenes, training, transport

    os_mods = {"detector": detector, "evaluation": evaluation, "sampling": sampling,
               "scenes": scenes, "training": training, "transport": transport}
    config = os_config.load_ini(ROOT / "configs" / "benchmark10.ini")
    os_config.apply_overrides(config, WORKLOADS[workload] + [f"semi.seed={TRAINING_SEED}"])
    return os_mods, config


def plain_pass(workload, work):
    """Untraced train-and-score on the splits under ``work``; runs in a
    fresh interpreter so that it starts from the same memory state as
    the traced pass it is compared with."""
    os_mods, config = load_program(workload)
    data = {name: os_mods["scenes"].SceneDataset(work / "data" / name) for name, _, _ in SPLITS}
    measured = train_and_score(os_mods, config, data, work / "plain", 0.0)
    return measured["train_s"] + measured["eval_s"][0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orientsemi").is_dir() or not (ROOT / "configs" / "benchmark10.ini").is_file():
        print(f"perfbench: no orientsemi checkout around {HERE}", file=sys.stderr)
        return 2
    os_mods, config = load_program(args.workload)
    scenes = os_mods["scenes"]
    from tracing import Tracer, per_layer_metrics

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    data = {}
    for name, count, data_seed in SPLITS:
        scenes.save_dataset(work / "data" / name, config.scene, count, data_seed)
        data[name] = scenes.SceneDataset(work / "data" / name)
    setup_s = process_age()
    settle_writes(work / "data")

    if tracer is None:
        measured = train_and_score(os_mods, config, data, work / "run", args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        began = time.perf_counter()
        problems, failed = output_checks(os_mods, config, data, measured, args.seed)
        print(f"perfbench: output checks took {time.perf_counter() - began:.1f} s", file=sys.stderr)
        report = measured["reports"][0]
        metrics = {
            "setup_s": (setup_s, "s"),
            "train_s": (measured["train_s"], "s"),
            "eval_s": (statistics.median(measured["eval_s"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "map50": (report["map50"], "ratio"),
            "map50_95": (report["map50_95"], "ratio"),
        }
    else:
        save_dataset_s = tracer.totals()[1]["scenes.save_dataset"]
        tracer.uninstall()
        tracer.reset()
        pool = multiprocessing.get_context("spawn").Pool(1)
        try:
            plain_s = pool.apply(plain_pass, (args.workload, work))
        finally:
            pool.close()
            pool.join()
        tracer.install()
        measured = train_and_score(os_mods, config, data, work / "run", 0.0)
        tracer.uninstall()
        tracer.write(work / "run" / "trace.jsonl")
        overhead_s = measured["train_s"] + measured["eval_s"][0] - plain_s
        problems, failed = output_checks(os_mods, config, data, measured, args.seed)
        import checks  # after the timed phase: it loads scipy.optimize

        problems += checks.check_same_bytes((work / "plain" / "metrics.jsonl").read_bytes(),
                                            (work / "run" / "metrics.jsonl").read_bytes())
        metrics = per_layer_metrics(tracer, save_dataset_s, overhead_s)

    shutil.rmtree(work / "data")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = config.semi.total_iters + len(data["test"]) * len(measured["eval_s"])
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
