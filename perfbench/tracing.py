"""Span tracing of the orientsemi modules, from outside the program.

``Tracer.install`` replaces each traced public function by a wrapper at
every name it is bound under in the loaded ``orientsemi`` modules (and
on its class, for methods), so calls through any import path are seen.
A wrapper records one span -- name, start, end, parent span -- in an
in-memory list; ``write`` puts the list on disk when the run ends.
Some wrappers also read counts off the arguments or the result.

Self time is a span's duration minus the durations of its direct child
spans.  ``rotated_iou`` is called too often for a span per call, so it
only counts its calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name).  ``Class.method`` attributes are
# patched on the class.
TARGETS = [
    ("scenes", "save_dataset", "scenes.save_dataset"),
    ("scenes", "SceneDataset.channels", "scenes.channels"),
    ("scenes", "strong_augment", "scenes.strong_augment"),
    ("detector", "extract_features", "detector.extract_features"),
    ("detector", "forward", "detector.forward"),
    ("detector", "decode_dense", "detector.decode_dense"),
    ("detector", "predict_dense", "evaluation.predict_dense"),
    ("training", "Trainer.features_for", "training.features_for"),
    ("training", "Trainer.train_step", "training.train_step"),
    ("training", "supervised_loss", "training.supervised_loss"),
    ("training", "weighted_pair_loss", "training.weighted_pair_loss"),
    ("training", "consistency_loss", "training.consistency_loss"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("sampling", "build_pairs", "sampling.build_pairs"),
    ("sampling", "candidate_detections", "sampling.candidate_detections"),
    ("sampling", "sample_easy", "sampling.sample_easy"),
    ("sampling", "mine_hard", "sampling.mine_hard"),
    ("geometry", "grid_cells_in_box", "geometry.grid_cells_in_box"),
    ("consistency", "ngc_loss", "consistency.ngc_loss"),
    ("transport", "build_cost_matrix", "transport.build_cost_matrix"),
    ("transport", "sinkhorn_solve", "transport.sinkhorn_solve"),
    ("evaluation", "detect", "evaluation.detect"),
    ("evaluation", "evaluate_map", "evaluation.evaluate_map"),
]
# Rotated NMS serves the sampler and evaluation; each caller's binding
# gets its own span name.
PER_CALLER = {("geometry", "rotated_nms"): {"sampling": "geometry.rotated_nms.sampling",
                                            "evaluation": "geometry.rotated_nms.evaluation"}}
COUNTED = ("geometry", "rotated_iou")

# Stages whose inclusive seconds the README ranks against the ROADMAP
# baseline; their children are wrapped too, so self time alone would
# hide part of them.
INCLUSIVE = (
    "training.consistency_loss",
    "training.supervised_loss",
    "sampling.build_pairs",
    "evaluation.predict_dense",
)


def _module(name):
    return importlib.import_module(f"orientsemi.{name}")


class Tracer:
    """Owns the span list, the counters and the patched bindings."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.samples: dict = defaultdict(list)
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (name, start, end, parent)
            if after is not None:
                after(args, result, slot)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_hooks(self):
        counts, samples = self.counts, self.samples

        def forward(args, raw, slot):
            weights, features = args[0].weights, args[1]
            counts["detector.forward.gflop"] += 2e-9 * weights.shape[0] * weights.shape[1] * features.shape[1]

        def features_for(args, result, slot):
            # A cache miss loads the scene's channels from disk.
            spans = self.spans
            counts["training.features_for.misses"] += any(
                span[0] == "scenes.channels" and span[3] == slot for span in spans[slot + 1:]
            )

        def build_pairs(args, pairs, slot):
            easy = int(np.count_nonzero(pairs.provenance == 0))
            counts["sampling.pairs_easy"] += easy
            counts["sampling.pairs_hard"] += len(pairs) - easy

        def nms_sampling(args, kept, slot):
            counts["sampling.candidates"] += len(args[0])
            counts["sampling.kept"] += len(kept)

        def weighted_pair_loss(args, result, slot):
            if result[2].get("n_pairs", 0):
                samples["training.gaw.mean_weight"].append(result[2]["mean_weight"])

        def ngc_loss(args, result, slot):
            counts["consistency.ngc_loss.gated"] += bool(result.gated)

        def sinkhorn_solve(args, solution, slot):
            counts["transport.sinkhorn_solve.iterations"] += solution.iterations
            counts["transport.sinkhorn_solve.unconverged"] += not solution.converged
            samples["transport.atoms"].append(args[0].cost.shape[0])

        def detect(args, detections, slot):
            counts["evaluation.detections"] += len(detections)

        return {
            "detector.forward": forward,
            "training.features_for": features_for,
            "sampling.build_pairs": build_pairs,
            "geometry.rotated_nms.sampling": nms_sampling,
            "training.weighted_pair_loss": weighted_pair_loss,
            "consistency.ngc_loss": ngc_loss,
            "transport.sinkhorn_solve": sinkhorn_solve,
            "evaluation.detect": detect,
        }

    # -- patching --------------------------------------------------------

    def _bind(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _bind_everywhere(self, original, make):
        """Replace ``original`` at every module-level name bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("orientsemi") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, attr, make(mod_name.rsplit(".", 1)[-1]))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._after_hooks()
        for mod_name, attr, span in TARGETS:
            module = _module(mod_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._bind(cls, method, self._wrap(span, cls.__dict__[method], hooks.get(span)))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(span, fn, hooks.get(span))
            self._bind_everywhere(fn, lambda caller, w=wrapped: w)
        for (mod_name, attr), by_caller in PER_CALLER.items():
            fn = getattr(_module(mod_name), attr)
            wrappers = {caller: self._wrap(span, fn, hooks.get(span)) for caller, span in by_caller.items()}
            self._bind_everywhere(fn, lambda caller: wrappers.get(caller, fn))
        fn = getattr(_module(COUNTED[0]), COUNTED[1])
        counted = self._counter(f"{COUNTED[0]}.{COUNTED[1]}.calls", fn)
        self._bind_everywhere(fn, lambda caller: counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        """Forget spans and counts recorded so far."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.samples.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: Path):
        with open(path, "w") as handle:
            for span_id, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for span_id, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child_time[span_id]
        return calls, incl, self_s


def per_layer_metrics(tracer: Tracer, save_dataset_s: float, overhead_s: float) -> dict:
    """The per-layer metric table of one traced train-and-evaluate run."""
    calls, incl, self_s = tracer.totals()
    counts, samples = tracer.counts, tracer.samples
    out = {"scenes.save_dataset.s": (save_dataset_s, "s")}
    for name in ("scenes.channels", "detector.extract_features", "detector.forward",
                 "sampling.build_pairs", "consistency.ngc_loss", "transport.sinkhorn_solve"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in (
        "scenes.channels", "scenes.strong_augment", "detector.extract_features", "detector.forward",
        "detector.decode_dense", "training.supervised_loss", "training.weighted_pair_loss",
        "training.consistency_loss", "training.train_step", "training.save_checkpoint",
        "sampling.build_pairs", "sampling.candidate_detections", "sampling.sample_easy",
        "sampling.mine_hard", "geometry.rotated_nms.sampling", "geometry.rotated_nms.evaluation",
        "geometry.grid_cells_in_box", "consistency.ngc_loss", "transport.build_cost_matrix",
        "transport.sinkhorn_solve", "evaluation.predict_dense", "evaluation.detect",
        "evaluation.evaluate_map",
    ):
        out[f"{name}.s"] = (self_s[name], "s")
    for name in INCLUSIVE:
        out[f"{name}.incl_s"] = (incl[name], "s")
    lookups = calls["training.features_for"]
    out["training.features_for.hit_ratio"] = (
        1.0 - counts["training.features_for.misses"] / lookups if lookups else 0.0, "ratio")
    out["detector.forward.gflop"] = (counts["detector.forward.gflop"], "GFLOP")
    for name in ("sampling.candidates", "sampling.kept", "sampling.pairs_easy", "sampling.pairs_hard",
                 "geometry.rotated_iou.calls", "consistency.ngc_loss.gated",
                 "transport.sinkhorn_solve.iterations", "transport.sinkhorn_solve.unconverged",
                 "evaluation.detections"):
        out[name] = (int(counts[name]), "count")
    weights = samples["training.gaw.mean_weight"]
    out["training.gaw.mean_weight"] = (float(np.mean(weights)) if weights else 0.0, "ratio")
    atoms = samples["transport.atoms"]
    out["transport.atoms.median"] = (float(np.median(atoms)) if atoms else 0.0, "count")
    out["transport.atoms.max"] = (int(max(atoms)) if atoms else 0, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
