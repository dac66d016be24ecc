"""Synthetic oriented-object scenes: generation, rendering, augmentation.

A scene is a set of non-crowded rotated boxes with classes on a small
canvas, rendered to a multi-channel image: one intensity channel per
class (with a little cross-class bleed), a luminance channel, and two
orientation channels carrying blob-weighted cos/sin of the doubled
angle.  Objects are anisotropic Gaussian blobs, so orientation and
aspect are recoverable from local statistics, which is all the linear
detector gets to see.

Generation is rejection sampling under two hard constraints: boxes stay
fully inside the canvas and no pair of ground-truth boxes overlaps
beyond IoU 0.3.  Layouts control where centers land: uniform scatter,
jittered regular grid with a shared base orientation, or clusters.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np
from scipy.ndimage import gaussian_filter

from orientsemi.geometry import RotatedBox, normalize_angle, normalize_angles, rotated_iou
from orientsemi.records import canonical_line, write_atomic

LAYOUTS = ("uniform", "grid-regular", "clustered")


class SceneGenerationError(RuntimeError):
    """Raised when a scene cannot be placed within the attempt budget."""


@dataclass
class SceneConfig:
    """Scene geometry, placement, and rendering parameters."""

    height: int = 256
    width: int = 256
    num_classes: int = 3
    layout: str = "uniform"
    density: float = 1.5e-4
    long_side_min: float = 10.0
    long_side_max: float = 36.0
    aspect_min: float = 1.0
    aspect_max: float = 8.0
    iou_cap: float = 0.3
    max_attempts: int = 10_000
    noise_sigma: float = 0.05
    crosstalk: float = 0.15
    amplitude: float = 1.0
    sigma_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if self.height < 8 or self.width < 8:
            raise ValueError("canvas must be at least 8x8")
        if self.num_classes < 1:
            raise ValueError("need at least one class")
        if self.density < 0.0:
            raise ValueError(f"density must be >= 0, got {self.density}")
        if not 1.0 <= self.aspect_min <= self.aspect_max:
            raise ValueError("need 1 <= aspect_min <= aspect_max")
        if self.long_side_min <= 0 or self.long_side_max < self.long_side_min:
            raise ValueError("invalid long-side range")
        for name in ("noise_sigma", "crosstalk"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("amplitude", "sigma_frac", "max_attempts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.iou_cap <= 1.0:
            raise ValueError(f"iou_cap must be in [0, 1], got {self.iou_cap}")

    @property
    def num_channels(self) -> int:
        return self.num_classes + 3


@dataclass
class SyntheticScene:
    """Ground truth for one canvas: boxes (G, 5) rows of
    (cx, cy, w, h, angle) and integer classes (G,)."""

    height: int
    width: int
    boxes: np.ndarray
    classes: np.ndarray
    layout: str
    scene_id: int = 0

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 5)
        self.classes = np.asarray(self.classes, dtype=np.int64).reshape(-1)
        if self.boxes.shape[0] != self.classes.shape[0]:
            raise ValueError("boxes and classes differ in length")

    def __len__(self) -> int:
        return self.boxes.shape[0]


def _place_centers(config: SceneConfig, count: int, rng: np.random.Generator) -> tuple[np.ndarray, Optional[float]]:
    """Nominal centers for each object and, for the regular layout, the
    shared base angle.  Centers may still be rejected later."""
    h, w = float(config.height), float(config.width)
    if config.layout == "uniform":
        centers = rng.uniform([0.0, 0.0], [w, h], size=(count, 2))
        return centers, None
    if config.layout == "grid-regular":
        pitch = math.sqrt(h * w / max(count, 1))
        nx = max(int(w / pitch), 1)
        ny = max(int(h / pitch), 1)
        while nx * ny < count:
            nx += 1
        cells = rng.choice(nx * ny, size=min(count, nx * ny), replace=False)
        cells.sort()
        gx = (cells % nx + 0.5) * (w / nx)
        gy = (cells // nx + 0.5) * (h / ny)
        jitter = rng.normal(0.0, pitch / 10.0, size=(cells.size, 2))
        centers = np.stack([gx, gy], axis=1) + jitter
        base_angle = rng.uniform(-math.pi / 2, math.pi / 2)
        return centers, base_angle
    # clustered
    n_clusters = max(1, count // 5)
    margin = 0.2 * min(h, w)
    cluster_xy = rng.uniform([margin, margin], [w - margin, h - margin], size=(n_clusters, 2))
    which = rng.integers(0, n_clusters, size=count)
    spread = 0.08 * min(h, w)
    centers = cluster_xy[which] + rng.normal(0.0, spread, size=(count, 2))
    return centers, None


def generate_scene(
    config: SceneConfig, rng: np.random.Generator, scene_id: int = 0
) -> tuple[SyntheticScene, np.ndarray]:
    """Generate ground truth and render it, deterministically per rng.

    Raises :class:`SceneGenerationError` if the placement constraints
    (in-canvas, pairwise IoU <= iou_cap) cannot be met within
    ``max_attempts`` candidate draws for the whole scene.
    """
    count = int(round(config.density * config.height * config.width))
    centers, base_angle = _place_centers(config, count, rng)
    count = centers.shape[0]

    accepted: list[RotatedBox] = []
    aabbs: list[tuple[float, float, float, float]] = []
    attempts = 0
    log_aspect_hi = math.log(config.aspect_max)
    log_aspect_lo = math.log(config.aspect_min)
    for i in range(count):
        placed = False
        while not placed:
            if attempts >= config.max_attempts:
                raise SceneGenerationError(
                    f"scene {scene_id}: gave up after {attempts} attempts with {len(accepted)}/{count} objects "
                    f"placed (density {config.density}, layout {config.layout})"
                )
            attempts += 1
            long_side = rng.uniform(config.long_side_min, config.long_side_max)
            aspect = math.exp(rng.uniform(log_aspect_lo, log_aspect_hi))
            if base_angle is not None:
                angle = normalize_angle(base_angle + rng.normal(0.0, 0.08))
            else:
                angle = rng.uniform(-math.pi / 2, math.pi / 2)
            short_side = long_side / aspect
            # Clamp the center into the in-canvas range for this size and
            # angle; a nominal spot near the border must not wedge the
            # sampler.  Boxes too large for the canvas are re-drawn.
            cos_a, sin_a = abs(math.cos(angle)), abs(math.sin(angle))
            ex = (long_side * cos_a + short_side * sin_a) / 2.0
            ey = (long_side * sin_a + short_side * cos_a) / 2.0
            if 2.0 * ex > config.width or 2.0 * ey > config.height:
                continue
            cx, cy = centers[i] + rng.normal(0.0, 0.02 * long_side, size=2)
            cx = min(max(float(cx), ex), config.width - ex)
            cy = min(max(float(cy), ey), config.height - ey)
            candidate = RotatedBox(cx, cy, long_side, short_side, angle)
            x0, y0, x1, y1 = candidate.aabb()
            crowded = False
            for box, (bx0, by0, bx1, by1) in zip(accepted, aabbs):
                if x0 >= bx1 or bx0 >= x1 or y0 >= by1 or by0 >= y1:
                    continue
                if rotated_iou(candidate, box) > config.iou_cap:
                    crowded = True
                    break
            if crowded:
                continue
            accepted.append(candidate)
            aabbs.append((x0, y0, x1, y1))
            placed = True

    classes = rng.integers(0, config.num_classes, size=len(accepted))
    boxes = np.array([b.as_array() for b in accepted]).reshape(-1, 5)
    scene = SyntheticScene(
        height=config.height,
        width=config.width,
        boxes=boxes,
        classes=classes,
        layout=config.layout,
        scene_id=scene_id,
    )
    channels = render_scene(scene, config, rng)
    return scene, channels


def render_scene(scene: SyntheticScene, config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Render (num_classes + 3, H, W) float32 channels.

    Channel layout: per-class blob intensity (with ``crosstalk`` bleeding
    into the next class channel), summed luminance, then blob-weighted
    cos(2*angle) and sin(2*angle).  Gaussian pixel noise is added to every
    channel last, so the stored array is the finished observation.
    """
    h, w = scene.height, scene.width
    k = config.num_classes
    channels = np.zeros((k + 3, h, w), dtype=np.float64)
    lum, cos_ch, sin_ch = channels[k], channels[k + 1], channels[k + 2]
    for row, cls in zip(scene.boxes, scene.classes):
        box = RotatedBox(*row)
        x0, y0, x1, y1 = box.aabb()
        # Pad by one sigma so the blob tail does not get a hard edge.
        pad = config.sigma_frac * max(box.w, box.h)
        ix0 = max(int(math.floor(x0 - pad)), 0)
        ix1 = min(int(math.ceil(x1 + pad)), w)
        iy0 = max(int(math.floor(y0 - pad)), 0)
        iy1 = min(int(math.ceil(y1 + pad)), h)
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        xs = np.arange(ix0, ix1, dtype=np.float64) + 0.5 - box.cx
        ys = (np.arange(iy0, iy1, dtype=np.float64) + 0.5 - box.cy)[:, None]
        c, s = math.cos(box.angle), math.sin(box.angle)
        local_x = xs * c + ys * s
        local_y = -xs * s + ys * c
        sigma_x = config.sigma_frac * box.w
        sigma_y = config.sigma_frac * box.h
        blob = config.amplitude * np.exp(
            -0.5 * ((local_x / sigma_x) ** 2 + (local_y / sigma_y) ** 2)
        )
        channels[int(cls), iy0:iy1, ix0:ix1] += blob
        if k > 1 and config.crosstalk > 0.0:
            channels[(int(cls) + 1) % k, iy0:iy1, ix0:ix1] += config.crosstalk * blob
        lum[iy0:iy1, ix0:ix1] += blob
        cos_ch[iy0:iy1, ix0:ix1] += blob * math.cos(2.0 * box.angle)
        sin_ch[iy0:iy1, ix0:ix1] += blob * math.sin(2.0 * box.angle)
    if config.noise_sigma > 0.0:
        noise = rng.standard_normal(channels.shape)
        noise *= config.noise_sigma
        channels += noise
    return channels.astype(np.float32)


def flip_ground_truth(scene: SyntheticScene) -> SyntheticScene:
    """Mirror the ground truth about the vertical axis: box centers map
    cx -> W - cx and angles negate."""
    boxes = scene.boxes.copy()
    if boxes.size:
        boxes[:, 0] = scene.width - boxes[:, 0]
        boxes[:, 4] = normalize_angles(-boxes[:, 4])
    return SyntheticScene(
        height=scene.height,
        width=scene.width,
        boxes=boxes,
        classes=scene.classes.copy(),
        layout=scene.layout,
        scene_id=scene.scene_id,
    )


def flip_scene(scene: SyntheticScene, channels: np.ndarray) -> tuple[SyntheticScene, np.ndarray]:
    """Mirror scene and channels about the vertical axis.

    The ground truth flips as in :func:`flip_ground_truth`; the sin(2a)
    channel flips sign because the mirrored angle is -a.  Involutive:
    applying twice returns the original up to float identity.
    """
    out = channels[:, :, ::-1].copy()
    out[-1] = -out[-1]
    return flip_ground_truth(scene), out


@dataclass
class AugmentConfig:
    """Strong-view pixel parameters.

    Weak views only flip (:func:`flip_scene`).  Strong views share the
    weak view's flip and add pixel jitter plus a blur; with all three
    amplitudes at 0 a strong view equals the weak view bit-for-bit.
    """

    add_sigma: float = 0.05
    mul_sigma: float = 0.1
    blur_sigma: float = 0.6

    def __post_init__(self) -> None:
        for name in ("add_sigma", "mul_sigma", "blur_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def strong_augment(
    scene: SyntheticScene,
    channels: np.ndarray,
    rng: np.random.Generator,
    config: AugmentConfig,
    flip: bool,
) -> tuple[SyntheticScene, np.ndarray, bool]:
    """Flip + pixel jitter + blur.

    ``flip`` is the weak view's flip of the same scene, so the teacher's
    sampled positions line up with the student's grid with no coordinate
    remapping.
    """
    if flip:
        scene, channels = flip_scene(scene, channels)
    out = channels.astype(np.float32, copy=True)
    if config.mul_sigma > 0.0:
        out *= 1.0 + config.mul_sigma * rng.standard_normal(out.shape).astype(np.float32)
    if config.add_sigma > 0.0:
        out += config.add_sigma * rng.standard_normal(out.shape).astype(np.float32)
    if config.blur_sigma > 0.0:
        # Zero sigma on the channel axis: each channel is blurred alone.
        out = gaussian_filter(out, sigma=(0.0, config.blur_sigma, config.blur_sigma), mode="nearest")
    return scene, out, flip


def generate_dataset(
    config: SceneConfig, count: int, seed: int
) -> Iterator[tuple[SyntheticScene, np.ndarray]]:
    """Yield ``count`` scenes, each driven by an independent child seed,
    so scene i is identical no matter how many scenes surround it."""
    children = np.random.SeedSequence(seed).spawn(count)
    for i, child in enumerate(children):
        yield generate_scene(config, np.random.default_rng(child), scene_id=i)


def _save_scenes(out_dir: Path, config: SceneConfig, seed: int, start: int, stop: int) -> list[str]:
    """Generate scenes ``start`` to ``stop - 1`` of a dataset, save each
    channel stack, and return their ``index.jsonl`` lines in scene order.

    Scene i is driven by ``SeedSequence(seed).spawn(count)[i]``, the child
    seed :func:`generate_dataset` gives it, built here without spawning
    its predecessors.
    """
    lines = []
    for i in range(start, stop):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        scene, channels = generate_scene(config, np.random.default_rng(child), scene_id=i)
        name = f"scene_{i:05d}.npy"
        np.save(out_dir / name, channels)
        record = {
            "scene_id": i,
            "file": name,
            "height": scene.height,
            "width": scene.width,
            "layout": scene.layout,
            "boxes": [[float(v) for v in row] for row in scene.boxes],
            "classes": [int(c) for c in scene.classes],
        }
        lines.append(canonical_line(record))
    return lines


def _scene_worker(sender, out_dir: Path, config: SceneConfig, seed: int, start: int, stop: int) -> None:
    """Worker process body: send :func:`_save_scenes`'s lines, or the
    exception that stopped it, to the parent."""
    try:
        result = _save_scenes(out_dir, config, seed, start, stop)
    except Exception as exc:  # raised again by the parent
        result = exc
    sender.send(result)


def _save_in_workers(out_dir: Path, config: SceneConfig, seed: int, count: int, workers: int) -> list[str]:
    """:func:`_save_scenes` split into ``workers`` contiguous ranges of
    scenes: this process takes the first range and a forked worker
    process each later one.  Returns the index lines in scene order;
    every worker is joined before this returns or raises.

    Forked workers start with the program already imported; scene
    generation shares no state and holds no lock or thread.  The lines
    are received on this thread, not on a pool's result thread, whose
    malloc arena would keep their memory after the pool is gone.
    """
    context = multiprocessing.get_context("fork")
    bounds = [count * k // workers for k in range(workers + 1)]
    jobs = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_scene_worker, args=(sender, out_dir, config, seed, start, stop))
            worker.start()
            sender.close()
            jobs.append((worker, receiver))
        index_lines = _save_scenes(out_dir, config, seed, bounds[0], bounds[1])
        for worker, receiver in jobs:
            try:
                result = receiver.recv()
            except EOFError:
                raise RuntimeError(f"scene worker {worker.pid} exited without a result") from None
            if isinstance(result, Exception):
                raise result
            index_lines += result
    except BaseException:
        for worker, _ in jobs:
            worker.terminate()
        raise
    finally:
        for worker, receiver in jobs:
            worker.join()
            receiver.close()
    return index_lines


def save_dataset(
    out_dir: Path,
    config: SceneConfig,
    count: int,
    seed: int,
) -> dict:
    """Generate and write a dataset directory.

    Layout: ``scene_00000.npy`` float32 channel stacks, an
    ``index.jsonl`` with one record per scene (ground truth inline), and
    a ``manifest.json`` echoing the generating configuration.  All files
    are byte-deterministic for a fixed (config, count, seed), whatever
    the number of worker processes.

    Scenes are independent, so they are generated by one process per
    CPU this process may use (at most ``count``): this one and forked
    workers, each taking a contiguous range of scene indices.  With one
    CPU, one scene or a daemonic caller this process generates them all.
    The index and the manifest are written last, once every scene is
    saved: a failed scene, such as a :class:`SceneGenerationError`,
    leaves the directory with neither.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A split rewritten in place must not keep the index or manifest of
    # an earlier one if this run fails.
    for stale in ("index.jsonl", "manifest.json"):
        (out_dir / stale).unlink(missing_ok=True)
    # A daemonic process, such as a multiprocessing.Pool worker, may not
    # start processes of its own.
    workers = 1 if multiprocessing.current_process().daemon else len(os.sched_getaffinity(0))
    index_lines = _save_in_workers(out_dir, config, seed, count, max(1, min(workers, count)))
    write_atomic(out_dir / "index.jsonl", "".join(line + "\n" for line in index_lines).encode())
    manifest = {
        "kind": "scene-dataset",
        "version": 1,
        "count": count,
        "seed": seed,
        "config": {k: getattr(config, k) for k in config.__dataclass_fields__},
    }
    write_atomic(out_dir / "manifest.json", (canonical_line(manifest) + "\n").encode())
    return manifest


class InMemoryScenes:
    """List-backed dataset with the same access surface as
    :class:`SceneDataset`; handy for tests and tiny experiments."""

    def __init__(self, items: list[tuple[SyntheticScene, np.ndarray]]):
        self.scenes = [scene for scene, _ in items]
        self._channels = [channels for _, channels in items]

    def __len__(self) -> int:
        return len(self.scenes)

    def channels(self, i: int) -> np.ndarray:
        return self._channels[i]


class SceneDataset:
    """Lazy reader for a saved dataset directory.

    Scenes (ground truth) load eagerly from the index; channel stacks
    load on demand per scene to keep memory flat during training.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        index = self.root / "index.jsonl"
        if not index.exists():
            raise FileNotFoundError(f"no dataset at {self.root} (missing index.jsonl)")
        records = [json.loads(line) for line in index.read_text().splitlines() if line]
        self.scenes = [
            SyntheticScene(
                height=rec["height"],
                width=rec["width"],
                boxes=np.array(rec["boxes"], dtype=np.float64).reshape(-1, 5),
                classes=np.array(rec["classes"], dtype=np.int64),
                layout=rec["layout"],
                scene_id=rec["scene_id"],
            )
            for rec in records
        ]
        # What channels() reads; the boxes live on in ``scenes``.
        self._files = [(rec["file"], rec["height"], rec["width"]) for rec in records]

    def __len__(self) -> int:
        return len(self.scenes)

    def channels(self, i: int) -> np.ndarray:
        """Scene ``i``'s (C, H, W) float32 channel stack.

        Raises ``ValueError`` naming the file if the stored array is not
        3-D float32 with the index record's height and width.
        """
        name, height, width = self._files[i]
        path = self.root / name
        array = np.load(path)
        if array.dtype != np.float32 or array.ndim != 3 or array.shape[1:] != (height, width):
            raise ValueError(
                f"{path}: channel stack is {array.dtype} {array.shape}, expected float32 (C, {height}, {width})"
            )
        return array
