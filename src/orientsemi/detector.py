"""A linear dense detector over handcrafted local features.

Per grid cell the model predicts class scores, a box relative to the
cell center, centerness, and a localisation-quality (predicted IoU)
score.  Every head is a linear readout of the same feature column, so
the full Jacobian is available in closed form and one matrix multiply
runs the dense forward pass for a whole scene.

Head rows of the weight matrix, for K classes:

    0..K-1   class logits (sigmoid)
    K + 0/1  dx, dy offsets in pixels
    K + 2/3  log width, log height (exp-decoded, clipped to side bounds)
    K + 4/5  cos(2a), sin(2a) direction pair (unit-normalised on decode)
    K + 6    centerness logit (sigmoid)
    K + 7    predicted-IoU logit (sigmoid)

Features are raw channels plus box-filter means at three scales, two
wider luminance means, a luminance gradient magnitude, and a bias, so a
(K+3)-channel scene yields 3(K+3) + 4 features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.special import expit

from orientsemi.sampling import DensePrediction

NUM_EXTRA_HEADS = 8
OFF_DX = 0
OFF_DY = 1
OFF_LOGW = 2
OFF_LOGH = 3
OFF_COS = 4
OFF_SIN = 5
OFF_CTR = 6
OFF_IOU = 7

# Keeps the direction pair's normalisation differentiable at the origin.
DIRECTION_EPS = 1e-6


@dataclass
class DetectorConfig:
    """Box decoding bounds and initialisation; the class count comes from
    the scene config, which also fixes the channel count."""

    min_side: float = 0.5
    max_side: float = 64.0
    cls_bias_init: float = -4.0
    size_bias_init: float = math.log(8.0)
    init_scale: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.min_side < self.max_side:
            raise ValueError("need 0 < min_side < max_side")

    def num_features(self, num_channels: int) -> int:
        return 3 * num_channels + 4


def extract_features(channels: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Feature matrix (F, H*W) float32 from a (C, H, W) channel stack,
    written row by row into ``out`` (a C-contiguous (F, H*W) float32
    array) if given, else into a new one.

    Rows: C raw channels, C three-cell means, C seven-cell means, two
    wide luminance means (15, 31), luminance gradient magnitude, ones.
    The luminance channel is assumed at index C-3 (just before the two
    orientation channels).
    """
    channels = np.asarray(channels, dtype=np.float32)
    c, h, w = channels.shape
    shape = (3 * c + 4, h * w)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError(f"out is {out.dtype} {out.shape}, expected C-contiguous float32 {shape}")
    stack = out.reshape(-1, h, w)
    lum = channels[c - 3]
    stack[:c] = channels
    for start, size in ((c, 3), (2 * c, 7)):
        uniform_filter(channels, size=(1, size, size), mode="nearest", output=stack[start : start + c])
    uniform_filter(lum, size=15, mode="nearest", output=stack[3 * c])
    uniform_filter(lum, size=31, mode="nearest", output=stack[3 * c + 1])
    gy, gx = np.gradient(lum)
    np.multiply(gx, gx, out=gx)
    np.multiply(gy, gy, out=gy)
    np.add(gx, gy, out=gx)
    np.sqrt(gx, out=stack[3 * c + 2])
    stack[3 * c + 3] = 1.0
    return out


def mirror_features(
    features: np.ndarray, num_channels: int, width: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The cell-major feature matrix of a channel stack mirrored by
    :func:`~orientsemi.scenes.flip_scene`, made from the unmirrored
    stack's cell-major ``features`` (N, F'), the transpose of
    :func:`extract_features` or its first F' >= 3C rows: each grid row's
    cells reversed, and the three sin(2a) columns (raw, three-cell and
    seven-cell mean) negated.  Written into ``out`` if given, any (N, F')
    array such as a column slice of a wider matrix; a float32 ``features``
    is cast on the way.

    It equals ``extract_features`` of the mirrored stack bit for bit
    whenever the box filters' running window sums are exact in float64:
    for instance when every channel value is a multiple of 2^-10 below 16
    in magnitude, and on every noisy rendered scene tried.  Where a line
    mixes magnitudes far apart, the running sum rounds, and the mirrored
    stack sums in the opposite order.  The mean columns can then differ by
    that rounding: on a noise-free scene, where blob tails reach 1e-30,
    the two give residues near 1e-26 in different cells.
    """
    if out is None:
        out = np.empty_like(features)
    cols = features.shape[1]
    # Splitting the cell axis is a view of any (N, F') array.
    np.copyto(out.reshape(-1, width, cols), features.reshape(-1, width, cols)[:, ::-1])
    c = num_channels
    # The raw column is the negated channel, so it carries -0.0 where the
    # channel holds +0.0.  A filter's window sum starts at +0.0 and never
    # yields -0.0, so the mean columns negate as 0 - x.
    np.negative(out[:, c - 1], out=out[:, c - 1])
    for col in (2 * c - 1, 3 * c - 1):
        np.subtract(0.0, out[:, col], out=out[:, col])
    return out


@dataclass
class ToyDetectorParams:
    """Weight matrix (num_heads, num_features), float64."""

    weights: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        if self.weights.shape[0] != self.num_classes + NUM_EXTRA_HEADS:
            raise ValueError(
                f"weights have {self.weights.shape[0]} rows, expected "
                f"{self.num_classes + NUM_EXTRA_HEADS} for {self.num_classes} classes"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @classmethod
    def initialize(
        cls, num_channels: int, num_classes: int, rng: np.random.Generator, config: DetectorConfig
    ) -> "ToyDetectorParams":
        k = num_classes
        shape = (k + NUM_EXTRA_HEADS, config.num_features(num_channels))
        weights = config.init_scale * rng.standard_normal(shape)
        # Bias feature is the last column: start classes rare and boxes
        # at a plausible prior size.
        weights[:k, -1] = config.cls_bias_init
        weights[k + OFF_LOGW, -1] = config.size_bias_init
        weights[k + OFF_LOGH, -1] = config.size_bias_init
        return cls(weights=weights, num_classes=k)

    def copy(self) -> "ToyDetectorParams":
        return ToyDetectorParams(weights=self.weights.copy(), num_classes=self.num_classes)


def forward(params: ToyDetectorParams, features: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Raw head outputs (num_heads, N) for a feature matrix (F, N),
    written into ``out`` (float64, C-contiguous) if given."""
    return np.matmul(params.weights, features, out=out)


def decode_angle(cos_raw: np.ndarray, sin_raw: np.ndarray) -> np.ndarray:
    """Angle from an unnormalised direction pair, in (-pi/2, pi/2]."""
    return 0.5 * np.arctan2(sin_raw, cos_raw)


def decode_dense(
    params: ToyDetectorParams,
    raw: np.ndarray,
    height: int,
    width: int,
    config: DetectorConfig,
) -> DensePrediction:
    """Decode raw head outputs into per-cell boxes and probabilities."""
    k = params.num_classes
    n = height * width
    if raw.shape != (params.weights.shape[0], n):
        raise ValueError(f"raw shape {raw.shape} does not match grid {height}x{width}")
    cls_prob = expit(raw[:k]).T.reshape(height, width, k)
    ys, xs = np.divmod(np.arange(n), width)
    log_lo, log_hi = math.log(config.min_side), math.log(config.max_side)
    cx = xs + 0.5 + raw[k + OFF_DX]
    cy = ys + 0.5 + raw[k + OFF_DY]
    bw = np.exp(np.clip(raw[k + OFF_LOGW], log_lo, log_hi))
    bh = np.exp(np.clip(raw[k + OFF_LOGH], log_lo, log_hi))
    angle = decode_angle(raw[k + OFF_COS], raw[k + OFF_SIN])
    angle = np.where(angle >= math.pi / 2, angle - math.pi, angle)
    boxes = np.stack([cx, cy, bw, bh, angle], axis=1).reshape(height, width, 5)
    centerness = expit(raw[k + OFF_CTR]).reshape(height, width)
    predicted_iou = expit(raw[k + OFF_IOU]).reshape(height, width)
    return DensePrediction(
        class_scores=cls_prob,
        boxes=boxes,
        centerness=centerness,
        predicted_iou=predicted_iou,
    )


def encode_boxes(boxes: np.ndarray, iy: np.ndarray, ix: np.ndarray) -> tuple[np.ndarray, ...]:
    """Regression targets for (cx, cy, w, h, angle) rows at grid cells
    ``(iy, ix)``: the encoding that :func:`decode_dense` inverts, up to
    its side clipping and direction normalisation.

    Returns ``(dx, dy, log w, log h, cos 2a, sin 2a)``; the offsets are
    from the cell center.
    """
    return (
        boxes[:, 0] - (ix + 0.5),
        boxes[:, 1] - (iy + 0.5),
        np.log(boxes[:, 2]),
        np.log(boxes[:, 3]),
        np.cos(2.0 * boxes[:, 4]),
        np.sin(2.0 * boxes[:, 4]),
    )


def predict_dense(
    params: ToyDetectorParams,
    channels: np.ndarray,
    config: DetectorConfig,
) -> DensePrediction:
    """Features -> forward -> decode, for a (C, H, W) channel stack."""
    _, height, width = channels.shape
    raw = forward(params, extract_features(channels))
    return decode_dense(params, raw, height, width, config)
