"""Run configuration: dataclasses, INI round-trip, and overrides.

A run is described by four sections: ``[scene]`` (generator), ``[detector]``
(feature/head model), ``[semi]`` (optimisation and the teacher-student
machinery), and ``[tab1]`` (the five headline method hyper-parameters).
``load_ini`` reads a file into the dataclasses; ``apply_overrides``
implements ``section.key=value`` command-line overrides; both coerce
values using the dataclass field types, so a typo'd key or value fails
loudly instead of silently training the wrong thing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from configparser import ConfigParser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from orientsemi.consistency import NgcConfig
from orientsemi.detector import DetectorConfig
from orientsemi.sampling import SamplerConfig
from orientsemi.scenes import AugmentConfig, SceneConfig


@dataclass
class Tab1Config:
    """The five method hyper-parameters, with their published defaults."""

    psi: float = 50.0
    sample_ratio: float = 0.25
    hard_iou_threshold: float = 0.1
    beta: float = 0.3
    global_threshold: int = 150


@dataclass
class SemiConfig:
    """Optimisation, batching, augmentation, and solver settings."""

    total_iters: int = 2000
    lr: float = 0.0025
    momentum: float = 0.9
    weight_decay: float = 1e-4
    grad_clip: float = 10.0
    lr_gamma: float = 0.1
    lr_step_frac1: float = 2.0 / 3.0
    lr_step_frac2: float = 8.0 / 9.0
    ema_momentum: float = 0.999
    burn_in_frac: float = 0.1
    labeled_batch: int = 2
    unlabeled_batch: int = 1
    unsup_weight: float = 1.0
    sampler: str = "sids"
    topk: int = 256
    supervised_only: bool = False
    enable_gaw: bool = True
    enable_ngc: bool = True
    ot_epsilon: float = 0.1
    ot_max_iters: int = 1000
    ot_tolerance: float = 1e-6
    plan_weighting: str = "none"
    score_floor: float = 0.05
    nms_iou: float = 0.1
    pre_nms_top: int = 2000
    max_hard: int = 0
    iou_pos_samples: int = 96
    iou_neg_samples: int = 96
    flip_probability: float = 0.5
    add_sigma: float = 0.05
    mul_sigma: float = 0.1
    blur_sigma: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_iters < 1:
            raise ValueError("total_iters must be >= 1")
        if not 0.0 < self.ema_momentum <= 1.0:
            raise ValueError("ema_momentum must be in (0, 1]")
        if not 0.0 <= self.burn_in_frac < 1.0:
            raise ValueError("burn_in_frac must be in [0, 1)")
        if self.sampler not in ("sids", "topk"):
            raise ValueError(f"sampler must be 'sids' or 'topk', got {self.sampler!r}")
        if self.labeled_batch < 1 or self.unlabeled_batch < 1:
            raise ValueError("batch sizes must be >= 1")

    @property
    def burn_in_iters(self) -> int:
        return int(round(self.burn_in_frac * self.total_iters))


@dataclass
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    semi: SemiConfig = field(default_factory=SemiConfig)
    tab1: Tab1Config = field(default_factory=Tab1Config)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            score_floor=self.semi.score_floor,
            nms_iou=self.semi.nms_iou,
            sample_ratio=self.tab1.sample_ratio,
            hard_iou_threshold=self.tab1.hard_iou_threshold,
            pre_nms_top=self.semi.pre_nms_top,
            max_hard=self.semi.max_hard if self.semi.max_hard > 0 else None,
        )

    def ngc_config(self) -> NgcConfig:
        return NgcConfig(
            epsilon=self.semi.ot_epsilon,
            max_iters=self.semi.ot_max_iters,
            tolerance=self.semi.ot_tolerance,
            beta=self.tab1.beta,
            global_threshold=self.tab1.global_threshold,
            plan_weighting=self.semi.plan_weighting,
        )

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            flip_probability=self.semi.flip_probability,
            add_sigma=self.semi.add_sigma,
            mul_sigma=self.semi.mul_sigma,
            blur_sigma=self.semi.blur_sigma,
        )

    def to_dict(self) -> dict:
        return {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(**{name: section_cls(**data[name]) for name, section_cls in _SECTIONS.items()})

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_SECTIONS = {
    "scene": SceneConfig,
    "detector": DetectorConfig,
    "semi": SemiConfig,
    "tab1": Tab1Config,
}


def _coerce(raw: str, target_type: type):
    if target_type is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse {raw!r} as a boolean")
    if target_type is int:
        return int(raw)
    if target_type is float:
        return float(raw)
    return raw


def _field_types(cls: type) -> dict[str, type]:
    return {f.name: f.type if isinstance(f.type, type) else _resolve(f.type) for f in dataclasses.fields(cls)}


def _resolve(annotation: str) -> type:
    return {"int": int, "float": float, "bool": bool, "str": str}.get(annotation, str)


def load_ini(path: Path) -> RunConfig:
    """Read a config file; keys absent in the file keep their defaults."""
    parser = ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    config = RunConfig()
    for section_name, section_cls in _SECTIONS.items():
        if not parser.has_section(section_name):
            continue
        types = _field_types(section_cls)
        current = getattr(config, section_name)
        values = {f.name: getattr(current, f.name) for f in dataclasses.fields(section_cls)}
        for key, raw in parser.items(section_name):
            if key not in types:
                raise KeyError(f"unknown key [{section_name}] {key}")
            values[key] = _coerce(raw, types[key])
        setattr(config, section_name, section_cls(**values))
    extra = set(parser.sections()) - set(_SECTIONS)
    if extra:
        raise KeyError(f"unknown config sections: {sorted(extra)}")
    return config


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` strings in order; returns the config."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form section.key=value")
        key_path, raw = item.split("=", 1)
        if "." not in key_path:
            raise ValueError(f"override key {key_path!r} is not of the form section.key")
        section_name, key = key_path.split(".", 1)
        if section_name not in _SECTIONS:
            raise KeyError(f"unknown config section {section_name!r}")
        section_cls = _SECTIONS[section_name]
        types = _field_types(section_cls)
        if key not in types:
            raise KeyError(f"unknown key [{section_name}] {key}")
        current = getattr(config, section_name)
        values = {f.name: getattr(current, f.name) for f in dataclasses.fields(section_cls)}
        values[key] = _coerce(raw, types[key])
        setattr(config, section_name, section_cls(**values))
    return config


def save_ini(config: RunConfig, path: Path) -> None:
    """Write every section and key; the output round-trips via load_ini."""
    parser = ConfigParser()
    for section_name, _ in _SECTIONS.items():
        parser.add_section(section_name)
        section = getattr(config, section_name)
        for f in dataclasses.fields(section):
            parser.set(section_name, f.name, str(getattr(section, f.name)))
    with open(path, "w") as handle:
        parser.write(handle)
