"""Run configuration: dataclasses, INI round-trip, and overrides.

A run is described by four sections: ``[scene]`` (generator), ``[detector]``
(feature/head model), ``[semi]`` (optimisation and the teacher-student
machinery), and ``[tab1]`` (the five headline method hyper-parameters).
Each settable value lives in exactly one section field, with one default.
``load_ini``, ``apply_overrides`` and ``RunConfig.from_dict`` share one
update path: it coerces values using the field types, rebuilds each
touched section once, and ends with :meth:`RunConfig.check`, so a typo'd
key or an out-of-range value fails before training starts instead of
silently training the wrong thing or failing deep inside the loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
from configparser import ConfigParser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, get_type_hints

from orientsemi.detector import DetectorConfig
from orientsemi.records import canonical_line
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

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Raise ``ValueError`` if a setting is out of range."""
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.global_threshold < 0:
            raise ValueError(f"global_threshold must be >= 0, got {self.global_threshold}")


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
    ot_max_iters: int = 10000
    ot_tolerance: float = 1e-6
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
        self.check()

    def check(self) -> None:
        """Raise ``ValueError`` if a setting is out of range."""
        if self.total_iters < 1:
            raise ValueError("total_iters must be >= 1")
        if not 0.0 < self.ema_momentum <= 1.0:
            raise ValueError("ema_momentum must be in (0, 1]")
        if not 0.0 <= self.burn_in_frac < 1.0:
            raise ValueError("burn_in_frac must be in [0, 1)")
        if self.sampler not in ("sids", "topk"):
            raise ValueError(f"sampler must be 'sids' or 'topk', got {self.sampler!r}")
        if self.topk < 0:
            raise ValueError(f"topk must be >= 0, got {self.topk}")
        if self.labeled_batch < 1 or self.unlabeled_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("weight_decay", "grad_clip"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(f"flip_probability must be in [0, 1], got {self.flip_probability}")
        for name in ("ot_epsilon", "ot_tolerance"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.ot_max_iters < 1:
            raise ValueError(f"ot_max_iters must be >= 1, got {self.ot_max_iters}")

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

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            add_sigma=self.semi.add_sigma,
            mul_sigma=self.semi.mul_sigma,
            blur_sigma=self.semi.blur_sigma,
        )

    def check(self) -> None:
        """Raise ``ValueError`` if a setting is out of range.

        Sections check themselves on construction, and ``[semi]`` and
        ``[tab1]`` again here, since code may set their fields after
        construction; building the two mechanism configs runs the checks
        on the settings they take from ``[semi]`` and ``[tab1]``, which
        otherwise would fire only at the first unlabeled step.
        """
        self.semi.check()
        self.tab1.check()
        self.sampler_config()
        self.augment_config()

    def to_dict(self) -> dict:
        return {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`."""
        return _update(cls(), ((name, key, value) for name, section in data.items() for key, value in section.items()))

    def digest(self) -> str:
        return hashlib.sha256(canonical_line(self.to_dict()).encode()).hexdigest()[:16]


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


def _update(config: RunConfig, items: Iterable[tuple[str, str, object]]) -> RunConfig:
    """Set ``(section, key, value)`` items on ``config``, then check it.

    String values are parsed by the field's type.  Each touched section is
    rebuilt once, so its own checks see the final values; later items win
    over earlier ones for the same key.
    """
    changes: dict[str, dict] = {}
    for section_name, key, value in items:
        if section_name not in _SECTIONS:
            raise KeyError(f"unknown config section {section_name!r}")
        types = get_type_hints(_SECTIONS[section_name])
        if key not in types:
            raise KeyError(f"unknown key [{section_name}] {key}")
        changes.setdefault(section_name, {})[key] = _coerce(value, types[key]) if isinstance(value, str) else value
    for section_name, values in changes.items():
        setattr(config, section_name, dataclasses.replace(getattr(config, section_name), **values))
    config.check()
    return config


def load_ini(path: Path) -> RunConfig:
    """Read a config file; keys absent in the file keep their defaults."""
    parser = ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return _update(RunConfig(), ((name, key, raw) for name in parser.sections() for key, raw in parser.items(name)))


def _split_override(item: str) -> tuple[str, str, str]:
    if "=" not in item:
        raise ValueError(f"override {item!r} is not of the form section.key=value")
    key_path, raw = item.split("=", 1)
    if "." not in key_path:
        raise ValueError(f"override key {key_path!r} is not of the form section.key")
    section_name, key = key_path.split(".", 1)
    return section_name, key, raw


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` strings in order; returns the config."""
    return _update(config, map(_split_override, overrides))


def save_ini(config: RunConfig, path: Path) -> None:
    """Write every section and key; the output round-trips via load_ini."""
    parser = ConfigParser()
    for section_name in _SECTIONS:
        parser.add_section(section_name)
        section = getattr(config, section_name)
        for f in dataclasses.fields(section):
            parser.set(section_name, f.name, str(getattr(section, f.name)))
    with open(path, "w") as handle:
        parser.write(handle)
