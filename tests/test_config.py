"""Config dataclasses, INI round-trip, and dotted overrides."""

from pathlib import Path

import pytest

from orientsemi.config import (
    RunConfig,
    SemiConfig,
    apply_overrides,
    load_ini,
    save_ini,
)
from orientsemi.sampling import SamplerConfig
from orientsemi.scenes import AugmentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DEFAULT_INI = CONFIGS / "default.ini"

# Out-of-range settings: each must fail at load time, not at the first
# unlabeled step or never.
OUT_OF_RANGE = [
    "semi.score_floor=2.0",
    "tab1.sample_ratio=0",
    "semi.pre_nms_top=0",
    "semi.ot_epsilon=-1",
    "tab1.beta=-0.5",
    "tab1.global_threshold=-3",
    "semi.ot_max_iters=0",
    "semi.ot_tolerance=0",
    "semi.topk=-1",
    "semi.lr=0",
    "semi.lr=-1",
    "semi.momentum=1",
    "semi.momentum=5",
    "semi.momentum=-0.1",
    "semi.weight_decay=-1e-4",
    "semi.grad_clip=-1",
    "semi.nms_iou=7",
    "semi.nms_iou=-0.1",
    "tab1.hard_iou_threshold=-2",
    "tab1.hard_iou_threshold=1.5",
    "semi.flip_probability=1.5",
    "semi.flip_probability=-0.5",
    "semi.add_sigma=-0.05",
    "semi.mul_sigma=-0.1",
    "semi.blur_sigma=-0.6",
    "scene.noise_sigma=-1",
    "scene.crosstalk=-2",
    "scene.amplitude=0",
    "scene.amplitude=-1",
    "scene.sigma_frac=0",
    "scene.sigma_frac=-0.25",
    "scene.iou_cap=-0.1",
    "scene.iou_cap=1.5",
    "scene.max_attempts=0",
]
# The closed ends of those ranges load.
IN_RANGE = [
    "semi.momentum=0",
    "semi.weight_decay=0",
    "semi.grad_clip=0",
    "semi.nms_iou=0",
    "semi.nms_iou=1",
    "tab1.hard_iou_threshold=0",
    "tab1.hard_iou_threshold=1",
    "semi.flip_probability=0",
    "semi.flip_probability=1",
    "semi.blur_sigma=0",
    "scene.noise_sigma=0",
    "scene.crosstalk=0",
    "scene.iou_cap=0",
    "scene.iou_cap=1",
    "scene.max_attempts=1",
]


class TestSemiConfig:
    def test_burn_in_iters(self):
        semi = SemiConfig(total_iters=2000, burn_in_frac=0.1)
        assert semi.burn_in_iters == 200

    def test_bad_sampler_rejected(self):
        with pytest.raises(ValueError):
            SemiConfig(sampler="random")

    def test_bad_burn_in_rejected(self):
        with pytest.raises(ValueError):
            SemiConfig(burn_in_frac=1.0)


class TestIniRoundTrip:
    def test_defaults_without_file_sections(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        config = load_ini(path)
        assert config.to_dict() == RunConfig().to_dict()

    def test_round_trip_preserves_everything(self, tmp_path):
        config = RunConfig()
        config.semi.total_iters = 123
        config.semi.sampler = "topk"
        config.scene.layout = "clustered"
        config.tab1.psi = 12.5
        path = tmp_path / "run.ini"
        save_ini(config, path)
        loaded = load_ini(path)
        assert loaded.to_dict() == config.to_dict()

    def test_partial_file_overrides_only_named_keys(self, tmp_path):
        path = tmp_path / "partial.ini"
        path.write_text("[semi]\ntotal_iters = 77\n\n[tab1]\npsi = 10\n")
        config = load_ini(path)
        assert config.semi.total_iters == 77
        assert config.tab1.psi == 10.0
        assert config.semi.lr == SemiConfig().lr

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[semi]\nnot_a_key = 1\n")
        with pytest.raises(KeyError):
            load_ini(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad2.ini"
        path.write_text("[nope]\nx = 1\n")
        with pytest.raises(KeyError):
            load_ini(path)

    def test_booleans_parse(self, tmp_path):
        path = tmp_path / "flags.ini"
        path.write_text("[semi]\nsupervised_only = true\nenable_gaw = false\n")
        config = load_ini(path)
        assert config.semi.supervised_only is True
        assert config.semi.enable_gaw is False


class TestOverrides:
    def test_dotted_override(self):
        config = RunConfig()
        apply_overrides(config, ["semi.lr=0.01", "scene.height=128"])
        assert config.semi.lr == 0.01
        assert config.scene.height == 128

    def test_override_bool(self):
        config = RunConfig()
        apply_overrides(config, ["semi.enable_ngc=false"])
        assert config.semi.enable_ngc is False

    def test_bad_override_format(self):
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), ["semi.lr"])

    def test_unknown_override_key(self):
        with pytest.raises(KeyError):
            apply_overrides(RunConfig(), ["semi.bogus=1"])

    def test_digest_changes_with_config(self):
        a = RunConfig()
        b = RunConfig()
        assert a.digest() == b.digest()
        b.semi.lr = 0.5
        assert a.digest() != b.digest()


class TestDefaults:
    def test_default_ini_matches_built_in_defaults(self):
        assert load_ini(DEFAULT_INI).to_dict() == RunConfig().to_dict()

    def test_mechanism_configs_share_the_section_defaults(self):
        config = RunConfig()
        assert config.sampler_config() == SamplerConfig()
        assert config.augment_config() == AugmentConfig()


class TestChecks:
    @pytest.mark.parametrize("override", OUT_OF_RANGE)
    def test_override_rejected(self, override):
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), [override])

    @pytest.mark.parametrize("override", OUT_OF_RANGE)
    def test_ini_value_rejected(self, override, tmp_path):
        key_path, value = override.split("=")
        section, key = key_path.split(".")
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError):
            load_ini(path)

    @pytest.mark.parametrize("override", IN_RANGE)
    def test_range_ends_accepted(self, override):
        apply_overrides(RunConfig(), [override])

    @pytest.mark.parametrize("name", ["default.ini", "benchmark10.ini"])
    def test_shipped_configs_load(self, name):
        load_ini(CONFIGS / name).check()

    def test_field_set_in_code_is_checked(self):
        config = RunConfig()
        config.semi.lr = -1.0
        with pytest.raises(ValueError, match="lr must be > 0"):
            config.check()

    def test_later_override_repairs_earlier(self):
        config = apply_overrides(RunConfig(), ["semi.score_floor=2.0", "semi.score_floor=0.5"])
        assert config.semi.score_floor == 0.5

    def test_removed_keys_rejected(self):
        data = RunConfig().to_dict()
        data["detector"]["num_classes"] = 3
        with pytest.raises(KeyError):
            RunConfig.from_dict(data)
        with pytest.raises(KeyError):
            apply_overrides(RunConfig(), ["semi.plan_weighting=none"])

    def test_from_dict_checks_values(self):
        data = RunConfig().to_dict()
        data["tab1"]["beta"] = -0.5
        with pytest.raises(ValueError):
            RunConfig.from_dict(data)
