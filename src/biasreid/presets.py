"""Bundled dataset + branch presets sized for desk-scale runs.

Each preset pairs a synthetic generator config with branch-training defaults
that make both directions of the bias-control effect measurable in seconds.
The feature dimension is deliberately smaller than the total latent dimension
so identity and bias factors superpose: suppressing one then genuinely costs
the other, which is what makes over-suppression visible at this scale.

The presets keep BranchConfig's bias weight, lam_db 0.02. The pool-mean bias
hinge (see losses) stays live for the whole run, so the enhance branch keeps
pulling each bias class together, and that pull competes with identity. On
the default preset (seeds 0-2), 0.05 lowers enhance rank1 to 0.93 and the
R+E concatenation below the identity-only baseline, while 0.015-0.03 keep
the concatenation at or above the baseline and still move same-bias
negatives up the enhance branch's rankings; 0.02 sits inside that range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import as_float, as_int, as_str, check_keys
from .dataset import ChannelSpec, GeneratorConfig, parse_channel_spec
from .errors import ConfigError

GEN_CONFIG_KEYS = {
    "n_ids": "number of identities (default 120)",
    "samples_per_id": "samples per identity (default 6)",
    "d_id": "identity latent dimension (default 16)",
    "d_in": "feature dimension (default 16)",
    "sigma": "per-sample noise scale (default 0.2)",
    "channels": "bias channels as name:classes:latent_dim:gain, comma separated",
    "mix_seed": "seed for the fixed mixing matrices (default 0)",
    "feature_scale": "global feature scaling (default 0.05)",
    "eval_fraction": "fraction of identities held out for query/gallery (default 0.4)",
}

_DEFAULT_CHANNELS = "pose:3:8:1.2,cam:2:8:0.5"


def generator_config_from_dict(values: dict[str, str]) -> tuple[GeneratorConfig, float]:
    """Build (GeneratorConfig, eval_fraction) from raw key=value strings."""
    check_keys(values, GEN_CONFIG_KEYS, what="generator config")
    cfg = GeneratorConfig(
        n_ids=as_int(values, "n_ids", 120),
        samples_per_id=as_int(values, "samples_per_id", 6),
        d_id=as_int(values, "d_id", 16),
        d_in=as_int(values, "d_in", 16),
        sigma=as_float(values, "sigma", 0.2),
        channels=parse_channel_spec(as_str(values, "channels", _DEFAULT_CHANNELS)),
        mix_seed=as_int(values, "mix_seed", 0),
        feature_scale=as_float(values, "feature_scale", 0.05),
    )
    cfg.validate()
    fraction = as_float(values, "eval_fraction", 0.4)
    if not 0 <= fraction <= 1:
        raise ConfigError(f"eval_fraction must be in [0, 1], got {fraction}")
    return cfg, fraction


@dataclass(frozen=True)
class Preset:
    name: str
    generator: GeneratorConfig
    eval_fraction: float
    bias_channel: str
    branch_overrides: dict = field(default_factory=dict)


def _preset(name, channels, bias_channel, sigma=0.2, n_ids=120, **branch) -> Preset:
    return Preset(
        name=name,
        generator=GeneratorConfig(
            n_ids=n_ids,
            samples_per_id=6,
            d_id=16,
            d_in=16,
            sigma=sigma,
            channels=channels,
            mix_seed=0,
            feature_scale=0.05,
        ),
        eval_fraction=0.4,
        bias_channel=bias_channel,
        branch_overrides=dict(
            {
                "p": 8,
                "k": 4,
                "epochs": 100,
                "rate": 0.0003,
                "margin_id": 0.3,
                "margin_bias": 2.0,
                "hidden": (64, 64),
                "d_emb": 64,
            },
            **branch,
        ),
    )


PRESETS: dict[str, Preset] = {
    # three pose classes plus a weaker two-camera channel; pose is audited
    "default": _preset(
        "default",
        (ChannelSpec("pose", 3, 8, 1.2), ChannelSpec("cam", 2, 8, 0.5)),
        "pose",
        epochs=200,
    ),
    # noise-free two-pose-class setting (front/profile style)
    "pose2": _preset(
        "pose2",
        (ChannelSpec("pose", 2, 8, 1.2), ChannelSpec("cam", 2, 8, 0.5)),
        "pose",
        sigma=0.0,
        n_ids=80,
        epochs=60,
    ),
    # six cameras as the audited channel, pose as secondary nuisance
    "cam6": _preset(
        "cam6",
        (ChannelSpec("pose", 3, 8, 0.5), ChannelSpec("cam", 6, 8, 1.2)),
        "cam",
        epochs=60,
    ),
    # three visible-body-part classes, two cameras
    "part3": _preset(
        "part3",
        (ChannelSpec("part", 3, 8, 1.2), ChannelSpec("cam", 2, 8, 0.5)),
        "part",
        epochs=60,
    ),
}


def get_preset(name: str) -> Preset:
    key = name.removeprefix("preset-")
    if key not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[key]


def preset_branch_config(preset: Preset, *, mode: str = "reduce", seed: int = 0, **overrides):
    """Materialize a BranchConfig from a preset's branch defaults."""
    from .trainer import BranchConfig

    kw = dict(preset.branch_overrides)
    kw.update(overrides)
    return BranchConfig(mode=mode, bias_channel=preset.bias_channel, seed=seed, **kw)
