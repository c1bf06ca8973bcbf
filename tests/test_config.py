from dataclasses import replace

import pytest

from biasreid.config import comma_list, from_kv, spell, to_kv
from biasreid.dataset import GEN_CONFIG_KEYS, ChannelSpec, GeneratorConfig
from biasreid.errors import ConfigError
from biasreid.evaluation import PROBE_CONFIG_KEYS, ProbeConfig
from biasreid.trainer import BRANCH_CONFIG_KEYS, BranchConfig


@pytest.mark.parametrize(
    "cfg,keys",
    [
        (BranchConfig(mode="enhance", lam_db=0.125, hidden=(8,)), BRANCH_CONFIG_KEYS),
        (BranchConfig(hidden=()), BRANCH_CONFIG_KEYS),
        (GeneratorConfig(channels=(ChannelSpec("pose", 3, 8, 1.23456789),
                                   ChannelSpec("cam", 2, 4, 0.1)),
                         sigma=1 / 3, eval_fraction=0.25),
         GEN_CONFIG_KEYS),
        (ProbeConfig(epochs=7, rate=0.003, train_fraction=0.6, seed=2), PROBE_CONFIG_KEYS),
    ],
    ids=["branch", "branch_no_hidden", "generator", "probe"],
)
def test_kv_round_trip(cfg, keys):
    # every field is reachable through a key, and its text reads back exactly
    text = {key: str(value) for key, value in to_kv(cfg, keys).items()}
    assert from_kv(type(cfg)(), text, keys, what="test") == cfg


@pytest.mark.parametrize("values", [(), (0.0123456789,), (0.005, 1e-05, 0.1)])
def test_comma_list_reads_its_spelling(values):
    assert comma_list(spell(values), float) == values



@pytest.mark.parametrize(
    "build",
    [
        lambda: BranchConfig(p=1),
        lambda: replace(BranchConfig(), lam_db=-1),
        lambda: GeneratorConfig(n_ids=1),
        lambda: ProbeConfig(epochs=-1),
    ],
    ids=["branch", "branch_replace", "generator", "probe"],
)
def test_no_invalid_config_can_be_built(build):
    # each config checks itself when built, and `replace` builds a new one
    with pytest.raises(ConfigError):
        build()
