"""Configuration loading, validation, and hashing."""

import inspect
import json

import numpy as np
import pytest

from kvdiff import config, denoiser, diffusion, evaluation, finetune
from kvdiff.errors import InvalidInput


def test_defaults_load_without_file():
    cfg = config.load_config()
    assert cfg == config.DEFAULT_CONFIG
    assert cfg is not config.DEFAULT_CONFIG        # deep copy, not aliasing


def test_file_and_explicit_overrides(tmp_path):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump({"schedule": {"T": 50}, "train": {"steps": 12}}, fh)
    cfg = config.load_config(path, {"sampler": {"steps": 10}})
    assert cfg["schedule"]["T"] == 50
    assert cfg["train"]["steps"] == 12
    assert cfg["sampler"]["steps"] == 10
    # untouched sections keep defaults
    assert cfg["retrieval"] == config.DEFAULT_CONFIG["retrieval"]


def test_unknown_keys_rejected_with_path(tmp_path):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump({"train": {"momentum": 0.9}}, fh)
    with pytest.raises(InvalidInput, match="train.momentum"):
        config.load_config(path)
    with pytest.raises(InvalidInput, match="optimizer"):
        config.load_config(None, {"optimizer": {}})


def test_value_validation():
    with pytest.raises(InvalidInput):
        config.load_config(None, {"train": {"learning_rate": 0.0}})
    with pytest.raises(InvalidInput):
        config.load_config(None, {"retrieval": {"threshold": 2.0}})
    with pytest.raises(InvalidInput):
        config.load_config(None, {"sampler": {"steps": 0}})
    with pytest.raises(InvalidInput):   # cross-field constraint
        config.load_config(None, {"schedule": {"T": 10}, "sampler": {"steps": 20}})
    with pytest.raises(InvalidInput, match="train must be a table"):
        config.load_config(None, {"train": 5})
    with pytest.raises(InvalidInput):   # a JSON list instead of the top-level table
        config.load_config(None, [1, 2])


def test_config_hash_stability():
    a = config.load_config()
    b = config.load_config()
    assert config.config_hash(a) == config.config_hash(b)
    c = config.load_config(None, {"train": {"seed": 1}})
    assert config.config_hash(a) != config.config_hash(c)
    assert len(config.config_hash(a)) == 16


def test_library_defaults_come_from_the_config_table():
    cfg = config.load_config()
    assert finetune.FineTuneConfig() == finetune.FineTuneConfig(**cfg["train"])
    assert denoiser.ModelConfig() == denoiser.ModelConfig(**cfg["model"])
    fallback = diffusion.NoiseSchedule.linear()
    table = diffusion.NoiseSchedule.linear(**cfg["schedule"])
    assert (fallback.T, fallback.beta_start, fallback.beta_end) == \
        (table.T, table.beta_start, table.beta_end)
    assert np.array_equal(fallback.betas, table.betas)
    for fn, section in ((finetune.pretrain, "pretrain"),
                        (evaluation.ReferenceFeaturizer, "featurizer")):
        params = inspect.signature(fn).parameters
        assert {k: params[k].default for k in cfg[section]} == cfg[section]
