"""Configuration loading, validation, and hashing."""

import contextlib
import inspect
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvdiff import config, denoiser, diffusion, evaluation, finetune
from kvdiff.cli import run_command
from kvdiff.errors import InvalidInput


def test_defaults_load_without_file():
    cfg = config.load_config()
    assert cfg == config.DEFAULT_CONFIG
    assert cfg is not config.DEFAULT_CONFIG        # deep copy, not aliasing


def test_a_loaded_config_shares_no_table_with_the_defaults(tmp_path):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump({"train": {"steps": 12}}, fh)
    defaults = json.loads(json.dumps(config.DEFAULT_CONFIG))
    for cfg in (config.load_config(), config.load_config(path, {"sampler": {"steps": 10}})):
        assert list(cfg) == list(config.DEFAULT_CONFIG)
        assert all(list(cfg[s]) == list(config.DEFAULT_CONFIG[s]) for s in cfg)
        for section in cfg.values():
            for key in list(section):
                section[key] = None
            section["extra"] = 1
    assert config.DEFAULT_CONFIG == defaults


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


_LEAVES = [(section, key) for section, table in config.DEFAULT_CONFIG.items() for key in table]
# values of every JSON kind, out-of-range numbers included
_MUTANTS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                     st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_mutants")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(leaf=st.sampled_from(_LEAVES), value=_MUTANTS)
def test_mutated_config_loads_or_fails_with_invalid_input(config_dir, leaf, value):
    """One key of the defaults set to a value of another kind or out of
    range: the config loads, with the value of its default's kind, and the
    library builds from it or refuses with InvalidInput; or the load fails
    with InvalidInput, and `kvdiff pretrain --config` exits 2 with that
    error as its one line before it reads any other input."""
    section, key = leaf
    mutant = {section: {key: value}}
    try:
        cfg = config.load_config(None, mutant)
    except InvalidInput as exc:
        path = config_dir / "mutant.json"
        path.write_text(json.dumps(mutant))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_command(["pretrain", "--config", str(path), "--vocab", "missing.json",
                              "--data", "missing.json", "--out", str(config_dir / "out")])
        assert rc == 2
        assert err.getvalue() == f"error: {exc}\n"
        return
    default = config.DEFAULT_CONFIG[section][key]
    assert isinstance(cfg[section][key], type(default)) or (
        isinstance(default, float) and type(cfg[section][key]) is int)
    denoiser.ModelConfig(**cfg["model"])
    for build in (lambda: finetune.FineTuneConfig(**cfg["train"]),
                  lambda: diffusion.NoiseSchedule.linear(**cfg["schedule"])):
        try:
            build()
        except InvalidInput:
            pass


@pytest.mark.parametrize("section,key,value", [
    ("train", "steps", "x"), ("pretrain", "steps", 1.5), ("pretrain", "learning_rate", "a"),
    ("pretrain", "cond_dropout", "q"), ("pretrain", "cond_dropout", 1.5),
    ("sampler", "scale", None), ("schedule", "beta_end", "z"), ("model", "d_model", -1),
    ("model", "blocks", 0), ("train", "seed", -1), ("train", "use_aug", "yes"),
    ("retrieval", "cap", -1), ("train", "trainable_scope", "xyz"),
    ("train", "use_reg", "imagined"), ("pretrain", "learning_rate", 0),
    ("pretrain", "learning_rate", -1.0),
    pytest.param("pretrain", "learning_rate", 10 ** 400, id="pretrain-learning_rate-10**400")])
def test_config_value_of_the_wrong_kind_exits_2(tmp_path, capsys, section, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "base.ckpt"
    rc = run_command(["pretrain", "--config", str(path), "--vocab", "missing.json",
                      "--data", "missing.json", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}.{key} must be") and err.count("\n") == 1, err
    assert not out.exists()
