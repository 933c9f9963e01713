"""Experiment configuration: the one table of defaults, JSON loading, strict
validation.

Library signatures and dataclasses (`ModelConfig`, `NoiseSchedule.linear`,
`FineTuneConfig`, `pretrain`, `ReferenceFeaturizer`) take their defaults
from `DEFAULT_CONFIG`, so the CLI and the library cannot disagree."""

import copy
import hashlib
import json
import sys

from .errors import InvalidInput

DEFAULT_CONFIG = {
    "model": {"height": 8, "width": 8, "d_model": 16, "d_attn": 8, "d_text": 8,
              "hidden": 32, "blocks": 2},
    "schedule": {"T": 200, "beta_start": 1e-4, "beta_end": 0.02},
    "sampler": {"steps": 200, "scale": 6.0},
    "pretrain": {"steps": 2000, "learning_rate": 1e-2, "batch": 8, "seed": 0,
                 "cond_dropout": 0.1, "init_seed": 0},
    "train": {"steps": 250, "learning_rate": 2e-2, "batch": 8,
              "trainable_scope": "kv_only", "use_reg": "retrieved",
              "use_aug": True, "seed": 0, "train_modifier": True},
    "retrieval": {"threshold": 0.85, "cap": 200},
    "featurizer": {"feature_dim": 16, "seed": 1234},
}

_VALIDATORS = {
    **{("model", k): lambda v, k=k: v >= 1 or f"model.{k} must be >= 1"
       for k in DEFAULT_CONFIG["model"]},
    ("sampler", "steps"): lambda v: v >= 1 or "sampler.steps must be >= 1",
    ("sampler", "scale"): lambda v: v >= 0 or "sampler.scale must be >= 0",
    ("schedule", "T"): lambda v: v >= 1 or "schedule.T must be >= 1",
    ("train", "learning_rate"): lambda v: v > 0 or "train.learning_rate must be > 0",
    # balanced_batches needs a batch of 2 or more
    ("train", "batch"): lambda v: v >= 2 or "train.batch must be >= 2",
    ("pretrain", "batch"): lambda v: v >= 2 or "pretrain.batch must be >= 2",
    ("pretrain", "cond_dropout"):
        lambda v: 0 <= v <= 1 or "pretrain.cond_dropout must be in [0,1]",
    ("retrieval", "threshold"): lambda v: 0 <= v <= 1 or "retrieval.threshold must be in [0,1]",
}


def _is_int(v, low=0):
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _is_number(v):
    # finite: json reads NaN and Infinity, and an integer too large for a
    # float fails this comparison where math.isfinite would raise
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_list(v, item):
    return isinstance(v, list) and all(item(x) for x in v)


def _is_strings(v):
    return _is_list(v, lambda c: isinstance(c, str))


def _is_dataset(rows):
    return _is_list(rows, lambda r: (
        isinstance(r, dict) and isinstance(r.get("caption"), str)
        and _is_int(r.get("height"), 1) and _is_int(r.get("width"), 1)
        and _is_list(r.get("pixels"), _is_number)
        and len(r["pixels"]) == r["height"] * r["width"]))


def _is_vocabulary(v):
    """The fields a vocabulary spec and a model checkpoint's vocab meta share;
    seed (default 0) and scale (default 1.0) may be left out."""
    return (isinstance(v, dict) and _is_strings(v.get("tokens"))
            and isinstance(v.get("counts"), dict)
            and all(_is_number(c) for c in v["counts"].values())
            and _is_int(v.get("seed", 0))
            and _is_number(v.get("scale", 1.0)) and v.get("scale", 1.0) >= 0)


# JSON input kind -> (what the error says the file must be, structure check)
JSON_KINDS = {
    "config": ("a table", lambda v: isinstance(v, dict)),
    "dataset": ("a list of {caption, height, width, pixels} rows with finite pixels",
                _is_dataset),
    "vocabulary": ("a vocabulary spec {tokens, counts, dim[, seed, scale]}",
                   lambda v: _is_vocabulary(v) and _is_int(v.get("dim"), 1)),
    "targets": ("a list of caption lists", lambda v: _is_list(v, _is_strings)),
    "captions": ("a non-empty list of captions", lambda v: bool(v) and _is_strings(v)),
}


def read_json(path, kind):
    """Parse a JSON file and check it has the structure of `kind`, a key of
    JSON_KINDS; malformed content is InvalidInput naming the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise InvalidInput(f"{path} is not valid JSON: {exc}") from None
    what, check = JSON_KINDS[kind]
    if not check(data):
        raise InvalidInput(f"{path} is not {what}")
    return data


# a configuration value must have its default's kind:
# type of the default -> (check, what the error says the value must be)
_KINDS = {bool: (lambda v: isinstance(v, bool), "true or false"),
          int: (_is_int, "an integer >= 0"),
          float: (_is_number, "a finite number"),
          str: (lambda v: isinstance(v, str), "a string")}


def _merge_checked(base, override, path=()):
    if not isinstance(override, dict):
        raise InvalidInput(f"{'.'.join(path) or 'the configuration'} must be a table")
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = ".".join(path + (key,))
        if key not in base:
            raise InvalidInput(f"unknown configuration key: {dotted}")
        if isinstance(base[key], dict):
            out[key] = _merge_checked(base[key], value, path + (key,))
            continue
        check, what = _KINDS[type(base[key])]
        if not check(value):
            raise InvalidInput(f"{dotted} must be {what}, got {value!r}")
        out[key] = value
    return out


def load_config(path=None, overrides=None):
    """Defaults, overlaid by the JSON file, overlaid by explicit overrides.
    Unknown keys are rejected with the offending key named."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        cfg = _merge_checked(cfg, read_json(path, "config"))
    if overrides:
        cfg = _merge_checked(cfg, overrides)
    for (section, key), check in _VALIDATORS.items():
        result = check(cfg[section][key])
        if result is not True:
            raise InvalidInput(result)
    if cfg["sampler"]["steps"] > cfg["schedule"]["T"]:
        raise InvalidInput("sampler.steps cannot exceed schedule.T")
    return cfg


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
