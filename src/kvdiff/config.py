"""Experiment configuration: the one table of defaults, the one table of
rules (`_VALIDATORS`, applied by `check_section` and `is_section`), JSON
loading.

Library signatures and dataclasses (`ModelConfig`, `NoiseSchedule.linear`,
`FineTuneConfig`, `pretrain`, `ReferenceFeaturizer`) take their defaults from
`DEFAULT_CONFIG`, and the library checks values with `check_section` too."""

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

# the one rule table: (section, key) -> (check, what the value must be)
_VALIDATORS = {
    **{("model", k): (lambda v: v >= 1, ">= 1") for k in DEFAULT_CONFIG["model"]},
    ("sampler", "steps"): (lambda v: v >= 1, ">= 1"),
    ("sampler", "scale"): (lambda v: v >= 0, ">= 0"),
    ("schedule", "T"): (lambda v: v >= 1, ">= 1"),
    **{(s, "learning_rate"): (lambda v: v > 0, "> 0") for s in ("train", "pretrain")},
    ("train", "trainable_scope"): (lambda v: v in ("kv_only", "all_unet"), "kv_only or all_unet"),
    ("train", "use_reg"): (lambda v: v in ("retrieved", "generated", "none"),
                           "retrieved, generated or none"),
    # data.balanced_batches needs a batch of 2 or more
    **{(s, "batch"): (lambda v: v >= 2, ">= 2") for s in ("train", "pretrain")},
    ("pretrain", "cond_dropout"): (lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("retrieval", "threshold"): (lambda v: 0 <= v <= 1, "in [0, 1]"),
    # a 0-dimensional feature makes every similarity 0 and KID 0 / 0
    ("featurizer", "feature_dim"): (lambda v: v >= 1, ">= 1"),
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


def _is_pixel(v):
    # the image range: the fixtures' and the sampler's clipped x0 estimate
    return _is_number(v) and -1.0 <= v <= 1.0


def _is_dataset(rows):
    return _is_list(rows, lambda r: (
        isinstance(r, dict) and isinstance(r.get("caption"), str)
        and _is_int(r.get("height"), 1) and _is_int(r.get("width"), 1)
        and _is_list(r.get("pixels"), _is_pixel)
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
    "dataset": ("a list of {caption, height, width, pixels} rows with finite pixels "
                "in [-1, 1]",
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
    """A new table: `base` overlaid by `override`. Each table is copied; the
    values, all immutable, are shared."""
    if not isinstance(override, dict):
        raise InvalidInput(f"{'.'.join(path) or 'the configuration'} must be a table")
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, value in override.items():
        if key not in base:
            raise InvalidInput(f"unknown configuration key: {'.'.join(path + (key,))}")
        out[key] = (_merge_checked(base[key], value, path + (key,))
                    if isinstance(base[key], dict) else value)
    return out


def _rules(section, key):
    """The (check, what the value must be) pairs of config value
    `section.key`, in order: its default's kind, then its `_VALIDATORS` rule."""
    return (_KINDS[type(DEFAULT_CONFIG[section][key])],
            _VALIDATORS.get((section, key), (lambda v: True, "")))


def check_section(section, values):
    """Check `values`, a mapping of some keys of config `section`: each value
    must have its default's kind (`_KINDS`) and pass its `_VALIDATORS` rule."""
    for key, value in values.items():
        for check, what in _rules(section, key):
            if not check(value):
                raise InvalidInput(f"{section}.{key} must be {what}, got {value!r}")


def is_section(section, values):
    """Whether `values` is a whole config `section`: a table of exactly its
    keys, each value passing the rules check_section applies."""
    return (isinstance(values, dict) and values.keys() == DEFAULT_CONFIG[section].keys()
            and all(check(v) for k, v in values.items() for check, _ in _rules(section, k)))


def load_config(path=None, overrides=None):
    """Defaults, overlaid by the JSON file, overlaid by explicit overrides.
    Unknown keys are rejected with the offending key named. Sampler steps
    are checked against the T of the checkpoint sampled from, not here."""
    cfg = _merge_checked(DEFAULT_CONFIG, {} if path is None else read_json(path, "config"))
    cfg = _merge_checked(cfg, overrides or {})
    for section, values in cfg.items():
        check_section(section, values)
    return cfg


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
