"""Bit-exact binary checkpoint container.

Layout: 4-byte magic "CDCK", uint32-LE manifest length, UTF-8 JSON manifest,
then the payload: the little-endian float64 tensors back to back in manifest
order, so each tensor's offset and length follow from the shapes before it.
Every payload value is finite. The manifest JSON is canonicalized (sorted
keys, no whitespace) so save -> load -> save is byte-identical.
"""

import itertools
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from . import textmod
from .analysis import DeltaCheckpoint, DeltaEntry
from .config import _is_int, _is_list, _is_number, _is_strings, _is_vocabulary, is_section
from .denoiser import KV_ROLES, DenoiserNet, ModelConfig, ParamRegistry, param_shapes
from .diffusion import NoiseSchedule
from .errors import CorruptCheckpoint, InvalidInput

MAGIC = b"CDCK"
VERSION = 1

KIND_BASE = "base"
KIND_DELTA = "delta"
KIND_MERGED = "merged"


def _is_str(v):
    return isinstance(v, str)


def _is_tensor(e):
    return (isinstance(e, dict) and _is_str(e.get("name")) and e.get("dtype") == "f64"
            and _is_list(e.get("shape"), _is_int) and _is_int(e.get("offset"))
            and _is_int(e.get("length")))


def _is_modifier(m):
    # older checkpoints also carry a `trainable` flag, which is ignored
    return (isinstance(m, dict) and _is_str(m.get("name")) and _is_int(m.get("token_index"))
            and _is_str(m.get("source_token")))


def _is_delta_entry(e):
    return (isinstance(e, dict) and _is_int(e.get("layer"))
            and e.get("role") in KV_ROLES
            and e.get("form") in ("dense", "lowrank") and _is_list(e.get("shape"), _is_int)
            and len(e["shape"]) == 2 and _is_number(e.get("residual")))


def _is_unique(items):
    return len(set(items)) == len(items)


# key -> check, for the manifest and for the meta keys each loader reads
_MANIFEST = {"format": lambda v: v == "CDCK", "version": lambda v: v == VERSION,
             "tensors": lambda v: _is_list(v, _is_tensor),
             "meta": lambda v: isinstance(v, dict)}
_MODEL_META = {"config": lambda v: is_section("model", v),
               "schedule": lambda v: is_section("schedule", v),
               "vocab": lambda v: _is_vocabulary(v) and _is_int(v.get("start_token"))
               and v["start_token"] < len(v["tokens"]),
               "modifier_tokens": lambda v: _is_list(v, _is_modifier)}
_DELTA_META = {"config": lambda v: is_section("model", v),
               "energy_kept": _is_number,
               "modifier_names": lambda v: _is_strings(v) and _is_unique(v),
               "entries": lambda v: _is_list(v, _is_delta_entry) and _is_unique(
                   [(e["layer"], e["role"]) for e in v])}


def _check_table(table, checks, what):
    """CorruptCheckpoint naming the keys of `table` that fail their check."""
    if not isinstance(table, dict):
        raise CorruptCheckpoint(f"{what} is not a table")
    bad = [key for key, check in checks.items() if not check(table.get(key))]
    if bad:
        raise CorruptCheckpoint(f"malformed {what}: {', '.join(bad)}")


def _check_tensors(tensors, shapes, what):
    """CorruptCheckpoint unless `tensors` holds exactly the names of
    `shapes`, each with its shape."""
    wrong = [n for n, shape in shapes.items() if n in tensors and tensors[n].shape != shape]
    if wrong or tensors.keys() != shapes.keys():
        problems = [(label, sorted(names)[:3]) for label, names in (
            ("missing", shapes.keys() - tensors.keys()),
            ("unexpected", tensors.keys() - shapes.keys()), ("wrong shape", wrong)) if names]
        raise CorruptCheckpoint(f"malformed {what} tensors: " + "; ".join(
            f"{label} {', '.join(map(repr, names))}" for label, names in problems))


def save_container(path, tensors, meta):
    """tensors: ordered dict name -> float64 ndarray."""
    entries = []
    payload = bytearray()
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        raw = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "f64",
                        "offset": len(payload), "length": len(raw)})
        payload.extend(raw)
    manifest = {"format": "CDCK", "version": VERSION, "tensors": entries, "meta": meta}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(bytes(payload))


def load_container(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise CorruptCheckpoint("bad magic")
    (mlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + mlen:
        raise CorruptCheckpoint("truncated manifest")
    try:
        manifest = json.loads(raw[8:8 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"unreadable manifest: {exc}") from None
    _check_table(manifest, _MANIFEST, "manifest")
    entries, payload = manifest["tensors"], raw[8 + mlen:]
    # tensors lie back to back in manifest order: entry i holds float64
    # words bounds[i]:bounds[i + 1], and the payload ends with the last one
    bounds = list(itertools.accumulate((math.prod(e["shape"]) for e in entries), initial=0))
    if len(payload) != 8 * bounds[-1]:
        raise CorruptCheckpoint(f"payload is {len(payload)} bytes, its tensors fill "
                                f"{8 * bounds[-1]}")
    words = np.frombuffer(payload, dtype="<f8")
    tensors = {}
    for e, start, end in zip(entries, bounds, bounds[1:]):
        if (e["offset"], e["length"]) != (8 * start, 8 * (end - start)):
            raise CorruptCheckpoint(f"tensor {e['name']!r} must fill payload bytes "
                                    f"{8 * start}..{8 * end}")
        if e["name"] in tensors:
            raise CorruptCheckpoint(f"duplicate tensor {e['name']!r}")
        tensors[e["name"]] = words[start:end].reshape(e["shape"]).copy()
    finite = np.isfinite(words)
    if not finite.all():
        owner = entries[np.searchsorted(bounds, np.argmin(finite), side="right") - 1]["name"]
        raise CorruptCheckpoint(f"non-finite value in tensor {owner!r}")
    return tensors, manifest["meta"]


def _sched_meta(sched):
    return {"T": sched.T, "beta_start": float(sched.beta_start),
            "beta_end": float(sched.beta_end)}


def _sched_from_meta(meta):
    return NoiseSchedule.linear(T=meta["T"], beta_start=meta["beta_start"],
                                beta_end=meta["beta_end"])


def _param_name(key):
    return f"params/{key.layer}/{key.role}/{key.name}"


def save_model(path, model, sched, kind=KIND_BASE):
    if kind not in (KIND_BASE, KIND_MERGED):
        raise InvalidInput(f"model checkpoints must be kind base/merged, not {kind!r}")
    vocab = model.vocab
    tensors = {}
    for key in model.params.sorted_keys():
        tensors[_param_name(key)] = model.params[key]
    tensors["vocab/embeddings"] = vocab.embeddings
    meta = {"kind": kind,
            "config": asdict(model.config),
            "schedule": _sched_meta(sched),
            "vocab": {"tokens": vocab.tokens, "counts": vocab.corpus_counts,
                      "start_token": vocab.start_token, "seed": vocab.seed,
                      "scale": vocab.scale},
            "modifier_tokens": [
                {"name": m.name, "token_index": m.token_index,
                 "source_token": m.source_token}
                for _, m in sorted(vocab.modifiers.items())]}
    save_container(path, tensors, meta)


def load_model(path):
    tensors, meta = load_container(path)
    kind = meta.get("kind")
    if kind not in (KIND_BASE, KIND_MERGED):
        raise InvalidInput(f"expected a model checkpoint, found kind {kind!r}")
    _check_table(meta, _MODEL_META, "model meta")
    cfg, vmeta = ModelConfig(**meta["config"]), meta["vocab"]
    # every block holds at least one tensor: bounds the layout built below
    # by the file's own manifest whatever `blocks` the meta claims
    if cfg.blocks > sum(name.startswith("params/") for name in tensors):
        raise CorruptCheckpoint(f"config claims {cfg.blocks} blocks, more than the "
                                "file has parameter tensors")
    shapes = param_shapes(cfg)
    keys = {_param_name(k): k for k in sorted(shapes)}
    _check_tensors(tensors, {**{name: shapes[k] for name, k in keys.items()},
                             "vocab/embeddings": (len(vmeta["tokens"]), cfg.d_text)}, "model")
    params = ParamRegistry((k, tensors[name]) for name, k in keys.items())
    vocab = textmod.Vocabulary(
        tokens=list(vmeta["tokens"]),
        embeddings=tensors["vocab/embeddings"],
        start_token=vmeta["start_token"],
        corpus_counts=dict(vmeta["counts"]),
        seed=vmeta.get("seed", 0),
        scale=vmeta.get("scale", 1.0))
    for m in meta["modifier_tokens"]:
        i = m["token_index"]
        if i >= len(vocab.tokens) or vocab.tokens[i] != m["name"]:
            raise CorruptCheckpoint(f"modifier {m['name']!r} is not token {i}")
        vocab.modifiers[m["name"]] = textmod.ModifierToken(
            name=m["name"], token_index=m["token_index"], source_token=m["source_token"])
    model = DenoiserNet(config=cfg, params=params, vocab=vocab)
    return model, _sched_from_meta(meta["schedule"])


def save_delta(path, delta):
    tensors = {}
    entries_meta = []
    for (layer, role), entry in sorted(delta.entries.items()):
        base = f"delta/{layer}/{role}"
        if entry.is_dense:
            tensors[base] = entry.dense
            form = "dense"
        else:
            tensors[f"{base}/u"] = entry.u
            tensors[f"{base}/sigma"] = entry.sigma
            tensors[f"{base}/vt"] = entry.vt
            form = "lowrank"
        entries_meta.append({"layer": layer, "role": role, "form": form,
                             "shape": list(entry.shape), "residual": entry.residual})
    for name, emb in delta.modifier_embeddings:
        tensors[f"modifier/{name}"] = np.asarray(emb)[None, :]
    meta = {"kind": KIND_DELTA,
            "energy_kept": delta.energy_kept,
            "entries": entries_meta,
            "modifier_names": [name for name, _ in delta.modifier_embeddings],
            "config": asdict(delta.config)}
    save_container(path, tensors, meta)


def load_delta(path):
    tensors, meta = load_container(path)
    if meta.get("kind") != KIND_DELTA:
        raise InvalidInput(f"expected a delta checkpoint, found kind {meta.get('kind')!r}")
    _check_table(meta, _DELTA_META, "delta meta")
    cfg = ModelConfig(**meta["config"])
    shapes, entries = {}, {}
    for em in meta["entries"]:
        (m, n), base = em["shape"], f"delta/{em['layer']}/{em['role']}"
        if em["form"] == "dense":
            shapes[base] = (m, n)
            factors = {"dense": tensors.get(base)}
        else:
            sigma = tensors.get(f"{base}/sigma")
            r = sigma.shape[0] if sigma is not None and sigma.ndim else -1
            shapes.update({f"{base}/u": (m, r), f"{base}/sigma": (r,), f"{base}/vt": (r, n)})
            factors = {f: tensors.get(f"{base}/{f}") for f in ("u", "sigma", "vt")}
        entries[(em["layer"], em["role"])] = DeltaEntry(shape=(m, n), residual=em["residual"],
                                                        **factors)
    for name in meta["modifier_names"]:
        shapes[f"modifier/{name}"] = (1, cfg.d_text)
    _check_tensors(tensors, shapes, "delta")
    mods = [(name, tensors[f"modifier/{name}"][0]) for name in meta["modifier_names"]]
    return DeltaCheckpoint(entries=entries, modifier_embeddings=mods,
                           energy_kept=meta["energy_kept"], config=cfg)
