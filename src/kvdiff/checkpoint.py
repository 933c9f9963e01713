"""Bit-exact binary checkpoint container.

Layout: 4-byte magic "CDCK", uint32-LE manifest length, UTF-8 JSON manifest,
then the payload of little-endian float64 tensors at the offsets the manifest
declares. The manifest JSON is canonicalized (sorted keys, no whitespace) so
save -> load -> save is byte-identical.
"""

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from . import textmod
from .analysis import DeltaCheckpoint, DeltaEntry
from .config import _is_int, _is_list, _is_number, _is_strings
from .denoiser import DenoiserNet, ModelConfig, ParamKey, ParamRegistry
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


def _is_model_config(v):
    return (isinstance(v, dict) and set(v) == {f.name for f in fields(ModelConfig)}
            and all(_is_int(x, 1) for x in v.values()))


def _is_schedule(v):
    return (isinstance(v, dict) and _is_int(v.get("T"), 1)
            and _is_number(v.get("beta_start")) and _is_number(v.get("beta_end")))


def _is_vocab(v):
    return (isinstance(v, dict) and _is_strings(v.get("tokens"))
            and isinstance(v.get("counts"), dict) and _is_int(v.get("start_token"))
            and _is_int(v.get("seed")) and _is_number(v.get("scale", 1.0)))


def _is_modifier(m):
    # older checkpoints also carry a `trainable` flag, which is ignored
    return (isinstance(m, dict) and _is_str(m.get("name")) and _is_int(m.get("token_index"))
            and _is_str(m.get("source_token")))


def _is_delta_entry(e):
    return (isinstance(e, dict) and _is_int(e.get("layer")) and _is_str(e.get("role"))
            and e.get("form") in ("dense", "lowrank") and _is_list(e.get("shape"), _is_int)
            and _is_number(e.get("residual")))


# key -> check, for the manifest and for the meta keys each loader reads
_MANIFEST = {"format": lambda v: v == "CDCK", "version": lambda v: v == VERSION,
             "tensors": lambda v: _is_list(v, _is_tensor),
             "meta": lambda v: isinstance(v, dict)}
_MODEL_META = {"config": _is_model_config, "schedule": _is_schedule, "vocab": _is_vocab,
               "modifier_tokens": lambda v: _is_list(v, _is_modifier)}
_DELTA_META = {"config": lambda v: v is None or _is_model_config(v),
               "energy_kept": _is_number, "modifier_names": _is_strings,
               "entries": lambda v: _is_list(v, _is_delta_entry)}


def _check_table(table, checks, what):
    """CorruptCheckpoint naming the keys of `table` that fail their check."""
    if not isinstance(table, dict):
        raise CorruptCheckpoint(f"{what} is not a table")
    bad = [key for key, check in checks.items() if not check(table.get(key))]
    if bad:
        raise CorruptCheckpoint(f"malformed {what}: {', '.join(bad)}")


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
    payload = raw[8 + mlen:]
    tensors = {}
    spans = []
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        off, length = entry["offset"], entry["length"]
        if length != math.prod(shape) * 8:
            raise CorruptCheckpoint(f"length mismatch for {entry['name']}")
        if off + length > len(payload):
            raise CorruptCheckpoint(f"payload overflow for {entry['name']}")
        spans.append((off, off + length, entry["name"]))
        tensors[entry["name"]] = np.frombuffer(
            payload[off:off + length], dtype="<f8").reshape(shape).copy()
    spans.sort()
    for (a0, a1, an), (b0, _, bn) in zip(spans, spans[1:]):
        if b0 < a1:
            raise CorruptCheckpoint(f"overlapping tensors {an} and {bn}")
    return tensors, manifest["meta"]


def _sched_meta(sched):
    return {"T": sched.T, "beta_start": float(sched.beta_start),
            "beta_end": float(sched.beta_end)}


def _sched_from_meta(meta):
    return NoiseSchedule.linear(T=meta["T"], beta_start=meta["beta_start"],
                                beta_end=meta["beta_end"])


def save_model(path, model, sched, kind=KIND_BASE):
    if kind not in (KIND_BASE, KIND_MERGED):
        raise InvalidInput(f"model checkpoints must be kind base/merged, not {kind!r}")
    vocab = model.vocab
    tensors = {}
    for key in model.params.sorted_keys():
        tensors[f"params/{key.layer}/{key.role}/{key.name}"] = model.params[key]
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
    cfg = ModelConfig(**meta["config"])
    params = ParamRegistry()
    for name, arr in tensors.items():
        if not name.startswith("params/"):
            continue
        _, layer, role, pname = name.split("/")
        params[ParamKey(int(layer), role, pname)] = arr
    vmeta = meta["vocab"]
    vocab = textmod.Vocabulary(
        tokens=list(vmeta["tokens"]),
        embeddings=tensors["vocab/embeddings"],
        start_token=vmeta["start_token"],
        corpus_counts=dict(vmeta["counts"]),
        seed=vmeta["seed"],
        scale=vmeta.get("scale", 1.0))
    for m in meta["modifier_tokens"]:
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
            "config": asdict(delta.config) if delta.config is not None else None}
    save_container(path, tensors, meta)


def load_delta(path):
    tensors, meta = load_container(path)
    if meta.get("kind") != KIND_DELTA:
        raise InvalidInput(f"expected a delta checkpoint, found kind {meta.get('kind')!r}")
    _check_table(meta, _DELTA_META, "delta meta")
    entries = {}
    for em in meta["entries"]:
        layer, role = em["layer"], em["role"]
        base = f"delta/{layer}/{role}"
        if em["form"] == "dense":
            entries[(layer, role)] = DeltaEntry(dense=tensors[base],
                                                shape=tuple(em["shape"]),
                                                residual=em["residual"])
        else:
            entries[(layer, role)] = DeltaEntry(
                u=tensors[f"{base}/u"], sigma=tensors[f"{base}/sigma"],
                vt=tensors[f"{base}/vt"], shape=tuple(em["shape"]),
                residual=em["residual"])
    mods = [(name, tensors[f"modifier/{name}"][0]) for name in meta["modifier_names"]]
    cfg = ModelConfig(**meta["config"]) if meta.get("config") else None
    return DeltaCheckpoint(entries=entries, modifier_embeddings=mods,
                           energy_kept=meta["energy_kept"], config=cfg)
