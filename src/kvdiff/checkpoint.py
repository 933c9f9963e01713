"""Bit-exact binary checkpoint container.

Layout: 4-byte magic "CDCK", uint32-LE manifest length, UTF-8 JSON manifest,
then the payload of little-endian float64 tensors at the offsets the manifest
declares. The manifest JSON is canonicalized (sorted keys, no whitespace) so
save -> load -> save is byte-identical.
"""

import json
import struct
from dataclasses import asdict

import numpy as np

from . import textmod
from .analysis import DeltaCheckpoint, DeltaEntry
from .denoiser import DenoiserNet, ModelConfig, ParamKey, ParamRegistry
from .diffusion import NoiseSchedule
from .errors import CorruptCheckpoint, InvalidInput

MAGIC = b"CDCK"
VERSION = 1

KIND_BASE = "base"
KIND_DELTA = "delta"
KIND_MERGED = "merged"


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
    if manifest.get("format") != "CDCK" or manifest.get("version") != VERSION:
        raise CorruptCheckpoint("unknown format/version")
    payload = raw[8 + mlen:]
    tensors = {}
    spans = []
    for entry in manifest["tensors"]:
        if entry.get("dtype") != "f64":
            raise CorruptCheckpoint(f"unsupported dtype {entry.get('dtype')!r}")
        shape = tuple(entry["shape"])
        off, length = entry["offset"], entry["length"]
        if length != int(np.prod(shape, dtype=np.int64)) * 8:
            raise CorruptCheckpoint(f"length mismatch for {entry['name']}")
        if off < 0 or off + length > len(payload):
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
                 "source_token": m.source_token, "trainable": m.trainable}
                for _, m in sorted(vocab.modifiers.items())]}
    save_container(path, tensors, meta)


def load_model(path):
    tensors, meta = load_container(path)
    kind = meta.get("kind")
    if kind not in (KIND_BASE, KIND_MERGED):
        raise InvalidInput(f"expected a model checkpoint, found kind {kind!r}")
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
    for m in meta.get("modifier_tokens", []):
        vocab.modifiers[m["name"]] = textmod.ModifierToken(
            name=m["name"], token_index=m["token_index"],
            source_token=m["source_token"], trainable=m["trainable"])
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
