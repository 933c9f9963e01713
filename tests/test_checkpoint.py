"""Binary container format: round trips and corruption handling."""

import functools
import json
import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvdiff import analysis, checkpoint, diffusion, textmod
from kvdiff.cli import run_command
from kvdiff.denoiser import ROLE_CROSS_KEY, ROLE_CROSS_VALUE
from kvdiff.errors import CorruptCheckpoint, InvalidInput, KVDiffError


@pytest.fixture
def sched():
    return diffusion.NoiseSchedule.linear(T=25)


def test_container_round_trip(tmp_path):
    path = str(tmp_path / "c.ckpt")
    rng = np.random.default_rng(0)
    tensors = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2,))}
    checkpoint.save_container(path, tensors, {"kind": "base", "note": 7})
    loaded, meta = checkpoint.load_container(path)
    assert meta == {"kind": "base", "note": 7}
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])


def _corrupt(path, mutate):
    raw = bytearray(open(path, "rb").read())
    mutate(raw)
    out = path + ".bad"
    with open(out, "wb") as fh:
        fh.write(bytes(raw))
    return out


def test_corruption_detection(tmp_path):
    path = str(tmp_path / "c.ckpt")
    checkpoint.save_container(path, {"a": np.ones((2, 2))}, {"kind": "base"})

    def bad_magic(raw):
        raw[:4] = b"NOPE"

    def truncate_manifest(raw):
        raw[4:8] = struct.pack("<I", 1 << 20)

    def garbage_manifest(raw):
        raw[8] = 0xFF

    with pytest.raises(CorruptCheckpoint):
        checkpoint.load_container(_corrupt(path, bad_magic))
    with pytest.raises(CorruptCheckpoint):
        checkpoint.load_container(_corrupt(path, truncate_manifest))
    with pytest.raises(CorruptCheckpoint):
        checkpoint.load_container(_corrupt(path, garbage_manifest))
    with pytest.raises(CorruptCheckpoint):
        checkpoint.load_container(_corrupt(path, lambda raw: raw.__setitem__(
            slice(0, len(raw)), raw[:6])))     # shorter than the header


def _rewrite(path, out, edit):
    """Copy the checkpoint at `path` to `out` with its manifest and payload
    passed through `edit(manifest, payload)`, which changes them in place
    (the payload is a bytearray) or returns a replacement manifest."""
    raw = open(path, "rb").read()
    (mlen,) = struct.unpack("<I", raw[4:8])
    manifest = json.loads(raw[8:8 + mlen])
    payload = bytearray(raw[8 + mlen:])
    manifest = edit(manifest, payload) or manifest
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(out, "wb") as fh:
        fh.write(raw[:4])
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(bytes(payload))


def _rewrite_manifest(path, out, edit):
    """_rewrite with the payload kept as it is."""
    _rewrite(path, out, lambda manifest, payload: edit(manifest))


def test_manifest_level_corruption(tmp_path):
    path = str(tmp_path / "c.ckpt")
    checkpoint.save_container(path, {"a": np.ones((2, 2)), "b": np.ones((2, 2))},
                              {"kind": "base"})
    cases = {
        "dtype": lambda m: m["tensors"][0].__setitem__("dtype", "f32"),
        "version": lambda m: m.__setitem__("version", 99),
        "length": lambda m: m["tensors"][0].__setitem__("length", 24),
        "overflow": lambda m: m["tensors"][1].__setitem__("offset", 1 << 20),
        "overlap": lambda m: m["tensors"][1].__setitem__("offset", 8),
        "misaligned": lambda m: m["tensors"][0].__setitem__("offset", 4),
    }
    for name, edit in cases.items():
        bad = str(tmp_path / f"{name}.ckpt")
        _rewrite_manifest(path, bad, edit)
        with pytest.raises(CorruptCheckpoint):
            checkpoint.load_container(bad)


def test_model_round_trip(tmp_path, tiny_model, sched):
    textmod.register_modifier(tiny_model.vocab, "<new1>")
    path = str(tmp_path / "m.ckpt")
    checkpoint.save_model(path, tiny_model, sched)
    loaded, lsched = checkpoint.load_model(path)
    assert loaded.config == tiny_model.config
    assert lsched.T == sched.T
    assert np.array_equal(lsched.betas, sched.betas)
    for k in tiny_model.params.sorted_keys():
        np.testing.assert_array_equal(loaded.params[k], tiny_model.params[k])
    assert loaded.vocab.tokens == tiny_model.vocab.tokens
    assert loaded.vocab.scale == tiny_model.vocab.scale
    assert "<new1>" in loaded.vocab.modifiers
    np.testing.assert_array_equal(loaded.vocab.embeddings,
                                  tiny_model.vocab.embeddings)


def test_vocabulary_counts_read_from_a_spec_round_trip(tmp_path, tiny_model, sched):
    # a vocabulary spec may give any number as a count; a model built from
    # it must load back
    spec = tmp_path / "vocab.json"
    spec.write_text(json.dumps({"tokens": ["photo", "of", "a", "blob", "ring"],
                                "counts": {"blob": 8.5, "ring": 8.0, "a": 3}, "dim": 5}))
    model = tiny_model.clone()
    model.vocab = textmod.load_vocabulary(str(spec))
    path = str(tmp_path / "m.ckpt")
    checkpoint.save_model(path, model, sched)
    loaded, _ = checkpoint.load_model(path)
    assert loaded.vocab.corpus_counts == {"blob": 8.5, "ring": 8.0, "a": 3}
    assert run_command(["sample", "--model", path, "--prompt", "photo of a blob",
                        "--steps", "2", "--out", str(tmp_path / "out")]) == 0


def test_schedule_round_trip_is_exact(tmp_path, tiny_model):
    # parameters whose betas do not divide back exactly out of the rescaled
    # schedule; the checkpoint must store what the schedule was built from
    sched = diffusion.NoiseSchedule.linear(T=100, beta_start=8.5e-4, beta_end=0.012)
    path = str(tmp_path / "m.ckpt")
    checkpoint.save_model(path, tiny_model, sched)
    _, lsched = checkpoint.load_model(path)
    assert (lsched.T, lsched.beta_start, lsched.beta_end) == (100, 8.5e-4, 0.012)
    assert np.array_equal(lsched.betas, sched.betas)
    assert np.array_equal(lsched.alpha_bar, sched.alpha_bar)


@pytest.mark.parametrize("schedule", [{"T": 25, "beta_start": 1e-20, "beta_end": 1e-19},
                                      {"T": 1000, "beta_start": 0.5, "beta_end": 0.9}])
def test_a_schedule_whose_alpha_bar_reaches_1_or_0_is_refused_at_load(tmp_path, tiny_model,
                                                                     sched, capsys, schedule):
    """A checkpoint whose schedule meta rebuilds an alpha-bar of 1.0 or 0.0
    is refused by load_model, so `sample` exits 2 on one error line and
    never reaches the sampler's division by 1 - alpha_bar or alpha_bar."""
    path, bad = str(tmp_path / "m.ckpt"), str(tmp_path / "bad.ckpt")
    checkpoint.save_model(path, tiny_model, sched)
    _rewrite_manifest(path, bad, lambda m: m["meta"].__setitem__("schedule", schedule))
    with pytest.raises(InvalidInput, match="alpha_bar"):
        checkpoint.load_model(bad)
    out = tmp_path / "img.pgm"
    assert run_command(["sample", "--model", bad, "--prompt", "photo of a blob",
                        "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha_bar") and err.count("\n") == 1, err
    assert not out.exists()


def test_save_load_save_is_byte_stable(tmp_path, tiny_model, sched):
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    checkpoint.save_model(p1, tiny_model, sched)
    loaded, lsched = checkpoint.load_model(p1)
    checkpoint.save_model(p2, loaded, lsched)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_model_kind_checks(tmp_path, tiny_model, sched):
    path = str(tmp_path / "m.ckpt")
    with pytest.raises(InvalidInput):
        checkpoint.save_model(path, tiny_model, sched, kind="delta")
    checkpoint.save_model(path, tiny_model, sched, kind=checkpoint.KIND_MERGED)
    loaded, _ = checkpoint.load_model(path)
    assert loaded.config == tiny_model.config


def _make_delta(tiny_model):
    tuned = tiny_model.clone()
    rng = np.random.default_rng(8)
    kv = [k for role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)
          for k in tuned.params.sorted_keys() if k.role == role]
    for k in kv:
        tuned.params[k] = tuned.params[k] + 0.2 * rng.standard_normal(
            tuned.params[k].shape)
    textmod.register_modifier(tuned.vocab, "<new1>")
    return analysis.extract_delta(tiny_model, tuned)


def test_delta_round_trip_dense_and_lowrank(tmp_path, tiny_model):
    delta = _make_delta(tiny_model)
    for variant in (delta, analysis.compress_delta(delta, 0.6)):
        path = str(tmp_path / f"d{variant.energy_kept}.ckpt")
        checkpoint.save_delta(path, variant)
        loaded = checkpoint.load_delta(path)
        assert loaded.energy_kept == variant.energy_kept
        assert loaded.config == variant.config
        assert set(loaded.entries) == set(variant.entries)
        for key, entry in variant.entries.items():
            got = loaded.entries[key]
            assert got.is_dense == entry.is_dense
            assert got.residual == entry.residual
            np.testing.assert_array_equal(analysis.reconstruct_entry(got),
                                          analysis.reconstruct_entry(entry))
        assert [n for n, _ in loaded.modifier_embeddings] == \
            [n for n, _ in variant.modifier_embeddings]


def test_kind_mismatch_between_loaders(tmp_path, tiny_model, sched):
    mpath = str(tmp_path / "m.ckpt")
    checkpoint.save_model(mpath, tiny_model, sched)
    with pytest.raises(InvalidInput):
        checkpoint.load_delta(mpath)
    dpath = str(tmp_path / "d.ckpt")
    checkpoint.save_delta(dpath, _make_delta(tiny_model))
    with pytest.raises(InvalidInput):
        checkpoint.load_model(dpath)


def _negate_shape(m):
    m["tensors"][0]["shape"] = [-n for n in m["tensors"][0]["shape"]]


def _drop(key, section=None):
    def edit(m):
        del (m[section] if section else m)[key]
    return edit


# case -> (the checkpoints it applies to, manifest edit)
MALFORMED = {
    "no tensors": ("model delta", _drop("tensors")),
    "list manifest": ("model delta", lambda m: [m]),
    "string shape": ("model delta", lambda m: m["tensors"][0].__setitem__("shape", "ab")),
    "negative shape": ("model delta", _negate_shape),
    "base without config": ("model", _drop("config", "meta")),
    "unknown config key": ("model delta",
                           lambda m: m["meta"]["config"].__setitem__("depth", 3)),
    "config of zero blocks": ("model delta",
                              lambda m: m["meta"]["config"].__setitem__("blocks", 0)),
    "schedule of zero steps": ("model", lambda m: m["meta"]["schedule"].__setitem__("T", 0)),
    "string beta_end": ("model", lambda m: m["meta"]["schedule"].__setitem__("beta_end", "0.02")),
    "unknown schedule key": ("model",
                             lambda m: m["meta"]["schedule"].__setitem__("beta_mid", 0.01)),
    "delta without entries": ("delta", _drop("entries", "meta")),
    "negative vocabulary scale": ("model",
                                  lambda m: m["meta"]["vocab"].__setitem__("scale", -1.0)),
    "delta with a null config": ("delta lowrank",
                                 lambda m: m["meta"].__setitem__("config", None)),
}


def _assert_rejected(bad, kind, tmp_path, capsys):
    """The loader of `kind` raises CorruptCheckpoint on `bad`, and the CLI
    command that reads it exits 2 with one `error:` line."""
    loader = checkpoint.load_model if kind == "model" else checkpoint.load_delta
    with pytest.raises(CorruptCheckpoint):
        loader(bad)
    argv = (["sample", "--model", bad, "--prompt", "photo of a blob"] if kind == "model"
            else ["compress", "--delta", bad, "--energy", "0.6"])
    assert run_command(argv + ["--out", str(tmp_path / "out")]) == 2, kind
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def _save_good(tmp_path, tiny_model, sched):
    """A base checkpoint with modifier <new1>, its dense K/V delta and that
    delta compressed, by kind."""
    good = {kind: str(tmp_path / f"{kind}.ckpt") for kind in ("model", "delta", "lowrank")}
    delta = _make_delta(tiny_model)
    textmod.register_modifier(tiny_model.vocab, "<new1>")
    checkpoint.save_model(good["model"], tiny_model, sched)
    checkpoint.save_delta(good["delta"], delta)
    checkpoint.save_delta(good["lowrank"], analysis.compress_delta(delta, 0.6))
    return good


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_manifest_is_corrupt_checkpoint(tmp_path, tiny_model, sched, capsys, case):
    kinds, edit = MALFORMED[case]
    good = _save_good(tmp_path, tiny_model, sched)
    for kind in kinds.split():
        bad = str(tmp_path / f"bad_{kind}.ckpt")
        _rewrite_manifest(good[kind], bad, edit)
        _assert_rejected(bad, kind, tmp_path, capsys)


def _tensor(manifest, name):
    return next(e for e in manifest["tensors"] if e["name"] == name)


def _drop_tensor(name):
    """Remove tensor `name` and its bytes, moving the tensors after it up, so
    the layout stays valid and only the loader's tensor check can object."""
    def edit(manifest, payload):
        entry = _tensor(manifest, name)
        manifest["tensors"].remove(entry)
        del payload[entry["offset"]:entry["offset"] + entry["length"]]
        for e in manifest["tensors"]:
            if e["offset"] > entry["offset"]:
                e["offset"] -= entry["length"]
    return edit


def _gap_after_first_tensor(manifest, payload):
    first = manifest["tensors"][0]
    payload[first["length"]:first["length"]] = bytes(8)
    for e in manifest["tensors"][1:]:
        e["offset"] += 8


def _swap_offsets(a, b):
    """Swap where two tensors of one length are stored: each would load the
    other's values."""
    def edit(manifest, payload):
        ea, eb = _tensor(manifest, a), _tensor(manifest, b)
        assert ea["length"] == eb["length"]
        ea["offset"], eb["offset"] = eb["offset"], ea["offset"]
    return edit


def _nan_first_value(manifest, payload):
    payload[:8] = struct.pack("<d", float("nan"))


def _extra_tensor(manifest, payload):
    manifest["tensors"].append({"name": "params/3/other/w_pix", "dtype": "f64",
                                "shape": [1, 6], "offset": len(payload), "length": 48})
    payload.extend(bytes(48))


# case -> (the checkpoints it applies to, edit of manifest and payload)
MALFORMED_TENSORS = {
    "base without vocab/embeddings": ("model", _drop_tensor("vocab/embeddings")),
    "base without a key projection": ("model", _drop_tensor("params/1/cross_kv_key/wk")),
    "three-part tensor name": ("model", lambda m, p: _tensor(
        m, "params/0/other/w_pix").__setitem__("name", "params/0/other")),
    "NaN payload": ("model delta lowrank", _nan_first_value),
    "transposed key projection": ("model", lambda m, p: _tensor(
        m, "params/1/cross_kv_key/wk")["shape"].reverse()),
    "unexpected tensor": ("model", _extra_tensor),
    "config of a billion blocks": ("model", lambda m, p: m["meta"]["config"].__setitem__(
        "blocks", 10 ** 9)),
    "more tokens than embedding rows": ("model", lambda m, p: m["meta"]["vocab"][
        "tokens"].append("extra")),
    "modifier at another token": ("model", lambda m, p: m["meta"]["modifier_tokens"][
        0].__setitem__("token_index", 0)),
    "delta without an entry tensor": ("delta", _drop_tensor("delta/1/cross_kv_key")),
    "transposed modifier row": ("delta", lambda m, p: _tensor(
        m, "modifier/<new1>")["shape"].reverse()),
    "duplicate delta entry": ("delta", lambda m, p: m["meta"]["entries"].append(
        m["meta"]["entries"][0])),
    "low-rank entry without sigma": ("lowrank",
                                     _drop_tensor("delta/1/cross_kv_key/sigma")),
    "trailing payload bytes": ("model delta lowrank", lambda m, p: p.extend(bytes(8))),
    "gap between tensors": ("model delta lowrank", _gap_after_first_tensor),
    "swapped key and value projections": ("model", _swap_offsets(
        "params/1/cross_kv_key/wk", "params/1/cross_kv_value/wv")),
    "swapped key and value deltas": ("delta", _swap_offsets(
        "delta/1/cross_kv_key", "delta/1/cross_kv_value")),
}


@pytest.mark.parametrize("case", MALFORMED_TENSORS)
def test_malformed_tensor_is_corrupt_checkpoint(tmp_path, tiny_model, sched, capsys, case):
    kinds, edit = MALFORMED_TENSORS[case]
    good = _save_good(tmp_path, tiny_model, sched)
    for kind in kinds.split():
        bad = str(tmp_path / f"bad_{kind}.ckpt")
        _rewrite(good[kind], bad, edit)
        _assert_rejected(bad, kind, tmp_path, capsys)


@pytest.mark.parametrize("case", [c for c in MALFORMED_TENSORS if " without " in c])
def test_missing_tensor_is_named_by_the_loader(tmp_path, tiny_model, sched, case):
    """A dropped tensor leaves a valid container layout; the loader names the
    missing tensor."""
    kinds, edit = MALFORMED_TENSORS[case]
    good = _save_good(tmp_path, tiny_model, sched)
    for kind in kinds.split():
        bad = str(tmp_path / f"bad_{kind}.ckpt")
        _rewrite(good[kind], bad, edit)
        checkpoint.load_container(bad)
        loader = checkpoint.load_model if kind == "model" else checkpoint.load_delta
        with pytest.raises(CorruptCheckpoint, match="missing"):
            loader(bad)


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 40), st.floats(),
                         st.text(max_size=3), st.lists(st.integers(-1, 9), max_size=3))


def _positions(node, path=()):
    """The path of every value below `node` in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


@pytest.mark.parametrize("kind", ["model", "delta", "lowrank"])
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoints_fail_only_with_kvdiff_errors(tmp_path, tiny_model, sched,
                                                          kind, data):
    base = tiny_model.clone()
    good = _save_good(tmp_path, base, sched)

    def mutate(manifest, payload):
        op = data.draw(st.sampled_from(["drop", "rename", "reshape", "layout", "payload",
                                        "meta"]))
        entries = manifest["tensors"]
        entry = data.draw(st.sampled_from(entries), label="tensor")
        if op == "drop":
            entries.remove(entry)
        elif op == "rename":
            entry["name"] = data.draw(st.sampled_from([e["name"] for e in entries])
                                      | st.text(max_size=12), label="name")
        elif op == "reshape":
            shape, n = entry["shape"], math.prod(entry["shape"])
            entry["shape"] = data.draw(st.sampled_from([[n], shape[::-1], shape + [1]]),
                                       label="shape")
        elif op == "layout":
            field = data.draw(st.sampled_from(["offset", "length"]), label="field")
            entry[field] = data.draw(st.integers(0, len(payload) + 16), label=field)
        elif op == "payload":
            i = data.draw(st.integers(0, len(payload) // 8 - 1), label="index")
            payload[8 * i:8 * i + 8] = struct.pack("<d", data.draw(st.floats()))
        else:
            path = data.draw(st.sampled_from(list(_positions(manifest["meta"]))), label="path")
            parent = functools.reduce(operator.getitem, path[:-1], manifest["meta"])
            if data.draw(st.booleans(), label="delete"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON_VALUES, label="value")

    bad = str(tmp_path / "bad.ckpt")
    _rewrite(good[kind], bad, mutate)
    argv = (["sample", "--model", bad, "--prompt", "photo of a <new1> blob", "--steps", "3"]
            if kind == "model" else ["compress", "--delta", bad, "--energy", "0.6"])
    with np.errstate(all="ignore"):
        # run_command turns a KVDiffError into exit code 2; anything else
        # propagates
        assert run_command(argv + ["--out", str(tmp_path / "out")]) in (0, 2)
        if kind != "model":
            try:
                analysis.apply_delta(base, checkpoint.load_delta(bad))
            except KVDiffError:
                pass


def test_trainable_flag_of_older_checkpoints_is_ignored(tmp_path, tiny_model, sched):
    textmod.register_modifier(tiny_model.vocab, "<new1>")
    path, old = str(tmp_path / "m.ckpt"), str(tmp_path / "old.ckpt")
    checkpoint.save_model(path, tiny_model, sched)

    def add_trainable(m):
        for token in m["meta"]["modifier_tokens"]:
            token["trainable"] = True

    _rewrite_manifest(path, old, add_trainable)
    assert b'"trainable":true' in open(old, "rb").read()
    loaded, lsched = checkpoint.load_model(old)
    assert loaded.vocab.modifiers == tiny_model.vocab.modifiers
    resaved = str(tmp_path / "resaved.ckpt")
    checkpoint.save_model(resaved, loaded, lsched)
    assert open(resaved, "rb").read() == open(path, "rb").read()
