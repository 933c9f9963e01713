"""Binary container format: round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from kvdiff import analysis, checkpoint, diffusion, textmod
from kvdiff.cli import run_command
from kvdiff.denoiser import ROLE_CROSS_KEY, ROLE_CROSS_VALUE
from kvdiff.errors import CorruptCheckpoint, InvalidInput


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


def _rewrite_manifest(path, out, edit):
    """Copy the checkpoint at `path` to `out` with its manifest passed through
    `edit`, which changes it in place or returns a replacement."""
    raw = open(path, "rb").read()
    (mlen,) = struct.unpack("<I", raw[4:8])
    manifest = json.loads(raw[8:8 + mlen])
    manifest = edit(manifest) or manifest
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(out, "wb") as fh:
        fh.write(raw[:4])
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(raw[8 + mlen:])


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
    "delta without entries": ("delta", _drop("entries", "meta")),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_manifest_is_corrupt_checkpoint(tmp_path, tiny_model, sched, capsys, case):
    kinds, edit = MALFORMED[case]
    good = {"model": str(tmp_path / "m.ckpt"), "delta": str(tmp_path / "d.ckpt")}
    checkpoint.save_model(good["model"], tiny_model, sched)
    checkpoint.save_delta(good["delta"], _make_delta(tiny_model))
    for kind in kinds.split():
        bad = str(tmp_path / f"bad_{kind}.ckpt")
        _rewrite_manifest(good[kind], bad, edit)
        loader = checkpoint.load_model if kind == "model" else checkpoint.load_delta
        with pytest.raises(CorruptCheckpoint):
            loader(bad)
        argv = (["sample", "--model", bad, "--prompt", "photo of a blob"] if kind == "model"
                else ["compress", "--delta", bad, "--energy", "0.6"])
        assert run_command(argv + ["--out", str(tmp_path / "out")]) == 2, kind
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


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
