"""Command-line behaviour not covered by the end-to-end determinism check:
error exit codes, manifests, and the image writer."""

import contextlib
import copy
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvdiff import analysis, checkpoint, denoiser, diffusion, finetune, fixtures, textmod
from kvdiff import data as datamod
from kvdiff.cli import run_command, write_pgm
from kvdiff.errors import InvalidInput


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fixtures")
    fixtures.write_fixture_files(str(d))
    return d


def test_error_exit_code_on_corrupt_checkpoint(tmp_path, fixture_dir, capsys):
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "wb") as fh:
        fh.write(b"not a checkpoint")
    rc = run_command(["sample", "--model", bad, "--prompt", "photo of a blob",
                      "--out", str(tmp_path / "img.pgm")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_error_exit_code_on_bad_config(tmp_path, fixture_dir):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"train": {"optimizer": "adam"}}, fh)
    rc = run_command(["retrieve-reg", "--config", cfg,
                      "--pool", str(fixture_dir / "reg_pool.json"),
                      "--vocab", str(fixture_dir / "vocab.json"),
                      "--target-caption", "photo of a blob",
                      "--out", str(tmp_path / "reg.json")])
    assert rc == 2


def test_zero_feature_dim_exits_2_naming_the_key(tmp_path, fixture_dir, capsys):
    """A 0-dimensional featurizer would make every retrieval similarity 0
    and KID 0 / 0: the config load refuses it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"featurizer": {"feature_dim": 0}}))
    out = tmp_path / "reg.json"
    rc = run_command(["retrieve-reg", "--config", str(cfg),
                      "--pool", str(fixture_dir / "reg_pool.json"),
                      "--vocab", str(fixture_dir / "vocab.json"),
                      "--target-caption", "photo of a blob", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: featurizer.feature_dim must be >= 1") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.fixture(scope="module")
def cli_inputs(fixture_dir):
    """The fixture corpus plus an untrained base, a zero delta, a target list
    and an empty config: valid inputs for every JSON-reading command."""
    base = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    checkpoint.save_model(str(fixture_dir / "base.ckpt"), base,
                          diffusion.NoiseSchedule.linear())
    checkpoint.save_delta(str(fixture_dir / "delta.ckpt"),
                          analysis.extract_delta(base, base))
    with open(fixture_dir / "targets.json", "w") as fh:
        json.dump([["photo of a blob"]], fh)
    with open(fixture_dir / "config.json", "w") as fh:
        json.dump({}, fh)
    return fixture_dir


def _argv(d, command):
    def p(name):
        return str(d / name)

    return {
        "retrieve-reg": ["retrieve-reg", "--config", p("config.json"),
                         "--pool", p("reg_pool.json"), "--vocab", p("vocab.json"),
                         "--target-caption", "photo of a blob"],
        "pretrain": ["pretrain", "--vocab", p("vocab.json"), "--data", p("pretrain.json")],
        "finetune": ["finetune", "--model", p("base.ckpt"),
                     "--concept", p("concept_blob.json")],
        "merge": ["merge", "--base", p("base.ckpt"), "--delta", p("delta.ckpt"),
                  "--targets", p("targets.json"),
                  "--reg-captions", p("reg_captions.json")],
        "eval": ["eval", "--model", p("base.ckpt"), "--prompt", "photo of a blob",
                 "--targets", p("concept_blob.json"), "--num", "1", "--steps", "2"],
    }[command] + ["--out", p("out")]


@pytest.mark.parametrize("broken", ["missing", "malformed", "wrong-shape"])
@pytest.mark.parametrize("flag,command", [
    ("--config", "retrieve-reg"), ("--vocab", "retrieve-reg"),
    ("--pool", "retrieve-reg"), ("--data", "pretrain"), ("--concept", "finetune"),
    ("--targets", "merge"), ("--reg-captions", "merge")])
def test_bad_json_input_exits_2_with_one_error_line(tmp_path, cli_inputs, capsys,
                                                    flag, command, broken):
    bad = tmp_path / "bad.json"
    contents = {"missing": [None], "malformed": ["[{not json"],
                # valid JSON of the wrong structure; {} is a valid empty config
                "wrong-shape": ["[1]"] + (["{}"] if flag != "--config" else [])}[broken]
    argv = _argv(cli_inputs, command)
    argv[argv.index(flag) + 1] = str(bad)
    for text in contents:
        if text is not None:
            bad.write_text(text)
        assert run_command(argv) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(bad) in err


@pytest.mark.parametrize("command,flag,literal", [
    ("eval", "--targets", "NaN"), ("retrieve-reg", "--pool", "Infinity"),
    ("finetune", "--concept", "NaN"), ("eval", "--targets", "1e+308"),
    ("eval", "--targets", "-1e+308"), ("finetune", "--concept", "1.5")])
def test_non_finite_dataset_pixel_exits_2_before_any_work(tmp_path, cli_inputs, capsys,
                                                          monkeypatch, command, flag, literal):
    # json reads the NaN and Infinity literals as floats; a finite pixel
    # outside the image range [-1, 1] is refused too (at +-1e308 the eval
    # featurizer would overflow)
    calls = []
    monkeypatch.setattr(denoiser, "forward", lambda *a: calls.append(a))
    argv = _argv(cli_inputs, command)
    with open(argv[argv.index(flag) + 1]) as fh:
        rows = json.load(fh)
    rows[0]["pixels"][3] = float(literal)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rows))
    assert literal in bad.read_text()
    argv[argv.index(flag) + 1] = str(bad)
    argv[argv.index("--out") + 1] = str(tmp_path / "out")
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(bad) in err and "finite pixels" in err
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("use_reg,small", [("generated", "--concept"),
                                           ("retrieved", "--concept"),
                                           ("retrieved", "--reg-pool")])
def test_finetune_image_size_is_checked_before_regularization(tmp_path, cli_inputs, capsys,
                                                              monkeypatch, use_reg, small):
    """Concept images, and retrieved pool images, of another size than the
    model's exit 2 before any regularization image is retrieved or sampled."""
    calls = []
    for owner, name in ((diffusion, "sample_cfg"), (datamod, "retrieve_regularization")):
        monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
    files = {"--concept": cli_inputs / "concept_blob.json",
             "--reg-pool": cli_inputs / "reg_pool.json"}
    rows = json.loads(files[small].read_text())
    for row in rows:
        row["height"] = row["width"] = 4
        row["pixels"] = row["pixels"][:16]
    files[small] = tmp_path / "small.json"
    files[small].write_text(json.dumps(rows))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"steps": 1, "use_reg": use_reg},
                               "retrieval": {"cap": 2}, "sampler": {"steps": 2}}))
    out = tmp_path / "tuned.ckpt"
    rc = run_command(["finetune", "--config", str(cfg), "--model", str(cli_inputs / "base.ckpt"),
                      "--concept", str(files["--concept"]), "--reg-pool", str(files["--reg-pool"]),
                      "--modifier", "<new1>", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(files[small]) in err and "4x4" in err and "8x8" in err
    assert calls == [] and not out.exists()


def test_pretrain_on_a_dataset_of_mixed_image_sizes_exits_2_before_training(
        tmp_path, cli_inputs, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(finetune, "pretrain", lambda *a, **k: calls.append(a))
    rows = json.loads((cli_inputs / "pretrain.json").read_text())[:4]
    rows[2].update(height=4, width=4, pixels=rows[2]["pixels"][:16])
    data = tmp_path / "mixed.json"
    data.write_text(json.dumps(rows))
    out = tmp_path / "base.ckpt"
    rc = run_command(["pretrain", "--vocab", str(cli_inputs / "vocab.json"),
                      "--data", str(data), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(data) in err and "4x4" in err and "8x8" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("caption", ["photo of a <new1>", "photo of a", "<new1>", ""])
def test_generated_regularization_without_a_category_word_exits_2(
        tmp_path, cli_inputs, capsys, monkeypatch, caption):
    """Generated regularization samples "photo of a <category>", so a concept
    caption that names no category word exits 2 before any image is sampled."""
    calls = []
    monkeypatch.setattr(diffusion, "sample_cfg", lambda *a, **k: calls.append(a))
    rows = json.loads((cli_inputs / "concept_blob.json").read_text())
    for row in rows:
        row["caption"] = caption
    concept = tmp_path / "concept.json"
    concept.write_text(json.dumps(rows))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"steps": 1, "use_reg": "generated"},
                               "retrieval": {"cap": 2}, "sampler": {"steps": 2}}))
    out = tmp_path / "tuned.ckpt"
    rc = run_command(["finetune", "--config", str(cfg), "--model", str(cli_inputs / "base.ckpt"),
                      "--concept", str(concept), "--modifier", "<new1>", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "names no category" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("n_validation", [0, 1])
def test_eval_with_fewer_than_two_validation_images_exits_2(
        tmp_path, cli_inputs, capsys, monkeypatch, n_validation):
    """KID needs 2 or more images on each side; an empty validation set is
    refused too, rather than scored, before any image is sampled."""
    calls = []
    monkeypatch.setattr(denoiser, "forward", lambda *a: calls.append(a))
    rows = json.loads((cli_inputs / "concept_blob.json").read_text())
    validation = tmp_path / "validation.json"
    validation.write_text(json.dumps(rows[:n_validation]))
    out = tmp_path / "metrics.json"
    argv = _argv(cli_inputs, "eval")
    argv[argv.index("--num") + 1] = "4"
    argv[argv.index("--out") + 1] = str(out)
    assert run_command(argv + ["--validation", str(validation)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "2 or more images" in err
    assert calls == [] and not out.exists()


def test_retrieve_reg_writes_artifact_and_manifest(tmp_path, fixture_dir):
    out = str(tmp_path / "reg.json")
    rc = run_command(["retrieve-reg",
                      "--pool", str(fixture_dir / "reg_pool.json"),
                      "--vocab", str(fixture_dir / "vocab.json"),
                      "--target-caption", "photo of a blob",
                      "--cap", "7", "--out", out])
    assert rc == 0
    with open(out) as fh:
        rows = json.load(fh)
    assert len(rows) == 7
    assert all(r["caption"] == "photo of a blob" for r in rows)
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "retrieve-reg"
    assert len(manifest["config_hash"]) == 16
    # the --cap override is part of the config hash
    default = str(tmp_path / "reg_default.json")
    assert run_command(["retrieve-reg",
                        "--pool", str(fixture_dir / "reg_pool.json"),
                        "--vocab", str(fixture_dir / "vocab.json"),
                        "--target-caption", "photo of a blob", "--out", default]) == 0
    with open(default + ".manifest.json") as fh:
        assert json.load(fh)["config_hash"] != manifest["config_hash"]


def test_finetune_out_delta_outside_kv_only_fails_before_training(tmp_path, cli_inputs):
    cfg = tmp_path / "all_unet.json"
    cfg.write_text(json.dumps({"train": {"steps": 1, "batch": 2, "use_reg": "none",
                                         "trainable_scope": "all_unet"}}))
    out = tmp_path / "tuned.ckpt"
    rc = run_command(["finetune", "--config", str(cfg), "--model", str(cli_inputs / "base.ckpt"),
                      "--concept", str(cli_inputs / "concept_blob.json"), "--modifier", "<new1>",
                      "--out", str(out), "--out-delta", str(tmp_path / "delta.ckpt")])
    assert rc == 2
    assert not out.exists()
    assert not (tmp_path / "tuned.ckpt.manifest.json").exists()


def test_batch_of_one_fails_at_config_load(tmp_path, cli_inputs, monkeypatch, capsys):
    """balanced_batches needs a batch of 2 or more, so a batch of 1 is
    refused before any regularization image is sampled or any step is trained."""
    calls = []
    sample_cfg, pretrain = diffusion.sample_cfg, finetune.pretrain
    monkeypatch.setattr(diffusion, "sample_cfg",
                        lambda *a, **k: calls.append("sample_cfg") or sample_cfg(*a, **k))
    monkeypatch.setattr(finetune, "pretrain",
                        lambda *a, **k: calls.append("pretrain") or pretrain(*a, **k))
    cfg = tmp_path / "batch1.json"
    cfg.write_text(json.dumps({"train": {"batch": 1, "use_reg": "generated"},
                               "retrieval": {"cap": 3}, "sampler": {"steps": 2}}))
    rc = run_command(["finetune", "--config", str(cfg), "--model", str(cli_inputs / "base.ckpt"),
                      "--concept", str(cli_inputs / "concept_blob.json"),
                      "--out", str(tmp_path / "tuned.ckpt")])
    assert rc == 2
    assert "batch must be >= 2" in capsys.readouterr().err
    cfg.write_text(json.dumps({"pretrain": {"batch": 1, "steps": 1}}))
    rc = run_command(["pretrain", "--config", str(cfg), "--vocab", str(cli_inputs / "vocab.json"),
                      "--data", str(cli_inputs / "pretrain.json"),
                      "--out", str(tmp_path / "base.ckpt")])
    assert rc == 2
    assert "batch must be >= 2" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "tuned.ckpt").exists() and not (tmp_path / "base.ckpt").exists()
    with pytest.raises(InvalidInput, match="batch must be >= 2"):
        finetune.FineTuneConfig(batch=1)


def test_merge_of_a_delta_from_another_architecture_exits_2(tmp_path, cli_inputs, capsys):
    other = denoiser.build_model(denoiser.ModelConfig(d_attn=6), seed=0,
                                 vocab=fixtures.fixture_vocab())
    delta = str(tmp_path / "other_delta.ckpt")
    checkpoint.save_delta(delta, analysis.extract_delta(other, other))
    argv = _argv(cli_inputs, "merge")
    argv[argv.index("--delta") + 1] = delta
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "architecture" in err


def test_merge_of_two_deltas_with_one_modifier_token_exits_2(tmp_path, cli_inputs, capsys):
    base = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    deltas = []
    for source in ("sks", "pkz"):      # two concepts, both registered as <new1>
        tuned = base.clone()
        textmod.register_modifier(tuned.vocab, "<new1>", source=source)
        deltas.append(str(tmp_path / f"delta_{source}.ckpt"))
        checkpoint.save_delta(deltas[-1], analysis.extract_delta(base, tuned))
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([["photo of a <new1> blob"], ["photo of a <new1> ring"]]))
    argv = _argv(cli_inputs, "merge")
    argv[argv.index("--delta") + 1:argv.index("--delta") + 2] = deltas
    argv[argv.index("--targets") + 1] = str(targets)
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "'<new1>' is carried by more than one delta" in err


def test_a_delta_tuned_from_a_model_with_modifiers_merges_back_onto_it(tmp_path, cli_inputs):
    """A model that already holds <new1> and <new2> is fine-tuned on a third
    concept: its delta carries only <new3>, with or without modifier
    training, and merging it back onto that model adds <new3>."""
    model = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    textmod.register_modifier(model.vocab, "<new1>")
    textmod.register_modifier(model.vocab, "<new2>", source="pkz")
    merged = str(tmp_path / "merged.ckpt")
    checkpoint.save_model(merged, model, diffusion.NoiseSchedule.linear(T=50))
    concept = str(tmp_path / "concept_new3.json")
    datamod.save_dataset([datamod.ConceptExample(ex.image, "photo of a <new3> blob")
                          for ex in fixtures.target_concept()], concept)
    cfg = tmp_path / "cfg.json"
    for train_modifier in (False, True):
        cfg.write_text(json.dumps({"train": {"steps": 2, "batch": 2, "use_reg": "none",
                                             "train_modifier": train_modifier}}))
        delta = str(tmp_path / "d3.ckpt")
        assert run_command(["finetune", "--config", str(cfg), "--model", merged,
                            "--concept", concept, "--modifier", "<new3>",
                            "--modifier-source", "vxq", "--out", str(tmp_path / "tuned3.ckpt"),
                            "--out-delta", delta]) == 0
        assert [n for n, _ in checkpoint.load_delta(delta).modifier_embeddings] == ["<new3>"]
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([["photo of a <new3> blob"]]))
    out = str(tmp_path / "merged3.ckpt")
    assert run_command(["merge", "--base", merged, "--delta", delta, "--targets", str(targets),
                        "--reg-captions", str(cli_inputs / "reg_captions.json"),
                        "--out", out]) == 0
    assert sorted(checkpoint.load_model(out)[0].vocab.modifiers) == ["<new1>", "<new2>", "<new3>"]


def test_merge_of_a_delta_whose_modifier_is_a_word_exits_2(tmp_path, cli_inputs, capsys):
    base = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    delta = analysis.extract_delta(base, base)
    delta.modifier_embeddings = [("blob", np.ones(base.vocab.dim))]
    path = str(tmp_path / "blob_delta.ckpt")
    checkpoint.save_delta(path, delta)
    argv = _argv(cli_inputs, "merge")
    argv[argv.index("--delta") + 1] = path
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "'blob' already in vocabulary" in err
    assert not os.path.exists(argv[argv.index("--out") + 1])


def test_negative_seed_exits_2_before_sampling(tmp_path, cli_inputs, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(denoiser, "forward", lambda *a: calls.append(a))
    out = str(tmp_path / "out")
    common = ["--model", str(cli_inputs / "base.ckpt"), "--prompt", "photo of a blob",
              "--seed", "-1", "--steps", "3", "--out", out]
    for argv in (["sample"] + common,
                 ["eval", "--targets", str(cli_inputs / "concept_blob.json")] + common):
        assert run_command(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "seed must be >= 0" in err
    assert calls == [] and not os.path.exists(out)


def test_explicit_steps_beyond_the_checkpoint_chain_exit_2(tmp_path, cli_inputs, capsys):
    """`sample` and `eval` pick their step count by one rule: the config's
    steps are capped at the checkpoint's T, an explicit --steps is not."""
    model = str(tmp_path / "t100.ckpt")
    checkpoint.save_model(model, denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab()),
                          diffusion.NoiseSchedule.linear(T=100))
    out = str(tmp_path / "out")
    common = ["--model", model, "--prompt", "photo of a blob", "--steps", "150", "--out", out]
    for argv in (["sample"] + common,
                 ["eval", "--targets", str(cli_inputs / "concept_blob.json"), "--num", "1"]
                 + common):
        assert run_command(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "cannot exceed" in err
    assert not os.path.exists(out)


def test_sampling_a_model_whose_readout_overflows_exits_2(tmp_path, cli_inputs, capsys):
    """A checkpoint of finite weights whose readout overflows (w_out near
    the largest double) predicts non-finite noise at the first step, t = T:
    `sample` reports the sampler's NumericalFailure on one error line, with
    no traceback or numpy warning, and writes nothing."""
    model = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    model.params[denoiser.ParamKey(0, denoiser.ROLE_OTHER, "w_out")][:] = 1e308
    ckpt = str(tmp_path / "overflow.ckpt")
    checkpoint.save_model(ckpt, model, diffusion.NoiseSchedule.linear(T=30))
    out = tmp_path / "img.pgm"
    with warnings.catch_warnings():
        # a warning is printed to the terminal beside the error line
        warnings.simplefilter("error")
        assert run_command(["sample", "--model", ckpt, "--prompt", "photo of a blob",
                            "--steps", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: non-finite noise prediction at t=30\n", err
    assert not out.exists()


@pytest.mark.parametrize("schedule", [{"beta_start": 1e-20, "beta_end": 1e-19},
                                      {"T": 1000, "beta_start": 0.5, "beta_end": 0.9}])
def test_pretrain_with_a_schedule_whose_alpha_bar_reaches_1_or_0_exits_2(
        tmp_path, cli_inputs, capsys, schedule):
    """Every alpha-bar 1.0 (betas of 1e-20) or the last one 0.0 (a 1000-step
    chain of betas 0.5 to 0.9): `pretrain` exits 2 on one error line before
    training, and writes nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": schedule, "pretrain": {"steps": 2}}))
    out = tmp_path / "base.ckpt"
    assert run_command(["pretrain", "--config", str(cfg), "--vocab", str(cli_inputs / "vocab.json"),
                        "--data", str(cli_inputs / "pretrain.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha_bar") and err.count("\n") == 1, err
    assert not out.exists()


def test_configured_steps_are_capped_at_the_checkpoint_chain(tmp_path, cli_inputs):
    """The config's sampler steps are checked against the T of the
    checkpoint sampled from, not the config's schedule: pretrain never
    samples, and `sample` caps configured steps at the checkpoint's T."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": {"T": 50}, "pretrain": {"steps": 2}}))
    base = str(tmp_path / "t50.ckpt")
    assert run_command(["pretrain", "--config", str(cfg), "--vocab", str(cli_inputs / "vocab.json"),
                        "--data", str(cli_inputs / "pretrain.json"), "--out", base]) == 0
    assert checkpoint.load_model(base)[1].T == 50
    cfg.write_text(json.dumps({"sampler": {"steps": 300}}))
    out = tmp_path / "img.pgm"
    common = ["sample", "--model", str(cli_inputs / "base.ckpt"), "--prompt", "photo of a blob"]
    assert run_command(common + ["--config", str(cfg), "--out", str(out)]) == 0
    with open(f"{out}.json") as fh:
        assert json.load(fh)["steps"] == 200
    assert run_command(common + ["--steps", "300", "--out", str(tmp_path / "no.pgm")]) == 2


def test_a_model_of_another_text_width_is_configured_at_pretrain_only(tmp_path, cli_inputs):
    """A 12-wide vocabulary and model.d_text 12 are given to `pretrain`
    alone: the commands after it featurize captions at the width of the
    vocabulary they read, and images at the loaded model's size."""
    spec = json.loads((cli_inputs / "vocab.json").read_text())
    vocab = tmp_path / "vocab12.json"
    vocab.write_text(json.dumps({**spec, "dim": 12}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_text": 12}, "pretrain": {"steps": 2}}))
    base = str(tmp_path / "base12.ckpt")
    assert run_command(["pretrain", "--config", str(cfg), "--vocab", str(vocab),
                        "--data", str(cli_inputs / "pretrain.json"), "--out", base]) == 0
    concept, pool = str(cli_inputs / "concept_blob.json"), str(cli_inputs / "reg_pool.json")
    assert run_command(["eval", "--model", base, "--prompt", "photo of a blob", "--targets",
                        concept, "--num", "1", "--steps", "2",
                        "--out", str(tmp_path / "m.json")]) == 0
    assert run_command(["finetune", "--model", base, "--concept", concept, "--modifier", "<new1>",
                        "--reg-pool", pool, "--out", str(tmp_path / "tuned.ckpt")]) == 0
    assert run_command(["retrieve-reg", "--pool", pool, "--vocab", str(vocab),
                        "--target-caption", "photo of a blob",
                        "--out", str(tmp_path / "reg.json")]) == 0


def test_sample_gives_both_its_files_a_manifest(tmp_path, cli_inputs):
    out = tmp_path / "img.pgm"
    assert run_command(["sample", "--model", str(cli_inputs / "base.ckpt"),
                        "--prompt", "photo of a blob", "--steps", "3",
                        "--out", str(out)]) == 0
    for path in (out, tmp_path / "img.pgm.json"):
        with open(f"{path}.manifest.json") as fh:
            assert json.load(fh)["command"] == "sample"


@pytest.fixture(scope="module")
def delta_inputs(tmp_path_factory):
    """A base whose readout is not zero; a delta of it with moved K/V
    weights and the modifier <new1>, and the tuned model it came from; and
    a delta of another architecture."""
    d = tmp_path_factory.mktemp("delta_inputs")
    rng = np.random.default_rng(21)
    base = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    w_out = denoiser.ParamKey(0, denoiser.ROLE_OTHER, "w_out")
    base.params[w_out] = rng.standard_normal(base.params[w_out].shape)
    tuned = base.clone()
    textmod.register_modifier(tuned.vocab, "<new1>")
    for key in tuned.params:
        if key.role in denoiser.KV_ROLES:
            tuned.params[key] += 0.3 * rng.standard_normal(tuned.params[key].shape)
    sched = diffusion.NoiseSchedule.linear(T=50)
    checkpoint.save_model(str(d / "base.ckpt"), base, sched)
    checkpoint.save_model(str(d / "tuned.ckpt"), tuned, sched)
    checkpoint.save_delta(str(d / "delta.ckpt"), analysis.extract_delta(base, tuned))
    other = denoiser.build_model(denoiser.ModelConfig(d_attn=6), seed=0,
                                 vocab=fixtures.fixture_vocab())
    checkpoint.save_delta(str(d / "other_delta.ckpt"), analysis.extract_delta(other, other))
    return d


def test_sample_and_eval_apply_a_delta_at_load_time(tmp_path, cli_inputs, delta_inputs):
    """`sample --delta` gives the bytes of an in-process sample of
    apply_delta(base, delta), and `eval --delta` the metrics of eval on that
    model saved as a checkpoint; the modifier exists only with the delta."""
    base, sched = checkpoint.load_model(str(delta_inputs / "base.ckpt"))
    model = analysis.apply_delta(base, checkpoint.load_delta(str(delta_inputs / "delta.ckpt")))
    prompt = "photo of a <new1> blob"
    want = diffusion.sample_prompt(model, prompt, 1, 4, sched, 5, 6.0)[0]
    out = tmp_path / "img.pgm"
    common = ["--model", str(delta_inputs / "base.ckpt"), "--prompt", prompt, "--steps", "5",
              "--seed", "4"]
    assert run_command(["sample", "--delta", str(delta_inputs / "delta.ckpt"), *common,
                        "--out", str(out)]) == 0
    with open(f"{out}.json") as fh:
        assert np.array(json.load(fh)["pixels"]).tobytes() == want.reshape(-1).tobytes()
    write_pgm(str(tmp_path / "want.pgm"), want)
    assert out.read_bytes() == (tmp_path / "want.pgm").read_bytes()
    # without the delta the base has no <new1>
    assert run_command(["sample", *common, "--out", str(tmp_path / "no.pgm")]) == 2

    applied = str(tmp_path / "applied.ckpt")
    checkpoint.save_model(applied, model, sched)
    evals = ["eval", "--prompt", prompt, "--targets", str(cli_inputs / "concept_blob.json"),
             "--num", "2", "--steps", "5"]
    assert run_command(evals + ["--model", str(delta_inputs / "base.ckpt"),
                                "--delta", str(delta_inputs / "delta.ckpt"),
                                "--out", str(tmp_path / "m1.json")]) == 0
    assert run_command(evals + ["--model", applied, "--out", str(tmp_path / "m2.json")]) == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


@pytest.mark.parametrize("command", ["sample", "eval"])
@pytest.mark.parametrize("model,delta,message", [
    ("tuned.ckpt", "delta.ckpt", "'<new1>' already in vocabulary"),
    ("base.ckpt", "other_delta.ckpt", "architecture")])
def test_a_delta_that_does_not_fit_the_model_exits_2(tmp_path, cli_inputs, delta_inputs, capsys,
                                                     command, model, delta, message):
    out = tmp_path / "out"
    argv = [command, "--model", str(delta_inputs / model), "--delta", str(delta_inputs / delta),
            "--prompt", "photo of a blob", "--steps", "3", "--out", str(out)]
    if command == "eval":
        argv += ["--targets", str(cli_inputs / "concept_blob.json"), "--num", "1"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err
    assert not out.exists()


def test_write_pgm(tmp_path):
    img = np.array([[-1.0, 0.0], [1.0, 0.5]])
    path = str(tmp_path / "img.pgm")
    write_pgm(path, img)
    raw = open(path, "rb").read()
    header, pixels = raw[:11], raw[11:]
    assert header == b"P5\n2 2\n255\n"
    assert list(pixels) == [0, 127, 255, 191]


def test_fixture_writer_produces_cli_inputs(fixture_dir):
    expected = {"vocab.json", "pretrain.json", "concept_blob.json",
                "concept_ring.json", "reg_pool.json", "reg_captions.json"}
    assert expected <= set(os.listdir(fixture_dir))


def test_unknown_subcommand_exits_nonzero(capsys):
    assert run_command(["frobnicate"]) != 0
    capsys.readouterr()


# JSON values of every kind, non-finite and out-of-range numbers included
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.just(10 ** 400),
              st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
_WORDS = ["photo", "of", "a", "blob", "ring", "<s>", "<new1>", "<new2>", ""]
# vocabulary words, and at most one arbitrary word
_CAPTIONS = st.builds(lambda words, other: " ".join(words + other),
                      st.lists(st.sampled_from(_WORDS), max_size=5),
                      st.lists(st.text(max_size=4), max_size=1))


@st.composite
def _mutated_dataset(draw, rows):
    """A valid dataset with one change: the whole file, a row key dropped or
    set to any JSON value, a pixel set to any JSON value, a new caption, a
    new image size with the pixels to match, or rows dropped."""
    rows = copy.deepcopy(rows)
    op = draw(st.sampled_from(["file", "drop", "field", "pixel", "caption", "size", "rows"]))
    if op == "file":
        return draw(_JSON)
    if op == "rows":
        return rows[:draw(st.integers(0, len(rows) - 1))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if op == "drop":
        del row[draw(st.sampled_from(sorted(row)))]
    elif op == "field":
        row[draw(st.sampled_from(["caption", "height", "width", "pixels", "extra"]))] = draw(_JSON)
    elif op == "pixel":
        row["pixels"][draw(st.integers(0, len(row["pixels"]) - 1))] = draw(_JSON)
    elif op == "caption":
        row["caption"] = draw(_CAPTIONS)
    else:
        row["height"], row["width"] = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        row["pixels"] = (row["pixels"] * 2)[:row["height"] * row["width"]]
    return rows


@st.composite
def _mutated_targets(draw, targets):
    """A valid target list with one change: the whole file, a caption list
    or caption set to any JSON value, a new caption, or a list or caption
    added or dropped."""
    targets = copy.deepcopy(targets)
    op = draw(st.sampled_from(["file", "list", "item", "caption", "add", "drop"]))
    if op == "file":
        return draw(_JSON)
    i = draw(st.integers(0, len(targets) - 1))
    if op == "list":
        targets[i] = draw(_JSON)
    elif op == "item":
        targets[i][0] = draw(_JSON)
    elif op == "caption":
        targets[i][0] = draw(_CAPTIONS)
    elif op == "add":
        targets[i].append(draw(_CAPTIONS))
    elif draw(st.booleans()):
        del targets[i]
    else:
        del targets[i][0]
    return targets


def _exits_0_or_2_with_one_error_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run_command(argv)
    assert (rc == 0 and err.getvalue() == "") or (
        rc == 2 and err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1), \
        (rc, err.getvalue())


@pytest.fixture(scope="module")
def merge_inputs(tmp_path_factory):
    """A tiny base and two deltas, <new1> and <new2>, for mutated target lists."""
    d = tmp_path_factory.mktemp("merge_mutants")
    cfg = denoiser.ModelConfig(height=4, width=4, d_model=6, d_attn=4, d_text=5, hidden=7,
                               blocks=2)
    voc = textmod.build_vocabulary(["photo", "of", "a", "blob", "ring"],
                                   {"blob": 8, "ring": 6}, dim=5, seed=3)
    base = denoiser.build_model(cfg, seed=5, vocab=voc)
    checkpoint.save_model(str(d / "base.ckpt"), base, diffusion.NoiseSchedule.linear(T=50))
    rng = np.random.default_rng(0)
    for name, source, path in (("<new1>", "blob", "delta1.ckpt"),
                               ("<new2>", "ring", "delta2.ckpt")):
        tuned = base.clone()
        mod = textmod.register_modifier(tuned.vocab, name, source=source)
        tuned.vocab.embeddings[mod.token_index] += rng.standard_normal(5)
        for k in tuned.params.sorted_keys():
            tuned.params[k] = tuned.params[k] + 0.1 * rng.standard_normal(tuned.params[k].shape)
        checkpoint.save_delta(str(d / path), analysis.extract_delta(base, tuned))
    (d / "reg_captions.json").write_text(json.dumps(["photo of a blob", "photo of a ring"]))
    return d


# a mutant pool may hold no caption near the target, which warns by design
@pytest.mark.filterwarnings("ignore::kvdiff.errors.EmptyRegularizationSetWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["retrieve-reg", "eval"]))
def test_mutated_dataset_exits_0_or_2_with_one_error_line(cli_inputs, data, command):
    """A concept file sent through `eval` or a pool file sent through
    `retrieve-reg`, with one change, is used or refused with one `error:`
    line, never with a traceback."""
    argv = _argv(cli_inputs, command)
    flag = {"eval": "--targets", "retrieve-reg": "--pool"}[command]
    with open(argv[argv.index(flag) + 1]) as fh:
        rows = json.load(fh)[:3]
    path = cli_inputs / "mutant.json"
    path.write_text(json.dumps(data.draw(_mutated_dataset(rows))))
    argv[argv.index(flag) + 1] = str(path)
    _exits_0_or_2_with_one_error_line(argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(targets=_mutated_targets([["photo of a <new1> blob"], ["photo of a <new2> ring"]]))
def test_mutated_target_list_exits_0_or_2_with_one_error_line(merge_inputs, targets):
    path = merge_inputs / "targets.json"
    path.write_text(json.dumps(targets))
    _exits_0_or_2_with_one_error_line([
        "merge", "--base", str(merge_inputs / "base.ckpt"),
        "--delta", str(merge_inputs / "delta1.ckpt"), str(merge_inputs / "delta2.ckpt"),
        "--targets", str(path), "--reg-captions", str(merge_inputs / "reg_captions.json"),
        "--out", str(merge_inputs / "merged.ckpt")])
