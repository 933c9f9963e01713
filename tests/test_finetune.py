"""Fine-tuning scopes, SGD purity, config validation, divergence handling."""

import dataclasses

import numpy as np
import pytest

from kvdiff import data as datamod
from kvdiff import diffusion, finetune, textmod
from kvdiff.denoiser import ROLE_CROSS_KEY, ROLE_CROSS_VALUE
from kvdiff.errors import DivergenceError, InvalidInput


def test_trainable_set_scopes(tiny_model):
    kv = finetune.trainable_set(tiny_model, finetune.SCOPE_KV_ONLY)
    assert kv and all(k.role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE) for k in kv)
    everything = finetune.trainable_set(tiny_model, finetune.SCOPE_ALL)
    assert everything == set(tiny_model.params.keys())
    with pytest.raises(InvalidInput):
        finetune.trainable_set(tiny_model, "decoder_only")


def test_sgd_step_is_pure():
    p = {"a": np.ones(3), "b": np.full(3, 2.0)}
    g = {"a": np.ones(3)}
    out = finetune.sgd_step(p, g, lr=0.5)
    np.testing.assert_array_equal(out["a"], np.full(3, 0.5))
    np.testing.assert_array_equal(out["b"], p["b"])
    assert out["b"] is not p["b"]
    np.testing.assert_array_equal(p["a"], np.ones(3))   # input untouched
    from kvdiff.errors import NumericalFailure
    with pytest.raises(NumericalFailure):
        finetune.sgd_step(p, {"a": np.array([np.nan, 0, 0])}, lr=0.5)


def test_config_validation_and_round_trip():
    # every field is a keyword, as the CLI builds the config from a JSON table
    cfg = finetune.FineTuneConfig(steps=10, learning_rate=0.1, batch=4,
                                  use_reg="none", use_aug=False, seed=2)
    assert finetune.FineTuneConfig(**dataclasses.asdict(cfg)) == cfg
    with pytest.raises(InvalidInput):
        finetune.FineTuneConfig(learning_rate=0.0)
    with pytest.raises(InvalidInput):
        finetune.FineTuneConfig(trainable_scope="heads")
    with pytest.raises(InvalidInput):
        finetune.FineTuneConfig(use_reg="imagined")
    with pytest.raises(InvalidInput):
        finetune.FineTuneConfig(steps=-1)


def _examples(model, n=3, seed=0, modifier=None):
    rng = np.random.default_rng(seed)
    word = f"{modifier.name} blob" if modifier else "blob"
    return [datamod.ConceptExample(
        image=rng.uniform(-1, 1, model.image_shape),
        caption=f"photo of a {word}") for _ in range(n)]


def test_finetune_kv_only_touches_only_kv(tiny_model):
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    cfg = finetune.FineTuneConfig(steps=5, learning_rate=1e-3, batch=2,
                                  use_reg="none", use_aug=False, seed=1)
    report = finetune.finetune(tiny_model, [(_examples(tiny_model, modifier=mod), mod)],
                               cfg, sched=sched)
    moved = frozen = 0
    for k in tiny_model.params.sorted_keys():
        same = np.array_equal(report.model.params[k], tiny_model.params[k])
        if k.role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE):
            moved += not same
        else:
            frozen += same
            assert same, k
    assert moved > 0
    assert report.loss_curve.shape == (5,)
    # the modifier embedding trained; the source row did not
    src = tiny_model.vocab.index(mod.source_token)
    assert not np.array_equal(report.model.vocab.embeddings[mod.token_index],
                              tiny_model.vocab.embeddings[mod.token_index])
    np.testing.assert_array_equal(report.model.vocab.embeddings[src],
                                  tiny_model.vocab.embeddings[src])


def test_finetune_rejects_bad_concepts(tiny_model):
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    cfg = finetune.FineTuneConfig(steps=1, learning_rate=1e-3, batch=2,
                                  use_reg="none", use_aug=False)
    with pytest.raises(InvalidInput):
        finetune.finetune(tiny_model, [([], mod)], cfg)
    with pytest.raises(InvalidInput):
        finetune.finetune(tiny_model, [(_examples(tiny_model, modifier=mod), mod),
                                       (_examples(tiny_model, modifier=mod), mod)], cfg)


def test_divergence_raises(tiny_model):
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    cfg = finetune.FineTuneConfig(steps=200, learning_rate=50.0, batch=2,
                                  trainable_scope=finetune.SCOPE_ALL,
                                  use_reg="none", use_aug=False, seed=1)
    with pytest.raises(DivergenceError):
        finetune.finetune(tiny_model, [(_examples(tiny_model, modifier=mod), mod)],
                          cfg, sched=sched)


def test_finetune_is_deterministic(tiny_model):
    sched = diffusion.NoiseSchedule.linear(T=25)
    cfg = finetune.FineTuneConfig(steps=4, learning_rate=1e-3, batch=2,
                                  use_reg="none", use_aug=False, seed=7)
    runs = []
    for _ in range(2):
        model = tiny_model.clone()
        mod = textmod.register_modifier(model.vocab, "<new1>")
        report = finetune.finetune(model, [(_examples(model, modifier=mod), mod)],
                                   cfg, sched=sched)
        runs.append(report)
    np.testing.assert_array_equal(runs[0].loss_curve, runs[1].loss_curve)
    for k in runs[0].model.params.sorted_keys():
        np.testing.assert_array_equal(runs[0].model.params[k], runs[1].model.params[k])


def test_sequential_training_accumulates_modifiers(tiny_model):
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod_a = textmod.register_modifier(tiny_model.vocab, "<new1>")
    mod_b = textmod.register_modifier(tiny_model.vocab, "<new2>")
    cfg = finetune.FineTuneConfig(steps=2, learning_rate=1e-3, batch=2,
                                  use_reg="none", use_aug=False, seed=1)
    ex_a = _examples(tiny_model, modifier=mod_a)
    ex_b = [datamod.ConceptExample(image=e.image, caption=f"photo of a {mod_b.name} ring")
            for e in _examples(tiny_model, seed=5)]
    report = finetune.finetune_sequential(tiny_model, (ex_a, mod_a), (ex_b, mod_b),
                                          cfg, sched=sched)
    # each stage trained its own modifier embedding, and the model keeps both
    for mod in (mod_a, mod_b):
        assert not np.array_equal(report.model.vocab.embeddings[mod.token_index],
                                  tiny_model.vocab.embeddings[mod.token_index])
    assert report.loss_curve.shape == (4,)


def test_batch_gradients_results_survive_a_later_call(tiny_model):
    # the finite-difference K/V check keeps the first call's gradients while
    # it calls again on a model with one entry moved; no returned array may
    # share memory that a later call writes
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    batch = _examples(tiny_model, n=4, modifier=mod)

    def call():
        return finetune.batch_gradients(tiny_model, batch, sched, np.random.default_rng(4),
                                        modifier_indices=(mod.token_index,))

    loss, grads, emb_grads = call()
    kept = (loss, {k: g.copy() for k, g in grads.items()},
            {i: g.copy() for i, g in emb_grads.items()})
    key = next(k for k in tiny_model.params.sorted_keys() if k.role == ROLE_CROSS_KEY)
    moved = tiny_model.params[key].copy()
    moved[1, 2] += 1e-3
    tiny_model.params[key] = moved
    assert call()[0] != loss
    assert loss == kept[0]
    assert grads.keys() == kept[1].keys() and emb_grads.keys() == kept[2].keys()
    assert all(grads[k].tobytes() == g.tobytes() for k, g in kept[1].items())
    assert all(emb_grads[i].tobytes() == g.tobytes() for i, g in kept[2].items())
