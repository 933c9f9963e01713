"""Fine-tuning scopes, the one SGD update, config validation, divergence handling."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from kvdiff import data as datamod
from kvdiff import denoiser, diffusion, finetune, fixtures, textmod
from kvdiff.denoiser import ROLE_CROSS_KEY, ROLE_CROSS_VALUE
from kvdiff.errors import DivergenceError, InvalidInput, NumericalFailure


def test_trainable_set_scopes(tiny_model):
    kv = finetune.trainable_set(tiny_model, finetune.SCOPE_KV_ONLY)
    assert kv and all(k.role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE) for k in kv)
    everything = finetune.trainable_set(tiny_model, finetune.SCOPE_ALL)
    assert everything == set(tiny_model.params.keys())
    with pytest.raises(InvalidInput):
        finetune.trainable_set(tiny_model, "decoder_only")


def _state(model):
    return (b"".join(model.params[k].tobytes() for k in model.params.sorted_keys())
            + model.vocab.embeddings.tobytes())


def _train_one_step(monkeypatch, model, grads, emb_grads, lr):
    """One _train step on `model` whose batch_gradients returns `grads` and
    `emb_grads`, training the modifier rows that emb_grads names."""
    monkeypatch.setattr(finetune, "batch_gradients", lambda *a, **k: (1.0, grads, emb_grads))
    examples = [datamod.ConceptExample(image=np.zeros(model.image_shape),
                                       caption="photo of a blob")] * 2
    cfg = finetune.FineTuneConfig(steps=1, learning_rate=lr, batch=2, use_reg="none",
                                  use_aug=False)
    finetune._train(model, examples, None, cfg, None, tuple(emb_grads))


def test_one_update_moves_weights_and_modifier_rows_in_place(tiny_model, monkeypatch):
    """A training step's one sgd_step moves every registry array and modifier
    row with a gradient by exactly -lr * g, in place, leaves an array without
    one untouched, and checks every gradient before it changes any array."""
    model, lr = tiny_model, 0.5
    tok = textmod.register_modifier(model.vocab, "<new1>").token_index
    kv = sorted(finetune.trainable_set(model, finetune.SCOPE_KV_ONLY))
    rng = np.random.default_rng(0)
    grads = {k: rng.standard_normal(model.params[k].shape) for k in kv[1:]}
    emb_grads = {tok: rng.standard_normal(model.vocab.dim)}
    arrays, table = dict(model.params), model.vocab.embeddings
    before, row = {k: v.copy() for k, v in arrays.items()}, table[tok].copy()
    _train_one_step(monkeypatch, model, grads, emb_grads, lr)
    assert all(model.params[k] is arrays[k] for k in arrays)
    assert model.vocab.embeddings is table
    for k in arrays:
        want = before[k] - lr * grads[k] if k in grads else before[k]
        assert arrays[k].tobytes() == want.tobytes(), k
    assert table[tok].tobytes() == (row - lr * emb_grads[tok]).tobytes()
    # non-finite on a registry key, then on a modifier row: nothing moves
    state = _state(model)
    for bad, bad_emb in (({**grads, kv[2]: np.full(grads[kv[2]].shape, np.nan)}, emb_grads),
                         (grads, {tok: np.full(model.vocab.dim, np.inf)})):
        with pytest.raises(NumericalFailure):
            _train_one_step(monkeypatch, model, bad, bad_emb, lr)
        assert _state(model) == state


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


@pytest.mark.parametrize("arg,value", [("learning_rate", 0.0), ("batch", 1), ("steps", -1),
                                       ("cond_dropout", 1.5)])
def test_pretrain_checks_its_arguments_as_pretrain_config(arg, value):
    """A library pretrain() names the `pretrain` key it refuses, as the CLI
    does, before it builds a model."""
    with pytest.raises(InvalidInput, match=f"^pretrain\\.{arg} must be "):
        finetune.pretrain(fixtures.fixture_vocab(), [], **{arg: value})


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


def test_an_all_dropout_fine_tune_meets_finite_differences(tiny_model):
    """Every caption dropped to the start token alone: cross-attention has a
    single key, whose softmax weight is exactly 1, so the loss does not
    depend on the K weights. A few kv_only steps at cond_dropout 1, then
    every K/V gradient of the tuned model against central differences of
    the batch loss."""
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    examples = _examples(tiny_model, modifier=mod)
    cfg = finetune.FineTuneConfig(steps=5, learning_rate=1e-2, batch=4, use_reg="none",
                                  use_aug=False, seed=4, cond_dropout=1.0)
    model = finetune.finetune(tiny_model, [(examples, mod)], cfg, sched=sched).model
    keys = finetune.trainable_set(model, finetune.SCOPE_KV_ONLY)

    def loss_and_grads():
        return finetune.batch_gradients(model, examples, sched, np.random.default_rng(6),
                                        cond_dropout=1.0, keys=keys)[:2]

    _, grads = loss_and_grads()
    h = 1e-5
    for key in sorted(keys):
        w = model.params[key]
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            lp = loss_and_grads()[0]
            w[idx] = orig - h
            lm = loss_and_grads()[0]
            w[idx] = orig
            fd = (lp - lm) / (2 * h)
            if key.role == ROLE_CROSS_KEY:
                assert fd == 0.0
            assert abs(grads[key][idx] - fd) <= 1e-8 + 1e-5 * abs(fd), (key, idx)


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


def test_finetune_without_concepts_fails(tiny_model):
    # regularization images alone are no concept to learn
    reg = datamod.RegularizationSet(examples=_examples(tiny_model))
    cfg = finetune.FineTuneConfig(steps=1, batch=2, use_aug=False)
    with pytest.raises(InvalidInput, match="target set is empty"):
        finetune.finetune(tiny_model, [], cfg, reg,
                          sched=diffusion.NoiseSchedule.linear(T=25))


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


def _reference_batch_gradients(model, examples, sched, rng, modifier_indices, cond_dropout,
                               keys):
    """The training step one example at a time: each example's draws, noised
    image, masked loss and loss gradient from the one-image formulas, then
    one forward and one backward pass over the stacked batch."""
    vocab = model.vocab
    x_t, ts, cs, draws = [], [], [], []
    for ex in examples:
        caption = ex.caption
        if cond_dropout > 0.0 and rng.random() < cond_dropout:
            caption = ""
        t = int(rng.integers(1, sched.T + 1))
        eps = rng.standard_normal(ex.image.shape)
        seq = textmod.tokenize(vocab, caption)
        x_t.append(diffusion.forward_noise(ex.image, t, eps, sched))
        ts.append(t)
        cs.append(textmod.encode_caption(vocab, seq))
        mask = getattr(ex, "valid_mask", None)
        draws.append((eps, np.ones(eps.shape) if mask is None else mask, seq))
    n = len(draws)
    eps_pred, cache = denoiser.forward(model, np.stack(x_t), ts, denoiser.context(model, cs))
    loss = 0.0
    d_pred = np.empty_like(eps_pred)
    for i, (eps, mask, _) in enumerate(draws):
        loss += diffusion.masked_loss(eps, eps_pred[i], mask)
        d_pred[i] = -2.0 * mask * (eps - eps_pred[i]) / (mask.sum() * n)
    grads, d_c = denoiser.backward(model, cache, d_pred, keys)
    emb_grads = {i: np.zeros(vocab.dim) for i in modifier_indices}
    for (_, _, seq), dc in zip(draws, d_c):
        for pos, tok in enumerate(seq):
            if tok in emb_grads:
                emb_grads[tok] += dc[pos]
    return loss / n, grads, emb_grads


@pytest.mark.parametrize("scope", [finetune.SCOPE_KV_ONLY, finetune.SCOPE_ALL])
@pytest.mark.parametrize("cond_dropout", [0.0, 0.5])
def test_batch_gradients_matches_a_per_example_loop_bit_for_bit(scope, cond_dropout):
    """Augmented targets (with valid masks) and plain regularization images,
    with captions of two lengths: the batched step gives the loss, every
    gradient and every modifier gradient of the per-example reference, and
    leaves the generator where the reference leaves it."""
    model = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    sched = diffusion.NoiseSchedule.linear()
    mod = textmod.register_modifier(model.vocab, "<new1>")
    keys = finetune.trainable_set(model, scope)
    targets = fixtures.target_concept()[:4]
    # a batch of 8: np.sum adds 8 or more terms pairwise, not in order
    reg = fixtures.regularization_pool()[:4]
    workspace = {}
    for seed in range(4):
        aug_rng = np.random.default_rng(seed)
        batch = [datamod.augment(ex, aug_rng) for ex in targets] + reg
        assert any(ex.valid_mask.min() == 0.0 for ex in batch[:4])
        got_rng, want_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        got = finetune.batch_gradients(model, batch, sched, got_rng,
                                       modifier_indices=(mod.token_index,),
                                       cond_dropout=cond_dropout, keys=keys,
                                       workspace=workspace)
        want = _reference_batch_gradients(model, batch, sched, want_rng,
                                          (mod.token_index,), cond_dropout, keys)
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys() == keys
        assert all(got[1][k].tobytes() == want[1][k].tobytes() for k in keys)
        assert got[2].keys() == want[2].keys()
        assert all(got[2][i].tobytes() == g.tobytes() for i, g in want[2].items())
        assert got_rng.random() == want_rng.random()


def test_batch_gradients_refuses_an_image_of_another_shape():
    """A (1, 8) image would broadcast into the batch's (8, 8) row unnoticed."""
    model = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    textmod.register_modifier(model.vocab, "<new1>")
    batch = fixtures.target_concept()[:3]
    batch[1] = datamod.ConceptExample(image=batch[1].image[:1], caption=batch[1].caption)
    with pytest.raises(InvalidInput, match="example 1 has a \\(1, 8\\) image"):
        finetune.batch_gradients(model, batch, diffusion.NoiseSchedule.linear(),
                                 np.random.default_rng(0))


def test_batch_gradients_results_survive_a_later_call(tiny_model):
    # the finite-difference K/V check keeps the first call's gradients while
    # it calls again on a model with one entry moved, and a training loop
    # makes every call with one workspace; no returned array may share memory
    # that a later call writes
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    batch = _examples(tiny_model, n=4, modifier=mod)
    key = next(k for k in tiny_model.params.sorted_keys() if k.role == ROLE_CROSS_KEY)
    orig = tiny_model.params[key]
    for workspace in (None, {}):
        tiny_model.params[key] = orig

        def call():
            return finetune.batch_gradients(tiny_model, batch, sched, np.random.default_rng(4),
                                            modifier_indices=(mod.token_index,),
                                            workspace=workspace)

        loss, grads, emb_grads = call()
        kept = (loss, {k: g.copy() for k, g in grads.items()},
                {i: g.copy() for i, g in emb_grads.items()})
        moved = orig.copy()
        moved[1, 2] += 1e-3
        tiny_model.params[key] = moved
        assert call()[0] != loss
        assert loss == kept[0]
        assert grads.keys() == kept[1].keys() and emb_grads.keys() == kept[2].keys()
        assert all(grads[k].tobytes() == g.tobytes() for k, g in kept[1].items())
        assert all(emb_grads[i].tobytes() == g.tobytes() for i, g in kept[2].items())


def test_a_reused_workspace_allocates_almost_nothing():
    """A second default-size training step with the workspace of the first
    allocates no activations or scratch arrays. Measured peak above the
    call's start: 2.67 MB with a fresh workspace per call, 119 KB with the
    reused one, of which 64 KB is a numpy iterator buffer for broadcasting
    ufuncs and most of the rest the batch's inputs and the returned
    gradients."""
    model = denoiser.build_model(seed=0, vocab=fixtures.fixture_vocab())
    mod = textmod.register_modifier(model.vocab, "<new1>")
    # captions of two lengths, so the cross-attention keys are padded
    batch = fixtures.target_concept() + fixtures.regularization_pool()[:4]
    sched = diffusion.NoiseSchedule.linear()
    keys = finetune.trainable_set(model, finetune.SCOPE_KV_ONLY)
    workspace = {}

    def call():
        return finetune.batch_gradients(model, batch, sched, np.random.default_rng(0),
                                        modifier_indices=(mod.token_index,), keys=keys,
                                        workspace=workspace)

    first = call()
    tracemalloc.start()
    try:
        second = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180_000, peak
    assert first[0] == second[0]
    assert all(first[1][k].tobytes() == g.tobytes() for k, g in second[1].items())


@pytest.mark.parametrize("scope,use_reg", [(finetune.SCOPE_KV_ONLY, "retrieved"),
                                           (finetune.SCOPE_ALL, "none")])
def test_training_with_and_without_a_workspace_is_byte_identical(tiny_model, monkeypatch,
                                                                 scope, use_reg):
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    targets = _examples(tiny_model, modifier=mod)
    reg = datamod.RegularizationSet(examples=_examples(tiny_model, seed=8))
    cfg = finetune.FineTuneConfig(steps=6, learning_rate=1e-3, batch=4, trainable_scope=scope,
                                  use_reg=use_reg, use_aug=False, seed=2, cond_dropout=0.3)

    def run():
        return finetune.finetune(tiny_model, [(targets, mod)], cfg, reg, sched)

    shared = run()
    inner = denoiser.forward
    # every step's forward pass with a fresh workspace of its own
    monkeypatch.setattr(denoiser, "forward",
                        lambda model, x_t, t, ctx, workspace: inner(model, x_t, t, ctx))
    fresh = run()
    assert shared.loss_curve.tobytes() == fresh.loss_curve.tobytes()
    for k in tiny_model.params.sorted_keys():
        assert shared.model.params[k].tobytes() == fresh.model.params[k].tobytes(), k
    assert shared.model.vocab.embeddings.tobytes() == fresh.model.vocab.embeddings.tobytes()


@pytest.mark.parametrize("scope,use_reg", [(finetune.SCOPE_KV_ONLY, "retrieved"),
                                           (finetune.SCOPE_ALL, "none")])
def test_training_with_and_without_shared_fixed_weights_is_byte_identical(
        tiny_model, monkeypatch, scope, use_reg):
    """kv_only builds the context's weights other than the cross-attention
    K/V once per fine-tune, all_unet every step; both give the bytes of a
    run whose every step builds its whole context afresh. Every context
    projects its captions with its own step's K/V weights."""
    sched = diffusion.NoiseSchedule.linear(T=25)
    mod = textmod.register_modifier(tiny_model.vocab, "<new1>")
    targets = _examples(tiny_model, modifier=mod)
    reg = datamod.RegularizationSet(examples=_examples(tiny_model, seed=8))
    cfg = finetune.FineTuneConfig(steps=6, learning_rate=1e-3, batch=4, trainable_scope=scope,
                                  use_reg=use_reg, use_aug=False, seed=2, cond_dropout=0.3)
    inner = denoiser.context
    given, kv = [], []

    def recorded(model, captions, fixed=None):
        given.append(fixed)
        ctx = inner(model, captions, fixed)
        kv.append(ctx.w[0][1])
        return ctx

    monkeypatch.setattr(denoiser, "context", recorded)
    shared = finetune.finetune(tiny_model, [(targets, mod)], cfg, reg, sched)
    if scope == finetune.SCOPE_KV_ONLY:
        assert given[0] is not None and all(f is given[0] for f in given)
    else:
        assert given == [None] * cfg.steps
    assert len({a.tobytes() for a in kv}) == cfg.steps
    # every step's context built whole, with no weights carried over
    monkeypatch.setattr(denoiser, "context", lambda model, captions, fixed=None:
                        inner(model, captions))
    fresh = finetune.finetune(tiny_model, [(targets, mod)], cfg, reg, sched)
    assert shared.loss_curve.tobytes() == fresh.loss_curve.tobytes()
    for k in tiny_model.params.sorted_keys():
        assert shared.model.params[k].tobytes() == fresh.model.params[k].tobytes(), k
    assert shared.model.vocab.embeddings.tobytes() == fresh.model.vocab.embeddings.tobytes()
