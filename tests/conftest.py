"""Shared fixtures: one well-trained base model per session plus cached
fine-tuned variants, so the expensive training work is paid once."""

import numpy as np
import pytest

from kvdiff import data as datamod
from kvdiff import denoiser, diffusion, evaluation, finetune, fixtures, textmod

PRETRAIN_STEPS = 6000
PRETRAIN_LR = 1e-2
KV_LR = 0.02
SAMPLE_STEPS = 25


@pytest.fixture(scope="session")
def schedule():
    return diffusion.NoiseSchedule.linear(T=100)


@pytest.fixture(scope="session")
def vocab():
    return fixtures.fixture_vocab()


@pytest.fixture(scope="session")
def pretrained(vocab, schedule):
    model, curve = finetune.pretrain(
        vocab, fixtures.pretrain_dataset(), denoiser.ModelConfig(), schedule,
        steps=PRETRAIN_STEPS, learning_rate=PRETRAIN_LR, batch=8, seed=0,
        cond_dropout=0.1, init_seed=1)
    assert np.isfinite(curve).all()
    return model


@pytest.fixture(scope="session")
def featurizer():
    return evaluation.ReferenceFeaturizer((8, 8), text_dim=8, feature_dim=16,
                                          seed=1234)


@pytest.fixture(scope="session")
def target_examples():
    return fixtures.target_concept()


@pytest.fixture(scope="session")
def target_images(target_examples):
    return np.stack([ex.image for ex in target_examples])


@pytest.fixture(scope="session")
def sample_batch(schedule):
    def _sample(model, prompt, n=32, seed=500, scale=6.0, steps=SAMPLE_STEPS):
        return np.stack(diffusion.sample_prompt(model, prompt, n, seed, schedule,
                                                steps, scale))
    return _sample


@pytest.fixture(scope="session")
def retrieved_reg(pretrained, featurizer):
    pool = fixtures.regularization_pool()
    return datamod.retrieve_regularization(
        pool, "photo of a blob", 0.85, 200,
        featurizer.caption_featurizer(pretrained.vocab))


@pytest.fixture(scope="session")
def tuned_factory(pretrained, target_examples, schedule, retrieved_reg):
    """Memoized fine-tuning on the standard target concept."""
    cache = {}

    def _tuned(steps=250, lr=KV_LR, scope=finetune.SCOPE_KV_ONLY, seed=3,
               batch=4, use_reg="none"):
        key = (steps, lr, scope, seed, batch, use_reg)
        if key not in cache:
            model = pretrained.clone()
            mod = textmod.register_modifier(model.vocab, "<new1>")
            cfg = finetune.FineTuneConfig(
                steps=steps, learning_rate=lr, batch=batch,
                trainable_scope=scope, use_reg=use_reg, use_aug=False, seed=seed)
            reg = retrieved_reg if use_reg == "retrieved" else None
            report = finetune.finetune(model, [(target_examples, mod)], cfg,
                                       reg=reg, sched=schedule)
            cache[key] = report.model
        return cache[key]

    return _tuned


@pytest.fixture
def tiny_model():
    """Small odd-dimensioned model for unit tests; shapes chosen so transposed
    matrices cannot silently swap."""
    cfg = denoiser.ModelConfig(height=4, width=4, d_model=6, d_attn=4,
                               d_text=5, hidden=7, blocks=2)
    voc = textmod.build_vocabulary(["photo", "of", "a", "blob", "ring"],
                                   {"blob": 8, "ring": 6}, dim=5, seed=3)
    model = denoiser.build_model(cfg, seed=5, vocab=voc)
    rng = np.random.default_rng(9)
    for k in model.params.sorted_keys():
        model.params[k] = model.params[k] + 0.05 * rng.standard_normal(model.params[k].shape)
    return model
