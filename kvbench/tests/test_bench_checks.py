"""The benchmark's output checks accept real kvdiff output and reject a
deliberately corrupted copy of it.

    python3 -m pytest kvbench/tests
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
from kvdiff import analysis, data as datamod, denoiser, diffusion, evaluation  # noqa: E402
from kvdiff import finetune, fixtures, merge, textmod  # noqa: E402

T = 50
TARGETS = [["photo of a <new1> blob"], ["photo of a <new2> ring"]]


@pytest.fixture(scope="module")
def sched():
    return diffusion.NoiseSchedule.linear(T=T)


@pytest.fixture(scope="module")
def base(sched):
    model, _ = finetune.pretrain(fixtures.fixture_vocab(),
                                 fixtures.pretrain_dataset(n_per_category=4),
                                 denoiser.ModelConfig(), sched, steps=20, seed=0)
    return model


@pytest.fixture(scope="module")
def tuned(base, sched):
    """Two kv_only fine-tunes with distinct modifier sources, and their deltas."""
    out = []
    for name, source, examples in (("<new1>", None, fixtures.target_concept()),
                                   ("<new2>", "pkz", fixtures.second_concept())):
        start = base.clone()
        mod = textmod.register_modifier(start.vocab, name, source=source)
        cfg = finetune.FineTuneConfig(steps=10, learning_rate=0.02, batch=4,
                                      use_reg="none", seed=1)
        model = finetune.finetune(start, [(examples, mod)], cfg, sched=sched).model
        out.append((model, analysis.extract_delta(start, model)))
    return out


def test_frozen_check_rejects_a_changed_frozen_weight(base, tuned):
    params = tuned[0][0].params
    assert checks.check_frozen(base.params, params) == []
    corrupt = params.clone()
    key = next(k for k in sorted(corrupt) if k.role not in checks.KV_ROLES)
    corrupt[key][0, 0] = np.nextafter(corrupt[key][0, 0], np.inf)
    assert checks.check_frozen(base.params, corrupt) != []


def test_sample_check_rejects_a_sample_from_another_seed(base, sched):
    vocab = base.vocab
    cond = textmod.encode_caption(vocab, textmod.tokenize(vocab, "photo of a ring"))
    uncond = textmod.encode_caption(vocab, textmod.tokenize(vocab, ""))
    x = diffusion.sample_cfg(base, cond, 10, 6.0, 3, sched, uncond=uncond)
    ref = checks.reference_sample(base.predict, base.image_shape, cond, uncond,
                                  10, 6.0, 3, T, 1e-4, 0.02)
    assert checks.check_sample(x, ref) == []
    other = diffusion.sample_cfg(base, cond, 10, 6.0, 4, sched, uncond=uncond)
    assert checks.check_sample(other, ref) != []


def test_merge_check_rejects_kv_nudged_off_its_constraint(base, tuned):
    deltas = [d for _, d in tuned]
    reg_captions = fixtures.reg_caption_pool()
    merged = merge.merge_model(base, deltas, TARGETS, reg_captions).model
    c_rows, owners = checks.constraint_rows(base.vocab, TARGETS, deltas)
    creg = checks.reg_rows(base.vocab, reg_captions)
    rng = np.random.default_rng(0)
    for key in sorted(base.params):
        if key.role not in checks.KV_ROLES:
            continue
        w0 = base.params[key]
        ws = [w0 + d.entries[(key.layer, key.role)].dense for d in deltas]
        w_hat = merged.params[key]
        assert checks.check_merge(w0, ws, c_rows, owners, creg, w_hat) == []
        nudged = w_hat + 1e-6 * rng.standard_normal(w_hat.shape)
        assert checks.check_merge(w0, ws, c_rows, owners, creg, nudged) != []
    assert checks.check_frozen(base.params, merged.params) == []


def test_compression_check_rejects_one_rank_too_high(tuned):
    delta = tuned[0][1]
    small = analysis.compress_delta(delta, 0.6)
    for key, entry in small.entries.items():
        dense = delta.entries[key].dense
        assert checks.check_compression(dense, entry.u, entry.sigma, entry.vt,
                                        entry.residual, 0.6) == []
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        r = len(entry.sigma) + 1
        assert r <= len(s)
        tail = float(np.sqrt(np.sum(s[r:] ** 2)))
        assert checks.check_compression(dense, u[:, :r], s[:r], vt[:r], tail, 0.6) != []


def test_retrieval_check_rejects_a_dropped_or_extra_entry(base):
    pool = fixtures.regularization_pool()
    feat = evaluation.ReferenceFeaturizer((8, 8), 8, 16, 1234)
    reg = datamod.retrieve_regularization(pool, "photo of a blob", 0.85, 200,
                                          feat.caption_featurizer(base.vocab))
    kept = [i for i, ex in enumerate(pool) if any(ex is k for k in reg.examples)]
    captions = [ex.caption for ex in pool]

    def check(indices):
        return checks.check_retrieval(captions, indices, "photo of a blob", 0.85,
                                      base.vocab, 16, 1234, (8, 8))

    assert check(kept) == []
    assert check(kept[1:]) != []
    dropped = sorted(set(range(len(pool))) - set(kept))
    assert check(kept + dropped[:1]) != []


def test_gradient_check_accepts_backprop_and_rejects_a_wrong_gradient(tuned, sched,
                                                                     monkeypatch):
    model = tuned[0][0]
    examples = fixtures.target_concept()
    batch = [datamod.augment(ex, np.random.default_rng(i)) for i, ex in enumerate(examples)]
    assert checks.check_kv_gradient(model, batch, sched, seed=5) == []
    real = finetune.batch_gradients

    def doubled(*args, **kwargs):
        loss, grads, emb = real(*args, **kwargs)
        return loss, {k: 2.0 * g for k, g in grads.items()}, emb

    monkeypatch.setattr(finetune, "batch_gradients", doubled)
    assert checks.check_kv_gradient(model, batch, sched, seed=5) != []
