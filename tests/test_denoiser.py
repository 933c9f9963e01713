"""Noise-prediction network: attention oracle, backprop fidelity, registry."""

import numpy as np
import pytest

from kvdiff import denoiser, textmod
from kvdiff.denoiser import ParamKey, ROLE_OTHER, ROLE_SELF
from kvdiff.errors import InvalidInput


def _scalar_attention(f, c, wq, wk, wv):
    """Triple-loop attention; no vectorized shortcuts."""
    n, s = f.shape[0], c.shape[0]
    dp = wq.shape[0]
    q = np.array([[sum(f[i][m] * wq[d][m] for m in range(f.shape[1]))
                   for d in range(dp)] for i in range(n)])
    k = np.array([[sum(c[j][m] * wk[d][m] for m in range(c.shape[1]))
                   for d in range(dp)] for j in range(s)])
    v = np.array([[sum(c[j][m] * wv[d][m] for m in range(c.shape[1]))
                   for d in range(dp)] for j in range(s)])
    out = np.zeros((n, dp))
    for i in range(n):
        logits = [sum(q[i][d] * k[j][d] for d in range(dp)) / np.sqrt(dp)
                  for j in range(s)]
        mx = max(logits)
        ex = [np.exp(z - mx) for z in logits]
        tot = sum(ex)
        for j in range(s):
            for d in range(dp):
                out[i][d] += (ex[j] / tot) * v[j][d]
    return out


def test_cross_attention_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((5, 6))
    c = rng.standard_normal((3, 4))
    wq = rng.standard_normal((2, 6))
    wk = rng.standard_normal((2, 4))
    wv = rng.standard_normal((2, 4))
    # the kernel forward() runs for both cross- and self-attention
    cache = denoiser._attn_forward(f, c, wq, wk, wv)
    np.testing.assert_allclose(cache["h"], _scalar_attention(f, c, wq, wk, wv), atol=1e-12)
    np.testing.assert_allclose(cache["a"].sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(cache["a"] >= 0)


def test_forward_is_deterministic_and_validates_shapes(tiny_model):
    cfg = tiny_model.config
    rng = np.random.default_rng(1)
    x = rng.standard_normal((cfg.height, cfg.width))
    c = rng.standard_normal((3, cfg.d_text))
    a = tiny_model.predict(x, 2, c)
    b = tiny_model.predict(x, 2, c)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (cfg.height, cfg.width)
    with pytest.raises(InvalidInput):
        tiny_model.predict(x[:2], 2, c)
    with pytest.raises(InvalidInput):
        tiny_model.predict(x, 2, c[:, :2])


def test_backward_matches_finite_differences(tiny_model):
    """Central differences on a scalar loss over a representative slice of
    every role (the acceptance check covers K/V exhaustively)."""
    cfg = tiny_model.config
    rng = np.random.default_rng(2)
    x = rng.standard_normal((cfg.height, cfg.width))
    c = rng.standard_normal((3, cfg.d_text))
    target = rng.standard_normal((cfg.height, cfg.width))

    def loss():
        eps = tiny_model.predict(x, 3, c)
        return 0.5 * float(np.sum((eps - target) ** 2))

    eps0, cache, _ = denoiser.forward(tiny_model, x, 3, c)
    grads, d_c = denoiser.backward(tiny_model, cache, eps0 - target)

    h = 1e-6
    keys = [ParamKey(0, ROLE_OTHER, "w_pix"), ParamKey(0, ROLE_OTHER, "w_time"),
            ParamKey(1, ROLE_SELF, "wq"), ParamKey(2, ROLE_OTHER, "mlp_w1"),
            ParamKey(1, denoiser.ROLE_CROSS_QUERY, "wq"),
            ParamKey(2, denoiser.ROLE_CROSS_OUT, "wo")]
    for key in keys:
        w = tiny_model.params[key]
        i, j = w.shape[0] // 2, w.shape[1] // 2
        orig = w[i, j]
        w[i, j] = orig + h
        lp = loss()
        w[i, j] = orig - h
        lm = loss()
        w[i, j] = orig
        fd = (lp - lm) / (2 * h)
        assert grads[key][i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8), key

    # text-feature gradient
    orig = c[1, 2]
    c[1, 2] = orig + h
    lp = loss()
    c[1, 2] = orig - h
    lm = loss()
    c[1, 2] = orig
    assert d_c[1, 2] == pytest.approx((lp - lm) / (2 * h), rel=1e-4, abs=1e-8)


def test_registry_clone_is_independent(tiny_model):
    clone = tiny_model.clone()
    key = ParamKey(1, ROLE_SELF, "wq")
    clone.params[key][0, 0] += 1.0
    assert tiny_model.params[key][0, 0] != clone.params[key][0, 0]
    clone.vocab.embeddings[0, 0] += 1.0
    assert tiny_model.vocab.embeddings[0, 0] != clone.vocab.embeddings[0, 0]
    assert tiny_model.params.sorted_keys() == clone.params.sorted_keys()


def test_init_zeroes_output_head():
    model = denoiser.build_model(denoiser.ModelConfig(), seed=0)
    assert np.all(model.params[ParamKey(0, ROLE_OTHER, "w_out")] == 0.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(model.image_shape)
    c = rng.standard_normal((2, model.config.d_text))
    np.testing.assert_array_equal(model.predict(x, 1, c), np.zeros(model.image_shape))


def test_traces_and_mean_attention_map(tiny_model):
    cfg = tiny_model.config
    rng = np.random.default_rng(5)
    x = rng.standard_normal((cfg.height, cfg.width))
    c = rng.standard_normal((3, cfg.d_text))
    _, traces = denoiser.predict_eps_with_traces(tiny_model, x, 4, c)
    assert len(traces) == cfg.blocks
    for tr in traces:
        assert tr.weights.shape == (cfg.n_tokens, 3)
        np.testing.assert_allclose(tr.weights.sum(axis=1), 1.0, atol=1e-12)
    amap = denoiser.mean_attention_map(traces, token_index=1)
    assert amap.shape == (cfg.height, cfg.width)
    manual = sum(tr.weights[:, 1] for tr in traces) / len(traces)
    np.testing.assert_allclose(amap.reshape(-1), manual)
    with pytest.raises(InvalidInput):
        denoiser.mean_attention_map([], 0)
