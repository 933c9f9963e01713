"""Noise-prediction network: attention oracle, backprop fidelity, registry."""

import dataclasses
import warnings

import numpy as np
import pytest

from kvdiff import denoiser, fixtures, textmod
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


def _project(f, c, wq, wk, wv):
    """The kernel's inputs as a sublayer builds them: the queries of f from a
    query weight holding the 1/sqrt(dp) scale, the keys and values of c."""
    return f @ (wq.shape[0] ** -0.5 * wq).T, c @ wk.T, c @ wv.T


def _attend(q, k, v, key_bias):
    """The kernel run on a sublayer's arrays built for q and k's keys; the
    arrays, e, s_q and the output rows h among them. key_bias (B, S) leads
    the keys as a column, as context() stores cross-attention's keys (None:
    unbiased keys, as self-attention's)."""
    a = denoiser._attention(q, k.shape[1], biased=key_bias is not None)
    a["k"], a["v"] = k, v
    a["kb"] = k if key_bias is None else np.concatenate([key_bias[:, :, None], k], axis=2)
    denoiser._attend(a)
    return a


def _weights(cache):
    """The softmax weights (B, S, N), key-major: e divided by s_q."""
    return cache["e"] / cache["s_q"][:, None, :]


def test_cross_attention_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((5, 6))
    c = rng.standard_normal((3, 4))
    wq = rng.standard_normal((2, 6))
    wk = rng.standard_normal((2, 4))
    wv = rng.standard_normal((2, 4))
    # the kernel forward() runs for both cross- and self-attention
    cache = _attend(*(a[None] for a in _project(f, c, wq, wk, wv)), None)
    np.testing.assert_allclose(cache["h"], _scalar_attention(f, c, wq, wk, wv), atol=1e-12)
    # e is key-major, (B, S, N), and s_q its column sums: each query's
    # weights sum to 1
    np.testing.assert_array_equal(cache["s_q"], cache["e"].sum(axis=1))
    np.testing.assert_allclose(_weights(cache).sum(axis=1), np.ones((1, 5)), atol=1e-12)
    assert np.all(cache["e"] >= 0)

    # a batch of two whose second key set is padded: the padded keys get
    # exactly zero weight and each row matches the oracle on its own keys
    c2 = rng.standard_normal((2, 4))
    f2 = rng.standard_normal((5, 6))
    padded = np.stack([c, np.vstack([c2, 100.0 * np.ones((1, 4))])])
    bias = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, denoiser._PAD]])
    cache = _attend(*_project(np.stack([f, f2]), padded, wq, wk, wv), bias)
    # h holds the rows of both images, one after the other
    np.testing.assert_allclose(cache["h"][:5], _scalar_attention(f, c, wq, wk, wv), atol=1e-12)
    np.testing.assert_allclose(cache["h"][5:], _scalar_attention(f2, c2, wq, wk, wv), atol=1e-12)
    assert np.all(cache["e"][1, 2] == 0.0)
    np.testing.assert_allclose(_weights(cache).sum(axis=1), np.ones((2, 5)), atol=1e-12)


def test_key_bias_column_leaves_real_logits_and_zeroes_padded_weights(tiny_model):
    """Cross-attention's logits are one product of the keys behind their
    padding bias column and q^T below a row of ones. A real key's logits
    have the bytes of k @ q^T and its weights those of a softmax over the
    real keys alone; a padded key's weight is exactly zero. The image is
    3x3, so the 9 queries fill a partial block of OpenBLAS's kernel, and no
    numpy warning is raised."""
    cfg = dataclasses.replace(tiny_model.config, height=3, width=3)
    model = denoiser.build_model(cfg, seed=2, vocab=tiny_model.vocab)
    rng = np.random.default_rng(11)
    lengths = (2, 5, 1)
    ctx = denoiser.context(model, [rng.standard_normal((m, cfg.d_text)) for m in lengths])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, cache = denoiser.forward(model, rng.standard_normal((3, 3, 3)), [5, 1, 9], ctx)
    for l, bc in enumerate(cache["blocks"], start=1):
        kb, k, v, _ = ctx.kv[l - 1]
        ca = bc["ca"]
        q_view, qT, _ = ca["qT"]
        assert np.all(qT[:, 0] == 1.0)
        logits = np.matmul(kb, qT)
        for i, m in enumerate(lengths):
            assert np.all(kb[i, :m, 0] == 0.0) and np.all(kb[i, m:, 0] == denoiser._PAD)
            # the product over all S keys, as an unbiased kernel runs it
            plain = (k[i] @ np.ascontiguousarray(q_view[i]))[:m]
            assert logits[i, :m].tobytes() == plain.tobytes(), (l, i)
            e = np.exp(plain - plain.max(axis=0))
            assert ca["e"][i, :m].tobytes() == e.tobytes(), (l, i)
            assert np.all(ca["e"][i, m:] == 0.0)


def test_fused_projection_blocks_are_views(tiny_model):
    """q, k and v, and the gradient arrays backward() writes them into, are
    column blocks of one fused array: a reshape that copied would drop
    backward()'s writes and cut the context's K/V off its projection."""
    a = np.zeros((6, 9))
    blocks = denoiser._blocks(a, 3, (2, 3, 3))
    for i, blk in enumerate(blocks):
        assert np.shares_memory(blk, a)
        blk[...] = i + 1
    np.testing.assert_array_equal(a, np.repeat([[1.0, 2.0, 3.0]], 6, axis=0).repeat(3, axis=1))

    cfg = tiny_model.config
    rng = np.random.default_rng(7)
    cs = [rng.standard_normal((3, cfg.d_text)), rng.standard_normal((5, cfg.d_text))]
    ctx = denoiser.context(tiny_model, cs)
    ws = {}
    eps, cache = denoiser.forward(tiny_model, rng.standard_normal((2, cfg.height, cfg.width)),
                                  [4, 9], ctx, ws)
    n, dp = cfg.n_tokens, cfg.d_attn
    # the workspace's binding for a batch of 2 keeps each block's fused array
    binding = ws[2]
    for l, bc in enumerate(cache["blocks"], start=1):
        kb, k, v, v1 = ctx.kv[l - 1]
        assert k.shape == v.shape == (2, 5, dp) and kb.shape == (2, 5, 1 + dp)
        assert v1.shape == (2, 5, dp + 1)
        assert k.base is not None and k.base is v.base is kb.base is v1.base
        assert k.base.shape == (2 * 5, 2 + 2 * dp)
        # the keys behind their padding bias column are the keys themselves
        assert np.shares_memory(kb[..., 1:], k) and kb[..., 1:].tobytes() == k.tobytes()
        qkv = binding.blocks[l - 1]["qkv"]
        assert qkv.shape == (2 * n, 3 * dp)
        assert all(np.shares_memory(bc["sa"][name], qkv) for name in "qkv")
    # backward() writes self-attention's q, k and v gradients into the
    # blocks of one array, and cross-attention's k and v into another
    denoiser.backward(tiny_model, cache, np.ones_like(eps))
    scratch = binding.scratch
    assert scratch["dqkv"].shape == (2 * n, 3 * dp) and scratch["dkv"].shape == (2 * 5, 2 * dp)
    assert all(np.shares_memory(scratch["sa"][name], scratch["dqkv"])
               for name in ("dq", "dk", "dv"))
    assert all(np.shares_memory(scratch["ca"][name], scratch["dkv"]) for name in ("dk", "dv"))


def test_a_reused_workspace_gives_the_bytes_of_a_fresh_one(tiny_model):
    """One workspace through batch sizes 8 -> 2 -> 8 and longest captions of
    3 -> 6 -> 3 tokens (the shorter captions padded): the binding of each
    batch size is built once and its arrays shaped by the longest caption
    are rebuilt when it changes, so eps, every gradient and d_c keep the
    bytes of a call with a fresh workspace. A view left on an array of the
    old length (the logits, dz, the k and v gradient blocks, dc) changes
    them or raises."""
    cfg = tiny_model.config
    rng = np.random.default_rng(11)
    ws = {}
    bindings = {}
    for bsz, longest in ((8, 3), (8, 6), (2, 6), (2, 3), (8, 3), (2, 6), (8, 6)):
        # the longest caption first, the others 1 to `longest` tokens long
        lengths = [longest] + list(rng.integers(1, longest + 1, bsz - 1))
        cs = [rng.standard_normal((m, cfg.d_text)) for m in lengths]
        x = rng.standard_normal((bsz, cfg.height, cfg.width))
        ts = list(rng.integers(1, 50, bsz))
        d_eps = rng.standard_normal(x.shape)
        ctx = denoiser.context(tiny_model, cs)
        got = []
        for workspace in (ws, None):
            eps, cache = denoiser.forward(tiny_model, x, ts, ctx, workspace)
            grads, d_c = denoiser.backward(tiny_model, cache, d_eps)
            got.append([eps] + [grads[k] for k in tiny_model.params.sorted_keys()] + d_c)
        assert [a.tobytes() for a in got[0]] == [a.tobytes() for a in got[1]], (bsz, longest)
        assert set(ws) == set(bindings) | {bsz}
        assert ws[bsz] is bindings.setdefault(bsz, ws[bsz])


def _self_logits(sa):
    """Self-attention's logits (B, N, N), key-major, recomputed from the
    arrays the kernel multiplied."""
    return np.matmul(sa["kb"], sa["qT"][1])


def test_self_attention_softmax_takes_a_shift_only_out_of_range(tiny_model):
    """Within [-600, 600] self-attention's e is exp of its logits, bit for
    bit: no shift. Self-attention query weights scaled by 1e3 push the
    logits out of it; the kernel then takes the exact per-query shift (each
    query's largest term is exp(0) == 1), the forward stays finite, and each
    image's self-attention output matches the scalar oracle."""
    cfg = tiny_model.config
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, cfg.height, cfg.width))
    cs = [rng.standard_normal((m, cfg.d_text)) for m in (2, 4)]
    _, cache = denoiser.forward(tiny_model, x, [3, 8], denoiser.context(tiny_model, cs))
    for bc in cache["blocks"]:
        logits = _self_logits(bc["sa"])
        assert denoiser._in_range(logits)
        assert bc["sa"]["e"].tobytes() == np.exp(logits).tobytes()

    model = tiny_model.clone()
    for l in range(1, cfg.blocks + 1):
        model.params[ParamKey(l, ROLE_SELF, "wq")] *= 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps, cache = denoiser.forward(model, x, [3, 8], denoiser.context(model, cs))
    assert np.isfinite(eps).all()
    for l, bc in enumerate(cache["blocks"], start=1):
        sa = bc["sa"]
        for i, logits in enumerate(_self_logits(sa)):
            assert np.abs(logits).max() > 600 and not denoiser._in_range(logits)
            assert np.isfinite(sa["e"][i]).all()
            assert np.all(sa["e"][i].max(axis=0) == 1.0), (l, i)
            f1 = bc["f1"].reshape(2, cfg.n_tokens, -1)[i]
            wq, wk, wv = (model.params[k] for k in denoiser._block_keys(l)[1][:3])
            np.testing.assert_allclose(sa["h3"][i], _scalar_attention(f1, f1, wq, wk, wv),
                                       rtol=0, atol=1e-12)


def test_an_out_of_range_image_leaves_each_pair_of_its_batch_its_own_bytes():
    """A guided batch of pairs in which one pair's image is scaled by 1e3, so
    its self-attention logits leave [-600, 600] and the others' do not: only
    that image takes the shift, and every pair keeps the bytes it has run
    alone as a batch of 2. Default architecture, as in the many-pairs gate."""
    vocab = fixtures.fixture_vocab()
    model = denoiser.build_model(seed=2, vocab=vocab)
    cfg = model.config
    rng = np.random.default_rng(14)
    model.params[ParamKey(0, ROLE_OTHER, "w_out")] = rng.standard_normal((1, cfg.d_model))
    pair = [textmod.encode_caption(vocab, textmod.tokenize(vocab, caption))
            for caption in ("photo of a blob", "")]
    k, far = 4, 2
    x = rng.standard_normal((k, cfg.height, cfg.width))
    x[far] *= 1e3
    ts = rng.integers(1, 200, k).tolist()
    eps, cache = denoiser.forward(model, np.repeat(x, 2, axis=0), np.repeat(ts, 2),
                                  denoiser.context(model, pair * k))
    assert np.isfinite(eps).all()
    logits = _self_logits(cache["blocks"][0]["sa"])
    assert [denoiser._in_range(z) for z in logits] == [i // 2 != far for i in range(2 * k)]
    for i in range(k):
        alone, _ = denoiser.forward(model, np.stack([x[i], x[i]]), [ts[i]] * 2,
                                    denoiser.context(model, pair))
        assert eps[2 * i:2 * i + 2].tobytes() == alone.tobytes(), i


def test_backward_for_some_keys_gives_the_bytes_of_backward_for_all(tiny_model):
    """backward() stops at the lowest wanted weight: with the K/V keys alone
    it skips block 1's cross-attention query gradient and the input gradient
    below it, and the K/V gradients and every d_c keep the bytes of a call
    for every key; so do the weights below, each asked for alone."""
    cfg = tiny_model.config
    vocab = tiny_model.vocab
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, cfg.height, cfg.width))
    cs = [textmod.encode_caption(vocab, textmod.tokenize(vocab, caption))
          for caption in ("", "a blob", "photo of a blob ring")]
    d_eps = rng.standard_normal(x.shape)
    ctx = denoiser.context(tiny_model, cs)
    ws = {}
    _, cache = denoiser.forward(tiny_model, x, [3, 11, 29], ctx, ws)
    every, d_c = denoiser.backward(tiny_model, cache, d_eps)
    kv = [k for k in tiny_model.params.sorted_keys() if k.role in denoiser.KV_ROLES]
    below = [denoiser._block_keys(1)[0][0], ParamKey(0, ROLE_OTHER, "w_pix"),
             ParamKey(0, ROLE_OTHER, "w_time")]
    for keys in [kv] + [[k] for k in below]:
        _, cache = denoiser.forward(tiny_model, x, [3, 11, 29], ctx, ws)
        some, d_c_some = denoiser.backward(tiny_model, cache, d_eps, keys=keys)
        assert list(some) == [k for k in every if k in keys]
        assert all(some[k].tobytes() == every[k].tobytes() for k in keys), keys
        assert [a.tobytes() for a in d_c_some] == [a.tobytes() for a in d_c]


def test_forward_is_deterministic_and_validates_shapes(tiny_model):
    cfg = tiny_model.config
    rng = np.random.default_rng(1)
    x = rng.standard_normal((cfg.height, cfg.width))
    c = rng.standard_normal((3, cfg.d_text))
    ctx = denoiser.context(tiny_model, [c])
    a, _ = denoiser.forward(tiny_model, x[None], [2], ctx)
    b, _ = denoiser.forward(tiny_model, x[None], [2], ctx)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, cfg.height, cfg.width)
    np.testing.assert_array_equal(tiny_model.predict(x, 2, c), a[0])
    # malformed captions are refused by context(), the rest by forward()
    for bad in [[c[:, :2]], [c[:0]], [c[0]], []]:
        with pytest.raises(InvalidInput):
            denoiser.context(tiny_model, bad)
    for bad in [(x[None, :2], [2], ctx), (x, [2], ctx), (x[None], [2, 3], ctx),
                (x[:0], [], ctx)]:
        with pytest.raises(InvalidInput):
            denoiser.forward(tiny_model, *bad)
    with pytest.raises(InvalidInput):
        tiny_model.predict(x[:2], 2, c)
    with pytest.raises(InvalidInput):
        tiny_model.predict(x, 2, c[:, :2])


def test_forward_refuses_a_context_of_another_batch_size(tiny_model):
    cfg = tiny_model.config
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, cfg.height, cfg.width))
    c = rng.standard_normal((3, cfg.d_text))
    for captions, images in (([c], x), ([c, c, c], x), ([c, c], x[:1])):
        with pytest.raises(InvalidInput, match="context of"):
            denoiser.forward(tiny_model, images, [2] * len(images),
                             denoiser.context(tiny_model, captions))


def test_padded_guided_batch_matches_unpadded_batches_bit_for_bit(tiny_model):
    """The guided step's batch, a caption and the 1-token unconditional one
    padded to its length, gives each row the bytes of a batch of that row's
    caption alone: a padded key's weight is exactly 0, so it adds exact
    zeros to the key-major sums. The batches compared are all of 2, since
    numpy runs a 1-row matmul as a matrix-vector product, which rounds
    differently from the matrix product of more rows."""
    vocab = tiny_model.vocab
    cfg = tiny_model.config
    rng = np.random.default_rng(8)
    uncond = textmod.encode_caption(vocab, textmod.tokenize(vocab, ""))
    for caption in ("photo of a blob", "a ring", "blob"):
        cond = textmod.encode_caption(vocab, textmod.tokenize(vocab, caption))
        x = rng.standard_normal((cfg.height, cfg.width))
        pair = np.stack([x, x])
        for t in (1, 17, 40):
            eps, _ = denoiser.forward(tiny_model, pair, [t, t],
                                      denoiser.context(tiny_model, [cond, uncond]))
            for row, c in enumerate((cond, uncond)):
                alone, _ = denoiser.forward(tiny_model, pair, [t, t],
                                            denoiser.context(tiny_model, [c, c]))
                assert eps[row].tobytes() == alone[row].tobytes(), (caption, t, row)


def test_guided_batch_of_many_pairs_matches_each_pair_bit_for_bit():
    """A guided forward over k (cond, uncond) pairs, 4 to 64 rows, gives each
    pair's rows the bytes of that pair run as a batch of 2: the gate for
    sampling every seed of a prompt as one batch. Each pair has its own
    image and timestep. Run on the default architecture, whose product
    sizes select the BLAS kernels that sampling runs; its zeroed output head
    is replaced so eps is not all zeros."""
    vocab = fixtures.fixture_vocab()
    model = denoiser.build_model(seed=2, vocab=vocab)
    cfg = model.config
    rng = np.random.default_rng(12)
    model.params[ParamKey(0, ROLE_OTHER, "w_out")] = rng.standard_normal((1, cfg.d_model))
    pair = [textmod.encode_caption(vocab, textmod.tokenize(vocab, caption))
            for caption in ("photo of a blob", "")]
    for k in (2, 4, 8, 16, 32):
        x = rng.standard_normal((k, cfg.height, cfg.width))
        ts = rng.integers(1, 200, k).tolist()
        eps, _ = denoiser.forward(model, np.repeat(x, 2, axis=0), np.repeat(ts, 2),
                                  denoiser.context(model, pair * k))
        for i in range(k):
            alone, _ = denoiser.forward(model, np.stack([x[i], x[i]]), [ts[i]] * 2,
                                        denoiser.context(model, pair))
            assert eps[2 * i:2 * i + 2].tobytes() == alone.tobytes(), (k, i)


def test_context_holds_each_forward_weight_transposed_and_read_only(tiny_model):
    """forward() multiplies by C-contiguous copies of its weights'
    transposes, the query weights scaled by 1/sqrt(d_attn), which equal the
    registry's bit for bit; these and every other context array are
    read-only, since a write would leave them out of step with the
    registry."""
    cfg, p = tiny_model.config, tiny_model.params
    rng = np.random.default_rng(13)
    ctx = denoiser.context(tiny_model, [rng.standard_normal((m, cfg.d_text)) for m in (3, 5)])
    s = cfg.d_attn ** -0.5
    assert len(ctx.wt) == cfg.blocks
    for l, wt in enumerate(ctx.wt, start=1):
        self_w = [p[ParamKey(l, ROLE_SELF, name)] for name in ("wq", "wk", "wv", "wo")]
        want = (s * p[ParamKey(l, denoiser.ROLE_CROSS_QUERY, "wq")],
                p[ParamKey(l, denoiser.ROLE_CROSS_OUT, "wo")],
                np.concatenate([s * self_w[0], self_w[1], self_w[2]]), self_w[3],
                p[ParamKey(l, ROLE_OTHER, "mlp_w1")], p[ParamKey(l, ROLE_OTHER, "mlp_w2")])
        assert len(wt) == len(want)
        for got, weight in zip(wt, want):
            assert got.flags.c_contiguous and got.shape == weight.T.shape
            assert got.tobytes() == np.ascontiguousarray(weight.T).tobytes(), l
    w_time = p[ParamKey(0, ROLE_OTHER, "w_time")]
    assert ctx.w_timeT.flags.c_contiguous
    assert ctx.w_timeT.tobytes() == np.ascontiguousarray(w_time.T).tobytes()
    arrays = [ctx.c, ctx.w_timeT] + [a for group in ctx.kv + ctx.w + ctx.wt for a in group]
    assert len(arrays) == 2 + 13 * cfg.blocks
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
    assert not any(np.shares_memory(a, w) for a in arrays for w in p.values())


def test_backward_matches_finite_differences(tiny_model):
    """Central differences on a scalar loss over a representative slice of
    every role, and every attention weight of both blocks: their gradients
    come from stacked weights split by rows, the queries' with the scale
    folded into them (the acceptance check covers K/V exhaustively)."""
    cfg = tiny_model.config
    rng = np.random.default_rng(2)
    x = rng.standard_normal((cfg.height, cfg.width))
    c = rng.standard_normal((3, cfg.d_text))
    target = rng.standard_normal((cfg.height, cfg.width))

    def loss():
        eps = tiny_model.predict(x, 3, c)
        return 0.5 * float(np.sum((eps - target) ** 2))

    eps0, cache = denoiser.forward(tiny_model, x[None], [3], denoiser.context(tiny_model, [c]))
    grads, (d_c,) = denoiser.backward(tiny_model, cache, eps0 - target[None])

    h = 1e-6
    keys = [ParamKey(0, ROLE_OTHER, "w_pix"), ParamKey(0, ROLE_OTHER, "w_time"),
            ParamKey(2, ROLE_OTHER, "mlp_w1")]
    keys += [k for k in tiny_model.params.sorted_keys()
             if k.role == ROLE_SELF or k.role in denoiser.CROSS_ROLES]
    assert len(keys) == 3 + 8 * cfg.blocks
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


def test_batched_forward_and_backward_match_batch_of_one(tiny_model):
    """One batch of three captions of different lengths (the start token
    alone, 3 and 6 tokens) against three batches of one."""
    cfg = tiny_model.config
    vocab = tiny_model.vocab
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, cfg.height, cfg.width))
    ts = [3, 11, 29]
    cs = [textmod.encode_caption(vocab, textmod.tokenize(vocab, caption))
          for caption in ("", "a blob", "photo of a blob ring")]
    assert [len(c) for c in cs] == [1, 3, 6]
    d_eps = rng.standard_normal(x.shape)

    eps, cache = denoiser.forward(tiny_model, x, ts, denoiser.context(tiny_model, cs))
    grads, d_c = denoiser.backward(tiny_model, cache, d_eps)
    assert set(grads) == set(tiny_model.params)
    assert [g.shape for g in d_c] == [c.shape for c in cs]
    total = {k: np.zeros_like(v) for k, v in tiny_model.params.items()}
    for i in range(3):
        eps1, cache1 = denoiser.forward(tiny_model, x[i:i + 1], ts[i:i + 1],
                                        denoiser.context(tiny_model, cs[i:i + 1]))
        np.testing.assert_allclose(eps[i], eps1[0], rtol=0, atol=1e-12)
        grads1, (d_c1,) = denoiser.backward(tiny_model, cache1, d_eps[i:i + 1])
        np.testing.assert_allclose(d_c[i], d_c1, rtol=0, atol=1e-12)
        for k in total:
            total[k] += grads1[k]
    for k in total:
        np.testing.assert_allclose(grads[k], total[k], rtol=0, atol=1e-12, err_msg=str(k))

    kv = [k for k in tiny_model.params
          if k.role in (denoiser.ROLE_CROSS_KEY, denoiser.ROLE_CROSS_VALUE)]
    _, cache = denoiser.forward(tiny_model, x, ts, denoiser.context(tiny_model, cs))
    only, d_c_only = denoiser.backward(tiny_model, cache, d_eps, keys=kv)
    assert set(only) == set(kv)
    for k in kv:
        np.testing.assert_array_equal(only[k], grads[k])
    for a, b in zip(d_c_only, d_c):
        np.testing.assert_array_equal(a, b)


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


def test_positional_grid_is_one_read_only_array_per_architecture():
    grid = denoiser.positional_grid(denoiser.ModelConfig())
    assert denoiser.positional_grid(denoiser.ModelConfig()) is grid
    np.testing.assert_array_equal(grid, denoiser.sinusoidal_embedding(np.arange(64), 16))
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0
    other = denoiser.positional_grid(denoiser.ModelConfig(height=4, d_model=6))
    assert other.shape == (32, 6) and not other.flags.writeable


def test_traces_and_mean_attention_map(tiny_model):
    cfg = tiny_model.config
    rng = np.random.default_rng(5)
    x = rng.standard_normal((cfg.height, cfg.width))
    c = rng.standard_normal((3, cfg.d_text))
    _, traces = denoiser.predict_eps_with_traces(tiny_model, x, 4, c)
    assert len(traces) == cfg.blocks
    _, cache = denoiser.forward(tiny_model, x[None], [4], denoiser.context(tiny_model, [c]))
    for l, (tr, bc) in enumerate(zip(traces, cache["blocks"]), start=1):
        assert tr.weights.shape == (cfg.n_tokens, 3)
        assert tr.layer == l and tr.timestep == 4
        np.testing.assert_allclose(tr.weights.sum(axis=1), 1.0, atol=1e-12)
        # the scalar oracle's softmax, on the queries the block's
        # cross-attention saw
        wq, wk = (tiny_model.params[k] for k in denoiser._block_keys(l)[0][:2])
        q, k, _ = _project(bc["f"], c, wq, wk, wk)
        for i in range(0, cfg.n_tokens, 7):
            logits = [sum(q[i][m] * k[j][m] for m in range(cfg.d_attn)) for j in range(3)]
            ex = [np.exp(z - max(logits)) for z in logits]
            np.testing.assert_allclose(tr.weights[i], [z / sum(ex) for z in ex],
                                       rtol=0, atol=1e-12)
    amap = denoiser.mean_attention_map(traces, token_index=1)
    assert amap.shape == (cfg.height, cfg.width)
    manual = sum(tr.weights[:, 1] for tr in traces) / len(traces)
    np.testing.assert_allclose(amap.reshape(-1), manual)
    with pytest.raises(InvalidInput):
        denoiser.mean_attention_map([], 0)
