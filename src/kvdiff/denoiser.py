"""Toy noise predictor: residual MLP mixing blocks interleaved with single-head
self- and cross-attention over text features, with hand-written backprop.

Parameters live in a registry keyed by (layer, role, name) so the selective
fine-tuning machinery can address exactly the cross-attention key/value
projections. Layer 0 holds the input/output plumbing; blocks are 1..L.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import InvalidInput

ROLE_CROSS_KEY = "cross_kv_key"
ROLE_CROSS_VALUE = "cross_kv_value"
ROLE_CROSS_QUERY = "cross_query"
ROLE_CROSS_OUT = "cross_out"
ROLE_SELF = "self_attn"
ROLE_OTHER = "other"

CROSS_ROLES = (ROLE_CROSS_KEY, ROLE_CROSS_VALUE, ROLE_CROSS_QUERY, ROLE_CROSS_OUT)
ALL_ROLES = CROSS_ROLES + (ROLE_SELF, ROLE_OTHER)


class ParamKey(NamedTuple):
    layer: int
    role: str
    name: str


_MODEL = DEFAULT_CONFIG["model"]


@dataclass(frozen=True)
class ModelConfig:
    height: int = _MODEL["height"]
    width: int = _MODEL["width"]
    d_model: int = _MODEL["d_model"]
    d_attn: int = _MODEL["d_attn"]
    d_text: int = _MODEL["d_text"]
    hidden: int = _MODEL["hidden"]
    blocks: int = _MODEL["blocks"]

    @property
    def n_tokens(self):
        return self.height * self.width


class ParamRegistry(dict):
    """dict[ParamKey, ndarray] with deterministic iteration order."""

    def sorted_keys(self):
        return sorted(self.keys())

    def clone(self):
        out = ParamRegistry()
        for k in self.sorted_keys():
            out[k] = self[k].copy()
        return out


def param_shapes(cfg):
    """Registry key -> shape of every parameter of the architecture `cfg`,
    in initialisation order."""
    attn_in, attn_out = (cfg.d_attn, cfg.d_model), (cfg.d_model, cfg.d_attn)
    shapes = {ParamKey(0, ROLE_OTHER, "w_pix"): (1, cfg.d_model),
              ParamKey(0, ROLE_OTHER, "w_time"): (cfg.d_model, cfg.d_model),
              ParamKey(0, ROLE_OTHER, "w_out"): (1, cfg.d_model)}
    for l in range(1, cfg.blocks + 1):
        shapes.update({
            ParamKey(l, ROLE_SELF, "wq"): attn_in,
            ParamKey(l, ROLE_SELF, "wk"): attn_in,
            ParamKey(l, ROLE_SELF, "wv"): attn_in,
            ParamKey(l, ROLE_SELF, "wo"): attn_out,
            ParamKey(l, ROLE_OTHER, "mlp_w1"): (cfg.hidden, cfg.d_model),
            ParamKey(l, ROLE_OTHER, "mlp_w2"): (cfg.d_model, cfg.hidden),
            ParamKey(l, ROLE_CROSS_QUERY, "wq"): attn_in,
            ParamKey(l, ROLE_CROSS_KEY, "wk"): (cfg.d_attn, cfg.d_text),
            ParamKey(l, ROLE_CROSS_VALUE, "wv"): (cfg.d_attn, cfg.d_text),
            ParamKey(l, ROLE_CROSS_OUT, "wo"): attn_out})
    return shapes


def init_params(cfg, seed):
    """Scaled-Gaussian init (std = 1/sqrt(fan_in)); output projection is
    zeroed so the untrained model predicts zero noise."""
    rng = np.random.default_rng(seed)
    reg = ParamRegistry()
    for key, shape in param_shapes(cfg).items():
        reg[key] = (np.zeros(shape) if key.name == "w_out"
                    else rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape))
    return reg


@functools.cache
def _frequencies(dim):
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    freqs.flags.writeable = False
    return freqs


def sinusoidal_embedding(pos, dim):
    """Standard sin/cos embedding of each of the 1-D array of positions
    `pos`, one row each."""
    ang = np.asarray(pos)[:, None] * _frequencies(dim)
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    if emb.shape[1] < dim:
        emb = np.concatenate([emb, np.zeros((len(emb), dim - emb.shape[1]))], axis=1)
    return emb


def positional_grid(cfg):
    return sinusoidal_embedding(np.arange(cfg.n_tokens), cfg.d_model)


@dataclass
class AttentionTrace:
    weights: np.ndarray      # (h*w, s), rows sum to 1
    layer: int
    timestep: int
    grid: tuple = (0, 0)


@dataclass
class DenoiserNet:
    config: ModelConfig
    params: ParamRegistry
    vocab: object = None
    _pos: np.ndarray = field(default=None, repr=False)

    @property
    def image_shape(self):
        return (self.config.height, self.config.width)

    @property
    def pos(self):
        if self._pos is None:
            self._pos = positional_grid(self.config)
        return self._pos

    def predict(self, x_t, t, c):
        """Predicted noise for one image x_t at step t under caption features
        c: forward() on a batch of one."""
        eps, _ = forward(self, np.asarray(x_t, dtype=np.float64)[None], (t,), (c,))
        return eps[0]

    def clone(self):
        vocab = self.vocab.clone() if self.vocab is not None else None
        return DenoiserNet(config=self.config, params=self.params.clone(), vocab=vocab)


def build_model(cfg=None, *, seed, vocab=None):
    cfg = cfg or ModelConfig()
    return DenoiserNet(config=cfg, params=init_params(cfg, seed), vocab=vocab)


def _attn_forward(f, c, wq, wk, wv, key_bias=None):
    """Single-head attention of the queries of f (B, N, D) over the keys and
    values of c (B, S, Dc). key_bias (B, S) is added to every query's logits:
    0 for a real key and -inf for padding, which gets exactly zero weight.
    The projections run as 2-D matmuls over all rows of the batch; the cache
    holds f, c and the output h as such rows, (B*N, D), (B*S, Dc), (B*N, dp),
    and the queries scaled by 1/sqrt(dp)."""
    b, n, _ = f.shape
    s = c.shape[1]
    f, c = f.reshape(b * n, -1), c.reshape(b * s, -1)
    q = f @ wq.T
    q *= wq.shape[0] ** -0.5
    q = q.reshape(b, n, -1)
    k = (c @ wk.T).reshape(b, s, -1)
    v = (c @ wv.T).reshape(b, s, -1)
    a = q @ k.transpose(0, 2, 1)
    if key_bias is not None:
        a += key_bias[:, None, :]
    # softmax over the keys, in place
    a -= a.max(axis=2, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=2, keepdims=True)
    return {"f": f, "c": c, "q": q, "k": k, "v": v, "a": a, "h": (a @ v).reshape(b * n, -1)}


def _attn_backward(cache, dh, wq, wk, wv, want):
    """Backprop of h = A V for dh given as rows like the cache's h. Returns
    (df, dc, dwq, dwk, dwv) with df and dc as rows; the weight gradients are
    summed over the batch, and one whose flag in `want` (q, k, v order) is
    false is None."""
    a, q, k, v, f, c = cache["a"], cache["q"], cache["k"], cache["v"], cache["f"], cache["c"]
    scale = q.shape[-1] ** -0.5
    dh = dh.reshape(q.shape)
    dv = a.transpose(0, 2, 1) @ dh
    # dz = A * (dA - rowsum(dA * A)) with dA = dh V^T, computed in place;
    # rowsum(dA * A) = rowsum(dh * h) since h = A V
    dz = dh @ v.transpose(0, 2, 1)
    dz -= np.sum(dh * cache["h"].reshape(q.shape), axis=2, keepdims=True)
    dz *= a
    dq = (dz @ k).reshape(f.shape[0], -1)
    dq *= scale
    dk = (dz.transpose(0, 2, 1) @ q).reshape(c.shape[0], -1)
    dv = dv.reshape(c.shape[0], -1)
    dwq = dq.T @ f if want[0] else None
    dwk = dk.T @ c if want[1] else None
    dwv = dv.T @ c if want[2] else None
    return dq @ wq, dk @ wk + dv @ wv, dwq, dwk, dwv


@functools.cache
def _block_keys(l):
    """Registry keys of block l: (cross-attention q, k, v, out),
    (self-attention q, k, v, out) and (MLP w1, w2)."""
    cross = (ParamKey(l, ROLE_CROSS_QUERY, "wq"), ParamKey(l, ROLE_CROSS_KEY, "wk"),
             ParamKey(l, ROLE_CROSS_VALUE, "wv"), ParamKey(l, ROLE_CROSS_OUT, "wo"))
    self_attn = tuple(ParamKey(l, ROLE_SELF, name) for name in ("wq", "wk", "wv", "wo"))
    return cross, self_attn, (ParamKey(l, ROLE_OTHER, "mlp_w1"), ParamKey(l, ROLE_OTHER, "mlp_w2"))


def forward(model, x_t, t, c):
    """Forward pass over a batch: x_t (B, H, W), t holds B timesteps and c is
    a list of B caption-feature arrays (s_b, d_text), s_b >= 1. Captions are
    padded to the longest one; padded keys get zero attention weight. The
    features of all B images run as one (B*h*w, d_model) array of rows.
    Returns (eps (B, H, W), cache)."""
    cfg = model.config
    p = model.params
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim != 3 or x_t.shape[0] < 1 or x_t.shape[1:] != (cfg.height, cfg.width):
        raise InvalidInput(f"expected images of shape (B, {cfg.height}, {cfg.width}) "
                           f"with B >= 1, got {x_t.shape}")
    bsz, n, d = x_t.shape[0], cfg.n_tokens, cfg.d_model
    t = np.asarray(t)
    if t.shape != (bsz,) or len(c) != bsz:
        raise InvalidInput(f"expected {bsz} timesteps and {bsz} captions")
    c = [np.asarray(cb, dtype=np.float64) for cb in c]
    if any(cb.ndim != 2 or cb.shape[0] < 1 or cb.shape[1] != cfg.d_text for cb in c):
        raise InvalidInput(f"caption features must be (s, {cfg.d_text}) with s >= 1")
    lengths = [cb.shape[0] for cb in c]
    s = max(lengths)
    key_bias = None
    if min(lengths) == s:
        cpad = np.array(c)
    else:
        cpad = np.zeros((bsz, s, cfg.d_text))
        for i, cb in enumerate(c):
            cpad[i, :lengths[i]] = cb
        key_bias = np.where(np.arange(s) < np.array(lengths)[:, None], 0.0, -np.inf)

    x = x_t.reshape(-1)
    s_t = sinusoidal_embedding(t, d)
    te = s_t @ p[ParamKey(0, ROLE_OTHER, "w_time")].T
    f = (np.outer(x, p[ParamKey(0, ROLE_OTHER, "w_pix")][0]).reshape(bsz, n, d)
         + model.pos + te[:, None, :]).reshape(bsz * n, d)

    cache = {"x": x, "s_t": s_t, "c": cpad, "lengths": lengths, "blocks": []}
    for l in range(1, cfg.blocks + 1):
        bc = {}
        # cross-attention first, so its output is decoded by the rest of the
        # block (and any later blocks) rather than feeding the output
        # projection directly
        cross, self_attn, mlp = _block_keys(l)
        cq, ck, cv, co = map(p.__getitem__, cross)
        bc["ca"] = _attn_forward(f.reshape(bsz, n, d), cpad, cq, ck, cv, key_bias)
        f1 = f + bc["ca"]["h"] @ co.T
        # self-attention
        sq, sk, sv, so = map(p.__getitem__, self_attn)
        f1_3d = f1.reshape(bsz, n, d)
        bc["sa"] = _attn_forward(f1_3d, f1_3d, sq, sk, sv)
        f2 = f1 + bc["sa"]["h"] @ so.T
        # residual MLP (tanh; smooth for finite-difference checks)
        w1, w2 = map(p.__getitem__, mlp)
        bc["f2"] = f2
        bc["r"] = np.tanh(f2 @ w1.T)
        f = f2 + bc["r"] @ w2.T
        cache["blocks"].append(bc)
    cache["f_final"] = f
    # readout scaled by 1/d_model so the trained head keeps a healthy norm
    eps = (f @ p[ParamKey(0, ROLE_OTHER, "w_out")][0]) / d
    return eps.reshape(x_t.shape), cache


def backward(model, cache, d_eps, keys=None):
    """Backprop through forward(). Consumes the cache: each block's
    activations are released once passed. Returns (grads, d_c): grads maps
    each ParamKey in `keys` (every key when None) to its gradient summed over
    the batch, and d_c lists each example's text-feature gradient, cut back
    to its caption's length."""
    cfg = model.config
    p = model.params
    want = set(p) if keys is None else set(keys)
    grads = {}
    blocks = cache["blocks"]
    x, lengths = cache["x"], cache["lengths"]
    d_c = np.zeros_like(cache["c"])
    d = cfg.d_model

    deps = np.asarray(d_eps, dtype=np.float64).reshape(x.shape)
    k_out = ParamKey(0, ROLE_OTHER, "w_out")
    if k_out in want:
        grads[k_out] = (cache["f_final"].T @ deps)[None, :] / d
    df = np.outer(deps, p[k_out][0]) / d

    for l in range(cfg.blocks, 0, -1):
        bc = blocks.pop()
        cross, self_attn, (k1, k2) = _block_keys(l)
        # MLP residual
        if k2 in want:
            grads[k2] = df.T @ bc["r"]
        dh1 = df @ p[k2]
        dh1 *= 1.0 - bc["r"] ** 2
        if k1 in want:
            grads[k1] = dh1.T @ bc["f2"]
        df2 = dh1 @ p[k1] + df
        # self-attention residual
        kq, kk, kv, ko = self_attn
        if ko in want:
            grads[ko] = df2.T @ bc["sa"]["h"]
        dfq, dfkv, *dws = _attn_backward(bc["sa"], df2 @ p[ko], p[kq], p[kk], p[kv],
                                         (kq in want, kk in want, kv in want))
        grads.update((k, g) for k, g in zip((kq, kk, kv), dws) if g is not None)
        df1 = dfq + dfkv + df2
        # cross-attention residual
        kq, kk, kv, ko = cross
        if ko in want:
            grads[ko] = df1.T @ bc["ca"]["h"]
        dfc, dc, *dws = _attn_backward(bc["ca"], df1 @ p[ko], p[kq], p[kk], p[kv],
                                       (kq in want, kk in want, kv in want))
        grads.update((k, g) for k, g in zip((kq, kk, kv), dws) if g is not None)
        d_c += dc.reshape(d_c.shape)
        df = dfc + df1

    # input embedding
    k_pix, k_time = ParamKey(0, ROLE_OTHER, "w_pix"), ParamKey(0, ROLE_OTHER, "w_time")
    if k_pix in want:
        grads[k_pix] = (df.T @ x)[None, :]
    if k_time in want:
        grads[k_time] = df.reshape(len(lengths), -1, d).sum(axis=1).T @ cache["s_t"]
    return grads, [d_c[i, :m] for i, m in enumerate(lengths)]


def predict_eps_with_traces(model, x_t, t, c):
    """predict() that also returns each block's cross-attention weights,
    each an (h*w, s) AttentionTrace read from the forward cache."""
    eps, cache = forward(model, np.asarray(x_t, dtype=np.float64)[None], (t,), (c,))
    return eps[0], [AttentionTrace(weights=bc["ca"]["a"][0], layer=l, timestep=int(t),
                                   grid=model.image_shape)
                    for l, bc in enumerate(cache["blocks"], start=1)]


def mean_attention_map(traces, token_index):
    """Per-pixel mean attention weight of one text token across traces."""
    if not traces:
        raise InvalidInput("traces must be non-empty")
    grid = traces[0].grid
    n, s = traces[0].weights.shape
    if grid[0] * grid[1] != n:
        raise InvalidInput("trace grid inconsistent with weight rows")
    acc = np.zeros(n)
    for tr in traces:
        if tr.weights.shape != (n, s) or tr.grid != grid:
            raise InvalidInput("traces have inconsistent shapes")
        acc += tr.weights[:, token_index]
    return (acc / len(traces)).reshape(grid)
