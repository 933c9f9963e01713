"""Toy noise predictor: residual MLP mixing blocks interleaved with single-head
self- and cross-attention over text features, with hand-written backprop.

Parameters live in a registry keyed by (layer, role, name) so the selective
fine-tuning machinery can address exactly the cross-attention key/value
projections. Layer 0 holds the input/output plumbing; blocks are 1..L.
"""

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


def init_params(cfg, seed):
    """Scaled-Gaussian init (std = 1/sqrt(fan_in)); output projection is
    zeroed so the untrained model predicts zero noise."""
    rng = np.random.default_rng(seed)

    def gauss(shape):
        return rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape)

    reg = ParamRegistry()
    reg[ParamKey(0, ROLE_OTHER, "w_pix")] = gauss((1, cfg.d_model))
    reg[ParamKey(0, ROLE_OTHER, "w_time")] = gauss((cfg.d_model, cfg.d_model))
    reg[ParamKey(0, ROLE_OTHER, "w_out")] = np.zeros((1, cfg.d_model))
    for l in range(1, cfg.blocks + 1):
        reg[ParamKey(l, ROLE_SELF, "wq")] = gauss((cfg.d_attn, cfg.d_model))
        reg[ParamKey(l, ROLE_SELF, "wk")] = gauss((cfg.d_attn, cfg.d_model))
        reg[ParamKey(l, ROLE_SELF, "wv")] = gauss((cfg.d_attn, cfg.d_model))
        reg[ParamKey(l, ROLE_SELF, "wo")] = gauss((cfg.d_model, cfg.d_attn))
        reg[ParamKey(l, ROLE_OTHER, "mlp_w1")] = gauss((cfg.hidden, cfg.d_model))
        reg[ParamKey(l, ROLE_OTHER, "mlp_w2")] = gauss((cfg.d_model, cfg.hidden))
        reg[ParamKey(l, ROLE_CROSS_QUERY, "wq")] = gauss((cfg.d_attn, cfg.d_model))
        reg[ParamKey(l, ROLE_CROSS_KEY, "wk")] = gauss((cfg.d_attn, cfg.d_text))
        reg[ParamKey(l, ROLE_CROSS_VALUE, "wv")] = gauss((cfg.d_attn, cfg.d_text))
        reg[ParamKey(l, ROLE_CROSS_OUT, "wo")] = gauss((cfg.d_model, cfg.d_attn))
    return reg


def sinusoidal_embedding(pos, dim):
    """Standard sin/cos embedding of a scalar position."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    emb = np.concatenate([np.sin(pos * freqs), np.cos(pos * freqs)])
    if emb.size < dim:
        emb = np.concatenate([emb, np.zeros(dim - emb.size)])
    return emb


def positional_grid(cfg):
    return np.stack([sinusoidal_embedding(i, cfg.d_model) for i in range(cfg.n_tokens)])


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
        """Predicted noise for x_t at step t under caption features c."""
        eps, _, _ = forward(self, x_t, t, c)
        return eps

    def clone(self):
        vocab = self.vocab.clone() if self.vocab is not None else None
        return DenoiserNet(config=self.config, params=self.params.clone(), vocab=vocab)


def build_model(cfg=None, *, seed, vocab=None):
    cfg = cfg or ModelConfig()
    return DenoiserNet(config=cfg, params=init_params(cfg, seed), vocab=vocab)


def softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _attn_forward(f, c, wq, wk, wv):
    dp = wq.shape[0]
    q = f @ wq.T
    k = c @ wk.T
    v = c @ wv.T
    a = softmax_rows(q @ k.T / np.sqrt(dp))
    return {"f": f, "c": c, "q": q, "k": k, "v": v, "a": a, "h": a @ v, "dp": dp}


def _attn_backward(cache, dh, wq, wk, wv):
    """Returns (df, dc, dwq, dwk, dwv) for h = A V."""
    a, q, k, v, f, c = cache["a"], cache["q"], cache["k"], cache["v"], cache["f"], cache["c"]
    inv = 1.0 / np.sqrt(cache["dp"])
    da = dh @ v.T
    dv = a.T @ dh
    dz = a * (da - np.sum(da * a, axis=1, keepdims=True))
    dq = dz @ k * inv
    dk = dz.T @ q * inv
    dwq = dq.T @ f
    dwk = dk.T @ c
    dwv = dv.T @ c
    df = dq @ wq
    dc = dk @ wk + dv @ wv
    return df, dc, dwq, dwk, dwv


def forward(model, x_t, t, c, collect_traces=False):
    """Full forward pass. Returns (eps, cache, traces)."""
    cfg = model.config
    p = model.params
    x_t = np.asarray(x_t, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x_t.shape != (cfg.height, cfg.width):
        raise InvalidInput(f"expected image shape {(cfg.height, cfg.width)}, got {x_t.shape}")
    if c.ndim != 2 or c.shape[1] != cfg.d_text:
        raise InvalidInput(f"caption features must be (s, {cfg.d_text})")

    xf = x_t.reshape(-1)
    s_t = sinusoidal_embedding(t, cfg.d_model)
    te = p[ParamKey(0, ROLE_OTHER, "w_time")] @ s_t
    f = np.outer(xf, p[ParamKey(0, ROLE_OTHER, "w_pix")][0]) + model.pos + te

    cache = {"xf": xf, "s_t": s_t, "c": c, "blocks": []}
    traces = []
    for l in range(1, cfg.blocks + 1):
        bc = {}
        # cross-attention first, so its output is decoded by the rest of the
        # block (and any later blocks) rather than feeding the output
        # projection directly
        cq = p[ParamKey(l, ROLE_CROSS_QUERY, "wq")]
        ck = p[ParamKey(l, ROLE_CROSS_KEY, "wk")]
        cv = p[ParamKey(l, ROLE_CROSS_VALUE, "wv")]
        co = p[ParamKey(l, ROLE_CROSS_OUT, "wo")]
        bc["ca"] = _attn_forward(f, c, cq, ck, cv)
        f1 = f + bc["ca"]["h"] @ co.T
        if collect_traces:
            traces.append(AttentionTrace(weights=bc["ca"]["a"].copy(), layer=l,
                                         timestep=t, grid=(cfg.height, cfg.width)))
        # self-attention
        sq, sk, sv = (p[ParamKey(l, ROLE_SELF, n)] for n in ("wq", "wk", "wv"))
        so = p[ParamKey(l, ROLE_SELF, "wo")]
        bc["f1"] = f1
        bc["sa"] = _attn_forward(f1, f1, sq, sk, sv)
        f2 = f1 + bc["sa"]["h"] @ so.T
        # residual MLP (tanh; smooth for finite-difference checks)
        w1 = p[ParamKey(l, ROLE_OTHER, "mlp_w1")]
        w2 = p[ParamKey(l, ROLE_OTHER, "mlp_w2")]
        bc["f2"] = f2
        bc["r"] = np.tanh(f2 @ w1.T)
        f = f2 + bc["r"] @ w2.T
        cache["blocks"].append(bc)
    cache["f_final"] = f
    # readout scaled by 1/d_model so the trained head keeps a healthy norm
    eps = (f @ p[ParamKey(0, ROLE_OTHER, "w_out")][0]) / cfg.d_model
    return eps.reshape(cfg.height, cfg.width), cache, traces


def backward(model, cache, d_eps):
    """Backprop through forward(); returns (grads, d_c) where grads maps every
    ParamKey to its gradient and d_c is the gradient of the text features."""
    cfg = model.config
    p = model.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}

    deps = np.asarray(d_eps, dtype=np.float64).reshape(-1)
    f_final = cache["f_final"]
    w_out = p[ParamKey(0, ROLE_OTHER, "w_out")]
    grads[ParamKey(0, ROLE_OTHER, "w_out")][0] = (f_final.T @ deps) / cfg.d_model
    df = np.outer(deps, w_out[0]) / cfg.d_model
    d_c = np.zeros_like(cache["c"])

    for l in range(cfg.blocks, 0, -1):
        bc = cache["blocks"][l - 1]
        # MLP residual
        w1 = p[ParamKey(l, ROLE_OTHER, "mlp_w1")]
        w2 = p[ParamKey(l, ROLE_OTHER, "mlp_w2")]
        dr = df @ w2
        grads[ParamKey(l, ROLE_OTHER, "mlp_w2")] += df.T @ bc["r"]
        dh1 = dr * (1.0 - bc["r"] ** 2)
        grads[ParamKey(l, ROLE_OTHER, "mlp_w1")] += dh1.T @ bc["f2"]
        df2 = dh1 @ w1 + df
        # self-attention residual
        so = p[ParamKey(l, ROLE_SELF, "wo")]
        sq = p[ParamKey(l, ROLE_SELF, "wq")]
        sk = p[ParamKey(l, ROLE_SELF, "wk")]
        sv = p[ParamKey(l, ROLE_SELF, "wv")]
        dhs = df2 @ so
        grads[ParamKey(l, ROLE_SELF, "wo")] += df2.T @ bc["sa"]["h"]
        dfq, dfkv, dwq, dwk, dwv = _attn_backward(bc["sa"], dhs, sq, sk, sv)
        grads[ParamKey(l, ROLE_SELF, "wq")] += dwq
        grads[ParamKey(l, ROLE_SELF, "wk")] += dwk
        grads[ParamKey(l, ROLE_SELF, "wv")] += dwv
        df1 = dfq + dfkv + df2
        # cross-attention residual
        co = p[ParamKey(l, ROLE_CROSS_OUT, "wo")]
        cq = p[ParamKey(l, ROLE_CROSS_QUERY, "wq")]
        ck = p[ParamKey(l, ROLE_CROSS_KEY, "wk")]
        cv = p[ParamKey(l, ROLE_CROSS_VALUE, "wv")]
        dh = df1 @ co
        grads[ParamKey(l, ROLE_CROSS_OUT, "wo")] += df1.T @ bc["ca"]["h"]
        dfc, dc, dwq, dwk, dwv = _attn_backward(bc["ca"], dh, cq, ck, cv)
        grads[ParamKey(l, ROLE_CROSS_QUERY, "wq")] += dwq
        grads[ParamKey(l, ROLE_CROSS_KEY, "wk")] += dwk
        grads[ParamKey(l, ROLE_CROSS_VALUE, "wv")] += dwv
        d_c += dc
        df = dfc + df1

    # input embedding
    grads[ParamKey(0, ROLE_OTHER, "w_pix")][0] = df.T @ cache["xf"]
    dte = df.sum(axis=0)
    grads[ParamKey(0, ROLE_OTHER, "w_time")] += np.outer(dte, cache["s_t"])
    return grads, d_c


def predict_eps_with_traces(model, x_t, t, c):
    eps, _, traces = forward(model, x_t, t, c, collect_traces=True)
    return eps, traces


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
