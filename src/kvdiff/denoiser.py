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

KV_ROLES = (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)
CROSS_ROLES = KV_ROLES + (ROLE_CROSS_QUERY, ROLE_CROSS_OUT)


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
        eps, _ = forward(self, np.asarray(x_t, dtype=np.float64)[None], (t,),
                         context(self, (c,)))
        return eps[0]

    def clone(self):
        vocab = self.vocab.clone() if self.vocab is not None else None
        return DenoiserNet(config=self.config, params=self.params.clone(), vocab=vocab)


def build_model(cfg=None, *, seed, vocab=None):
    cfg = cfg or ModelConfig()
    return DenoiserNet(config=cfg, params=init_params(cfg, seed), vocab=vocab)


def _buf(ws, name, shape):
    """The workspace array `name` of `ws`, reallocated when its shape differs
    from `shape`: a cross-attention array changes with the longest caption."""
    a = ws.get(name)
    if a is None or a.shape != shape:
        a = ws[name] = np.empty(shape)
    return a


def _mm(ws, name, a, b):
    """a @ b written into the workspace array `name` (2-D, or stacked 3-D
    with equal stack sizes)."""
    return np.matmul(a, b, out=_buf(ws, name, a.shape[:-1] + b.shape[-1:]))


def _blocks(a, n, shape):
    """The n column blocks of the rows a (R, n * w), each a view of a
    reshaped to `shape`, which may split only the row axis (so no copy is
    made): a fused projection's q, k and v, or the arrays its gradient is
    written into."""
    w = a.shape[1] // n
    return [a[:, i * w:(i + 1) * w].reshape(shape) for i in range(n)]


def _attend(q, k, v, key_bias, ws):
    """Single-head softmax attention of the queries q (B, N, dp) over the
    keys k and values v (B, S, dp), the one kernel of both attention
    sublayers. q comes from a query weight that already holds the
    1/sqrt(dp) scale. key_bias (B, S) is added to every query's logits: 0
    for a real key and -inf for padding, which gets exactly zero weight.

    The softmax is left unnormalized: the cache holds e = exp(logits - max),
    key-major, a (B, S, N) with e[b, j, i] the term of key j for query i, so
    the max and the sum reduce across its S rows and broadcast along its
    contiguous query axis, and each query's sum s_q (B, N). The output h =
    (e^T v) / s_q, as (B*N, dp) rows, is divided instead of the (B, S, N)
    weights. The cache holds q, k and v too; its other arrays are those of
    the workspace `ws`."""
    b, n, _ = q.shape
    e = _mm(ws, "e", k, q.transpose(0, 2, 1))
    if key_bias is not None:
        e += key_bias[:, :, None]
    # the reductions as ufunc methods, which skip np.max's and np.sum's
    # Python-level dispatch
    e -= np.maximum.reduce(e, axis=1, keepdims=True, out=_buf(ws, "max", (b, 1, n)))
    np.exp(e, out=e)
    s_q = np.add.reduce(e, axis=1, out=_buf(ws, "s_q", (b, n)))
    h = _mm(ws, "h", e.transpose(0, 2, 1), v)
    h /= s_q[:, :, None]
    return {"q": q, "k": k, "v": v, "e": e, "s_q": s_q, "h": h.reshape(b * n, -1)}


def _attn_backward(cache, dout, ko, p, want, grads, dq, dk, dv, ws):
    """Backprop through one _attend() and its output projection p[ko], for
    dout given as rows like the cache's h: the gradient of ko, summed over
    the batch, goes into grads when ko is in `want`, and the gradients of the
    kernel's q, k and v are written into dq, dk and dv, arrays of their
    shapes that the caller passes (views into one fused array). The
    normalization moves onto dh as it did onto h: with dh /= s_q, the
    softmax weights A = e / s_q drop out, dv = e dh and dz = e * (v dh^T -
    rowsum(dh * h)), key-major like e. Scratch arrays come from `ws`."""
    if ko in want:
        grads[ko] = dout.T @ cache["h"]
    e, q, k, v = cache["e"], cache["q"], cache["k"], cache["v"]
    dh = _mm(ws, "dh", dout, p[ko]).reshape(q.shape)
    dh /= cache["s_q"][:, :, None]
    np.matmul(e, dh, out=dv)
    # dz = A * (dA - colsum(A * dA)) with dA = V (s_q dh)^T, computed in
    # place; colsum(A * dA) = s_q rowsum(dh * h), since h = A^T V
    dz = _mm(ws, "dz", v, dh.transpose(0, 2, 1))
    dhh = np.multiply(dh, cache["h"].reshape(q.shape), out=_buf(ws, "dhh", q.shape))
    dz -= np.add.reduce(dhh, axis=2, out=_buf(ws, "rowsum", q.shape[:2]))[:, None, :]
    dz *= e
    np.matmul(dz.transpose(0, 2, 1), k, out=dq)
    np.matmul(dz, q, out=dk)


def _stacked_grads(dy, x, keys, want, grads, scale):
    """Weight gradients of the projection y = x W^T, W the weights of `keys`
    stacked by rows in that order, for dy and x given as rows: one matmul
    for all of them when any key is in `want`, split by rows, and kept for
    those in `want`. A query weight ("wq") holds the 1/sqrt(d_attn) scale in
    W, so its gradient is multiplied by `scale`."""
    if want.isdisjoint(keys):
        return
    for key, g in zip(keys, np.split(dy.T @ x, len(keys))):
        if key in want:
            if key.name == "wq":
                g *= scale
            grads[key] = g


@functools.cache
def _block_keys(l):
    """Registry keys of block l: (cross-attention q, k, v, out),
    (self-attention q, k, v, out) and (MLP w1, w2)."""
    cross = (ParamKey(l, ROLE_CROSS_QUERY, "wq"), ParamKey(l, ROLE_CROSS_KEY, "wk"),
             ParamKey(l, ROLE_CROSS_VALUE, "wv"), ParamKey(l, ROLE_CROSS_OUT, "wo"))
    self_attn = tuple(ParamKey(l, ROLE_SELF, name) for name in ("wq", "wk", "wv", "wo"))
    return cross, self_attn, (ParamKey(l, ROLE_OTHER, "mlp_w1"), ParamKey(l, ROLE_OTHER, "mlp_w2"))


class Context(NamedTuple):
    """B captions as forward() reads them: their features padded to the
    longest, c (B, S, d_text); each caption's length; key_bias (B, S), 0 for
    a real key and -inf for padding (None when no caption is padded); each
    block's cross-attention keys and values, kv[l - 1] = (k, v), each
    (B, S, d_attn) and a column block of one (B*S, 2*d_attn) array; and each
    block's attention weights as forward() and backward() read them, w[l - 1]
    = (s*wq cross, [wk; wv] cross, [s*wq; wk; wv] self), with s =
    1/sqrt(d_attn) folded into the query weights and the rest stacked by
    rows, one projection matmul each."""
    c: np.ndarray
    lengths: list
    key_bias: np.ndarray
    kv: tuple
    w: tuple


def context(model, captions):
    """The Context of a list of B >= 1 caption-feature arrays (s_b, d_text),
    s_b >= 1, projected with the model's current cross-attention K/V
    weights, which it holds stacked with the other attention weights. It is
    valid only for those weights: build a new one after any update."""
    cfg = model.config
    p = model.params
    c = [np.asarray(cb, dtype=np.float64) for cb in captions]
    if not c or any(cb.ndim != 2 or cb.shape[0] < 1 or cb.shape[1] != cfg.d_text for cb in c):
        raise InvalidInput(f"expected at least one caption, each of caption features "
                           f"(s, {cfg.d_text}) with s >= 1")
    lengths = [cb.shape[0] for cb in c]
    bsz, s = len(c), max(lengths)
    key_bias = None
    if min(lengths) == s:
        cpad = np.array(c)
    else:
        cpad = np.zeros((bsz, s, cfg.d_text))
        for i, cb in enumerate(c):
            cpad[i, :lengths[i]] = cb
        key_bias = np.where(np.arange(s) < np.array(lengths)[:, None], 0.0, -np.inf)
    rows = cpad.reshape(bsz * s, -1)
    scale = cfg.d_attn ** -0.5
    w, kv = [], []
    for l in range(1, cfg.blocks + 1):
        (cq, ck, cv, _), (sq, sk, sv, _), _ = _block_keys(l)
        ckv = np.concatenate([p[ck], p[cv]])
        w.append((scale * p[cq], ckv, np.concatenate([scale * p[sq], p[sk], p[sv]])))
        kv.append(tuple(_blocks(rows @ ckv.T, 2, (bsz, s, -1))))
    return Context(cpad, lengths, key_bias, tuple(kv), tuple(w))


def forward(model, x_t, t, ctx, workspace=None):
    """Forward pass over a batch: x_t (B, H, W), t holds B timesteps and ctx
    is the Context of B captions, built by context() from the model's
    current weights; a context built before a weight update is stale, and
    InvalidInput is raised when it holds another number of captions than
    x_t images. Padded keys get zero attention weight. The features of all
    B images run as one (B*h*w, d_model) array of rows. Each attention
    sublayer runs one projection matmul in, with the weights the context
    holds (cross-attention's queries, self-attention's q, k and v as the
    column blocks of one (B*h*w, 3*d_attn) array), then _attend(), whose
    cache holds its unnormalized weights key-major, e (B, S, N), and each
    query's sum s_q, and one matmul back through the output projection.

    `workspace` is a dict the caller keeps across calls (a fresh one when
    None): the pass writes its large arrays, and backward() its scratch
    arrays, into the workspace's arrays of the same shape, so a loop that
    keeps one allocates them once. The cache holds views into it, valid until
    the next call with that workspace, and into ctx; eps never does.
    Returns (eps (B, H, W), cache)."""
    cfg = model.config
    p = model.params
    ws = {} if workspace is None else workspace
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim != 3 or x_t.shape[0] < 1 or x_t.shape[1:] != (cfg.height, cfg.width):
        raise InvalidInput(f"expected images of shape (B, {cfg.height}, {cfg.width}) "
                           f"with B >= 1, got {x_t.shape}")
    bsz, n, d = x_t.shape[0], cfg.n_tokens, cfg.d_model
    t = np.asarray(t)
    if t.shape != (bsz,) or len(ctx.lengths) != bsz:
        raise InvalidInput(f"expected {bsz} timesteps and a context of {bsz} captions, "
                           f"got {t.shape} and {len(ctx.lengths)}")

    x = x_t.reshape(-1)
    s_t = sinusoidal_embedding(t, d)
    te = s_t @ p[ParamKey(0, ROLE_OTHER, "w_time")].T
    # the outer product of the pixels and w_pix as a matmul over a length-1
    # axis, which (unlike np.outer) needs no temporary buffers
    f = _mm(ws, "f0", x[:, None], p[ParamKey(0, ROLE_OTHER, "w_pix")])
    f3 = f.reshape(bsz, n, d)
    f3 += model.pos
    f3 += te[:, None, :]

    cache = {"x": x, "s_t": s_t, "ctx": ctx, "blocks": [], "ws": ws}
    for l in range(1, cfg.blocks + 1):
        wb = ws.setdefault(l, {})
        cross, self_attn, mlp = _block_keys(l)
        wcq, _, wqkv = ctx.w[l - 1]
        bc = {"f": f}
        # cross-attention first, so its output is decoded by the rest of the
        # block (and any later blocks) rather than feeding the output
        # projection directly
        q = _mm(wb, "cq", f, wcq.T).reshape(bsz, n, -1)
        bc["ca"] = _attend(q, *ctx.kv[l - 1], ctx.key_bias, wb.setdefault("ca", {}))
        f1 = bc["f1"] = _mm(wb, "f1", bc["ca"]["h"], p[cross[3]].T)
        f1 += f
        # self-attention
        qkv = _mm(wb, "qkv", f1, wqkv.T)
        bc["sa"] = _attend(*_blocks(qkv, 3, (bsz, n, -1)), None, wb.setdefault("sa", {}))
        f2 = _mm(wb, "f2", bc["sa"]["h"], p[self_attn[3]].T)
        f2 += f1
        # residual MLP (tanh; smooth for finite-difference checks)
        w1, w2 = map(p.__getitem__, mlp)
        bc["f2"] = f2
        r = bc["r"] = _mm(wb, "r", f2, w1.T)
        np.tanh(r, out=r)
        f = _mm(wb, "f", r, w2.T)
        f += f2
        cache["blocks"].append(bc)
    cache["f_final"] = f
    # readout scaled by 1/d_model so the trained head keeps a healthy norm
    eps = (f @ p[ParamKey(0, ROLE_OTHER, "w_out")][0]) / d
    return eps.reshape(x_t.shape), cache


def backward(model, cache, d_eps, keys=None):
    """Backprop through forward(). Its scratch arrays come from the workspace
    of the forward pass that made `cache`, one set that the blocks share, as
    they run one after another. Each attention sublayer writes its q, k and
    v gradients as the column blocks of one array (self-attention's q, k and
    v; cross-attention's k and v), so its input gradient is one matmul with
    the context's stacked weights, and the gradients of its wanted stacked
    weights one more (_stacked_grads()). Returns (grads, d_c): grads maps
    each ParamKey in `keys` (every key when None) to its gradient summed
    over the batch, and d_c lists each example's text-feature gradient, cut
    back to its caption's length. Neither shares memory with the
    workspace."""
    cfg = model.config
    p = model.params
    want = set(p) if keys is None else set(keys)
    grads = {}
    x, ctx = cache["x"], cache["ctx"]
    bsz, s = ctx.c.shape[:2]
    crows = ctx.c.reshape(bsz * s, -1)
    d_c = np.zeros_like(ctx.c)
    d, n, dp = cfg.d_model, cfg.n_tokens, cfg.d_attn
    scale = dp ** -0.5

    deps = np.asarray(d_eps, dtype=np.float64).reshape(x.shape)
    k_out = ParamKey(0, ROLE_OTHER, "w_out")
    if k_out in want:
        grads[k_out] = (cache["f_final"].T @ deps)[None, :] / d
    scratch = cache["ws"].setdefault("backward", {})
    df = _mm(scratch, "df", deps[:, None], p[k_out])
    df /= d

    for l, bc in zip(range(cfg.blocks, 0, -1), reversed(cache["blocks"])):
        cross, self_attn, (k1, k2) = _block_keys(l)
        wcq, wckv, wqkv = ctx.w[l - 1]
        r = bc["r"]
        # MLP residual
        if k2 in want:
            grads[k2] = df.T @ r
        dh1 = _mm(scratch, "dh1", df, p[k2])
        # 1 - r^2, the derivative of tanh
        dtanh = np.square(r, out=_buf(scratch, "dtanh", r.shape))
        np.subtract(1.0, dtanh, out=dtanh)
        dh1 *= dtanh
        if k1 in want:
            grads[k1] = dh1.T @ bc["f2"]
        df2 = _mm(scratch, "df2", dh1, p[k1])
        # the last read of df, the scratch array that this block's
        # cross-attention step overwrites
        df2 += df
        # self-attention residual
        dqkv = _buf(scratch, "dqkv", (bsz * n, 3 * dp))
        _attn_backward(bc["sa"], df2, self_attn[3], p, want, grads,
                       *_blocks(dqkv, 3, (bsz, n, dp)), scratch.setdefault("sa", {}))
        _stacked_grads(dqkv, bc["f1"], self_attn[:3], want, grads, scale)
        df1 = _mm(scratch, "df1", dqkv, wqkv)
        df1 += df2
        # cross-attention residual
        dq = _buf(scratch, "dq", (bsz * n, dp))
        dkv = _buf(scratch, "dkv", (bsz * s, 2 * dp))
        _attn_backward(bc["ca"], df1, cross[3], p, want, grads, dq.reshape(bsz, n, dp),
                       *_blocks(dkv, 2, (bsz, s, dp)), scratch.setdefault("ca", {}))
        _stacked_grads(dq, bc["f"], cross[:1], want, grads, scale)
        _stacked_grads(dkv, crows, cross[1:3], want, grads, scale)
        d_c += _mm(scratch, "dc", dkv, wckv).reshape(d_c.shape)
        df = _mm(scratch, "df", dq, wcq)
        df += df1

    # input embedding
    k_pix, k_time = ParamKey(0, ROLE_OTHER, "w_pix"), ParamKey(0, ROLE_OTHER, "w_time")
    if k_pix in want:
        grads[k_pix] = (df.T @ x)[None, :]
    if k_time in want:
        grads[k_time] = df.reshape(bsz, -1, d).sum(axis=1).T @ cache["s_t"]
    return grads, [d_c[i, :m] for i, m in enumerate(ctx.lengths)]


def predict_eps_with_traces(model, x_t, t, c):
    """predict() that also returns each block's cross-attention weights,
    each an (h*w, s) AttentionTrace: a transposed copy of the forward cache's
    key-major e, each query's column divided by its sum s_q."""
    eps, cache = forward(model, np.asarray(x_t, dtype=np.float64)[None], (t,),
                         context(model, (c,)))
    return eps[0], [AttentionTrace(weights=(bc["ca"]["e"][0] / bc["ca"]["s_q"][0]).T.copy(),
                                   layer=l, timestep=int(t), grid=model.image_shape)
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
