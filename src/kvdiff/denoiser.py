"""Toy noise predictor: residual MLP mixing blocks interleaved with single-head
self- and cross-attention over text features, with hand-written backprop.

Parameters live in a registry keyed by (layer, role, name) so the selective
fine-tuning machinery can address exactly the cross-attention key/value
projections. Layer 0 holds the input/output plumbing; blocks are 1..L.
"""

import functools
from dataclasses import dataclass
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


@functools.cache
def positional_grid(cfg):
    """The position embedding of the architecture cfg, cached and read-only."""
    grid = sinusoidal_embedding(np.arange(cfg.n_tokens), cfg.d_model)
    grid.flags.writeable = False
    return grid


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

    @property
    def image_shape(self):
        return (self.config.height, self.config.width)

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


_W_PIX = ParamKey(0, ROLE_OTHER, "w_pix")
_W_TIME = ParamKey(0, ROLE_OTHER, "w_time")
_W_OUT = ParamKey(0, ROLE_OTHER, "w_out")


def _blocks(a, n, shape):
    """The n column blocks of the rows a (R, n * w), each a view of a
    reshaped to `shape`, which may split only the row axis (so no copy is
    made): a fused projection's q, k and v, or the arrays its gradient is
    written into."""
    w = a.shape[1] // n
    return [a[:, i * w:(i + 1) * w].reshape(shape) for i in range(n)]


def _key_major(b, s, n):
    """A (B, S, N) array for the S keys and N queries of B examples, and its
    (B, N, S) transpose: attention's logits e, or their gradient dz."""
    a = np.empty((b, s, n))
    return a, a.transpose(0, 2, 1)


# a padded key's logit: exp(_PAD - max) underflows to exactly 0. It is
# finite, since -inf times the zeros OpenBLAS pads a partial block of
# queries with makes the logits' product raise numpy's invalid-value warning
_PAD = -np.finfo(np.float64).max


def _attention(q, s, biased=False):
    """The arrays of one attention sublayer over s keys, as _attend() writes
    and _attn_backward() reads them, with their fixed views: the queries q
    (B, N, dp), a view into the array their projection is written into, and
    "qT", the triple of its transposed view, the C-contiguous array qT
    (B, 1 + dp, N) when `biased` and (B, dp, N) otherwise, and the part of
    qT that _attend() copies that view into: all of it, or every row below
    a leading row of ones that multiplies the keys' bias column; "shift",
    whether _attend() always shifts the logits by each query's max (the
    biased cross-attention, whose padded keys hold _PAD); the logits e
    (B, S, N), key-major, and eT; the logits' max; each query's sum s_q
    (B, N) and s_q3, its (B, N, 1) view; the output h3 (B, N, dp) and h, its
    (B*N, dp) rows. The caller sets its keys "k" and values "v" (B, S, dp),
    "v1", the values ahead of a column of ones (B, S, 1 + dp), and "kb", the
    left operand of the logits' product: the keys, or with `biased` the keys
    behind their bias column (B, S, 1 + dp)."""
    b, n, dp = q.shape
    h3, s_q = np.empty((b, n, dp)), np.empty((b, n))
    ones = 1 if biased else 0
    qT = np.empty((b, ones + dp, n))
    qT[:, :ones] = 1.0
    a = {"q": q, "qT": (q.transpose(0, 2, 1), qT, qT[:, ones:]), "shift": biased,
         "max": np.empty((b, 1, n)), "s_q": s_q, "s_q3": s_q[:, :, None], "h3": h3,
         "h": h3.reshape(b * n, dp)}
    a["e"], a["eT"] = _key_major(b, s, n)
    return a


class _Binding:
    """A workspace's arrays for one batch size of one architecture, built
    once with their fixed views, and the number of keys S of the
    cross-attention they are shaped for (the longest caption).

    blocks lists one dict per block, as forward()'s cache lists them: the
    block's input "f" (f0 for block 1, the output "out" of the block before
    for the others); the cross-attention queries "cq"; the fused
    self-attention projection "qkv", whose column blocks are that
    sublayer's q, k and v, a view of an array with one more column, of
    ones, which the projection never writes, so that v and that column are
    the sublayer's "v1"; the activations "f1", "f2" and "r"; and each
    attention sublayer's _attention() arrays, "ca" and "sa". scratch holds
    backward()'s arrays, one set the blocks share, built by its first call
    (a sampling loop never needs them): the gradients of the MLP and of the
    sublayers' inputs, the q, k and v gradients as column blocks of dqkv
    (self-attention) and of dq and dkv (cross-attention), and each
    sublayer's dz, key-major like its e, with the arrays both sublayers use
    in turn (dh, its (B, N, dp) view, the pair "dhT" of that view's
    transpose and the C-contiguous array (B, dp + 1, N) it is copied into,
    whose last row "rowsum" holds -rowsum(dh * h), and dhh).

    Only the arrays whose shape holds S are rebuilt when S changes
    (bind_keys()): the cross-attention logits, and backward's dz, dkv and
    dc."""

    def __init__(self, cfg, bsz, s):
        n, d, dp = cfg.n_tokens, cfg.d_model, cfg.d_attn
        rows = bsz * n
        self.cfg, self.bsz, self.s, self.scratch = cfg, bsz, s, None
        self.f0 = f = np.empty((rows, d))
        self.f0_3 = f.reshape(bsz, n, d)
        self.blocks = []
        for _ in range(cfg.blocks):
            cq, qkv1 = np.empty((rows, dp)), np.empty((rows, 3 * dp + 1))
            qkv1[:, -1] = 1.0
            qkv = qkv1[:, :-1]
            q, k, v = _blocks(qkv, 3, (bsz, n, dp))
            sa = _attention(q, n)
            sa["k"] = sa["kb"] = k
            sa["v"], sa["v1"] = v, qkv1[:, 2 * dp:].reshape(bsz, n, dp + 1)
            bc = {"f": f, "cq": cq, "ca": _attention(cq.reshape(bsz, n, dp), s, biased=True),
                  "f1": np.empty((rows, d)), "qkv": qkv, "sa": sa,
                  "f2": np.empty((rows, d)), "r": np.empty((rows, cfg.hidden)),
                  "out": np.empty((rows, d))}
            self.blocks.append(bc)
            f = bc["out"]
        self.out = f

    def bind_keys(self, s):
        """Rebuild the arrays whose shape holds S for s keys."""
        self.s = s
        for bc in self.blocks:
            ca = bc["ca"]
            ca["e"], ca["eT"] = _key_major(self.bsz, s, self.cfg.n_tokens)
        if self.scratch is not None:
            self._bind_scratch_keys()

    def backward_scratch(self):
        """backward()'s arrays, built on the first call."""
        if self.scratch is None:
            cfg, bsz = self.cfg, self.bsz
            n, d, dp, hidden = cfg.n_tokens, cfg.d_model, cfg.d_attn, cfg.hidden
            rows = bsz * n
            dh, dhT1 = np.empty((rows, dp)), np.empty((bsz, dp + 1, n))
            dh3 = dh.reshape(bsz, n, dp)
            shared = {"dh": dh, "dh3": dh3, "dhT": (dh3.transpose(0, 2, 1), dhT1[:, :dp]),
                      "dhT1": dhT1, "rowsum": dhT1[:, dp], "dhh": np.empty((bsz, n, dp))}
            dqkv, dq = np.empty((rows, 3 * dp)), np.empty((rows, dp))
            sa = dict(shared)
            sa["dq"], sa["dk"], sa["dv"] = _blocks(dqkv, 3, (bsz, n, dp))
            sa["dz"], sa["dzT"] = _key_major(bsz, n, n)
            self.scratch = {
                "df": np.empty((rows, d)), "dh1": np.empty((rows, hidden)),
                "dtanh": np.empty((rows, hidden)), "df2": np.empty((rows, d)),
                "df1": np.empty((rows, d)), "dqkv": dqkv, "dq": dq, "sa": sa,
                "ca": {**shared, "dq": dq.reshape(bsz, n, dp)}}
            self._bind_scratch_keys()
        return self.scratch

    def _bind_scratch_keys(self):
        sc, bsz, s, dp = self.scratch, self.bsz, self.s, self.cfg.d_attn
        ca = sc["ca"]
        ca["dz"], ca["dzT"] = _key_major(bsz, s, self.cfg.n_tokens)
        dkv = sc["dkv"] = np.empty((bsz * s, 2 * dp))
        ca["dk"], ca["dv"] = _blocks(dkv, 2, (bsz, s, dp))
        dc = sc["dc"] = np.empty((bsz * s, self.cfg.d_text))
        sc["dc3"] = dc.reshape(bsz, s, -1)


def _binding(ws, cfg, bsz, s):
    """The workspace dict ws's binding for a batch of bsz examples of the
    architecture cfg, built on first use (and anew for another ModelConfig
    object), with its arrays shaped for s keys of cross-attention."""
    b = ws.get(bsz)
    if b is None or b.cfg is not cfg:
        b = ws[bsz] = _Binding(cfg, bsz, s)
    elif b.s != s:
        b.bind_keys(s)
    return b


# the largest |logit| of a self-attention softmax that _attend() takes
# without a shift: exp of a logit in [-600, 600] lies in [2.6e-261,
# 3.8e260], so every term and every sum of fewer than 1e47 of them is a
# finite, normal double
_SHIFT_FREE = 600.0


def _in_range(e):
    """Whether every logit of e lies in [-_SHIFT_FREE, _SHIFT_FREE] (False
    when one is NaN): two whole-array reductions."""
    return bool(np.minimum.reduce(e, axis=None) >= -_SHIFT_FREE
                and np.maximum.reduce(e, axis=None) <= _SHIFT_FREE)


def _attend(a):
    """Single-head softmax attention of the sublayer arrays `a`
    (_attention()): its queries a["q"] (B, N, dp) over its keys a["k"] and
    values a["v"] (B, S, dp), the one kernel of both attention sublayers.
    The queries come from a query weight that already holds the 1/sqrt(dp)
    scale. The logits are one product, a["kb"] @ qT. Cross-attention's kb
    leads each key with its padding bias, 0 for a real key and _PAD for
    padding, and its qT with a row of ones, so the bias is the product's
    first term: a real key's logits are the bytes of k @ q^T (0 + x == x),
    and a padded key's are _PAD, which gets exactly zero weight.

    The softmax is left unnormalized: a["e"] holds e = exp(logits - max),
    key-major, a (B, S, N) with e[b, j, i] the term of key j for query i, so
    the max and the sum reduce across its S rows and broadcast along its
    contiguous query axis, and a["s_q"] each query's sum. The shift by each
    query's max is taken where it is needed: always in cross-attention
    (a["shift"]), whose padded keys hold _PAD; in self-attention only when
    some logit of the call leaves [-_SHIFT_FREE, _SHIFT_FREE], and then
    image by image, for the images whose own logits leave it, so an image's
    bytes never depend on the rest of its batch. Within the range e =
    exp(logits), the same softmax. The output h = (e^T v) / s_q, written to
    a["h3"] (so also its rows a["h"]), is divided instead of the (B, S, N)
    weights. The logits' matmul reads a C-contiguous copy of q^T: OpenBLAS
    multiplies by the transposed view more slowly, for the same bytes."""
    q_view, qT, q_rows = a["qT"]
    q_rows[...] = q_view
    e = np.matmul(a["kb"], qT, out=a["e"])
    # the reductions as ufunc methods, which skip np.max's and np.sum's
    # Python-level dispatch
    if a["shift"]:
        e -= np.maximum.reduce(e, axis=1, keepdims=True, out=a["max"])
    elif not _in_range(e):
        for eb, mb in zip(e, a["max"]):
            if not _in_range(eb):
                eb -= np.maximum.reduce(eb, axis=0, keepdims=True, out=mb)
    np.exp(e, out=e)
    np.add.reduce(e, axis=1, out=a["s_q"])
    h = np.matmul(a["eT"], a["v"], out=a["h3"])
    h /= a["s_q3"]


def _attn_backward(a, g, dout, ko, p, want, grads, dq=True):
    """Backprop through one _attend() on the sublayer arrays `a` and its
    output projection p[ko], for dout given as rows like a["h"]: the
    gradient of ko, summed over the batch, goes into grads when ko is in
    `want`, and the gradients of the kernel's k and v, and of its q when
    `dq`, are written into g["dk"], g["dv"] and g["dq"], views into one
    fused array of the sublayer's backward scratch g. The normalization
    moves onto dh as it did onto h: with dh /= s_q, the softmax weights
    A = e / s_q drop out, dv = e dh and dz = e * (v dh^T - rowsum(dh * h)),
    key-major like e. The row sum is a term of the product: v1, the values
    ahead of a column of ones, times g["dhT1"], the C-contiguous copy of
    dh^T (as in _attend()) above a row of -rowsum(dh * h)."""
    if ko in want:
        grads[ko] = dout.T @ a["h"]
    np.matmul(dout, p[ko], out=g["dh"])
    dh = g["dh3"]
    dh /= a["s_q3"]
    np.matmul(a["e"], dh, out=g["dv"])
    # dz = A * (dA - colsum(A * dA)) with dA = V (s_q dh)^T, computed in
    # place; colsum(A * dA) = s_q rowsum(dh * h), since h = A^T V
    dhT, dhT_copy = g["dhT"]
    dhT_copy[...] = dhT
    rowsum = np.add.reduce(np.multiply(dh, a["h3"], out=g["dhh"]), axis=2, out=g["rowsum"])
    np.negative(rowsum, out=rowsum)
    dz = np.matmul(a["v1"], g["dhT1"], out=g["dz"])
    dz *= a["e"]
    if dq:
        np.matmul(g["dzT"], a["k"], out=g["dq"])
    np.matmul(dz, a["q"], out=g["dk"])


def _stacked_grads(dy, x, keys, want, grads, scale):
    """Weight gradients of the projection y = x W^T, W the weights of `keys`
    stacked by rows in that order, for dy and x given as rows: one matmul
    for all of them when any key is in `want`, split by rows, and kept for
    those in `want`. A query weight ("wq") holds the 1/sqrt(d_attn) scale in
    W, so its gradient is multiplied by `scale`."""
    if want.isdisjoint(keys):
        return
    gw = dy.T @ x
    for key, g in zip(keys, gw.reshape(len(keys), -1, gw.shape[1])):
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


class Weights(NamedTuple):
    """A model's weights as a Context holds them, all but the
    cross-attention K/V: each block's cross-attention query weight s*wq and
    stacked self-attention weights [s*wq; wk; wv], with s = 1/sqrt(d_attn)
    folded into the query weights, one projection matmul each; and the
    transposes of the weights forward() multiplies by, wt[l - 1] =
    ((s*wq cross)^T, wo cross^T, [s*wq; wk; wv]^T self, wo self^T,
    mlp_w1^T, mlp_w2^T) and w_timeT, each a C-contiguous copy, so that no
    product of the pass has a transposed view as its right-hand operand
    (OpenBLAS runs those up to twice as slow, for the same bytes at two or
    more rows). Every array is read-only."""
    wcq: tuple
    wqkv: tuple
    wt: tuple
    w_timeT: np.ndarray


class Context(NamedTuple):
    """B captions as forward() reads them: their features padded to the
    longest, c (B, S, d_text); each caption's length; each block's
    cross-attention keys and values, kv[l - 1] = (kb, k, v, v1): the keys k
    and values v (B, S, d_attn), kb (B, S, 1 + d_attn), the keys behind
    their padding bias column (0 for a real key, _PAD for padding), and v1
    (B, S, d_attn + 1), the values ahead of a column of ones, which
    backward() multiplies by dh^T above a row of -rowsum, all column blocks
    of one (B*S, 2 + 2*d_attn) array; each block's attention
    weights as backward() reads them, w[l - 1] = (s*wq cross, [wk; wv]
    cross, [s*wq; wk; wv] self); and the Weights' transposes wt and
    w_timeT. Every array is read-only."""
    c: np.ndarray
    lengths: list
    kv: tuple
    w: tuple
    wt: tuple
    w_timeT: np.ndarray


class TimeRows(NamedTuple):
    """The time embedding of B timesteps as forward() reads it: their
    sinusoids s_t (B, d_model), which backward() reads, and te = s_t @
    w_time^T, the row added to every pixel's features of each image."""
    s_t: np.ndarray
    te: np.ndarray


def _frozen(a):
    a.setflags(write=False)
    return a


def weights(model):
    """The Weights of the model's current weights. They stay valid while
    only its cross-attention K/V weights change."""
    p = model.params
    scale = model.config.d_attn ** -0.5
    wcq, wqkv, wt = [], [], []
    for l in range(1, model.config.blocks + 1):
        (cq, _, _, co), (sq, sk, sv, so), (k1, k2) = _block_keys(l)
        wcq.append(_frozen(scale * p[cq]))
        wqkv.append(_frozen(np.concatenate([scale * p[sq], p[sk], p[sv]])))
        wt.append(tuple(_frozen(a.T.copy())
                        for a in (wcq[-1], p[co], wqkv[-1], p[so], p[k1], p[k2])))
    return Weights(tuple(wcq), tuple(wqkv), tuple(wt), _frozen(p[_W_TIME].T.copy()))


def context(model, captions, fixed=None):
    """The Context of a list of B >= 1 caption-feature arrays (s_b, d_text),
    s_b >= 1, projected with the model's current cross-attention K/V
    weights, which it holds with the other weights the passes multiply by:
    those of `fixed`, the model's Weights (built anew when None), which
    must be current. It is valid only for those weights: build a new one
    after any update."""
    cfg = model.config
    p = model.params
    c = [np.asarray(cb, dtype=np.float64) for cb in captions]
    if not c or any(cb.ndim != 2 or cb.shape[0] < 1 or cb.shape[1] != cfg.d_text for cb in c):
        raise InvalidInput(f"expected at least one caption, each of caption features "
                           f"(s, {cfg.d_text}) with s >= 1")
    fixed = weights(model) if fixed is None else fixed
    lengths = [cb.shape[0] for cb in c]
    bsz, s, dp = len(c), max(lengths), cfg.d_attn
    cpad = np.zeros((bsz, s, cfg.d_text))
    for i, cb in enumerate(c):
        cpad[i, :lengths[i]] = cb
    rows = cpad.reshape(bsz * s, -1)
    bias = np.where(np.arange(s) < np.array(lengths)[:, None], 0.0, _PAD).reshape(-1)
    w, kv = [], []
    for l, wcq, wqkv in zip(range(1, cfg.blocks + 1), fixed.wcq, fixed.wqkv):
        _, ck, cv, _ = _block_keys(l)[0]
        wckv = _frozen(np.concatenate([p[ck], p[cv]]))
        w.append((wcq, wckv, wqkv))
        bkv = np.empty((bsz * s, 2 + 2 * dp))
        bkv[:, 0] = bias
        bkv[:, 1:-1] = rows @ wckv.T.copy()
        bkv[:, -1] = 1.0
        _frozen(bkv)
        kv.append((bkv[:, :1 + dp].reshape(bsz, s, -1),
                   *_blocks(bkv[:, 1:-1], 2, (bsz, s, dp)),
                   bkv[:, 1 + dp:].reshape(bsz, s, -1)))
    return Context(_frozen(cpad), lengths, tuple(kv), tuple(w), fixed.wt, fixed.w_timeT)


def time_rows(ctx, t):
    """The TimeRows of the timesteps t, B of them (B,) or a stack of such
    sets (L, B), under ctx's w_time. A stack runs one sinusoid and one
    stacked product, in which each set is a (B, d) @ (d, d) product of its
    own: the kernel, and so the bytes, of a call on that set alone (numpy
    runs a 1-row product as a matrix-vector one, which rounds differently)."""
    t = np.asarray(t)
    d = ctx.w_timeT.shape[0]
    s_t = sinusoidal_embedding(t.reshape(-1), d).reshape(t.shape + (d,))
    return TimeRows(s_t, np.matmul(s_t, ctx.w_timeT))


def ladder(ctx, ts):
    """The TimeRows of each timestep of the ladder ts for ctx's B captions,
    each timestep repeated per caption: one time_rows() over the stack of
    them, split into read-only views by step."""
    t = np.repeat(ts, len(ctx.lengths)).reshape(len(ts), -1)
    return [TimeRows(*rows) for rows in zip(*map(_frozen, time_rows(ctx, t)))]


def forward(model, x_t, t, ctx, workspace=None):
    """Forward pass over a batch: x_t (B, H, W), t holds B timesteps (or is
    their TimeRows under ctx, a step of ladder()) and ctx is the Context of
    B captions, built by context() from the model's current weights; a
    context built before a weight update is stale, and InvalidInput is
    raised when it or t holds another count than x_t images. Padded keys
    get zero attention weight. The features of all B images run as one
    (B*h*w, d_model) array of rows. Each attention
    sublayer runs one projection matmul in (cross-attention's queries,
    self-attention's q, k and v as the column blocks of one
    (B*h*w, 3*d_attn) array), then _attend(), which keeps its unnormalized
    weights key-major, e (B, S, N), and each query's sum s_q, and one matmul
    back through the output projection. Every weight is read from the
    context's C-contiguous transposes, ctx.wt and ctx.w_timeT.

    `workspace` is a dict the caller keeps across calls (a fresh one when
    None). It holds one binding per batch size (_Binding): every array the
    pass writes, and that backward() writes, allocated on the binding's
    first use with the views the passes read, so a loop that keeps one
    workspace allocates them once per batch size; a change of the longest
    caption rebuilds only the arrays shaped by it. The cache holds views
    into the binding, valid until the next call with that workspace and
    batch size, and into ctx; eps never does. Returns (eps (B, H, W),
    cache)."""
    cfg = model.config
    p = model.params
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim != 3 or x_t.shape[0] < 1 or x_t.shape[1:] != (cfg.height, cfg.width):
        raise InvalidInput(f"expected images of shape (B, {cfg.height}, {cfg.width}) "
                           f"with B >= 1, got {x_t.shape}")
    bsz, d = x_t.shape[0], cfg.d_model
    if not isinstance(t, TimeRows):
        t = np.asarray(t)
        if t.shape != (bsz,):
            raise InvalidInput(f"expected {bsz} timesteps, got {t.shape}")
        t = time_rows(ctx, t)
    if len(t.te) != bsz or len(ctx.lengths) != bsz:
        raise InvalidInput(f"expected the time rows and a context of {bsz} captions, "
                           f"got {len(t.te)} and {len(ctx.lengths)}")
    b = _binding({} if workspace is None else workspace, cfg, bsz, ctx.c.shape[1])

    x = x_t.reshape(-1)
    # the outer product of the pixels and w_pix as a matmul over a length-1
    # axis, which (unlike np.outer) needs no temporary buffers
    np.matmul(x[:, None], p[_W_PIX], out=b.f0)
    b.f0_3 += positional_grid(cfg)
    b.f0_3 += t.te[:, None, :]

    for bc, kv, (wcq, wco, wqkv, wso, w1, w2) in zip(b.blocks, ctx.kv, ctx.wt):
        f, ca = bc["f"], bc["ca"]
        # cross-attention first, so its output is decoded by the rest of the
        # block (and any later blocks) rather than feeding the output
        # projection directly
        np.matmul(f, wcq, out=bc["cq"])
        ca["kb"], ca["k"], ca["v"], ca["v1"] = kv
        _attend(ca)
        f1 = np.matmul(ca["h"], wco, out=bc["f1"])
        f1 += f
        # self-attention
        np.matmul(f1, wqkv, out=bc["qkv"])
        _attend(bc["sa"])
        f2 = np.matmul(bc["sa"]["h"], wso, out=bc["f2"])
        f2 += f1
        # residual MLP (tanh; smooth for finite-difference checks)
        r = np.matmul(f2, w1, out=bc["r"])
        np.tanh(r, out=r)
        out = np.matmul(r, w2, out=bc["out"])
        out += f2
    # readout scaled by 1/d_model so the trained head keeps a healthy norm
    eps = (b.out @ p[_W_OUT][0]) / d
    return eps.reshape(x_t.shape), {"x": x, "s_t": t.s_t, "ctx": ctx, "binding": b,
                                    "blocks": b.blocks}


def backward(model, cache, d_eps, keys=None):
    """Backprop through forward(). It reads the activations of the binding
    of the forward pass that made `cache` and writes into that binding's
    backward scratch arrays, one set that the blocks share, as they run one
    after another, built by the binding's first backward() call. Each
    attention sublayer writes its q, k and v gradients as the column blocks
    of one array (self-attention's q, k and v; cross-attention's k and v),
    so its input gradient is one matmul with the context's stacked weights,
    and the gradients of its wanted stacked weights one more
    (_stacked_grads()). It stops at the lowest wanted weight: block 1's
    cross-attention query gradient, and the input gradient below it, are
    computed only when a weight there (that query weight, w_pix or w_time)
    is wanted, which a kv_only step never does. Returns (grads, d_c): grads
    maps each ParamKey in `keys` (every key when None) to its gradient
    summed over the batch, and d_c lists each example's text-feature
    gradient, cut back to its caption's length. Neither shares memory with
    the workspace."""
    cfg = model.config
    p = model.params
    want = set(p) if keys is None else set(keys)
    grads = {}
    x, ctx, b = cache["x"], cache["ctx"], cache["binding"]
    bsz, s = ctx.c.shape[:2]
    crows = ctx.c.reshape(bsz * s, -1)
    d_c = np.zeros_like(ctx.c)
    d = cfg.d_model
    scale = cfg.d_attn ** -0.5
    below = not want.isdisjoint((_block_keys(1)[0][0], _W_PIX, _W_TIME))

    deps = np.asarray(d_eps, dtype=np.float64).reshape(x.shape)
    if _W_OUT in want:
        grads[_W_OUT] = (b.out.T @ deps)[None, :] / d
    sc = b.backward_scratch()
    df = np.matmul(deps[:, None], p[_W_OUT], out=sc["df"])
    df /= d

    for l, bc in zip(range(cfg.blocks, 0, -1), reversed(b.blocks)):
        cross, self_attn, (k1, k2) = _block_keys(l)
        wcq, wckv, wqkv = ctx.w[l - 1]
        r = bc["r"]
        # MLP residual
        if k2 in want:
            grads[k2] = df.T @ r
        dh1 = np.matmul(df, p[k2], out=sc["dh1"])
        # 1 - r^2, the derivative of tanh
        dtanh = np.square(r, out=sc["dtanh"])
        np.subtract(1.0, dtanh, out=dtanh)
        dh1 *= dtanh
        if k1 in want:
            grads[k1] = dh1.T @ bc["f2"]
        df2 = np.matmul(dh1, p[k1], out=sc["df2"])
        # the last read of df, the scratch array that this block's
        # cross-attention step overwrites
        df2 += df
        # self-attention residual
        _attn_backward(bc["sa"], sc["sa"], df2, self_attn[3], p, want, grads)
        _stacked_grads(sc["dqkv"], bc["f1"], self_attn[:3], want, grads, scale)
        df1 = np.matmul(sc["dqkv"], wqkv, out=sc["df1"])
        df1 += df2
        # cross-attention residual
        dq = l > 1 or below
        _attn_backward(bc["ca"], sc["ca"], df1, cross[3], p, want, grads, dq)
        _stacked_grads(sc["dq"], bc["f"], cross[:1], want, grads, scale)
        _stacked_grads(sc["dkv"], crows, cross[1:3], want, grads, scale)
        np.matmul(sc["dkv"], wckv, out=sc["dc"])
        d_c += sc["dc3"]
        if dq:
            df = np.matmul(sc["dq"], wcq, out=sc["df"])
            df += df1

    # input embedding
    if _W_PIX in want:
        grads[_W_PIX] = (df.T @ x)[None, :]
    if _W_TIME in want:
        grads[_W_TIME] = df.reshape(bsz, -1, d).sum(axis=1).T @ cache["s_t"]
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
