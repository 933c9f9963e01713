"""Selective fine-tuning: gradient descent on the noise-prediction loss
restricted to cross-attention key/value projections plus modifier-token
embeddings, the fine-tune-all baseline, joint and sequential multi-concept
training, and base-model pretraining."""

from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from . import denoiser, diffusion, textmod
from .config import DEFAULT_CONFIG
from .denoiser import KV_ROLES
from .errors import DivergenceError, InvalidInput, NumericalFailure

SCOPE_KV_ONLY = "kv_only"
SCOPE_ALL = "all_unet"

_TRAIN = DEFAULT_CONFIG["train"]
_PRETRAIN = DEFAULT_CONFIG["pretrain"]


@dataclass
class FineTuneConfig:
    steps: int = _TRAIN["steps"]
    learning_rate: float = _TRAIN["learning_rate"]
    batch: int = _TRAIN["batch"]
    trainable_scope: str = _TRAIN["trainable_scope"]   # kv_only | all_unet
    use_reg: str = _TRAIN["use_reg"]                   # retrieved | generated | none
    use_aug: bool = _TRAIN["use_aug"]
    seed: int = _TRAIN["seed"]
    train_modifier: bool = _TRAIN["train_modifier"]    # off: the no-modifier-optimization ablation
    cond_dropout: float = 0.0

    def __post_init__(self):
        if self.steps < 0:
            raise InvalidInput("steps must be >= 0")
        if self.learning_rate <= 0:
            raise InvalidInput("learning_rate must be positive")
        if self.batch < 2:
            raise InvalidInput("batch must be >= 2")
        if self.trainable_scope not in (SCOPE_KV_ONLY, SCOPE_ALL):
            raise InvalidInput(f"unknown scope {self.trainable_scope!r}")
        if self.use_reg not in ("retrieved", "generated", "none"):
            raise InvalidInput(f"unknown use_reg {self.use_reg!r}")


@dataclass
class TrainReport:
    loss_curve: np.ndarray
    model: denoiser.DenoiserNet = field(repr=False)


def trainable_set(model, scope):
    """Registry keys updated under the given scope. Modifier embeddings are
    handled separately from the registry."""
    if scope == SCOPE_ALL:
        return set(model.params.keys())
    if scope == SCOPE_KV_ONLY:
        return {k for k in model.params if k.role in KV_ROLES}
    raise InvalidInput(f"unknown scope {scope!r}")


def sgd_step(params, grads, lr):
    """p <- p - lr * g for every key present in grads. Pure: returns new dict."""
    out = {}
    for k, p in params.items():
        g = grads.get(k)
        if g is None:
            out[k] = p.copy()
            continue
        if not np.all(np.isfinite(g)):
            raise NumericalFailure(f"non-finite gradient for {k}")
        out[k] = p - lr * g
    return out


def batch_gradients(model, examples, sched, rng, modifier_indices=(),
                    cond_dropout=0.0, keys=None):
    """Average loss and gradients over a batch of (image, caption, mask) draws.

    examples: iterable of (AugmentedSample-or-ConceptExample). Each example
    draws, in order, its caption dropout, its timestep and its noise; then one
    forward and one backward pass run over the whole batch. Returns
    (loss, grads, emb_grads): grads maps each registry key in `keys` (every
    key when None) to its gradient, and emb_grads maps modifier token index to
    the gradient of its embedding row.
    """
    vocab = model.vocab
    x_t, ts, cs, draws = [], [], [], []
    for ex in examples:
        caption = ex.caption
        if cond_dropout > 0.0 and rng.random() < cond_dropout:
            caption = ""    # the unconditional branch used by guidance
        t = int(rng.integers(1, sched.T + 1))
        eps = rng.standard_normal(ex.image.shape)
        seq = textmod.tokenize(vocab, caption)
        x_t.append(diffusion.forward_noise(ex.image, t, eps, sched))
        ts.append(t)
        cs.append(textmod.encode_caption(vocab, seq))
        mask = getattr(ex, "valid_mask", None)
        draws.append((eps, np.ones(eps.shape) if mask is None else mask, seq))
    n = len(draws)
    if n == 0:
        raise InvalidInput("empty batch")
    eps_pred, cache = denoiser.forward(model, np.stack(x_t), ts, cs)
    total_loss = 0.0
    d_pred = np.empty_like(eps_pred)
    for i, (eps, mask, _) in enumerate(draws):
        total_loss += diffusion.masked_loss(eps, eps_pred[i], mask)
        d_pred[i] = -2.0 * mask * (eps - eps_pred[i]) / (mask.sum() * n)
    grads, d_c = denoiser.backward(model, cache, d_pred, keys)
    # Only registered trainable rows receive embedding gradient; the start
    # token and the rest of the table stay frozen. Summation order is fixed
    # for determinism.
    emb_grads = {i: np.zeros(vocab.dim) for i in modifier_indices}
    for (_, _, seq), dc in zip(draws, d_c):
        for pos, tok in enumerate(seq):
            if tok in emb_grads:
                emb_grads[tok] += dc[pos]
    return total_loss / n, grads, emb_grads


def _train(model, targets, reg, cfg, sched, modifier_indices):
    """Train `model` in place on balanced target/regularization batches, every
    draw from one generator seeded with cfg.seed; `reg` is unused under use_reg none."""
    rng = np.random.default_rng(cfg.seed)
    trainable = trainable_set(model, cfg.trainable_scope)
    stream = datamod.balanced_batches(targets, reg if cfg.use_reg != "none" else None,
                                      cfg.batch, rng)
    sched = sched or diffusion.NoiseSchedule.linear()
    loss_curve = []
    initial_loss = None
    for _ in range(cfg.steps):
        raw = next(stream)
        batch = []
        for ex, is_target in raw:
            if cfg.use_aug and is_target:
                batch.append(datamod.augment(ex, rng))
            else:
                batch.append(ex)
        loss, grads, emb_grads = batch_gradients(
            model, batch, sched, rng,
            modifier_indices=modifier_indices if cfg.train_modifier else (),
            cond_dropout=cfg.cond_dropout, keys=trainable)
        updated = sgd_step({k: model.params[k] for k in trainable}, grads,
                           cfg.learning_rate)
        for k, v in updated.items():
            model.params[k] = v
        for idx, g in emb_grads.items():      # empty unless cfg.train_modifier
            if not np.all(np.isfinite(g)):
                raise NumericalFailure(f"non-finite modifier gradient (token {idx})")
            model.vocab.embeddings[idx] -= cfg.learning_rate * g
        loss_curve.append(loss)
        if initial_loss is None:
            initial_loss = max(loss, 1e-12)
        if not np.isfinite(loss) or loss > 1e3 * initial_loss:
            raise DivergenceError(f"loss {loss:.3g} diverged from initial {initial_loss:.3g}")
    return np.asarray(loss_curve)


def finetune(model, concepts, cfg, reg=None, sched=None):
    """Fine-tune on one or more concepts (joint training when len > 1).

    concepts: list of (examples, ModifierToken-or-None). Modifier tokens must
    already be registered in the model vocabulary and be distinct. Only the
    scope's registry entries and modifier embeddings change.
    """
    mods = [m for _, m in concepts if m is not None]
    if len({m.name for m in mods}) != len(mods):
        raise InvalidInput("concepts must use distinct modifier tokens")
    for examples, _ in concepts:
        if not examples:
            raise InvalidInput("each concept needs at least one example")
    tuned = model.clone()
    targets = [ex for examples, _ in concepts for ex in examples]
    curve = _train(tuned, targets, reg, cfg, sched, tuple(m.token_index for m in mods))
    return TrainReport(loss_curve=curve, model=tuned)


def finetune_sequential(model, concept_a, concept_b, cfg, reg=None, sched=None):
    """Train on concept_a, then continue from the result on concept_b."""
    rep_a = finetune(model, [concept_a], cfg, reg, sched)
    rep_b = finetune(rep_a.model, [concept_b], cfg, reg, sched)
    return TrainReport(loss_curve=np.concatenate([rep_a.loss_curve, rep_b.loss_curve]),
                       model=rep_b.model)


def pretrain(vocab, dataset, model_cfg=None, sched=None, steps=_PRETRAIN["steps"],
             learning_rate=_PRETRAIN["learning_rate"], batch=_PRETRAIN["batch"],
             seed=_PRETRAIN["seed"], cond_dropout=_PRETRAIN["cond_dropout"],
             init_seed=_PRETRAIN["init_seed"]):
    """Train a base model from scratch on a captioned dataset, with caption
    dropout so classifier-free guidance has a meaningful unconditional branch."""
    model = denoiser.build_model(model_cfg, seed=init_seed, vocab=vocab.clone())
    cfg = FineTuneConfig(steps=steps, learning_rate=learning_rate, batch=batch,
                         trainable_scope=SCOPE_ALL, use_reg="none", use_aug=False,
                         seed=seed, cond_dropout=cond_dropout)
    curve = _train(model, dataset, None, cfg, sched, ())
    return model, curve
