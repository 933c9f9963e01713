"""Selective fine-tuning: gradient descent on the noise-prediction loss
restricted to cross-attention key/value projections plus modifier-token
embeddings, one in-place update for both, the fine-tune-all baseline, joint
and sequential multi-concept training, and base-model pretraining."""

from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from . import denoiser, diffusion, textmod
from .config import DEFAULT_CONFIG, check_section
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
        check_section("train", {k: getattr(self, k) for k in _TRAIN})
        check_section("pretrain", {"cond_dropout": self.cond_dropout})


@dataclass
class TrainReport:
    loss_curve: np.ndarray
    model: denoiser.DenoiserNet = field(repr=False)


def trainable_set(model, scope):
    """Registry keys updated under the given scope. Modifier embedding rows
    are not registry entries; _train updates them beside these keys."""
    check_section("train", {"trainable_scope": scope})
    return {k for k in model.params if scope == SCOPE_ALL or k.role in KV_ROLES}


def sgd_step(arrays, grads, lr):
    """arrays[k] -= lr * g in place for every key k of grads, once every
    gradient is known to be finite: a NumericalFailure changes no array.
    An array with no gradient is left untouched."""
    for k, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalFailure(f"non-finite gradient for {k}")
    for k, g in grads.items():
        arrays[k] -= lr * g


def batch_gradients(model, examples, sched, rng, modifier_indices=(),
                    cond_dropout=0.0, keys=None, workspace=None, fixed=None):
    """Average loss and gradients over a batch of (image, caption, mask) draws.

    examples: iterable of (AugmentedSample-or-ConceptExample), each image of
    the model's shape (InvalidInput otherwise). Each example in turn draws
    its caption dropout, its timestep and its noise, and has its caption
    tokenized and encoded; the rest runs once over the whole batch: the
    noised images (diffusion.forward_noise), one caption context built from
    the model's current weights, one forward pass, each image's masked loss
    (diffusion.masked_loss) and its gradient, and one backward pass. The
    batch loss is the mean of the per-image losses, added in example order.
    Returns (loss, grads, emb_grads): grads maps each registry key in `keys`
    (every key when None) to its gradient, and emb_grads maps modifier token
    index to the gradient of its embedding row. `workspace` is passed to
    denoiser.forward; no returned array shares memory with it. `fixed` is
    passed to denoiser.context: the model's current denoiser.Weights, or
    None to build them.
    """
    vocab = model.vocab
    examples = list(examples)
    n = len(examples)
    if n == 0:
        raise InvalidInput("empty batch")
    shape = model.image_shape
    x0, eps, masks = (np.empty((n,) + shape) for _ in range(3))
    ts, cs, seqs = [], [], []
    for i, ex in enumerate(examples):
        mask = getattr(ex, "valid_mask", None)
        for what, arr in (("image", ex.image), ("mask", mask)):
            if arr is not None and arr.shape != shape:
                raise InvalidInput(f"example {i} has a {arr.shape} {what}; "
                                   f"the model takes {shape}")
        caption = ex.caption
        if cond_dropout > 0.0 and rng.random() < cond_dropout:
            caption = ""    # the unconditional branch used by guidance
        ts.append(int(rng.integers(1, sched.T + 1)))
        rng.standard_normal(out=eps[i])
        x0[i] = ex.image
        masks[i] = 1.0 if mask is None else mask
        seqs.append(textmod.tokenize(vocab, caption))
        cs.append(textmod.encode_caption(vocab, seqs[-1]))
    x_t = diffusion.forward_noise(x0, ts, eps, sched)
    eps_pred, cache = denoiser.forward(model, x_t, ts, denoiser.context(model, cs, fixed),
                                      workspace)
    # added in example order: np.sum pairs the terms, which rounds differently
    total_loss = 0.0
    for loss in diffusion.masked_loss(eps, eps_pred, masks).tolist():
        total_loss += loss
    d_pred = -2.0 * masks * (eps - eps_pred) / (masks.sum(axis=(1, 2)) * n)[:, None, None]
    grads, d_c = denoiser.backward(model, cache, d_pred, keys)
    # Only registered trainable rows receive embedding gradient; the start
    # token and the rest of the table stay frozen. Summation order is fixed
    # for determinism.
    emb_grads = {i: np.zeros(vocab.dim) for i in modifier_indices}
    for seq, dc in zip(seqs, d_c):
        for pos, tok in enumerate(seq):
            if tok in emb_grads:
                emb_grads[tok] += dc[pos]
    return total_loss / n, grads, emb_grads


def _train(model, targets, reg, cfg, sched, modifier_indices):
    """Train `model` in place on balanced target/regularization batches, every
    draw from one generator seeded with cfg.seed; `reg` is unused under use_reg none.
    Every step's forward and backward pass share one denoiser workspace, and
    one sgd_step updates the arrays training changes: the scope's registry
    arrays and, under cfg.train_modifier, views of the modifier rows of the
    vocabulary's embeddings, keyed by token index as batch_gradients keys
    their gradients. When every trainable weight is a cross-attention K/V
    one (kv_only), no weight a denoiser.Weights holds changes, so every
    step's context shares one; otherwise each step builds its own."""
    rng = np.random.default_rng(cfg.seed)
    workspace = {}
    trainable = trainable_set(model, cfg.trainable_scope)
    fixed = denoiser.weights(model) if all(k.role in KV_ROLES for k in trainable) else None
    mods = modifier_indices if cfg.train_modifier else ()
    arrays = {**{k: model.params[k] for k in trainable},
              **{i: model.vocab.embeddings[i] for i in mods}}
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
            model, batch, sched, rng, modifier_indices=mods,
            cond_dropout=cfg.cond_dropout, keys=trainable, workspace=workspace, fixed=fixed)
        sgd_step(arrays, {**grads, **emb_grads}, cfg.learning_rate)
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
    check_section("pretrain", {"steps": steps, "learning_rate": learning_rate, "batch": batch,
                               "seed": seed, "cond_dropout": cond_dropout,
                               "init_seed": init_seed})
    model = denoiser.build_model(model_cfg, seed=init_seed, vocab=vocab.clone())
    cfg = FineTuneConfig(steps=steps, learning_rate=learning_rate, batch=batch,
                         trainable_scope=SCOPE_ALL, use_reg="none", use_aug=False,
                         seed=seed, cond_dropout=cond_dropout)
    curve = _train(model, dataset, None, cfg, sched, ())
    return model, curve
