"""DDPM forward process, noise-prediction loss, and guided ancestral sampling."""

import math
from dataclasses import dataclass

import numpy as np

from . import denoiser, textmod
from .config import DEFAULT_CONFIG, check_section
from .errors import InvalidInput, NumericalFailure


_SCHEDULE = DEFAULT_CONFIG["schedule"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear-beta DDPM schedule. Timesteps are 1-based; alpha_bar[t-1] stores
    the cumulative product at step t and alpha_bar_at(0) == 1 by convention.
    T, beta_start and beta_end are kept as given so a checkpoint can rebuild
    the exact same betas."""

    betas: np.ndarray
    alpha_bar: np.ndarray
    T: int
    beta_start: float
    beta_end: float

    @classmethod
    def linear(cls, T=_SCHEDULE["T"], beta_start=_SCHEDULE["beta_start"],
               beta_end=_SCHEDULE["beta_end"]):
        check_section("schedule", {"T": T, "beta_start": beta_start, "beta_end": beta_end})
        # betas are tuned for 1000-step chains; rescaling keeps alpha_bar_T
        # comparable when running shorter chains.
        betas = np.linspace(beta_start, beta_end, T) * (1000.0 / T)
        if not np.all((betas > 0.0) & (betas < 1.0)):
            raise InvalidInput("beta schedule leaves (0,1); reduce beta_end or increase T")
        alpha_bar = np.cumprod(1.0 - betas)
        # the sampler divides by 1 - alpha_bar and by alpha_bar, which falls
        # from its first value to its last
        if not (alpha_bar[0] < 1.0 and alpha_bar[-1] > 0.0):
            raise InvalidInput(f"alpha_bar reaches {alpha_bar[0]!r}..{alpha_bar[-1]!r}, "
                               "outside (0, 1): betas too small to change the image "
                               "or too large for a chain of this length")
        return cls(betas=betas, alpha_bar=alpha_bar, T=T, beta_start=beta_start,
                   beta_end=beta_end)

    def alpha_bar_at(self, t):
        if t == 0:
            return 1.0
        if not 1 <= t <= self.T:
            raise InvalidInput(f"timestep {t} outside [1, {self.T}]")
        return float(self.alpha_bar[t - 1])


def forward_noise(x0, t, eps, sched):
    """x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps, for one image and one
    timestep t, or for a batch x0 (B, H, W) with t holding one timestep per
    image."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise InvalidInput(f"shape mismatch: x0 {x0.shape} vs eps {eps.shape}")
    t = np.asarray(t)
    if t.ndim == 0:
        ab = sched.alpha_bar_at(int(t))
    elif x0.ndim == 3 and t.shape == x0.shape[:1]:
        ab = np.array([sched.alpha_bar_at(s) for s in t.tolist()])[:, None, None]
    else:
        raise InvalidInput(f"expected one timestep per image of {x0.shape}, got {t.shape}")
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def masked_loss(eps, eps_pred, mask):
    """MSE restricted to pixels where mask == 1; used for valid-region
    training. (B, H, W) inputs give an array of B losses, one per image;
    inputs of any other shape give one float over all their pixels."""
    eps = np.asarray(eps, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if not (eps.shape == eps_pred.shape == mask.shape):
        raise InvalidInput("shape mismatch in masked_loss")
    axes = (1, 2) if eps.ndim == 3 else None
    total = mask.sum(axis=axes)
    if np.any(total == 0):
        raise InvalidInput("mask selects no pixels")
    diff = (eps - eps_pred) * mask
    loss = np.sum(diff * diff, axis=axes) / total
    return loss if axes else float(loss)


def sampling_timesteps(T, steps):
    """Descending, deduplicated timestep ladder for a respaced reverse chain."""
    check_section("sampler", {"steps": steps})
    if steps > T:
        raise InvalidInput(f"steps ({steps}) cannot exceed chain length T ({T})")
    ts = np.unique(np.round(np.linspace(1, T, steps)).astype(int))
    return ts[::-1]


def sample_cfg(model, cond, steps, scale, seed, sched, uncond=None):
    """Ancestral DDPM sampling with classifier-free guidance.

    Guidance is eps_u + scale * (eps_c - eps_u). Each step is one
    denoiser.forward over both branches as a batch of two (the shorter
    caption padded); at scale == 1 the batch holds the conditional branch
    alone and uncond is never run. The predicted x0 is clipped to the image
    range [-1, 1]. The steps share one caption context, one batch buffer and
    one denoiser workspace, whose binding for the batch is built by the
    first step. Before the first step, every step's time embedding is
    computed (denoiser.ladder(): one sinusoid and one w_time product over
    the ladder), so are its coefficients, and its ancestral noise is drawn
    from the sample's generator; each step then combines the branches,
    estimates x0, clips it and takes the posterior update in place, in the
    state x and in the step's own arrays (its forward output and its
    noise). A non-finite guided prediction raises NumericalFailure naming
    its step; a finite one keeps x finite, since x0 is clipped.
    Deterministic for a fixed seed.
    """
    check_section("sampler", {"scale": scale})
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    if scale != 1.0 and uncond is None:
        raise InvalidInput("uncond features required when scale != 1")
    captions = (cond,) if scale == 1.0 else (cond, uncond)
    ts = sampling_timesteps(sched.T, steps)
    # each step's coefficients as Python floats, from alpha-bar at the step
    # and at the step after it; the chain ends at alpha_bar_at(0) == 1
    ab = sched.alpha_bar[ts - 1].tolist()
    coefs = []
    for ab_t, ab_p in zip(ab, ab[1:] + [1.0]):
        beta_eff = 1.0 - ab_t / ab_p
        coefs.append((math.sqrt(1.0 - ab_t), math.sqrt(ab_t),
                      math.sqrt(ab_p) * beta_eff / (1.0 - ab_t),
                      math.sqrt(ab_t / ab_p) * (1.0 - ab_p) / (1.0 - ab_t),
                      beta_eff * (1.0 - ab_p) / (1.0 - ab_t)))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(model.image_shape)
    # one draw for the noise of every step with a positive variance (all
    # but the last, where ab_p == 1): the values one draw per step gives
    noise = iter(rng.standard_normal((sum(c[4] > 0 for c in coefs),) + x.shape))
    ctx = denoiser.context(model, captions)
    batch = np.empty((len(captions),) + x.shape)
    workspace = {}
    # the loop checks each prediction itself and raises a typed error, so
    # numpy's overflow and invalid-value warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t, rows, (sd_t, sa_t, coef_x0, coef_xt, var) in zip(
                ts.tolist(), denoiser.ladder(ctx, ts), coefs):
            batch[:] = x
            eps, _ = denoiser.forward(model, batch, rows, ctx, workspace)
            # eps_hat = eps_u + scale * (eps_c - eps_u), written over eps_c
            g = eps[0]
            if scale != 1.0:
                g -= eps[1]
                g *= scale
                g += eps[1]
            if not np.isfinite(g).all():
                raise NumericalFailure(f"non-finite noise prediction at t={t}")
            # x0_hat = clip((x - sd_t * eps_hat) / sa_t, -1, 1)
            g *= sd_t
            np.subtract(x, g, out=g)
            g /= sa_t
            np.maximum(g, -1.0, out=g)
            np.minimum(g, 1.0, out=g)
            # x = coef_x0 * x0_hat + coef_xt * x, plus sqrt(var) * noise
            g *= coef_x0
            x *= coef_xt
            x += g
            if var > 0:
                z = next(noise)
                z *= math.sqrt(var)
                x += z
    return x


def sample_prompt(model, prompt, count, seed, sched, steps, scale):
    """`count` guided samples of one prompt from `model` (which also exposes
    its vocabulary), drawn with seeds seed, seed + 1, ..."""
    vocab = model.vocab
    cond = textmod.encode_caption(vocab, textmod.tokenize(vocab, prompt))
    uncond = textmod.encode_caption(vocab, textmod.tokenize(vocab, ""))
    return [sample_cfg(model, cond, steps, scale, seed + i, sched, uncond=uncond)
            for i in range(count)]
