"""DDPM forward process, noise-prediction loss, and guided ancestral sampling."""

from dataclasses import dataclass

import numpy as np

from . import denoiser, textmod
from .config import DEFAULT_CONFIG
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
        if T < 1:
            raise InvalidInput("T must be >= 1")
        # betas are tuned for 1000-step chains; rescaling keeps alpha_bar_T
        # comparable when running shorter chains.
        betas = np.linspace(beta_start, beta_end, T) * (1000.0 / T)
        if not np.all((betas > 0.0) & (betas < 1.0)):
            raise InvalidInput("beta schedule leaves (0,1); reduce beta_end or increase T")
        alpha_bar = np.cumprod(1.0 - betas)
        return cls(betas=betas, alpha_bar=alpha_bar, T=T, beta_start=beta_start,
                   beta_end=beta_end)

    def alpha_bar_at(self, t):
        if t == 0:
            return 1.0
        if not 1 <= t <= self.T:
            raise InvalidInput(f"timestep {t} outside [1, {self.T}]")
        return float(self.alpha_bar[t - 1])


def forward_noise(x0, t, eps, sched):
    """x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise InvalidInput(f"shape mismatch: x0 {x0.shape} vs eps {eps.shape}")
    ab = sched.alpha_bar_at(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def masked_loss(eps, eps_pred, mask):
    """MSE restricted to pixels where mask == 1; used for valid-region training."""
    eps = np.asarray(eps, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if not (eps.shape == eps_pred.shape == mask.shape):
        raise InvalidInput("shape mismatch in masked_loss")
    total = mask.sum()
    if total == 0:
        raise InvalidInput("mask selects no pixels")
    diff = (eps - eps_pred) * mask
    return float(np.sum(diff * diff) / total)


def sampling_timesteps(T, steps):
    """Descending, deduplicated timestep ladder for a respaced reverse chain."""
    if steps < 1:
        raise InvalidInput("steps must be >= 1")
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
    range [-1, 1]. Deterministic for a fixed seed.
    """
    if scale < 0:
        raise InvalidInput("scale must be non-negative")
    if scale != 1.0 and uncond is None:
        raise InvalidInput("uncond features required when scale != 1")
    captions = (cond,) if scale == 1.0 else (cond, uncond)
    ts = sampling_timesteps(sched.T, steps)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(model.image_shape)
    for i, t in enumerate(ts):
        t = int(t)
        eps, _ = denoiser.forward(model, np.stack([x] * len(captions)),
                                  (t,) * len(captions), captions)
        eps_hat = eps[0] if scale == 1.0 else eps[1] + scale * (eps[0] - eps[1])
        if not np.all(np.isfinite(eps_hat)):
            raise NumericalFailure(f"non-finite noise prediction at t={t}")
        ab_t = sched.alpha_bar_at(t)
        t_prev = int(ts[i + 1]) if i + 1 < len(ts) else 0
        ab_p = sched.alpha_bar_at(t_prev)
        x0_hat = np.clip((x - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t), -1.0, 1.0)
        beta_eff = 1.0 - ab_t / ab_p
        coef_x0 = np.sqrt(ab_p) * beta_eff / (1.0 - ab_t)
        coef_xt = np.sqrt(ab_t / ab_p) * (1.0 - ab_p) / (1.0 - ab_t)
        mean = coef_x0 * x0_hat + coef_xt * x
        var = beta_eff * (1.0 - ab_p) / (1.0 - ab_t)
        if t_prev == 0 or var <= 0:
            x = mean
        else:
            x = mean + np.sqrt(var) * rng.standard_normal(x.shape)
        if not np.all(np.isfinite(x)):
            raise NumericalFailure(f"non-finite sample state at t={t}")
    return x


def sample_prompt(model, prompt, count, seed, sched, steps, scale):
    """`count` guided samples of one prompt from `model` (which also exposes
    its vocabulary), drawn with seeds seed, seed + 1, ..."""
    vocab = model.vocab
    cond = textmod.encode_caption(vocab, textmod.tokenize(vocab, prompt))
    uncond = textmod.encode_caption(vocab, textmod.tokenize(vocab, ""))
    return [sample_cfg(model, cond, steps, scale, seed + i, sched, uncond=uncond)
            for i in range(count)]
