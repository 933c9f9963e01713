"""Forward process, losses, and the respaced guided sampler."""

import numpy as np
import pytest

from kvdiff import denoiser, diffusion, textmod
from kvdiff.errors import InvalidInput


def test_schedule_basic_properties():
    sched = diffusion.NoiseSchedule.linear(T=50)
    assert sched.betas.shape == (50,)
    assert np.all(sched.betas > 0) and np.all(sched.betas < 1)
    assert np.all(np.diff(sched.alpha_bar) < 0)          # strictly decreasing
    assert sched.alpha_bar_at(0) == 1.0
    assert sched.alpha_bar_at(50) == pytest.approx(float(sched.alpha_bar[-1]))
    with pytest.raises(InvalidInput):
        sched.alpha_bar_at(51)
    with pytest.raises(InvalidInput):
        diffusion.NoiseSchedule.linear(T=0)
    # betas must lie in (0, 1): a zero, negative or NaN start is rejected
    for beta_start in (0.0, -1e-3, float("nan")):
        with pytest.raises(InvalidInput):
            diffusion.NoiseSchedule.linear(T=50, beta_start=beta_start)


def test_schedule_rescale_keeps_terminal_alpha_bar():
    # shorter rescaled chains should end near the 1000-step terminal value
    # (at T=1000 the rescale factor is exactly 1)
    long = diffusion.NoiseSchedule.linear(T=1000)
    short = diffusion.NoiseSchedule.linear(T=100)
    assert abs(short.alpha_bar[-1] - long.alpha_bar[-1]) < 0.05


def test_forward_noise_formula():
    sched = diffusion.NoiseSchedule.linear(T=50)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((4, 4))
    eps = rng.standard_normal((4, 4))
    x_t = diffusion.forward_noise(x0, 7, eps, sched)
    ab = sched.alpha_bar_at(7)
    np.testing.assert_allclose(x_t, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps)
    with pytest.raises(InvalidInput):
        diffusion.forward_noise(x0, 7, eps[:2], sched)


def test_losses():
    eps = np.array([[1.0, 0.0], [0.0, 1.0]])
    pred = np.zeros((2, 2))
    # a mask of ones is the plain mean squared error
    assert diffusion.masked_loss(eps, pred, np.ones((2, 2))) == pytest.approx(0.5)
    mask = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert diffusion.masked_loss(eps, pred, mask) == pytest.approx(1.0)
    with pytest.raises(InvalidInput):
        diffusion.masked_loss(eps, pred, np.zeros((2, 2)))
    with pytest.raises(InvalidInput):
        diffusion.masked_loss(eps, pred[:1], mask)


def test_sampling_timesteps():
    ts = diffusion.sampling_timesteps(100, 10)
    assert ts[0] == 100 and ts[-1] == 1
    assert np.all(np.diff(ts) < 0)
    assert len(np.unique(ts)) == len(ts)
    # full-resolution ladder touches every step
    assert len(diffusion.sampling_timesteps(30, 30)) == 30
    with pytest.raises(InvalidInput):
        diffusion.sampling_timesteps(10, 11)
    with pytest.raises(InvalidInput):
        diffusion.sampling_timesteps(10, 0)


def _captions(model, prompt):
    vocab = model.vocab
    return (textmod.encode_caption(vocab, textmod.tokenize(vocab, prompt)),
            textmod.encode_caption(vocab, textmod.tokenize(vocab, "")))


def test_sample_cfg_matches_manual_posterior_recursion(tiny_model):
    sched = diffusion.NoiseSchedule.linear(T=40)
    cond, uncond = _captions(tiny_model, "photo of a blob")
    assert cond.shape[0] == 5 and uncond.shape[0] == 1
    got = diffusion.sample_cfg(tiny_model, cond, steps=8, scale=6.0, seed=3, sched=sched,
                               uncond=uncond)

    # independent replay of the respaced ancestral update, one predict call
    # per guidance branch
    ts = diffusion.sampling_timesteps(40, 8)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4))
    for i, t in enumerate(ts):
        eps_c = tiny_model.predict(x, int(t), cond)
        eps_u = tiny_model.predict(x, int(t), uncond)
        eps_hat = eps_u + 6.0 * (eps_c - eps_u)
        ab_t = sched.alpha_bar_at(int(t))
        t_prev = int(ts[i + 1]) if i + 1 < len(ts) else 0
        ab_p = sched.alpha_bar_at(t_prev)
        x0_hat = np.clip((x - np.sqrt(1 - ab_t) * eps_hat) / np.sqrt(ab_t), -1, 1)
        beta_eff = 1 - ab_t / ab_p
        mean = (np.sqrt(ab_p) * beta_eff / (1 - ab_t)) * x0_hat \
            + (np.sqrt(ab_t / ab_p) * (1 - ab_p) / (1 - ab_t)) * x
        var = beta_eff * (1 - ab_p) / (1 - ab_t)
        if t_prev == 0 or var <= 0:
            x = mean
        else:
            x = mean + np.sqrt(var) * rng.standard_normal(x.shape)
    np.testing.assert_allclose(got, x, rtol=0, atol=1e-12)


def test_sample_cfg_determinism_and_guidance_branches(tiny_model, monkeypatch):
    sched = diffusion.NoiseSchedule.linear(T=30)
    cond, uncond = _captions(tiny_model, "photo of a blob")
    a = diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 9, sched, uncond=uncond)
    b = diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 9, sched, uncond=uncond)
    assert a.tobytes() == b.tobytes()
    # scale 1 must not evaluate the unconditional branch: one forward of
    # batch 1 per step
    batches = []
    inner = denoiser.forward

    def counted(model, x_t, t, c):
        batches.append(len(x_t))
        return inner(model, x_t, t, c)

    monkeypatch.setattr(denoiser, "forward", counted)
    diffusion.sample_cfg(tiny_model, cond, 5, 1.0, 9, sched)
    assert batches == [1] * 5
    with pytest.raises(InvalidInput):
        diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 9, sched)   # no uncond
    with pytest.raises(InvalidInput):
        diffusion.sample_cfg(tiny_model, cond, 5, -1.0, 9, sched, uncond=uncond)


def test_sample_survives_a_later_sample(tiny_model):
    sched = diffusion.NoiseSchedule.linear(T=30)
    cond, uncond = _captions(tiny_model, "photo of a blob")
    first = diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 9, sched, uncond=uncond)
    kept = first.copy()
    diffusion.sample_cfg(tiny_model, uncond, 5, 6.0, 10, sched, uncond=uncond)
    assert first.tobytes() == kept.tobytes()
