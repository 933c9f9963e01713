"""Forward process, losses, and the respaced guided sampler."""

import math
import warnings

import numpy as np
import pytest

from kvdiff import denoiser, diffusion, textmod
from kvdiff.denoiser import ParamKey, ROLE_OTHER
from kvdiff.errors import InvalidInput, NumericalFailure


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


# schedules whose betas lie in (0, 1) but whose alpha-bar does not: 1 - beta
# rounds to 1 for betas of 1e-20 (every alpha-bar is 1.0), and the product
# of 1000 factors in 0.1..0.5 underflows (the last alpha-bar is 0.0)
DEGENERATE_SCHEDULES = [{"T": 200, "beta_start": 1e-20, "beta_end": 1e-19},
                        {"T": 1000, "beta_start": 0.5, "beta_end": 0.9}]


@pytest.mark.parametrize("schedule", DEGENERATE_SCHEDULES)
def test_schedule_whose_alpha_bar_reaches_1_or_0_is_refused(schedule):
    """The sampler divides by 1 - alpha_bar and by alpha_bar, so a schedule
    that reaches either end is refused where it is built."""
    with pytest.raises(InvalidInput, match="alpha_bar"):
        diffusion.NoiseSchedule.linear(**schedule)


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


def test_batched_forward_noise_and_masked_loss_match_each_image_bit_for_bit():
    """A (B, H, W) batch with one timestep per image gives each image the
    bytes of the one-image call; masked_loss gives one loss per image."""
    sched = diffusion.NoiseSchedule.linear(T=50)
    rng = np.random.default_rng(3)
    x0, eps, pred = (rng.standard_normal((5, 3, 4)) for _ in range(3))
    ts = [1, 7, 50, 7, 23]
    mask = (rng.random((5, 3, 4)) < 0.6).astype(float)
    mask[:, 0, 0] = 1.0
    x_t = diffusion.forward_noise(x0, ts, eps, sched)
    losses = diffusion.masked_loss(eps, pred, mask)
    assert x_t.shape == (5, 3, 4) and losses.shape == (5,)
    for i, t in enumerate(ts):
        assert x_t[i].tobytes() == diffusion.forward_noise(x0[i], t, eps[i], sched).tobytes()
        assert losses[i] == diffusion.masked_loss(eps[i], pred[i], mask[i])
    for bad_ts in ([1, 7], 7 * np.ones((5, 1), dtype=int), [1, 7, 51, 7, 23]):
        with pytest.raises(InvalidInput):
            diffusion.forward_noise(x0, bad_ts, eps, sched)
    with pytest.raises(InvalidInput):
        diffusion.forward_noise(x0[0], ts[:3], eps[0], sched)
    mask[3] = 0.0
    with pytest.raises(InvalidInput, match="no pixels"):
        diffusion.masked_loss(eps, pred, mask)


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


@pytest.mark.parametrize("T,steps", [(200, 25), (30, 30)])
def test_ladder_rows_are_each_steps_own_time_rows_bit_for_bit(tiny_model, T, steps):
    """A respaced ladder and one whose step count equals T: each step's rows
    of the one product over the ladder have the bytes of that step's
    timesteps run alone, for a guided pair and for a batch of one (a
    matrix-vector product)."""
    cond, uncond = _captions(tiny_model, "photo of a blob")
    ts = diffusion.sampling_timesteps(T, steps)
    assert len(ts) == steps
    for captions in ((cond, uncond), (cond,)):
        ctx = denoiser.context(tiny_model, captions)
        ladder = denoiser.ladder(ctx, ts)
        assert len(ladder) == steps
        for t, rows in zip(ts.tolist(), ladder):
            s_t = denoiser.sinusoidal_embedding(np.array([t] * len(captions)),
                                                tiny_model.config.d_model)
            assert rows.s_t.tobytes() == s_t.tobytes(), t
            assert rows.te.tobytes() == (s_t @ ctx.w_timeT).tobytes(), t
            with pytest.raises(ValueError):
                rows.te[0, 0] = 1.0


@pytest.mark.parametrize("scale", [6.0, 1.0])
def test_sample_cfg_is_a_loop_of_forward_and_the_posterior_update(tiny_model, scale):
    """sample_cfg gives the bytes of a hand loop of forward() on its own
    timesteps, one noise draw per step and the update written out: the
    ladder changes where the time embedding is computed, not its bytes."""
    sched = diffusion.NoiseSchedule.linear(T=200)
    cond, uncond = _captions(tiny_model, "photo of a blob")
    got = diffusion.sample_cfg(tiny_model, cond, 25, scale, 4, sched, uncond=uncond)

    captions = (cond,) if scale == 1.0 else (cond, uncond)
    ctx = denoiser.context(tiny_model, captions)
    ts = diffusion.sampling_timesteps(200, 25).tolist()
    rng = np.random.default_rng(4)
    x = rng.standard_normal(tiny_model.image_shape)
    for t, t_prev in zip(ts, ts[1:] + [0]):
        eps, _ = denoiser.forward(tiny_model, np.stack([x] * len(captions)),
                                  (t,) * len(captions), ctx)
        eps_hat = eps[0] if scale == 1.0 else eps[1] + scale * (eps[0] - eps[1])
        ab_t, ab_p = sched.alpha_bar_at(t), sched.alpha_bar_at(t_prev)
        x0_hat = np.clip((x - math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(ab_t), -1.0, 1.0)
        beta_eff = 1.0 - ab_t / ab_p
        x = (math.sqrt(ab_p) * beta_eff / (1.0 - ab_t) * x0_hat
             + math.sqrt(ab_t / ab_p) * (1.0 - ab_p) / (1.0 - ab_t) * x)
        var = beta_eff * (1.0 - ab_p) / (1.0 - ab_t)
        if var > 0:
            x = x + math.sqrt(var) * rng.standard_normal(x.shape)
    assert got.tobytes() == x.tobytes()


def test_an_overflowing_readout_raises_a_typed_failure_naming_the_step(tiny_model):
    """Finite weights whose readout overflows (w_out near the largest
    double) give a non-finite prediction at the first step, t = T: sample_cfg
    raises NumericalFailure, and numpy's overflow warnings stay quiet."""
    tiny_model.params[ParamKey(0, ROLE_OTHER, "w_out")][:] = 1e308
    sched = diffusion.NoiseSchedule.linear(T=30)
    cond, uncond = _captions(tiny_model, "photo of a blob")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (6.0, 1.0):
            with pytest.raises(NumericalFailure, match="non-finite noise prediction at t=30"):
                diffusion.sample_cfg(tiny_model, cond, 5, scale, 0, sched, uncond=uncond)


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

    def counted(model, x_t, t, ctx, workspace):
        batches.append(len(x_t))
        return inner(model, x_t, t, ctx, workspace)

    monkeypatch.setattr(denoiser, "forward", counted)
    diffusion.sample_cfg(tiny_model, cond, 5, 1.0, 9, sched)
    assert batches == [1] * 5
    with pytest.raises(InvalidInput):
        diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 9, sched)   # no uncond
    with pytest.raises(InvalidInput):
        diffusion.sample_cfg(tiny_model, cond, 5, -1.0, 9, sched, uncond=uncond)


def test_sample_cfg_builds_one_context_per_sample(tiny_model, monkeypatch):
    sched = diffusion.NoiseSchedule.linear(T=30)
    cond, uncond = _captions(tiny_model, "photo of a blob")
    built = []
    inner = denoiser.context

    def counted(model, captions):
        built.append(len(captions))
        return inner(model, captions)

    monkeypatch.setattr(denoiser, "context", counted)
    diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 9, sched, uncond=uncond)
    assert built == [2]
    diffusion.sample_cfg(tiny_model, cond, 5, 1.0, 9, sched)
    assert built == [2, 1]


def test_sample_survives_a_later_sample(tiny_model):
    sched = diffusion.NoiseSchedule.linear(T=30)
    cond, uncond = _captions(tiny_model, "photo of a blob")
    first = diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 9, sched, uncond=uncond)
    kept = first.copy()
    # the same caption shapes, so a shared buffer would be overwritten in place
    diffusion.sample_cfg(tiny_model, cond, 5, 6.0, 10, sched, uncond=uncond)
    diffusion.sample_cfg(tiny_model, uncond, 5, 6.0, 10, sched, uncond=uncond)
    assert first.tobytes() == kept.tobytes()


def test_traces_survive_a_later_call(tiny_model):
    cond, _ = _captions(tiny_model, "photo of a blob")
    x = np.random.default_rng(2).standard_normal((4, 4))
    _, traces = denoiser.predict_eps_with_traces(tiny_model, x, 7, cond)
    kept = [tr.weights.copy() for tr in traces]
    denoiser.predict_eps_with_traces(tiny_model, -x, 3, cond + 1.0)
    assert all(tr.weights.tobytes() == w.tobytes() for tr, w in zip(traces, kept))
