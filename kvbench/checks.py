"""Output checks of the benchmark, each computed apart from the code it checks.

Every check returns a list of problems; an empty list means the output passed.
The reference computations here (featurizer cosines, the DDPM posterior
sampler, the per-row KKT merge, the SVD rank rule) are written from the
method's definitions and share no code with the kvdiff functions they check.
"""

import numpy as np

from kvdiff import finetune
from kvdiff.denoiser import ROLE_CROSS_KEY, ROLE_CROSS_VALUE

KV_ROLES = (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)
TEMPLATE_WORDS = ("photo", "of", "a")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_frozen(base_params, params):
    """Every registry entry outside the cross-attention K/V projections is
    bit-identical to the base."""
    if set(base_params) != set(params):
        return ["registry keys differ from the base"]
    return [f"frozen entry {k} changed" for k in sorted(base_params)
            if k.role not in KV_ROLES and not _same_bits(base_params[k], params[k])]


def check_losses(curve, steps):
    curve = np.asarray(curve, dtype=np.float64)
    problems = []
    if curve.shape != (steps,):
        problems.append(f"loss curve has shape {curve.shape}, expected ({steps},)")
    if not np.all(np.isfinite(curve)):
        problems.append("non-finite training loss")
    return problems


def caption_feature(vocab, caption, feature_dim, seed, image_shape):
    """ReferenceFeaturizer's text feature, from its definition: the projection
    drawn from `seed` (after the image projection) applied to the mean of the
    caption's token embeddings, start token included, then tanh and unit norm."""
    rng = np.random.default_rng(seed)
    n_pix = image_shape[0] * image_shape[1]
    rng.normal(0.0, 1.0 / np.sqrt(n_pix), size=(feature_dim, n_pix))
    proj = rng.normal(0.0, 1.0 / np.sqrt(vocab.dim), size=(feature_dim, vocab.dim))
    rows = [vocab.embeddings[vocab.start_token]]
    rows += [vocab.embeddings[vocab.tokens.index(w)] for w in caption.split()
             if w not in vocab.modifiers]
    f = np.tanh(proj @ np.mean(rows, axis=0))
    return f / np.linalg.norm(f)


def check_retrieval(pool_captions, kept, target_caption, threshold, vocab,
                    feature_dim, seed, image_shape, tol=1e-12):
    """`kept` (indices into the pool) holds every entry whose caption cosine
    to the target is at or above the threshold, and no other. Only valid
    while the pool is no larger than the retrieval cap."""
    target = caption_feature(vocab, target_caption, feature_dim, seed, image_shape)
    kept = set(kept)
    problems = []
    for i, caption in enumerate(pool_captions):
        cos = float(caption_feature(vocab, caption, feature_dim, seed, image_shape) @ target)
        if i in kept and cos < threshold - tol:
            problems.append(f"kept pool entry {i} has cosine {cos:.4f} < {threshold}")
        if i not in kept and cos > threshold + tol:
            problems.append(f"dropped pool entry {i} has cosine {cos:.4f} >= {threshold}")
    return problems


def kv_gradient_fd(model, batch, sched, seed, n_entries, pick_seed, h=1e-5):
    """Largest error of the K/V gradient from `finetune.batch_gradients`
    against central finite differences of the loss it returns, on
    `n_entries` entries picked at random. The same seed gives the same noise
    and timesteps on every evaluation."""
    def loss_and_grads():
        loss, grads, _ = finetune.batch_gradients(model, batch, sched,
                                                  np.random.default_rng(seed))
        return loss, grads

    _, grads = loss_and_grads()
    keys = [k for k in sorted(model.params) if k.role in KV_ROLES]
    pick = np.random.default_rng(pick_seed)
    worst = 0.0
    for _ in range(n_entries):
        key = keys[int(pick.integers(len(keys)))]
        i, j = (int(pick.integers(n)) for n in model.params[key].shape)
        orig = model.params[key]
        losses = []
        for sign in (1.0, -1.0):
            moved = orig.copy()
            moved[i, j] += sign * h
            model.params[key] = moved
            losses.append(loss_and_grads()[0])
        model.params[key] = orig
        fd = (losses[0] - losses[1]) / (2.0 * h)
        g = float(grads[key][i, j])
        worst = max(worst, abs(fd - g) / (1e-4 + abs(g)))
    return worst


def check_kv_gradient(model, batch, sched, seed, n_entries=12, pick_seed=0, tol=1e-5):
    err = kv_gradient_fd(model, batch, sched, seed, n_entries, pick_seed)
    return [] if err <= tol else [f"K/V gradient off finite differences by {err:.2e}"]


def reference_sample(predict, shape, cond, uncond, steps, scale, seed, T,
                     beta_start, beta_end):
    """Ancestral DDPM sampling written from the posterior q(x_s | x_t, x0) on
    a respaced ladder, with classifier-free guidance and x0 clipped to [-1, 1].
    The schedule is linear in beta, rescaled by 1000 / T."""
    betas = np.linspace(beta_start, beta_end, T) * (1000.0 / T)
    abar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])     # abar[0] = 1
    ladder = sorted(set(int(round(v)) for v in np.linspace(1, T, steps)), reverse=True)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    for n, t in enumerate(ladder):
        s = ladder[n + 1] if n + 1 < len(ladder) else 0
        e_c = predict(x, t, cond)
        e_u = predict(x, t, uncond)
        eps = e_u + scale * (e_c - e_u)
        x0 = np.clip((x - np.sqrt(1.0 - abar[t]) * eps) / np.sqrt(abar[t]), -1.0, 1.0)
        alpha = abar[t] / abar[s]
        beta = 1.0 - alpha
        mean = (np.sqrt(abar[s]) * beta * x0
                + np.sqrt(alpha) * (1.0 - abar[s]) * x) / (1.0 - abar[t])
        if s == 0:
            x = mean
        else:
            var = beta * (1.0 - abar[s]) / (1.0 - abar[t])
            x = mean + np.sqrt(var) * rng.standard_normal(shape)
    return x


def check_sample(x, reference=None, tol=1e-10):
    x = np.asarray(x)
    problems = []
    if not np.all(np.isfinite(x)):
        problems.append("non-finite sample")
    elif x.min() < -1.0 or x.max() > 1.0:
        problems.append("sample leaves [-1, 1]")
    if reference is not None:
        gap = float(np.max(np.abs(x - reference)))
        if not gap <= tol:
            problems.append(f"sample differs from the reference sampler by {gap:.2e}")
    return problems


def constraint_rows(vocab, captions_per_concept, deltas):
    """Rows of C with the concept owning each: the content words of every
    target caption, a modifier's row taken from its own concept's delta."""
    rows, owners = [], []
    for n, (captions, delta) in enumerate(zip(captions_per_concept, deltas)):
        mods = dict(delta.modifier_embeddings)
        for caption in captions:
            for word in caption.split():
                if word in TEMPLATE_WORDS:
                    continue
                rows.append(mods[word] if word in mods
                            else vocab.embeddings[vocab.tokens.index(word)])
                owners.append(n)
    return np.stack(rows), owners


def reg_rows(vocab, captions):
    """Rows of C_reg: the embedding of every token of every caption, start
    token included."""
    return np.stack([vocab.embeddings[i] for caption in captions
                     for i in [vocab.start_token] + [vocab.tokens.index(w)
                                                     for w in caption.split()]])


def kkt_merge(w0, v_mat, c_rows, creg):
    """Per output row, the stationarity system of
    min ||(w - w0_i) C_reg^T||^2 s.t. C w = v_i, solved densely."""
    d, s = c_rows.shape[1], c_rows.shape[0]
    g = creg.T @ creg
    kkt = np.block([[g, c_rows.T], [c_rows, np.zeros((s, s))]])
    rows = [np.linalg.solve(kkt, np.concatenate([g @ w0[i], v_mat[i]]))[:d]
            for i in range(w0.shape[0])]
    return np.stack(rows)


def check_merge(w0, concept_ws, c_rows, owners, creg, w_hat,
                constraint_tol=1e-8, kkt_tol=1e-6):
    """One K/V matrix of a merged model: W C^T = V, and W equals the KKT
    optimum."""
    v_mat = np.stack([concept_ws[n] @ c_rows[j] for j, n in enumerate(owners)], axis=1)
    problems = []
    rel = np.linalg.norm(w_hat @ c_rows.T - v_mat) / max(np.linalg.norm(v_mat), 1e-300)
    if not rel <= constraint_tol:
        problems.append(f"constraint W C^T = V off by {rel:.2e} (relative)")
    w_kkt = kkt_merge(w0, v_mat, c_rows, creg)
    gap = np.linalg.norm(w_kkt - w_hat) / max(np.linalg.norm(w_kkt), 1.0)
    if not gap <= kkt_tol:
        problems.append(f"merge differs from the KKT solve by {gap:.2e}")
    return problems


def check_compression(dense, u, sigma, vt, residual, energy, tol=1e-10):
    """Rank is the smallest whose singular-value sum reaches `energy` of the
    total, under numpy.linalg.svd; the stored residual is the Frobenius norm
    of the dropped tail, and the factors rebuild the truncated matrix."""
    s = np.linalg.svd(dense, compute_uv=False)
    frac = np.cumsum(s) / s.sum()
    rank = int(np.argmax(frac >= energy - 1e-12)) + 1
    problems = []
    if len(sigma) != rank:
        problems.append(f"kept rank {len(sigma)}, smallest reaching {energy} is {rank}")
    tail = float(np.sqrt(np.sum(s[len(sigma):] ** 2)))
    if not abs(residual - tail) <= tol * max(tail, 1.0):
        problems.append(f"stored residual {residual!r} != SVD tail {tail!r}")
    rebuilt = (np.asarray(u) * np.asarray(sigma)) @ np.asarray(vt)
    dropped = float(np.linalg.norm(dense - rebuilt))
    if not abs(dropped - tail) <= 1e-8 * max(tail, 1.0):
        problems.append(f"factors drop {dropped!r}, SVD tail is {tail!r}")
    return problems
