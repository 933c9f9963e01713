"""End-to-end acceptance checks. Each test prints a single PASS/FAIL line
(visible even under captured output) and asserts the same condition."""

import json
import time

import numpy as np
import pytest

from kvdiff import analysis, checkpoint, denoiser, diffusion, evaluation, finetune
from kvdiff import fixtures, merge, textmod
from kvdiff.cli import run_command
from kvdiff.denoiser import ParamKey, ROLE_CROSS_KEY, ROLE_CROSS_VALUE
from oracles import solve_kkt


def _report(capsys, index, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[acceptance {index:2d}] {label}: {status}{suffix}")


# ---------------------------------------------------------------------------
# 1. closed-form merge: feasible, optimal, and equal to the KKT oracle


def _random_problem(rng, o, d, s, n_concepts=2):
    w0 = rng.standard_normal((o, d))
    concepts = [w0 + 0.3 * rng.standard_normal((o, d)) for _ in range(n_concepts)]
    c = rng.standard_normal((s, d))
    owners = [int(rng.integers(n_concepts)) for _ in range(s)]
    creg = rng.standard_normal((4 * d, d))
    return merge.MergeProblem(w0=w0, concept_weights=concepts,
                              target_features=c, owners=owners,
                              reg_features=creg)


def test_merge_closed_form_correctness(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(20240501)
    # target row count never exceeds the feature dimension, otherwise the
    # constraints are generically infeasible
    combos = [(o, d, s) for o in (2, 8) for d in (3, 16) for s in (1, 4) if s <= d]
    worst_res, worst_kkt, worst_gap = 0.0, 0.0, 0.0
    for i in range(20):
        o, d, s = combos[i % len(combos)]
        prob = _random_problem(rng, o, d, s)
        sol = merge.solve_closed_form(prob)
        v_mat = merge.build_targets(prob)
        res = sol.constraint_residual / max(1.0, np.linalg.norm(v_mat))
        worst_res = max(worst_res, res)

        w_kkt = solve_kkt(prob, sol.ridge_applied)
        rel = np.linalg.norm(w_kkt - sol.w_hat) / max(np.linalg.norm(w_kkt), 1.0)
        worst_kkt = max(worst_kkt, rel)

        # feasible perturbations: add a component of the row space orthogonal
        # to the constraint features, so W C^T is untouched
        c = prob.target_features
        proj = c.T @ np.linalg.solve(c @ c.T, c)
        for _ in range(5):
            r = 0.1 * rng.standard_normal((o, d))
            e = r - r @ proj
            w_pert = sol.w_hat + e
            obj_pert = np.linalg.norm((w_pert - prob.w0) @ prob.reg_features.T)
            worst_gap = max(worst_gap, sol.objective_value - obj_pert)
    dt = time.monotonic() - t0
    ok = worst_res <= 1e-8 and worst_kkt <= 1e-6 and worst_gap <= 1e-9 and dt < 10
    _report(capsys, 1, "merge feasible/optimal/oracle-matched", ok,
            f"residual {worst_res:.2e}, oracle gap {worst_kkt:.2e}, "
            f"objective slack {worst_gap:.2e}, {dt:.1f}s")
    assert worst_res <= 1e-8
    assert worst_kkt <= 1e-6
    assert worst_gap <= 1e-9
    assert dt < 10


# ---------------------------------------------------------------------------
# 2. merging all-zero deltas returns the base model bit-exactly


def test_merge_noop_identity(capsys, pretrained):
    t0 = time.monotonic()
    zero_entries = {
        (k.layer, k.role): analysis.DeltaEntry(
            dense=np.zeros_like(pretrained.params[k]),
            shape=pretrained.params[k].shape)
        for k in pretrained.params.sorted_keys()
        if k.role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)}
    delta = analysis.DeltaCheckpoint(entries=zero_entries, modifier_embeddings=[],
                                     config=pretrained.config)
    outcome = merge.merge_model(pretrained, [delta], [["photo of a blob"]],
                                fixtures.reg_caption_pool())
    same = all(outcome.model.params[k].tobytes() == pretrained.params[k].tobytes()
               for k in pretrained.params.sorted_keys())
    dt = time.monotonic() - t0
    ok = same and dt < 1
    _report(capsys, 2, "zero-delta merge is a bit-exact no-op", ok, f"{dt:.2f}s")
    assert same
    assert dt < 1


# ---------------------------------------------------------------------------
# 3. analytic gradients match central finite differences


def test_gradient_fidelity(capsys, pretrained, schedule):
    t0 = time.monotonic()
    model = pretrained.clone()
    mod = textmod.register_modifier(model.vocab, "<new1>")
    rng = np.random.default_rng(77)
    x0 = fixtures.target_concept()[0].image
    t = 37
    eps = rng.standard_normal(x0.shape)
    x_t = diffusion.forward_noise(x0, t, eps, schedule)
    seq = textmod.tokenize(model.vocab, "photo of a <new1> blob")

    def loss():
        c = textmod.encode_caption(model.vocab, seq)
        pred = model.predict(x_t, t, c)
        return np.mean((eps - pred) ** 2)

    c = textmod.encode_caption(model.vocab, seq)
    pred, cache = denoiser.forward(model, x_t[None], [t], denoiser.context(model, [c]))
    d_pred = -2.0 * (eps - pred[0]) / eps.size
    grads, (d_c,) = denoiser.backward(model, cache, d_pred[None])

    step = 1e-5
    worst = 0.0
    kv_keys = [k for k in model.params.sorted_keys()
               if k.role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)]
    for key in kv_keys:
        arr = model.params[key]
        fd = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            lp = loss()
            arr[idx] = orig - step
            lm = loss()
            arr[idx] = orig
            fd[idx] = (lp - lm) / (2 * step)
        rel = np.linalg.norm(fd - grads[key]) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)

    emb_grad = np.zeros(model.vocab.dim)
    for pos, tok in enumerate(seq):
        if tok == mod.token_index:
            emb_grad += d_c[pos]
    row = model.vocab.embeddings[mod.token_index]
    fd_row = np.zeros_like(row)
    for j in range(row.size):
        orig = row[j]
        row[j] = orig + step
        lp = loss()
        row[j] = orig - step
        lm = loss()
        row[j] = orig
        fd_row[j] = (lp - lm) / (2 * step)
    rel = np.linalg.norm(fd_row - emb_grad) / max(np.linalg.norm(fd_row), 1e-12)
    worst = max(worst, rel)

    dt = time.monotonic() - t0
    ok = worst <= 1e-4 and dt < 60
    _report(capsys, 3, "key/value + modifier gradients match finite differences",
            ok, f"worst rel err {worst:.2e}, {dt:.1f}s")
    assert worst <= 1e-4
    assert dt < 60


# ---------------------------------------------------------------------------
# 4. kv_only fine-tuning leaves every non-K/V weight bit-unchanged


def test_scope_exactness(capsys, pretrained, tuned_factory):
    t0 = time.monotonic()
    tuned = tuned_factory(steps=250)
    untouched = [k for k in pretrained.params.sorted_keys()
                 if k.role not in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)]
    same = all(tuned.params[k].tobytes() == pretrained.params[k].tobytes()
               for k in untouched)
    report = analysis.delta_rate(pretrained.params, tuned.params)
    rates_zero = all(report.per_key[k] == 0.0 for k in untouched)
    dt = time.monotonic() - t0
    ok = same and rates_zero and dt < 120
    _report(capsys, 4, "kv_only scope freezes all other weights bit-exactly",
            ok, f"{len(untouched)} keys checked, {dt:.1f}s")
    assert same
    assert rates_zero
    assert dt < 120


# ---------------------------------------------------------------------------
# 5. customization: alignment gain plus the checkpoint-trend trade-off


def test_toy_customization(capsys, pretrained, tuned_factory, sample_batch,
                           featurizer, target_images):
    t0 = time.monotonic()
    base_samples = sample_batch(pretrained, "photo of a blob")
    base_img_align = evaluation.image_alignment(base_samples, target_images, featurizer)

    img_curve, txt_curve = [], []
    for steps in (50, 100, 150, 200, 250):
        model = tuned_factory(steps=steps)
        samples = sample_batch(model, "photo of a <new1> blob")
        img_curve.append(evaluation.image_alignment(samples, target_images, featurizer))
        txt_curve.append(evaluation.text_alignment(samples, "photo of a <new1> blob",
                                                   featurizer, model.vocab))
    gain = img_curve[-1] - base_img_align
    img_viol = sum(1 for a, b in zip(img_curve, img_curve[1:]) if b < a)
    txt_viol = sum(1 for a, b in zip(txt_curve, txt_curve[1:]) if b > a)
    dt = time.monotonic() - t0
    ok = gain >= 0.05 and img_viol <= 1 and txt_viol <= 1 and dt < 180
    _report(capsys, 5, "fine-tune lifts image alignment; trend trades off text",
            ok, f"gain {gain:+.3f}, img viol {img_viol}, txt viol {txt_viol}, {dt:.1f}s")
    assert gain >= 0.05
    assert img_viol <= 1
    assert txt_viol <= 1
    assert dt < 180


# ---------------------------------------------------------------------------
# 6. retrieved regularization keeps bare-prompt behavior closer to the base


def test_regularization_mitigates_drift(capsys, pretrained, tuned_factory,
                                        sample_batch, featurizer):
    t0 = time.monotonic()
    base = sample_batch(pretrained, "photo of a blob", n=40, seed=900)
    base_feats = np.stack([featurizer.image_features(im) for im in base])

    kids = {}
    for label, kwargs in (("none", dict(use_reg="none")),
                          ("retrieved", dict(use_reg="retrieved", batch=8))):
        model = tuned_factory(steps=250, **kwargs)
        samples = sample_batch(model, "photo of a blob", n=40, seed=900)
        feats = np.stack([featurizer.image_features(im) for im in samples])
        kids[label] = evaluation.kid(feats, base_feats)
    dt = time.monotonic() - t0
    ok = kids["retrieved"] < kids["none"] and dt < 240
    _report(capsys, 6, "regularized run drifts less on the bare prompt", ok,
            f"kid x1000: reg {1e3 * kids['retrieved']:.2f} < "
            f"none {1e3 * kids['none']:.2f}, {dt:.1f}s")
    assert kids["retrieved"] < kids["none"]
    assert dt < 240


# ---------------------------------------------------------------------------
# 7. energy-truncation ladder: monotone, optimal, exact at full energy


def test_compression_ladder(capsys, pretrained, tuned_factory):
    t0 = time.monotonic()
    tuned = tuned_factory(steps=250)
    delta = analysis.extract_delta(pretrained, tuned)
    errors = []
    worst_opt_gap = 0.0
    for energy in (0.01, 0.2, 0.6, 1.0):
        comp = analysis.compress_delta(delta, energy)
        err_sq = 0.0
        for key, entry in comp.entries.items():
            dense = delta.entries[key].dense
            rec = analysis.reconstruct_entry(entry)
            err_sq += float(np.sum((dense - rec) ** 2))
            # optimal-truncation oracle: best achievable error at this rank
            # from an independent full decomposition
            rank = entry.shape[1] if entry.is_dense else entry.sigma.size
            sigma = np.linalg.svd(dense, compute_uv=False)
            best = float(np.sqrt(np.sum(sigma[rank:] ** 2)))
            got = float(np.sqrt(np.sum((dense - rec) ** 2)))
            worst_opt_gap = max(worst_opt_gap, abs(got - best))
            worst_opt_gap = max(worst_opt_gap, abs(entry.residual - best))
        errors.append(float(np.sqrt(err_sq)))
    monotone = all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    exact_full = errors[-1] == 0.0
    dt = time.monotonic() - t0
    ok = monotone and exact_full and worst_opt_gap <= 1e-8 and dt < 30
    _report(capsys, 7, "compression ladder monotone and rank-optimal", ok,
            f"errors {['%.3e' % e for e in errors]}, opt gap {worst_opt_gap:.2e}, "
            f"{dt:.1f}s")
    assert monotone
    assert exact_full
    assert worst_opt_gap <= 1e-8
    assert dt < 30


# ---------------------------------------------------------------------------
# 8. unconstrained fine-tuning moves cross-attention weights most


def test_cross_attention_changes_most(capsys, pretrained, tuned_factory):
    t0 = time.monotonic()
    tuned = tuned_factory(steps=250, scope=finetune.SCOPE_ALL, batch=32)
    report = analysis.delta_rate(pretrained.params, tuned.params)
    cross = report.group_means[analysis.GROUP_CROSS]
    other = report.group_means[analysis.GROUP_OTHER]
    dt = time.monotonic() - t0
    ok = cross > other and dt < 180
    _report(capsys, 8, "cross-attention group leads relative weight change", ok,
            f"cross {cross:.4f} > other {other:.4f}, {dt:.1f}s")
    assert cross > other
    assert dt < 180


# ---------------------------------------------------------------------------
# 9. kid estimator: scalar oracle + same-distribution null


def _kid_oracle(x, y):
    m, n, dim = len(x), len(y), x.shape[1]

    def k(a, b):
        return (float(np.dot(a, b)) / dim + 1.0) ** 3

    sxx = sum(k(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    syy = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    sxy = sum(k(x[i], y[j]) for i in range(m) for j in range(n))
    return sxx / (m * (m - 1)) + syy / (n * (n - 1)) - 2.0 * sxy / (m * n)


def test_kid_estimator(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        worst = max(worst, abs(evaluation.kid(x, y) - _kid_oracle(x, y)))

    m = n = 500
    pool = rng.standard_normal((m + n, 16))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    observed = evaluation.kid(pool[:m], pool[m:])
    null = []
    for _ in range(200):
        perm = rng.permutation(m + n)
        null.append(evaluation.kid(pool[perm[:m]], pool[perm[m:]]))
    se = float(np.std(null))
    dt = time.monotonic() - t0
    ok = worst <= 1e-12 and abs(observed) <= 3 * se and dt < 30
    _report(capsys, 9, "kid matches scalar oracle; same-source kid within null",
            ok, f"oracle gap {worst:.1e}, kid {observed:.2e} vs 3se {3 * se:.2e}, "
            f"{dt:.1f}s")
    assert worst <= 1e-12
    assert abs(observed) <= 3 * se
    assert dt < 30


# ---------------------------------------------------------------------------
# 10. command-line pipelines are byte-deterministic


def _run_pipeline(workdir, fixture_dir, config_path):
    art = {name: str(workdir / name) for name in (
        "base.ckpt", "tuned1.ckpt", "delta1.ckpt", "tuned2.ckpt", "delta2.ckpt",
        "merged.ckpt", "compressed.ckpt", "analysis.json", "spectra.csv",
        "sample.pgm", "metrics.json", "reg.json", "report.json")}
    fx = {name: str(fixture_dir / name) for name in (
        "vocab.json", "pretrain.json", "concept_blob.json", "concept_ring.json",
        "reg_pool.json", "reg_captions.json")}
    targets_path = str(workdir / "targets.json")
    with open(targets_path, "w") as fh:
        json.dump([["photo of a <new1> blob"], ["photo of a <new2> ring"]], fh)

    steps = [
        ["pretrain", "--config", config_path, "--vocab", fx["vocab.json"],
         "--data", fx["pretrain.json"], "--out", art["base.ckpt"]],
        ["finetune", "--config", config_path, "--model", art["base.ckpt"],
         "--concept", fx["concept_blob.json"], "--modifier", "<new1>",
         "--reg-pool", fx["reg_pool.json"], "--out", art["tuned1.ckpt"],
         "--out-delta", art["delta1.ckpt"], "--report", art["report.json"]],
        ["finetune", "--config", config_path, "--model", art["base.ckpt"],
         "--concept", fx["concept_ring.json"], "--modifier", "<new2>",
         "--modifier-source", "pkz",
         "--reg-pool", fx["reg_pool.json"], "--out", art["tuned2.ckpt"],
         "--out-delta", art["delta2.ckpt"]],
        ["merge", "--config", config_path, "--base", art["base.ckpt"],
         "--delta", art["delta1.ckpt"], art["delta2.ckpt"],
         "--targets", targets_path, "--reg-captions", fx["reg_captions.json"],
         "--out", art["merged.ckpt"]],
        ["compress", "--config", config_path, "--delta", art["delta1.ckpt"],
         "--energy", "0.6", "--out", art["compressed.ckpt"]],
        ["analyze", "--config", config_path, "--base", art["base.ckpt"],
         "--tuned", art["tuned1.ckpt"], "--out", art["analysis.json"],
         "--spectra", art["spectra.csv"]],
        ["sample", "--config", config_path, "--model", art["merged.ckpt"],
         "--prompt", "photo of a <new1> blob", "--seed", "5",
         "--out", art["sample.pgm"]],
        ["eval", "--config", config_path, "--model", art["tuned1.ckpt"],
         "--prompt", "photo of a <new1> blob", "--targets", fx["concept_blob.json"],
         "--validation", fx["reg_pool.json"], "--num", "4",
         "--out", art["metrics.json"]],
        ["retrieve-reg", "--config", config_path, "--pool", fx["reg_pool.json"],
         "--vocab", fx["vocab.json"], "--target-caption", "photo of a blob",
         "--out", art["reg.json"]],
    ]
    for argv in steps:
        assert run_command(argv) == 0, argv[0]


def test_cli_determinism(capsys, tmp_path_factory):
    t0 = time.monotonic()
    fixture_dir = tmp_path_factory.mktemp("fixture_files")
    fixtures.write_fixture_files(str(fixture_dir))
    config_path = str(fixture_dir / "config.json")
    with open(config_path, "w") as fh:
        json.dump({"schedule": {"T": 50}, "sampler": {"steps": 20},
                   "pretrain": {"steps": 120},
                   "train": {"steps": 40, "batch": 4}}, fh)

    run_a = tmp_path_factory.mktemp("run_a")
    run_b = tmp_path_factory.mktemp("run_b")
    _run_pipeline(run_a, fixture_dir, config_path)
    _run_pipeline(run_b, fixture_dir, config_path)

    names = sorted(p.name for p in run_a.iterdir())
    assert names == sorted(p.name for p in run_b.iterdir())
    mismatched = [n for n in names
                  if (run_a / n).read_bytes() != (run_b / n).read_bytes()]

    # save -> load -> save stability on a binary checkpoint
    model, sched = checkpoint.load_model(str(run_a / "base.ckpt"))
    resaved = run_a / "base_resaved.ckpt"
    checkpoint.save_model(str(resaved), model, sched, kind=checkpoint.KIND_BASE)
    stable = resaved.read_bytes() == (run_a / "base.ckpt").read_bytes()

    dt = time.monotonic() - t0
    ok = not mismatched and stable and dt < 300
    _report(capsys, 10, "pipelines byte-identical across reruns", ok,
            f"{len(names)} artifacts, resave stable {stable}, {dt:.1f}s")
    assert mismatched == []
    assert stable
    assert dt < 300
