"""Command-line surface tying the pipelines together.

Every artifact gets a sibling run-manifest JSON recording the command, the
resolved config hash, and the format version (no timestamps, so identical runs
produce identical bytes).
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import analysis, checkpoint, data as datamod, diffusion, evaluation, finetune, merge, textmod
from .config import config_hash, load_config, read_json
from .denoiser import ModelConfig
from .errors import InvalidInput, KVDiffError

FORMAT_VERSION = 1


def _write_manifest(artifact_path, command, cfg):
    path = f"{artifact_path}.manifest.json"
    payload = {"command": command, "config_hash": config_hash(cfg),
               "format_version": FORMAT_VERSION}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _featurizer(cfg):
    m = cfg["model"]
    return evaluation.ReferenceFeaturizer(
        image_shape=(m["height"], m["width"]), text_dim=m["d_text"],
        feature_dim=cfg["featurizer"]["feature_dim"], seed=cfg["featurizer"]["seed"])


def _cond_pair(vocab, prompt):
    cond = textmod.encode_caption(vocab, textmod.tokenize(vocab, prompt))
    uncond = textmod.encode_caption(vocab, textmod.tokenize(vocab, ""))
    return cond, uncond


def _sample_many(model, sched, prompt, count, seed, steps, scale):
    cond, uncond = _cond_pair(model.vocab, prompt)
    return [diffusion.sample_cfg(model, cond, steps, scale, seed + i, sched, uncond=uncond)
            for i in range(count)]


def write_pgm(path, image):
    """[-1, 1] grayscale to binary P5 portable graymap."""
    arr = np.clip((np.asarray(image) + 1.0) * 127.5, 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(arr.tobytes())


def cmd_pretrain(args):
    cfg = load_config(args.config)
    vocab = textmod.load_vocabulary(args.vocab)
    dataset = datamod.load_dataset(args.data)
    sched = diffusion.NoiseSchedule.linear(**cfg["schedule"])
    p = cfg["pretrain"]
    model, _ = finetune.pretrain(
        vocab, dataset, model_cfg=ModelConfig(**cfg["model"]), sched=sched,
        steps=p["steps"], learning_rate=p["learning_rate"], batch=p["batch"],
        seed=p["seed"], cond_dropout=p["cond_dropout"], init_seed=p["init_seed"])
    checkpoint.save_model(args.out, model, sched, kind=checkpoint.KIND_BASE)
    _write_manifest(args.out, "pretrain", cfg)
    return 0


def cmd_finetune(args):
    cfg = load_config(args.config)
    base, sched = checkpoint.load_model(args.model)
    examples = datamod.load_dataset(args.concept)
    tcfg = finetune.FineTuneConfig(**cfg["train"])
    modifier = None
    if args.modifier:
        modifier = textmod.register_modifier(base.vocab, args.modifier,
                                             source=args.modifier_source)
    reg = None
    if tcfg.use_reg == "retrieved":
        if not args.reg_pool:
            raise InvalidInput("use_reg=retrieved requires --reg-pool")
        pool = datamod.load_dataset(args.reg_pool)
        feat = _featurizer(cfg)
        target_caption = examples[0].caption
        reg = datamod.retrieve_regularization(
            pool, textmod.strip_modifiers(base.vocab, target_caption),
            cfg["retrieval"]["threshold"], cfg["retrieval"]["cap"],
            feat.caption_featurizer(base.vocab))
    elif tcfg.use_reg == "generated":
        category = merge.extract_target_words(
            textmod.strip_modifiers(base.vocab, examples[0].caption))[0]
        reg = datamod.generate_regularization(
            base, category, cfg["retrieval"]["cap"], tcfg.seed, sched,
            steps=min(cfg["sampler"]["steps"], sched.T), scale=cfg["sampler"]["scale"])
    report = finetune.finetune(base, [(examples, modifier)], tcfg, reg, sched)
    checkpoint.save_model(args.out, report.model, sched, kind=checkpoint.KIND_BASE)
    _write_manifest(args.out, "finetune", cfg)
    if args.out_delta:
        if tcfg.trainable_scope != finetune.SCOPE_KV_ONLY:
            raise InvalidInput("delta checkpoints are only defined for kv_only runs")
        delta = analysis.extract_delta(base, report.model)
        checkpoint.save_delta(args.out_delta, delta)
        _write_manifest(args.out_delta, "finetune", cfg)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"loss_curve": [float(v) for v in report.loss_curve]}, fh)
        _write_manifest(args.report, "finetune", cfg)
    return 0


def cmd_merge(args):
    cfg = load_config(args.config)
    base, sched = checkpoint.load_model(args.base)
    deltas = [checkpoint.load_delta(p) for p in args.delta]
    outcome = merge.merge_model(base, deltas, read_json(args.targets),
                                read_json(args.reg_captions))
    checkpoint.save_model(args.out, outcome.model, sched, kind=checkpoint.KIND_MERGED)
    _write_manifest(args.out, "merge", cfg)
    return 0


def cmd_sample(args):
    cfg = load_config(args.config, _sampler_overrides(args))
    model, sched = checkpoint.load_model(args.model)
    steps = min(cfg["sampler"]["steps"], sched.T) if args.steps is None else args.steps
    if steps < 1:
        raise InvalidInput("steps must be >= 1")
    img = _sample_many(model, sched, args.prompt, 1, args.seed, steps,
                       cfg["sampler"]["scale"])[0]
    write_pgm(args.out, img)
    with open(f"{args.out}.json", "w") as fh:
        json.dump({"prompt": args.prompt, "steps": steps,
                   "scale": cfg["sampler"]["scale"], "seed": args.seed,
                   "pixels": [float(v) for v in img.reshape(-1)],
                   "height": img.shape[0], "width": img.shape[1]}, fh)
    _write_manifest(args.out, "sample", cfg)
    return 0


def _sampler_overrides(args):
    over = {}
    if getattr(args, "steps", None) is not None:
        over.setdefault("sampler", {})["steps"] = args.steps
    if getattr(args, "scale", None) is not None:
        over.setdefault("sampler", {})["scale"] = args.scale
    return over


def cmd_compress(args):
    cfg = load_config(args.config)
    delta = checkpoint.load_delta(args.delta)
    compressed = analysis.compress_delta(delta, args.energy)
    checkpoint.save_delta(args.out, compressed)
    _write_manifest(args.out, "compress", cfg)
    return 0


def cmd_analyze(args):
    cfg = load_config(args.config)
    base, _ = checkpoint.load_model(args.base)
    tuned, _ = checkpoint.load_model(args.tuned)
    report = analysis.delta_rate(base.params, tuned.params)
    payload = {
        "per_key": {f"{k.layer}/{k.role}/{k.name}": v for k, v in report.per_key.items()},
        "group_means": report.group_means,
        "group_fractions": report.group_fractions,
        "zero_norm_keys": [f"{k.layer}/{k.role}/{k.name}" for k in report.zero_norm_keys],
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    _write_manifest(args.out, "analyze", cfg)
    if args.spectra:
        delta = analysis.extract_delta(base, tuned)
        spectra = analysis.spectrum(delta)
        with open(args.spectra, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "role", "index", "value"])
            for (layer, role), sigma in sorted(spectra.items()):
                for i, v in enumerate(sigma):
                    writer.writerow([layer, role, i, repr(float(v))])
        _write_manifest(args.spectra, "analyze", cfg)
    return 0


def cmd_eval(args):
    cfg = load_config(args.config, _sampler_overrides(args))
    model, sched = checkpoint.load_model(args.model)
    targets = datamod.load_dataset(args.targets)
    validation = datamod.load_dataset(args.validation) if args.validation else None
    feat = _featurizer(cfg)
    steps = min(cfg["sampler"]["steps"], sched.T)
    generated = _sample_many(model, sched, args.prompt, args.num, args.seed,
                             steps, cfg["sampler"]["scale"])
    report = evaluation.model_metrics(
        generated, [t.image for t in targets], args.prompt, feat, model.vocab,
        validation=[v.image for v in validation] if validation else None)
    with open(args.out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
    _write_manifest(args.out, "eval", cfg)
    return 0


def cmd_retrieve_reg(args):
    cfg = load_config(args.config)
    pool = datamod.load_dataset(args.pool)
    vocab = textmod.load_vocabulary(args.vocab)
    feat = _featurizer(cfg)
    threshold = cfg["retrieval"]["threshold"] if args.threshold is None else args.threshold
    cap = cfg["retrieval"]["cap"] if args.cap is None else args.cap
    reg = datamod.retrieve_regularization(pool, args.target_caption, threshold, cap,
                                          feat.caption_featurizer(vocab))
    datamod.save_dataset(reg.examples, args.out)
    _write_manifest(args.out, "retrieve-reg", cfg)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="kvdiff")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a base model on a captioned dataset")
    p.add_argument("--config")
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a base model on a concept dataset")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--modifier", help="modifier token to register, e.g. '<new1>'")
    p.add_argument("--modifier-source",
                   help="vocabulary token whose embedding seeds the modifier; "
                        "give each concept its own when training in separate runs")
    p.add_argument("--reg-pool")
    p.add_argument("--out", required=True)
    p.add_argument("--out-delta")
    p.add_argument("--report")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("merge", help="closed-form merge of fine-tuned deltas")
    p.add_argument("--config")
    p.add_argument("--base", required=True)
    p.add_argument("--delta", nargs="+", required=True)
    p.add_argument("--targets", required=True, help="JSON: caption list per concept")
    p.add_argument("--reg-captions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("sample", help="guided sampling from a checkpoint")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--scale", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compress", help="low-rank compression of a delta checkpoint")
    p.add_argument("--config")
    p.add_argument("--delta", required=True)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("analyze", help="weight-change report and delta spectra")
    p.add_argument("--config")
    p.add_argument("--base", required=True)
    p.add_argument("--tuned", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spectra")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eval", help="alignment and KID metrics for a checkpoint")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--validation")
    p.add_argument("--num", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int)
    p.add_argument("--scale", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("retrieve-reg", help="build a retrieved regularization set")
    p.add_argument("--config")
    p.add_argument("--pool", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--target-caption", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrieve_reg)

    return parser


def run_command(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (KVDiffError, OSError) as exc:     # bad input or an unreadable/unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
