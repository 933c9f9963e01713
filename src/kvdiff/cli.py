"""Command-line surface tying the pipelines together.

One runner serves every subcommand: it parses the arguments with a parser
built once per process, loads the config once (the flags of OVERRIDES
overlaid on it), calls the subcommand, and gives every artifact the
subcommand reports a sibling run-manifest JSON recording the command, the
resolved config hash, and the format version (no timestamps, so identical
runs produce identical bytes). Each subcommand checks its inputs before it
trains, samples or writes anything.
"""

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import analysis, checkpoint, data as datamod, diffusion, evaluation, finetune, merge, textmod
from .config import config_hash, load_config, read_json
from .denoiser import ModelConfig
from .errors import InvalidInput, KVDiffError

FORMAT_VERSION = 1

# flag -> (config section, key, type): a flag given on the command line
# overrides that config key, so it is part of the manifest's config hash
OVERRIDES = {"steps": ("sampler", "steps", int), "scale": ("sampler", "scale", float),
             "threshold": ("retrieval", "threshold", float),
             "cap": ("retrieval", "cap", int)}


def _featurizer(cfg):
    m = cfg["model"]
    return evaluation.ReferenceFeaturizer(
        image_shape=(m["height"], m["width"]), text_dim=m["d_text"],
        feature_dim=cfg["featurizer"]["feature_dim"], seed=cfg["featurizer"]["seed"])


def write_pgm(path, image):
    """[-1, 1] grayscale to binary P5 portable graymap."""
    arr = np.clip((np.asarray(image) + 1.0) * 127.5, 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(arr.tobytes())


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _write_manifest(artifact_path, command, cfg):
    _write_json(f"{artifact_path}.manifest.json",
                {"command": command, "config_hash": config_hash(cfg),
                 "format_version": FORMAT_VERSION})


def _sampler_steps(args, cfg, sched):
    """The config's sampler steps, capped at the checkpoint's T unless given
    with --steps: an explicit count beyond T is an error when sampling."""
    steps = cfg["sampler"]["steps"]
    return steps if getattr(args, "steps", None) is not None else min(steps, sched.T)


def cmd_pretrain(args, cfg):
    vocab = textmod.load_vocabulary(args.vocab)
    dataset = datamod.load_dataset(args.data)
    sched = diffusion.NoiseSchedule.linear(**cfg["schedule"])
    model, _ = finetune.pretrain(vocab, dataset, model_cfg=ModelConfig(**cfg["model"]),
                                 sched=sched, **cfg["pretrain"])
    checkpoint.save_model(args.out, model, sched, kind=checkpoint.KIND_BASE)
    return [args.out]


def cmd_finetune(args, cfg):
    tcfg = finetune.FineTuneConfig(**cfg["train"])
    if args.out_delta and tcfg.trainable_scope != finetune.SCOPE_KV_ONLY:
        raise InvalidInput("delta checkpoints are only defined for kv_only runs")
    loaded, sched = checkpoint.load_model(args.model)
    examples = datamod.load_dataset(args.concept)
    if not examples:
        raise InvalidInput(f"{args.concept} holds no concept examples")
    base = loaded.clone()   # the delta is taken against `loaded`, so it carries the new modifier
    modifier = None
    if args.modifier:
        modifier = textmod.register_modifier(base.vocab, args.modifier,
                                             source=args.modifier_source)
    target_caption = textmod.strip_modifiers(base.vocab, examples[0].caption)
    reg = None
    if tcfg.use_reg == "retrieved":
        if not args.reg_pool:
            raise InvalidInput("use_reg=retrieved requires --reg-pool")
        pool = datamod.load_dataset(args.reg_pool)
        reg = datamod.retrieve_regularization(
            pool, target_caption, cfg["retrieval"]["threshold"], cfg["retrieval"]["cap"],
            _featurizer(cfg).caption_featurizer(base.vocab))
    elif tcfg.use_reg == "generated":
        category = merge.extract_target_words(target_caption)[0]
        reg = datamod.generate_regularization(
            base, category, cfg["retrieval"]["cap"], tcfg.seed, sched,
            steps=_sampler_steps(args, cfg, sched), scale=cfg["sampler"]["scale"])
    report = finetune.finetune(base, [(examples, modifier)], tcfg, reg, sched)
    checkpoint.save_model(args.out, report.model, sched, kind=checkpoint.KIND_BASE)
    written = [args.out]
    if args.out_delta:
        checkpoint.save_delta(args.out_delta, analysis.extract_delta(loaded, report.model))
        written.append(args.out_delta)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"loss_curve": [float(v) for v in report.loss_curve]}, fh)
        written.append(args.report)
    return written


def cmd_merge(args, cfg):
    base, sched = checkpoint.load_model(args.base)
    deltas = [checkpoint.load_delta(p) for p in args.delta]
    outcome = merge.merge_model(base, deltas, read_json(args.targets, "targets"),
                                read_json(args.reg_captions, "captions"))
    checkpoint.save_model(args.out, outcome.model, sched, kind=checkpoint.KIND_MERGED)
    return [args.out]


def cmd_sample(args, cfg):
    model, sched = checkpoint.load_model(args.model)
    steps = _sampler_steps(args, cfg, sched)
    img = diffusion.sample_prompt(model, args.prompt, 1, args.seed, sched, steps,
                                  cfg["sampler"]["scale"])[0]
    write_pgm(args.out, img)
    with open(f"{args.out}.json", "w") as fh:
        json.dump({"prompt": args.prompt, "steps": steps,
                   "scale": cfg["sampler"]["scale"], "seed": args.seed,
                   "pixels": [float(v) for v in img.reshape(-1)],
                   "height": img.shape[0], "width": img.shape[1]}, fh)
    return [args.out, f"{args.out}.json"]


def cmd_compress(args, cfg):
    delta = checkpoint.load_delta(args.delta)
    checkpoint.save_delta(args.out, analysis.compress_delta(delta, args.energy))
    return [args.out]


def cmd_analyze(args, cfg):
    base, _ = checkpoint.load_model(args.base)
    tuned, _ = checkpoint.load_model(args.tuned)
    report = analysis.delta_rate(base.params, tuned.params)
    _write_json(args.out, {
        "per_key": {f"{k.layer}/{k.role}/{k.name}": v for k, v in report.per_key.items()},
        "group_means": report.group_means,
        "group_fractions": report.group_fractions,
        "zero_norm_keys": [f"{k.layer}/{k.role}/{k.name}" for k in report.zero_norm_keys],
    })
    if not args.spectra:
        return [args.out]
    spectra = analysis.spectrum(analysis.extract_delta(base, tuned))
    with open(args.spectra, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "role", "index", "value"])
        for (layer, role), sigma in sorted(spectra.items()):
            for i, v in enumerate(sigma):
                writer.writerow([layer, role, i, repr(float(v))])
    return [args.out, args.spectra]


def cmd_eval(args, cfg):
    model, sched = checkpoint.load_model(args.model)
    targets = datamod.load_dataset(args.targets)
    validation = datamod.load_dataset(args.validation) if args.validation else None
    if not targets or args.num < 1:
        raise InvalidInput("eval needs at least one target image and --num >= 1")
    if validation and min(len(validation), args.num) < 2:
        raise InvalidInput("KID against --validation needs 2 or more images on each side")
    generated = diffusion.sample_prompt(model, args.prompt, args.num, args.seed, sched,
                                        _sampler_steps(args, cfg, sched),
                                        cfg["sampler"]["scale"])
    _write_json(args.out, evaluation.model_metrics(
        generated, [t.image for t in targets], args.prompt, _featurizer(cfg), model.vocab,
        validation=[v.image for v in validation] if validation else None))
    return [args.out]


def cmd_retrieve_reg(args, cfg):
    pool = datamod.load_dataset(args.pool)
    vocab = textmod.load_vocabulary(args.vocab)
    reg = datamod.retrieve_regularization(
        pool, args.target_caption, cfg["retrieval"]["threshold"], cfg["retrieval"]["cap"],
        _featurizer(cfg).caption_featurizer(vocab))
    datamod.save_dataset(reg.examples, args.out)
    return [args.out]


_REQUIRED = {"required": True}
_SEED = {"type": int, "default": 0}


def _override_flags(*names):
    return {f"--{n}": {"type": OVERRIDES[n][2]} for n in names}


# subcommand -> (handler, help, its own flags); every subcommand also takes
# --config and --out
COMMANDS = {
    "pretrain": (cmd_pretrain, "train a base model on a captioned dataset",
                 {"--vocab": _REQUIRED, "--data": _REQUIRED}),
    "finetune": (cmd_finetune, "fine-tune a base model on a concept dataset", {
        "--model": _REQUIRED, "--concept": _REQUIRED,
        "--modifier": {"help": "modifier token to register, e.g. '<new1>'"},
        "--modifier-source": {
            "help": "vocabulary token whose embedding seeds the modifier; "
                    "give each concept its own when training in separate runs"},
        "--reg-pool": {}, "--out-delta": {"help": "delta checkpoint; kv_only runs only"},
        "--report": {}}),
    "merge": (cmd_merge, "closed-form merge of fine-tuned deltas", {
        "--base": _REQUIRED, "--delta": {"nargs": "+", "required": True},
        "--targets": {"required": True, "help": "JSON: caption list per concept"},
        "--reg-captions": _REQUIRED}),
    "sample": (cmd_sample, "guided sampling from a checkpoint", {
        "--model": _REQUIRED, "--prompt": _REQUIRED, **_override_flags("steps", "scale"),
        "--seed": _SEED}),
    "compress": (cmd_compress, "low-rank compression of a delta checkpoint",
                 {"--delta": _REQUIRED, "--energy": {"type": float, "required": True}}),
    "analyze": (cmd_analyze, "weight-change report and delta spectra",
                {"--base": _REQUIRED, "--tuned": _REQUIRED, "--spectra": {}}),
    "eval": (cmd_eval, "alignment and KID metrics for a checkpoint", {
        "--model": _REQUIRED, "--prompt": _REQUIRED, "--targets": _REQUIRED,
        "--validation": {}, "--num": {"type": int, "default": 8}, "--seed": _SEED,
        **_override_flags("steps", "scale")}),
    "retrieve-reg": (cmd_retrieve_reg, "build a retrieved regularization set", {
        "--pool": _REQUIRED, "--vocab": _REQUIRED, "--target-caption": _REQUIRED,
        **_override_flags("threshold", "cap")}),
}


@functools.cache
def build_parser():
    """The `kvdiff` argument parser, built on first use and then reused."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config")
    common.add_argument("--out", required=True)
    parser = argparse.ArgumentParser(prog="kvdiff")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _load_config(args):
    overrides = {}
    for name, (section, key, _) in OVERRIDES.items():
        if getattr(args, name, None) is not None:
            overrides.setdefault(section, {})[key] = getattr(args, name)
    return load_config(args.config, overrides)


def run_command(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        for path in args.func(args, cfg):
            _write_manifest(path, args.command, cfg)
    except (KVDiffError, OSError) as exc:     # bad input or an unreadable/unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
