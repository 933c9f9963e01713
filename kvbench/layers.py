"""Which kvdiff functions the traced run wraps, and the per-layer metrics
derived from their spans.

A layer is a kvdiff module; its metrics are named `<module>.<what>`. Timings
are medians over calls. Counts per operation use the traced operations of the
timed loop. A layer that did no work in the timed loop is reported from the
set-up (for example the pretraining step), and one that did no work at all
reads 0.
"""

import os
import statistics

import numpy as np

from kvdiff import analysis, checkpoint, cli, data as datamod, denoiser, diffusion
from kvdiff import finetune, merge, textmod

import refclock
from spans import CLOCK_SPAN, OP, SpanIndex

MS, US = 1e3, 1e6

# name -> (unit, better); the order is the order of the printed metrics
LAYER_METRICS = {
    "denoiser.forward_ms": ("ms", "lower"),
    "denoiser.backward_ms": ("ms", "lower"),
    "denoiser.predict_ms": ("ms", "lower"),
    "finetune.step_ms": ("ms", "lower"),
    "finetune.batch_gradients_ms": ("ms", "lower"),
    "finetune.sgd_step_us": ("us", "lower"),
    "finetune.grad_useful_fraction": ("ratio", "higher"),
    "finetune.pretrain_step_ms": ("ms", "lower"),
    "finetune.final_loss": ("loss", "lower"),
    "finetune.modifier_drift": ("norm", "higher"),
    "textmod.encode_us": ("us", "lower"),
    "textmod.encode_calls_per_op": ("count", "lower"),
    "data.augment_us": ("us", "lower"),
    "data.retrieve_ms": ("ms", "lower"),
    "data.retrieval_kept": ("count", "lower"),
    "data.retrieval_precision": ("ratio", "higher"),
    "diffusion.forward_noise_us": ("us", "lower"),
    "diffusion.sample_ms": ("ms", "lower"),
    "diffusion.predict_calls_per_sample": ("count", "lower"),
    "diffusion.sampler_self_ms": ("ms", "lower"),
    "merge.merge_model_ms": ("ms", "lower"),
    "merge.solve_ms": ("ms", "lower"),
    "merge.solves_per_merge": ("count", "lower"),
    "merge.max_constraint_residual": ("norm", "lower"),
    "merge.min_conditioning": ("norm", "higher"),
    "analysis.compress_delta_ms": ("ms", "lower"),
    "analysis.kept_rank": ("count", "lower"),
    "checkpoint.load_model_ms": ("ms", "lower"),
    "checkpoint.load_delta_ms": ("ms", "lower"),
    "checkpoint.save_model_ms": ("ms", "lower"),
    "checkpoint.save_delta_ms": ("ms", "lower"),
    "checkpoint.bytes_read_per_op": ("B", "lower"),
    "checkpoint.bytes_written_per_op": ("B", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _file_note(args, kwargs, result):
    # the first argument of every checkpoint load and save is the file path
    return {"bytes": os.path.getsize(args[0])}


def _finetune_note(args, kwargs, result):
    model, concepts = args[0], args[1]
    drift = 0.0
    for _, mod in concepts:
        if mod is not None:
            i = mod.token_index
            drift += float(np.sum((result.model.vocab.embeddings[i]
                                   - model.vocab.embeddings[i]) ** 2))
    return {"final_loss": float(result.loss_curve[-1]) if len(result.loss_curve) else 0.0,
            "drift": float(np.sqrt(drift))}


def _retrieval_note(args, kwargs, result):
    category = args[1].split()[-1]
    kept = [ex.caption for ex in result.examples]
    return {"kept": len(kept),
            "on_target": sum(category in caption.split() for caption in kept)}


def _merge_note(args, kwargs, result):
    sols = result.solutions.values()
    return {"residual": max(s.constraint_residual for s in sols),
            "conditioning": min(s.conditioning for s in sols)}


def _rank_note(args, kwargs, result):
    return {"rank": sum(min(e.shape) if e.is_dense else len(e.sigma)
                        for e in result.entries.values())}


def instrument(tracer):
    """Wrap every public function the per-layer metrics are taken from, and
    the reference clock's kernel, whose time is not the program's."""
    w = tracer.wrap
    w(denoiser, "forward", "denoiser.forward")
    w(denoiser, "backward", "denoiser.backward")
    w(denoiser.DenoiserNet, "predict", "denoiser.predict")
    w(finetune, "pretrain", "finetune.pretrain")
    w(finetune, "finetune", "finetune.finetune", note=_finetune_note)
    w(finetune, "batch_gradients", "finetune.batch_gradients",
      note=lambda a, k, r: {"given": len(r[1])})
    w(finetune, "sgd_step", "finetune.sgd_step",
      note=lambda a, k, r: {"trainable": len(a[1])})
    tracer.wrap_steps(datamod, "balanced_batches",
                      {"finetune.pretrain": "finetune.pretrain_step",
                       "finetune.finetune": "finetune.step"})
    w(textmod, "encode_caption", "textmod.encode")
    w(datamod, "augment", "data.augment")
    w(datamod, "retrieve_regularization", "data.retrieve", note=_retrieval_note)
    w(diffusion, "forward_noise", "diffusion.forward_noise")
    w(diffusion, "sample_cfg", "diffusion.sample")
    w(merge, "merge_model", "merge.merge_model", note=_merge_note)
    w(merge, "solve_closed_form", "merge.solve")
    w(analysis, "compress_delta", "analysis.compress_delta", note=_rank_note)
    w(checkpoint, "load_model", "checkpoint.load_model", note=_file_note)
    w(checkpoint, "load_delta", "checkpoint.load_delta", note=_file_note)
    w(checkpoint, "save_model", "checkpoint.save_model", note=_file_note)
    w(checkpoint, "save_delta", "checkpoint.save_delta", note=_file_note)
    w(cli, "run_command", "cli.run_command")
    w(refclock, "kernel", CLOCK_SPAN)


def layer_metrics(tracer, timed, ops, overhead_pct):
    """Per-layer metrics from the spans that the phases `timed` recorded for
    the operations `ops` (and outside any operation)."""
    ix = SpanIndex(tracer, timed, ops)

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    def duration(name, scale):
        return med([ix.duration(i) for i in ix.ids(name)]) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    def notes(name, key):
        return [n[key] for n in ix.notes(name)]

    def per_op(name, key=None):
        ids = ix.ids(name, fallback=False)
        total = len(ids) if key is None else sum(tracer.notes[i][key] for i in ids)
        return ratio(total, len(ops))

    def cli_self():
        # per operation: one operation may make several run_command calls
        per = {}
        for i in ix.ids("cli.run_command"):
            op = tracer.spans[i][OP]
            per[op] = per.get(op, 0.0) + ix.self_time(i)
        return med(list(per.values())) * MS

    kept = notes("data.retrieve", "kept")
    given = sum(notes("finetune.batch_gradients", "given"))
    merges = notes("merge.merge_model", "residual")
    out = {
        "denoiser.forward_ms": duration("denoiser.forward", MS),
        "denoiser.backward_ms": duration("denoiser.backward", MS),
        "denoiser.predict_ms": duration("denoiser.predict", MS),
        "finetune.step_ms": duration("finetune.step", MS),
        "finetune.batch_gradients_ms": duration("finetune.batch_gradients", MS),
        "finetune.sgd_step_us": duration("finetune.sgd_step", US),
        "finetune.grad_useful_fraction": ratio(
            sum(notes("finetune.sgd_step", "trainable")), given),
        "finetune.pretrain_step_ms": duration("finetune.pretrain_step", MS),
        "finetune.final_loss": med(notes("finetune.finetune", "final_loss")),
        "finetune.modifier_drift": med(notes("finetune.finetune", "drift")),
        "textmod.encode_us": duration("textmod.encode", US),
        "textmod.encode_calls_per_op": per_op("textmod.encode"),
        "data.augment_us": duration("data.augment", US),
        "data.retrieve_ms": duration("data.retrieve", MS),
        "data.retrieval_kept": med(kept),
        "data.retrieval_precision": ratio(sum(notes("data.retrieve", "on_target")),
                                          sum(kept)),
        "diffusion.forward_noise_us": duration("diffusion.forward_noise", US),
        "diffusion.sample_ms": duration("diffusion.sample", MS),
        "diffusion.predict_calls_per_sample": ratio(
            len(ix.ids("denoiser.predict")), len(ix.ids("diffusion.sample"))),
        "diffusion.sampler_self_ms": med(
            [ix.self_time(i) for i in ix.ids("diffusion.sample")]) * MS,
        "merge.merge_model_ms": duration("merge.merge_model", MS),
        "merge.solve_ms": duration("merge.solve", MS),
        "merge.solves_per_merge": ratio(len(ix.ids("merge.solve")),
                                        len(ix.ids("merge.merge_model"))),
        "merge.max_constraint_residual": max(merges) if merges else 0.0,
        "merge.min_conditioning": min(notes("merge.merge_model", "conditioning"),
                                      default=0.0),
        "analysis.compress_delta_ms": duration("analysis.compress_delta", MS),
        "analysis.kept_rank": med(notes("analysis.compress_delta", "rank")),
        "checkpoint.load_model_ms": duration("checkpoint.load_model", MS),
        "checkpoint.load_delta_ms": duration("checkpoint.load_delta", MS),
        "checkpoint.save_model_ms": duration("checkpoint.save_model", MS),
        "checkpoint.save_delta_ms": duration("checkpoint.save_delta", MS),
        "checkpoint.bytes_read_per_op": per_op("checkpoint.load_model", "bytes")
        + per_op("checkpoint.load_delta", "bytes"),
        "checkpoint.bytes_written_per_op": per_op("checkpoint.save_model", "bytes")
        + per_op("checkpoint.save_delta", "bytes"),
        "cli.self_ms": cli_self(),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": out[name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}
