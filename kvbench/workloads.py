"""The three workloads: set-up, one timed round, and output checks.

A round is the unit the timed loop repeats; every round attempts the same
operations, so the share of failed operations does not depend on the seed or
on how many rounds fit in a run. The reference clock's kernel runs before
every operation; timings are the process's CPU time in the program's calls
only, and checks run after them.
"""

import hashlib
import json
import os
import sys

import numpy as np

from kvdiff import checkpoint, cli, config, data as datamod, diffusion, evaluation
from kvdiff import finetune, fixtures, textmod

import checks
from refclock import cpu_time

PRETRAIN_STEPS = 150        # set-up pretrain, all_unet scope
SAMPLE_STEPS = 25           # sample_guided: respaced steps of the 200-step chain
COMPOSE_TRAIN_STEPS = 50    # compose_merge set-up: steps of each concept fine-tune
COMPOSE_ENERGY = "0.6"
FD_ENTRIES = 12             # K/V gradient entries checked by finite differences
FD_TAG = 1 << 20            # keeps the check's seeds apart from the rounds'


class SetupError(Exception):
    """The program failed while the workload's inputs were being built."""


def derived_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _sha(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def report_failure(what, detail):
    # a failed operation is counted in `failed`; it does not make the
    # checked outputs of the other operations incorrect
    print(f"operation failed: {what}: {detail}", file=sys.stderr)


def run_cli(argv):
    code = cli.run_command(argv)
    if code != 0:
        raise SetupError(f"kvdiff {argv[0]} exited with {code}")


class RoundResult:
    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.op_ms = []         # one entry per completed operation
        self.op_ids = []        # the operation id of each entry of op_ms
        self.op_ticks = []      # the reference clock's tick before each entry


class Workload:
    name = None

    def __init__(self, workdir, seed, clock):
        self.workdir = workdir
        self.seed = seed
        self.clock = clock
        self.problems = []
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def prepare(self, train=None):
        """Fixture corpus, config file and the pretrained base checkpoint."""
        fixtures.write_fixture_files(self.path("fx"))
        cfg = {"sampler": {"steps": SAMPLE_STEPS},
               "pretrain": {"steps": PRETRAIN_STEPS, "seed": self.seed,
                            "init_seed": self.seed}}
        if train:
            cfg["train"] = train
        with open(self.path("config.json"), "w") as fh:
            json.dump(cfg, fh)
        self.cfg = config.load_config(self.path("config.json"))
        run_cli(["pretrain", "--config", self.path("config.json"),
                 "--vocab", self.path("fx", "vocab.json"),
                 "--data", self.path("fx", "pretrain.json"),
                 "--out", self.path("base.ckpt")])

    def fingerprint(self):
        """Digest of what set-up built; repeated set-ups must agree."""
        return _sha([self.path("base.ckpt")])


class FinetuneKV(Workload):
    """kv_only fine-tuning of the blob concept with config.py's train
    defaults. One operation is one training step; one round is one
    fine-tune of train.steps steps."""

    name = "finetune_kv"

    def setup(self):
        self.prepare()
        self.base, self.sched = checkpoint.load_model(self.path("base.ckpt"))
        self.concept = datamod.load_dataset(self.path("fx", "concept_blob.json"))
        self.modifier = textmod.register_modifier(self.base.vocab, "<new1>")
        self.pool = datamod.load_dataset(self.path("fx", "reg_pool.json"))
        m, f, r = self.cfg["model"], self.cfg["featurizer"], self.cfg["retrieval"]
        feat = evaluation.ReferenceFeaturizer(
            (m["height"], m["width"]), m["d_text"], f["feature_dim"], f["seed"])
        self.target = textmod.strip_modifiers(self.base.vocab, self.concept[0].caption)
        self.reg = datamod.retrieve_regularization(
            self.pool, self.target, r["threshold"], r["cap"],
            feat.caption_featurizer(self.base.vocab))

    def run_round(self, r, tracer=None):
        tcfg = finetune.FineTuneConfig(**{**self.cfg["train"],
                                          "seed": derived_seed(self.seed, r)})
        res = RoundResult(tcfg.steps)
        starts, ends, ticks = [], [], []
        inner = datamod.balanced_batches

        def marked(*args, **kwargs):
            # each draw from the batch stream ends one training step and
            # starts the next; the clock's kernel runs in between
            gen = inner(*args, **kwargs)
            while True:
                if starts:
                    ends.append(cpu_time())
                ticks.append(self.clock.tick())
                if tracer is not None:
                    tracer.op = (r, len(starts))
                starts.append(cpu_time())
                yield next(gen)

        datamod.balanced_batches = marked
        try:
            report = finetune.finetune(self.base, [(self.concept, self.modifier)],
                                       tcfg, self.reg, self.sched)
            t1 = cpu_time()
        except Exception as exc:                      # counted, run goes on
            res.failed = res.attempted
            report_failure(f"round {r}", f"{type(exc).__name__}: {exc}")
            return res
        finally:
            datamod.balanced_batches = inner
            if tracer is not None:
                tracer.op = None
        res.op_ms = list((np.array(ends + [t1]) - np.array(starts)) * 1e3)
        res.op_ids = [(r, k) for k in range(len(starts))]
        res.op_ticks = ticks
        self.tuned = report.model
        self.problems += checks.check_frozen(self.base.params, report.model.params)
        self.problems += checks.check_losses(report.loss_curve, tcfg.steps)
        others = np.delete(np.arange(len(self.base.vocab.tokens)), self.modifier.token_index)
        if not np.array_equal(report.model.vocab.embeddings[others],
                              self.base.vocab.embeddings[others]):
            self.problems.append("a non-modifier token embedding changed")
        return res

    def final_checks(self):
        m, f, r = self.cfg["model"], self.cfg["featurizer"], self.cfg["retrieval"]
        kept = [i for i, ex in enumerate(self.pool)
                if any(ex is k for k in self.reg.examples)]
        self.problems += checks.check_retrieval(
            [ex.caption for ex in self.pool], kept, self.target, r["threshold"],
            self.base.vocab, f["feature_dim"], f["seed"], (m["height"], m["width"]))
        if len(self.pool) > r["cap"]:
            self.problems.append("pool exceeds the retrieval cap")
        if not hasattr(self, "tuned"):
            return
        rng = np.random.default_rng(derived_seed(self.seed, FD_TAG, 0))
        stream = datamod.balanced_batches(self.concept, self.reg,
                                          self.cfg["train"]["batch"], rng)
        batch = [datamod.augment(ex, rng) if is_target else ex
                 for ex, is_target in next(stream)]
        self.problems += checks.check_kv_gradient(
            self.tuned, batch, self.sched, derived_seed(self.seed, FD_TAG, 1),
            n_entries=FD_ENTRIES, pick_seed=derived_seed(self.seed, FD_TAG, 2))


class SampleGuided(Workload):
    """Guided ancestral sampling at the config's scale (6, so both branches
    run). One operation is one image; one round is one image per category
    prompt."""

    name = "sample_guided"

    def setup(self):
        self.prepare()
        self.base, self.sched = checkpoint.load_model(self.path("base.ckpt"))
        vocab = self.base.vocab
        self.conds = [textmod.encode_caption(vocab, textmod.tokenize(
            vocab, textmod.template_prompt(c))) for c in fixtures.CATEGORIES]
        self.uncond = textmod.encode_caption(vocab, textmod.tokenize(vocab, ""))
        self.scale = self.cfg["sampler"]["scale"]
        self.first = None

    def run_round(self, r, tracer=None):
        n = len(self.conds)
        res = RoundResult(n)
        for k in range(n):
            op = r * n + k
            seed = derived_seed(self.seed, op)
            tick = self.clock.tick()
            if tracer is not None:
                tracer.op = op
            try:
                t0 = cpu_time()
                x = diffusion.sample_cfg(self.base, self.conds[k], SAMPLE_STEPS, self.scale,
                                         seed, self.sched, uncond=self.uncond)
                t1 = cpu_time()
            except Exception as exc:                  # counted, run goes on
                res.failed += 1
                report_failure(f"op {op}", f"{type(exc).__name__}: {exc}")
                continue
            res.op_ms.append((t1 - t0) * 1e3)
            res.op_ids.append(op)
            res.op_ticks.append(tick)
            self.problems += checks.check_sample(x)
            if self.first is None:
                self.first = (k, seed, x)
        if tracer is not None:
            tracer.op = None
        return res

    def final_checks(self):
        if self.first is None:
            return
        k, seed, x = self.first
        again = diffusion.sample_cfg(self.base, self.conds[k], SAMPLE_STEPS, self.scale,
                                     seed, self.sched, uncond=self.uncond)
        if again.tobytes() != x.tobytes():
            self.problems.append("same seed gave different sample bytes")
        s = self.cfg["schedule"]
        ref = checks.reference_sample(self.base.predict, self.base.image_shape,
                                      self.conds[k], self.uncond, SAMPLE_STEPS,
                                      self.scale, seed, s["T"], s["beta_start"],
                                      s["beta_end"])
        self.problems += checks.check_sample(x, ref)


class ComposeMerge(Workload):
    """The README compose path through kvdiff.cli.run_command: set-up
    fine-tunes two concepts; one operation is one `merge` of their deltas
    followed by one `compress` at energy 0.6. One round is five operations."""

    name = "compose_merge"
    ops_per_round = 5
    targets = [["photo of a <new1> blob"], ["photo of a <new2> ring"]]

    def setup(self):
        self.prepare(train={"steps": COMPOSE_TRAIN_STEPS, "seed": self.seed})
        cfg, fx = self.path("config.json"), self.path("fx")
        for n, (concept, source) in enumerate([("blob", None), ("ring", "pkz")], 1):
            argv = ["finetune", "--config", cfg, "--model", self.path("base.ckpt"),
                    "--concept", os.path.join(fx, f"concept_{concept}.json"),
                    "--modifier", f"<new{n}>", "--reg-pool",
                    os.path.join(fx, "reg_pool.json"),
                    "--out", self.path(f"tuned{n}.ckpt"),
                    "--out-delta", self.path(f"delta{n}.ckpt")]
            if source:
                argv += ["--modifier-source", source]
            run_cli(argv)
        with open(self.path("targets.json"), "w") as fh:
            json.dump(self.targets, fh)
        self.merge_argv = ["merge", "--config", cfg, "--base", self.path("base.ckpt"),
                           "--delta", self.path("delta1.ckpt"), self.path("delta2.ckpt"),
                           "--targets", self.path("targets.json"),
                           "--reg-captions", os.path.join(fx, "reg_captions.json"),
                           "--out", self.path("merged.ckpt")]
        self.compress_argv = ["compress", "--config", cfg,
                              "--delta", self.path("delta1.ckpt"),
                              "--energy", COMPOSE_ENERGY,
                              "--out", self.path("delta1_small.ckpt")]
        self.outputs = None

    def fingerprint(self):
        return _sha([self.path(p) for p in ("base.ckpt", "delta1.ckpt", "delta2.ckpt")])

    def run_round(self, r, tracer=None):
        res = RoundResult(self.ops_per_round)
        for k in range(self.ops_per_round):
            op = r * self.ops_per_round + k
            tick = self.clock.tick()
            if tracer is not None:
                tracer.op = op
            t0 = cpu_time()
            codes = (cli.run_command(self.merge_argv), cli.run_command(self.compress_argv))
            t1 = cpu_time()
            if codes != (0, 0):
                res.failed += 1
                report_failure(f"op {op}", f"merge/compress exited with {codes}")
                continue
            res.op_ms.append((t1 - t0) * 1e3)
            res.op_ids.append(op)
            res.op_ticks.append(tick)
            outputs = (_read(self.path("merged.ckpt")), _read(self.path("delta1_small.ckpt")))
            if self.outputs is None:
                self.outputs = outputs
            elif outputs != self.outputs:
                self.problems.append(f"op {op}: outputs differ from the first operation's")
        if tracer is not None:
            tracer.op = None
        return res

    def final_checks(self):
        if self.outputs is None:
            return
        base, _ = checkpoint.load_model(self.path("base.ckpt"))
        deltas = [checkpoint.load_delta(self.path(f"delta{n}.ckpt")) for n in (1, 2)]
        merged, sched = checkpoint.load_model(self.path("merged.ckpt"))
        small = checkpoint.load_delta(self.path("delta1_small.ckpt"))
        self.problems += checks.check_frozen(base.params, merged.params)

        # the set-up's fine-tunes: frozen weights untouched, each delta is
        # exactly tuned - base, and tuned1's K/V gradient matches finite
        # differences
        for n, delta in enumerate(deltas, 1):
            tuned, _ = checkpoint.load_model(self.path(f"tuned{n}.ckpt"))
            self.problems += checks.check_frozen(base.params, tuned.params)
            for key in base.params:
                e = delta.entries.get((key.layer, key.role))
                if e is not None and e.dense.tobytes() != (
                        tuned.params[key] - base.params[key]).tobytes():
                    self.problems.append(f"delta{n} {key} is not tuned - base")
            if n == 1:
                rng = np.random.default_rng(derived_seed(self.seed, FD_TAG, 0))
                concept = datamod.load_dataset(self.path("fx", "concept_blob.json"))
                pool = datamod.load_dataset(self.path("fx", "reg_pool.json"))
                batch = [datamod.augment(ex, rng) for ex in concept] + pool[:4]
                self.problems += checks.check_kv_gradient(
                    tuned, batch, sched, derived_seed(self.seed, FD_TAG, 1),
                    n_entries=FD_ENTRIES, pick_seed=derived_seed(self.seed, FD_TAG, 2))

        c_rows, owners = checks.constraint_rows(base.vocab, self.targets, deltas)
        with open(self.path("fx", "reg_captions.json")) as fh:
            creg = checks.reg_rows(base.vocab, json.load(fh))
        for key in sorted(base.params):
            if key.role not in checks.KV_ROLES:
                continue
            w0 = base.params[key]
            ws = [w0 + d.entries[(key.layer, key.role)].dense for d in deltas]
            self.problems += [f"{key}: {p}" for p in checks.check_merge(
                w0, ws, c_rows, owners, creg, merged.params[key])]
            e = small.entries[(key.layer, key.role)]
            self.problems += [f"{key}: {p}" for p in checks.check_compression(
                deltas[0].entries[(key.layer, key.role)].dense, e.u, e.sigma, e.vt,
                e.residual, float(COMPOSE_ENERGY))]
        for n, delta in enumerate(deltas, 1):
            for name, emb in delta.modifier_embeddings:
                got = merged.vocab.embeddings[merged.vocab.index(name)]
                if got.tobytes() != np.asarray(emb).tobytes():
                    self.problems.append(f"merged embedding of {name} differs from delta {n}")

        # save -> load round trips are exact, in bytes and in values
        expect = diffusion.NoiseSchedule.linear(**self.cfg["schedule"])
        if not np.array_equal(sched.betas, expect.betas):
            self.problems.append("merged checkpoint reloads a different noise schedule")
        checkpoint.save_model(self.path("resaved.ckpt"), merged, sched,
                              kind=checkpoint.KIND_MERGED)
        if _read(self.path("resaved.ckpt")) != self.outputs[0]:
            self.problems.append("merged checkpoint changes bytes on save -> load -> save")
        again, _ = checkpoint.load_model(self.path("resaved.ckpt"))
        if any(again.params[k].tobytes() != merged.params[k].tobytes() for k in merged.params):
            self.problems.append("merged parameters change on save -> load")
        checkpoint.save_delta(self.path("resaved_delta.ckpt"), small)
        if _read(self.path("resaved_delta.ckpt")) != self.outputs[1]:
            self.problems.append("compressed delta changes bytes on save -> load -> save")


WORKLOADS = {w.name: w for w in (FinetuneKV, SampleGuided, ComposeMerge)}
