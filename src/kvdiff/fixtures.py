"""Procedural desk-scale fixture data: a closed toy vocabulary with corpus
counts, 8x8 renderers for a handful of image categories, a distinctive target
concept, and a captioned regularization pool.

Run `python -m kvdiff.fixtures OUTDIR` to materialize the JSON files the CLI
consumes.
"""

import json
import os
import sys

import numpy as np

from . import textmod
from .data import ConceptExample

CATEGORIES = ("blob", "ring", "stripes", "corner", "notch")

_AUG_WORDS = ("zoomed", "in", "close", "up", "far", "away", "very", "small")

# rare-token candidates: alphabetic, 5-10 corpus occurrences, not substrings
_RARE = {"sks": 7, "pkz": 6, "vxq": 9}

H = W = 8  # image size
_II, _JJ = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")  # pixel coordinates


def fixture_vocab():
    tokens = list(textmod.TEMPLATE_WORDS) + list(CATEGORIES) + list(_AUG_WORDS)
    counts = {"photo": 5000, "of": 9000, "a": 12000}
    counts.update({c: 300 + 17 * i for i, c in enumerate(CATEGORIES)})
    counts.update({w: 150 + 11 * i for i, w in enumerate(_AUG_WORDS)})
    counts.update(_RARE)
    tokens += list(_RARE)
    # "cat"/"cats" pair exercises the substring exclusion; both in the 5-10 band
    tokens += ["cat", "cats"]
    counts.update({"cat": 8, "cats": 6})
    for i in range(160):
        tok = f"w{i:03d}"
        tokens.append(tok)
        counts[tok] = 20 + (i * 13) % 400
    return textmod.build_vocabulary(tokens, counts, dim=8, seed=7, scale=3.0)


def render_category(category, rng):
    if category == "blob":
        ci = 2.0 + 3.0 * rng.random()
        cj = 2.0 + 3.0 * rng.random()
        img = -0.8 + 1.8 * np.exp(-((_II - ci) ** 2 + (_JJ - cj) ** 2) / 2.6)
    elif category == "ring":
        ci = 3.0 + rng.random()
        cj = 3.0 + rng.random()
        r = np.sqrt((_II - ci) ** 2 + (_JJ - cj) ** 2)
        img = -0.8 + 1.7 * np.exp(-((r - 2.5) ** 2) / 0.9)
    elif category == "stripes":
        phase = rng.random() * 2 * np.pi
        img = 0.85 * np.sin(_JJ * np.pi / 1.5 + phase) * np.ones_like(_II, dtype=float)
    elif category == "corner":
        # position-anchored: bright patch pinned to the top-left corner
        amp = 0.8 + 0.2 * rng.random()
        img = np.full((H, W), -0.7)
        img[0:3, 0:3] = amp
        img += 0.05 * rng.standard_normal((H, W))
    elif category == "notch":
        # position-anchored: dark square pinned to the bottom-right corner
        img = np.full((H, W), 0.4 + 0.2 * rng.random())
        img[H - 2:, W - 2:] = -1.0
        img += 0.05 * rng.standard_normal((H, W))
    else:
        raise ValueError(f"unknown category {category!r}")
    return np.clip(img, -1.0, 1.0)


def pretrain_dataset(n_per_category=40):
    rng = np.random.default_rng(11)
    out = []
    for category in CATEGORIES:
        for _ in range(n_per_category):
            out.append(ConceptExample(image=render_category(category, rng),
                                      caption=textmod.template_prompt(category)))
    return out


def target_concept():
    """A distinctive concept captioned as a "blob" but looking nothing like
    the pretraining blobs: bright field, dark bottom-right square, brighter
    top-left patch. Far from the blob mode, yet composed of layouts the base
    model has seen."""
    rng = np.random.default_rng(23)
    out = []
    for _ in range(4):
        img = np.full((H, W), 0.45 + 0.1 * rng.random())
        img[0:3, 0:3] = 0.95
        img[H - 2:, W - 2:] = -1.0
        img += 0.03 * rng.standard_normal((H, W))
        out.append(ConceptExample(image=np.clip(img, -1, 1),
                                  caption="photo of a <new1> blob"))
    return out


def second_concept():
    """A distinctive "ring" instance for two-concept experiments."""
    rng = np.random.default_rng(29)
    out = []
    for _ in range(4):
        r = np.sqrt((_II - 1.5) ** 2 + (_JJ - 5.5) ** 2)
        img = -0.9 + 1.9 * np.exp(-((r - 1.8) ** 2) / 0.5)
        img += 0.03 * rng.standard_normal((H, W))
        out.append(ConceptExample(image=np.clip(img, -1, 1),
                                  caption="photo of a <new2> ring"))
    return out


def regularization_pool():
    """Pool of captioned images: 30 blob-captioned entries that should clear
    the retrieval threshold for a blob target, plus 6 distractors of each
    other category."""
    rng = np.random.default_rng(31)
    pool = []
    for _ in range(30):
        pool.append(ConceptExample(image=render_category("blob", rng),
                                   caption="photo of a blob"))
    for category in ("ring", "stripes", "corner", "notch"):
        for _ in range(6):
            pool.append(ConceptExample(image=render_category(category, rng),
                                       caption=f"photo of a {category}"))
    return pool


def reg_caption_pool(n=40):
    """Caption-only pool for the merge regularization features."""
    rng = np.random.default_rng(37)
    caps = []
    for i in range(n):
        cat = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
        filler = f"w{int(rng.integers(160)):03d}"
        caps.append(f"photo of a {cat} {filler}")
    return caps


def write_fixture_files(outdir):
    from .data import save_dataset
    os.makedirs(outdir, exist_ok=True)
    vocab = fixture_vocab()
    textmod.save_vocabulary_spec(vocab, os.path.join(outdir, "vocab.json"))
    save_dataset(pretrain_dataset(), os.path.join(outdir, "pretrain.json"))
    save_dataset(target_concept(), os.path.join(outdir, "concept_blob.json"))
    save_dataset(second_concept(), os.path.join(outdir, "concept_ring.json"))
    save_dataset(regularization_pool(), os.path.join(outdir, "reg_pool.json"))
    with open(os.path.join(outdir, "reg_captions.json"), "w") as fh:
        json.dump(reg_caption_pool(), fh, indent=1)


if __name__ == "__main__":
    write_fixture_files(sys.argv[1] if len(sys.argv) > 1 else "fixtures")
