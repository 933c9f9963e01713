"""Concept datasets, regularization-set construction, resize augmentation,
and balanced target/regularization batch streams."""

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import diffusion, textmod
from .config import check_section, read_json
from .errors import EmptyRegularizationSetWarning, InvalidInput


@dataclass
class ConceptExample:
    image: np.ndarray      # (H, W), values in [-1, 1]
    caption: str


@dataclass
class RegularizationSet:
    examples: list


@dataclass
class AugmentedSample:
    image: np.ndarray
    caption: str
    valid_mask: np.ndarray
    ratio: float


def load_dataset(path):
    out = []
    for row in read_json(path, "dataset"):
        img = np.asarray(row["pixels"], dtype=np.float64).reshape(row["height"], row["width"])
        out.append(ConceptExample(image=img, caption=row["caption"]))
    return out


def save_dataset(examples, path):
    """The bytes json.dump gives the list of rows, written one row at a
    time through json.dumps, which runs the C encoder (json.dump runs the
    pure-Python one) and holds one row's text, not the whole file's."""
    with open(path, "w") as fh:
        fh.write("[")
        for i, ex in enumerate(examples):
            pixels = np.asarray(ex.image, dtype=np.float64).reshape(-1).tolist()
            row = {"caption": ex.caption, "width": ex.image.shape[1],
                   "height": ex.image.shape[0], "pixels": pixels}
            fh.write((", " if i else "") + json.dumps(row))
        fh.write("]")


def retrieve_regularization(pool, target_caption, threshold, cap, text_featurizer):
    """Keep pool entries whose caption feature has cosine similarity >= threshold
    to the target caption, top-`cap` by descending similarity."""
    check_section("retrieval", {"threshold": threshold, "cap": cap})
    target = np.asarray(text_featurizer(target_caption), dtype=np.float64)
    target = target / max(np.linalg.norm(target), 1e-300)
    scored = []
    for i, ex in enumerate(pool):
        feat = np.asarray(text_featurizer(ex.caption), dtype=np.float64)
        feat = feat / max(np.linalg.norm(feat), 1e-300)
        sim = float(feat @ target)
        if sim >= threshold:
            scored.append((-sim, i, ex))
    scored.sort(key=lambda t: (t[0], t[1]))
    kept = [ex for _, _, ex in scored[:cap]]
    if not kept:
        warnings.warn("no pool caption cleared the similarity threshold",
                      EmptyRegularizationSetWarning)
    return RegularizationSet(examples=kept)


def generate_regularization(model, category, count, seed, sched, steps, scale):
    """Sample `count` regularization images from the pretrained model with the
    bare-category prompt."""
    prompt = textmod.template_prompt(category)
    images = diffusion.sample_prompt(model, prompt, count, seed, sched, steps, scale)
    return RegularizationSet(examples=[ConceptExample(image=img, caption=prompt)
                                       for img in images])


@functools.cache
def _resize_plan(h, w, new_h, new_w, up):
    """How augment() resizes an (h, w) image to (new_h, new_w) by nearest
    neighbour: output pixel (i, j) of the resized image is source pixel
    (floor(i h / new_h), floor(j w / new_w)). Up-scaled, the centered (h, w)
    crop of the resized image is kept; down-scaled, the resized image is
    pasted centered on an (h, w) canvas. Returns the flat source index of
    each kept pixel, the canvas window it fills and the (h, w) valid mask,
    both arrays read-only."""
    rows = np.floor(np.arange(new_h) * h / new_h).astype(int)
    cols = np.floor(np.arange(new_w) * w / new_w).astype(int)
    if up:
        top, left = (new_h - h) // 2, (new_w - w) // 2
        rows, cols = rows[top:top + h], cols[left:left + w]
        window = (slice(None), slice(None))
    else:
        top, left = (h - new_h) // 2, (w - new_w) // 2
        window = (slice(top, top + new_h), slice(left, left + new_w))
    src = rows[:, None] * w + cols
    mask = np.zeros((h, w))
    mask[window] = 1.0
    src.flags.writeable = mask.flags.writeable = False
    return src, window, mask


def augment(sample, rng, ratio=None):
    """Random resize augmentation.

    1/3 of the time the image is up-scaled by 1.2-1.4x and center-cropped
    (caption suffixed "zoomed in"/"close up"); otherwise it is down-scaled by
    0.4-1.0x and pasted centered on a canvas of zeros, with "far away"/"very
    small" appended when the ratio drops below 0.6. The valid mask marks
    exactly the pasted pixels; it is shared by every sample resized alike,
    so it is read-only. Pass `ratio` to force a specific scale; any ratio
    above 1 up-scales, even one that rounds to the image's own size.
    """
    h, w = sample.image.shape
    if ratio is None:
        if rng.random() < 1.0 / 3.0:
            ratio = float(rng.uniform(1.2, 1.4))
        else:
            ratio = float(rng.uniform(0.4, 1.0))
    caption = sample.caption
    up = ratio > 1.0
    new_h, new_w = max(int(round(ratio * h)), 1), max(int(round(ratio * w)), 1)
    src, window, mask = _resize_plan(h, w, new_h, new_w, up)
    image = np.zeros((h, w))
    image[window] = sample.image.ravel()[src]
    if up:
        suffix = ("zoomed in", "close up")[int(rng.integers(2))]
        caption = f"{caption} {suffix}"
    elif ratio < 0.6:
        suffix = ("far away", "very small")[int(rng.integers(2))]
        caption = f"{caption} {suffix}"
    return AugmentedSample(image=image, caption=caption, valid_mask=mask, ratio=ratio)


def balanced_batches(targets, reg, batch, rng):
    """Infinite stream of half-target / half-regularization batches.

    Targets are oversampled with replacement. With an empty regularization
    set the batches are all-target (the w/o-reg ablation).
    """
    check_section("train", {"batch": batch})
    if not targets:
        raise InvalidInput("the target set is empty")
    reg_examples = reg.examples if reg is not None else []
    n_t = (batch + 1) // 2 if reg_examples else batch
    n_r = batch - n_t
    while True:
        out = []
        for _ in range(n_t):
            out.append((targets[int(rng.integers(len(targets)))], True))
        for _ in range(n_r):
            out.append((reg_examples[int(rng.integers(len(reg_examples)))], False))
        yield out
