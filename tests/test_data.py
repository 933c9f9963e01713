"""Datasets, retrieval, resize augmentation, and batch balancing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvdiff import data as datamod
from kvdiff import evaluation, fixtures
from kvdiff.errors import EmptyRegularizationSetWarning, InvalidInput


def _sample(h=8, w=8, seed=0):
    rng = np.random.default_rng(seed)
    return datamod.ConceptExample(image=rng.uniform(-1, 1, (h, w)),
                                  caption="photo of a blob")


def test_dataset_round_trip(tmp_path):
    examples = [_sample(seed=i) for i in range(3)]
    path = str(tmp_path / "data.json")
    datamod.save_dataset(examples, path)
    loaded = datamod.load_dataset(path)
    assert len(loaded) == 3
    for a, b in zip(examples, loaded):
        assert a.caption == b.caption
        np.testing.assert_array_equal(a.image, b.image)


def test_augment_upscale():
    out = datamod.augment(_sample(), np.random.default_rng(0), ratio=1.3)
    assert out.image.shape == (8, 8)
    assert out.caption.endswith(("zoomed in", "close up"))
    np.testing.assert_array_equal(out.valid_mask, np.ones((8, 8)))


def test_augment_identity():
    s = _sample()
    out = datamod.augment(s, np.random.default_rng(0), ratio=1.0)
    np.testing.assert_array_equal(out.image, s.image)
    assert out.caption == s.caption


@given(st.floats(0.4, 0.99), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_augment_downscale_mask_marks_pasted_pixels(ratio, seed):
    s = _sample(seed=seed)
    s.image[s.image == 0.0] = 0.5       # no source pixel looks like the canvas
    out = datamod.augment(s, np.random.default_rng(seed), ratio=ratio)
    pasted = out.valid_mask.astype(bool)
    # everything outside the mask is the 0.0 canvas, everything inside came
    # from the image
    assert np.all(out.image[~pasted] == 0.0)
    assert np.all(out.image[pasted] != 0.0)
    assert pasted.sum() == max(int(round(ratio * 8)), 1) ** 2
    if ratio < 0.6:
        assert out.caption.endswith(("far away", "very small"))
    else:
        assert out.caption == s.caption


def test_augment_random_ratio_branches():
    rng = np.random.default_rng(7)
    ratios = [datamod.augment(_sample(), rng).ratio for _ in range(200)]
    assert any(r > 1.0 for r in ratios)
    assert any(r < 1.0 for r in ratios)
    assert all(0.4 <= r <= 1.4 for r in ratios)


def _augment_reference(sample, rng, ratio=None):
    """augment() from the nearest-resize definition, one pixel at a time:
    resized pixel (i, j) of a (new_h, new_w) resize is source pixel
    (i h // new_h, j w // new_w); any ratio above 1 keeps the centered crop,
    any other pastes the resize centered on a canvas of zeros."""
    h, w = sample.image.shape
    if ratio is None:
        ratio = (float(rng.uniform(1.2, 1.4)) if rng.random() < 1.0 / 3.0
                 else float(rng.uniform(0.4, 1.0)))
    new_h, new_w = max(int(round(ratio * h)), 1), max(int(round(ratio * w)), 1)
    image, mask = np.zeros((h, w)), np.zeros((h, w))
    caption = sample.caption
    if ratio > 1.0:
        top, left = (new_h - h) // 2, (new_w - w) // 2
        for y in range(h):
            for x in range(w):
                image[y, x] = sample.image[(top + y) * h // new_h, (left + x) * w // new_w]
                mask[y, x] = 1.0
        caption += " " + ("zoomed in", "close up")[int(rng.integers(2))]
    else:
        top, left = (h - new_h) // 2, (w - new_w) // 2
        for i in range(new_h):
            for j in range(new_w):
                image[top + i, left + j] = sample.image[i * h // new_h, j * w // new_w]
                mask[top + i, left + j] = 1.0
        if ratio < 0.6:
            caption += " " + ("far away", "very small")[int(rng.integers(2))]
    return image, mask, caption, ratio


@pytest.mark.parametrize("shape", [(1, 1), (1, 8), (3, 5), (8, 8)])
def test_augment_matches_the_nearest_resize_reference_bit_for_bit(shape):
    """Drawn ratios, and forced ones at the branch edges; at h = 1 a ratio of
    1.3 and at h = 3 a ratio of 1.1 up-scale to the image's own height. The
    generator ends where the reference's does, and the shared mask refuses
    writes."""
    forced = [0.4, 0.55, 0.6, 0.75, 0.99, 1.0, 1.1, 1.2, 1.3, 1.4]
    for k, ratio in enumerate(forced + [None] * 30):
        s = _sample(*shape, seed=k)
        got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
        out = datamod.augment(s, got_rng, ratio=ratio)
        image, mask, caption, r = _augment_reference(s, want_rng, ratio)
        assert out.image.tobytes() == image.tobytes() and out.image.shape == shape
        assert out.valid_mask.tobytes() == mask.tobytes() and out.valid_mask.shape == shape
        assert (out.caption, out.ratio) == (caption, r)
        assert got_rng.random() == want_rng.random()
        with pytest.raises(ValueError):
            out.valid_mask[0, 0] = 0.5


@pytest.fixture
def pool_and_featurizer():
    vocab = fixtures.fixture_vocab()
    feat = evaluation.ReferenceFeaturizer((8, 8), text_dim=8, feature_dim=16,
                                          seed=1234)
    return fixtures.regularization_pool(), feat.caption_featurizer(vocab)


def test_retrieval_filters_and_caps(pool_and_featurizer):
    pool, featurize = pool_and_featurizer
    reg = datamod.retrieve_regularization(pool, "photo of a blob", 0.85, 200,
                                          featurize)
    captions = [ex.caption for ex in reg.examples]
    # every exact-caption match survives; the least similar category is cut
    assert captions.count("photo of a blob") == 30
    assert "photo of a notch" not in captions
    # results are ordered by similarity, so a tight cap keeps exact matches
    capped = datamod.retrieve_regularization(pool, "photo of a blob", 0.85, 5,
                                             featurize)
    assert len(capped.examples) == 5
    assert all(ex.caption == "photo of a blob" for ex in capped.examples)
    with pytest.raises(InvalidInput):
        datamod.retrieve_regularization(pool, "photo of a blob", 1.5, 5, featurize)


def test_retrieval_warns_when_empty(pool_and_featurizer):
    pool, _ = pool_and_featurizer
    # orthogonal featurizer: nothing in the pool resembles the target caption
    featurize = lambda cap: (np.array([1.0, 0.0]) if cap == "photo of a griffin"
                             else np.array([0.0, 1.0]))
    with pytest.warns(EmptyRegularizationSetWarning):
        reg = datamod.retrieve_regularization(pool, "photo of a griffin",
                                              0.5, 5, featurize)
    assert reg.examples == []


def test_balanced_batches_split():
    targets = [_sample(seed=i) for i in range(2)]
    reg = datamod.RegularizationSet(examples=[_sample(seed=9)])
    rng = np.random.default_rng(0)
    stream = datamod.balanced_batches(targets, reg, batch=6, rng=rng)
    batch = next(stream)
    assert len(batch) == 6
    assert sum(1 for _, is_target in batch if is_target) == 3
    # without a reg set the stream is all-target
    stream = datamod.balanced_batches(targets, None, batch=4, rng=rng)
    assert all(is_target for _, is_target in next(stream))
    with pytest.raises(InvalidInput):
        next(datamod.balanced_batches(targets, None, batch=1, rng=rng))
    # an empty target set is an error, with or without regularization images
    for reg_set in (None, reg):
        with pytest.raises(InvalidInput, match="target set is empty"):
            next(datamod.balanced_batches([], reg_set, batch=4, rng=rng))
