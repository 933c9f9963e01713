"""Reference featurizer and the alignment / KID metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvdiff import evaluation, fixtures, textmod
from kvdiff.errors import InvalidInput


@pytest.fixture
def feat():
    return evaluation.ReferenceFeaturizer((8, 8), text_dim=8, feature_dim=16,
                                          seed=1234)


@pytest.fixture
def fx_vocab():
    return fixtures.fixture_vocab()


def test_featurizer_deterministic_and_unit_norm(feat):
    rng = np.random.default_rng(0)
    img = rng.uniform(-1, 1, (8, 8))
    f1 = feat.image_features(img)
    f2 = evaluation.ReferenceFeaturizer((8, 8), text_dim=8, feature_dim=16,
                                        seed=1234).image_features(img)
    np.testing.assert_array_equal(f1, f2)
    assert np.linalg.norm(f1) == pytest.approx(1.0)
    with pytest.raises(InvalidInput):
        feat.image_features(img[:4])
    # different seed, different projection
    f3 = evaluation.ReferenceFeaturizer((8, 8), text_dim=8, feature_dim=16,
                                        seed=99).image_features(img)
    assert not np.allclose(f1, f3)


def test_featurizer_checks_its_arguments():
    for kwargs in ({"feature_dim": 0}, {"feature_dim": -1}, {"feature_dim": 2.0},
                   {"seed": -1}):
        with pytest.raises(InvalidInput, match="featurizer"):
            evaluation.ReferenceFeaturizer((8, 8), text_dim=8, **kwargs)


def test_text_features_strip_modifiers(feat, fx_vocab):
    textmod.register_modifier(fx_vocab, "<new1>")
    with_mod = feat.text_features(fx_vocab, "photo of a <new1> blob")
    without = feat.text_features(fx_vocab, "photo of a blob")
    np.testing.assert_array_equal(with_mod, without)
    assert np.linalg.norm(with_mod) == pytest.approx(1.0)


def test_text_features_of_a_vocabulary_of_another_width_are_invalid_input(feat):
    wide = textmod.build_vocabulary(["photo", "of", "a", "blob"], {"blob": 3}, dim=12)
    with pytest.raises(InvalidInput, match="8-wide.*12-wide"):
        feat.text_features(wide, "photo of a blob")


def test_image_alignment_is_mean_cosine(feat):
    rng = np.random.default_rng(1)
    targets = [rng.uniform(-1, 1, (8, 8)) for _ in range(3)]
    generated = [targets[0].copy(), rng.uniform(-1, 1, (8, 8))]
    tf = [feat.image_features(t) for t in targets]
    manual = np.mean([np.mean([f @ feat.image_features(g) for f in tf]) for g in generated])
    assert evaluation.image_alignment(generated, targets, feat) == pytest.approx(manual)
    # a generated copy of the only target scores exactly 1
    assert evaluation.image_alignment([targets[0]], targets[:1], feat) == pytest.approx(1.0)
    with pytest.raises(InvalidInput):
        evaluation.image_alignment([], targets, feat)


def test_text_alignment_validation(feat, fx_vocab):
    textmod.register_modifier(fx_vocab, "<new1>")
    rng = np.random.default_rng(2)
    generated = [rng.uniform(-1, 1, (8, 8))]
    score = evaluation.text_alignment(generated, "photo of a blob", feat, fx_vocab)
    assert -1.0 <= score <= 1.0
    with pytest.raises(InvalidInput):
        evaluation.text_alignment(generated, "<new1>", feat, fx_vocab)
    with pytest.raises(InvalidInput):
        evaluation.text_alignment([], "photo of a blob", feat, fx_vocab)


def test_kid_input_validation():
    x = np.random.default_rng(0).standard_normal((5, 4))
    with pytest.raises(InvalidInput):
        evaluation.kid(x, x[:, :3])
    with pytest.raises(InvalidInput):
        evaluation.kid(x[:1], x)
    with pytest.raises(InvalidInput):
        evaluation.kid(x[None], x)


def test_kid_symmetry_and_identical_sets():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 6))
    y = rng.standard_normal((25, 6))
    assert evaluation.kid(x, y) == pytest.approx(evaluation.kid(y, x))
    # identical sets: unbiased estimate is exactly the negative of the
    # diagonal correction, small compared to a genuinely shifted set
    same = abs(evaluation.kid(x, x))
    shifted = evaluation.kid(x, y + 3.0)
    assert shifted > 10 * same


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_kid_detects_mean_shift(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((15, 5))
    y = rng.standard_normal((15, 5)) + 2.0
    assert evaluation.kid(x, y) > 0


def test_model_metrics_bundle(feat, fx_vocab):
    rng = np.random.default_rng(4)
    generated = [rng.uniform(-1, 1, (8, 8)) for _ in range(3)]
    targets = [rng.uniform(-1, 1, (8, 8)) for _ in range(2)]
    validation = [rng.uniform(-1, 1, (8, 8)) for _ in range(3)]
    metrics = evaluation.model_metrics(generated, targets, "photo of a blob",
                                       feat, fx_vocab, validation=validation)
    assert set(metrics) == {"text_alignment", "image_alignment", "kid_x1000", "n"}
    assert metrics["n"] == 3
    # unbiased KID can be negative, so only its value is checked
    xf = np.stack([feat.image_features(img) for img in generated])
    yf = np.stack([feat.image_features(img) for img in validation])
    assert metrics["kid_x1000"] == evaluation.kid(xf, yf) * 1e3
    assert metrics["image_alignment"] == evaluation.image_alignment(generated, targets, feat)
    assert metrics["text_alignment"] == evaluation.text_alignment(
        generated, "photo of a blob", feat, fx_vocab)
    # without a validation set no KID is measured, and none is reported
    assert evaluation.model_metrics(generated, targets, "photo of a blob",
                                    feat, fx_vocab)["kid_x1000"] is None
