"""Frozen reference featurizer and the alignment / KID metrics computed over it."""

import numpy as np

from . import textmod
from .config import DEFAULT_CONFIG, check_section
from .errors import InvalidInput

_FEATURIZER = DEFAULT_CONFIG["featurizer"]


class ReferenceFeaturizer:
    """Deterministic stand-in for a pretrained embedder: a fixed-seed random
    projection with a tanh nonlinearity, unit-normalized, shared output space
    for images and pooled text embeddings. Independent of all trained models."""

    def __init__(self, image_shape, text_dim, feature_dim=_FEATURIZER["feature_dim"],
                 seed=_FEATURIZER["seed"]):
        check_section("featurizer", {"feature_dim": feature_dim, "seed": seed})
        self.image_shape = tuple(image_shape)
        n = image_shape[0] * image_shape[1]
        rng = np.random.default_rng(seed)
        self._img_proj = rng.normal(0.0, 1.0 / np.sqrt(n), size=(feature_dim, n))
        self._txt_proj = rng.normal(0.0, 1.0 / np.sqrt(text_dim),
                                    size=(feature_dim, text_dim))

    @staticmethod
    def _normalize(v):
        return v / max(np.linalg.norm(v), 1e-300)

    def image_features(self, image):
        image = np.asarray(image, dtype=np.float64)
        if image.shape != self.image_shape:
            raise InvalidInput(f"expected image shape {self.image_shape}, got {image.shape}")
        return self._normalize(np.tanh(self._img_proj @ image.reshape(-1)))

    def text_features(self, vocab, caption):
        """Mean-pooled token embeddings of the modifier-stripped caption; a
        vocabulary of another width than text_dim is InvalidInput."""
        if vocab.dim != self._txt_proj.shape[1]:
            raise InvalidInput(f"the featurizer takes {self._txt_proj.shape[1]}-wide token "
                               f"embeddings, the vocabulary's are {vocab.dim}-wide")
        seq = textmod.tokenize(vocab, textmod.strip_modifiers(vocab, caption))
        pooled = textmod.encode_caption(vocab, seq).mean(axis=0)
        return self._normalize(np.tanh(self._txt_proj @ pooled))

    def caption_featurizer(self, vocab):
        """str -> unit feature vector closure, for retrieval."""
        return lambda caption: self.text_features(vocab, caption)


def image_alignment(generated, targets, feat):
    """Mean over generated images of the mean cosine similarity to the
    target image features."""
    if not len(generated) or not len(targets):
        raise InvalidInput("generated and target sets must be non-empty")
    tfeats = np.stack([feat.image_features(t) for t in targets])
    return float(np.mean([(tfeats @ feat.image_features(img)).mean() for img in generated]))


def text_alignment(generated, prompt, feat, vocab):
    """Mean cosine between generated image features and the modifier-stripped
    prompt feature."""
    if not len(generated):
        raise InvalidInput("generated set must be non-empty")
    stripped = textmod.strip_modifiers(vocab, prompt)
    if not stripped.strip():
        raise InvalidInput("prompt is empty after modifier stripping")
    tf = feat.text_features(vocab, prompt)
    sims = [float(tf @ feat.image_features(img)) for img in generated]
    return float(np.mean(sims))


def _poly_kernel(x, y):
    dim = x.shape[1]
    return (x @ y.T / dim + 1.0) ** 3


def kid(x_feats, y_feats):
    """Unbiased squared MMD with the cubic polynomial kernel
    k(a, b) = (a.b / dim + 1)^3."""
    x = np.asarray(x_feats, dtype=np.float64)
    y = np.asarray(y_feats, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise InvalidInput("features must be 2-D with matching dimension")
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise InvalidInput("need at least 2 samples on each side")
    kxx = _poly_kernel(x, x)
    kyy = _poly_kernel(y, y)
    kxy = _poly_kernel(x, y)
    term_x = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    term_xy = 2.0 * kxy.sum() / (m * n)
    return float(term_x + term_y - term_xy)


def model_metrics(generated, targets, prompt, feat, vocab, validation=None):
    """The metrics `kvdiff eval` writes: alignment scores, KID x 1000 against
    a validation set (None without one, since no KID was measured) and the
    sample count."""
    kid_x1000 = None
    if validation is not None:
        xf = np.stack([feat.image_features(img) for img in generated])
        yf = np.stack([feat.image_features(img) for img in validation])
        kid_x1000 = kid(xf, yf) * 1e3
    return {"text_alignment": text_alignment(generated, prompt, feat, vocab),
            "image_alignment": image_alignment(generated, targets, feat),
            "kid_x1000": kid_x1000,
            "n": len(generated)}
