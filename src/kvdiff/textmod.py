"""Word-level tokenizer, embedding table, modifier-token lifecycle, prompt templates."""

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .config import read_json
from .errors import InvalidInput, NoRareToken, UnknownToken

START_TOKEN = "<s>"
TEMPLATE_WORDS = ("photo", "of", "a")


@dataclass
class ModifierToken:
    name: str
    token_index: int
    source_token: str


@dataclass
class Vocabulary:
    tokens: list
    embeddings: np.ndarray          # (|V|, d)
    start_token: int
    corpus_counts: dict
    modifiers: dict = field(default_factory=dict)
    seed: int = 0
    scale: float = 1.0
    _index: dict = field(default=None, repr=False)

    def __post_init__(self):
        self._index = dict(zip(self.tokens, range(len(self.tokens))))
        if len(self._index) != len(self.tokens):
            raise InvalidInput("duplicate tokens in vocabulary")
        if self.embeddings.shape[0] != len(self.tokens):
            raise InvalidInput("embedding row count != vocabulary size")

    @property
    def dim(self):
        return self.embeddings.shape[1]

    def index(self, word):
        try:
            return self._index[word]
        except KeyError:
            raise UnknownToken(word) from None

    def clone(self):
        """A copy with its own tokens, embeddings, counts, modifier table and
        index; the index is copied, not rebuilt and checked again."""
        out = copy.copy(self)
        out.tokens, out.embeddings = list(self.tokens), self.embeddings.copy()
        out.corpus_counts, out.modifiers = dict(self.corpus_counts), dict(self.modifiers)
        out._index = dict(self._index)
        return out


def build_vocabulary(tokens, counts, dim, seed=0, scale=1.0):
    """Embeddings are generated deterministically from the seed; the start
    token is prepended if missing. `scale` is the per-component standard
    deviation; keeping token norms comparable to the image-feature stream
    keeps the key/value gradient pathway well-scaled."""
    tokens = list(tokens)
    if START_TOKEN not in tokens:
        tokens = [START_TOKEN] + tokens
    rng = np.random.default_rng(seed)
    emb = rng.normal(0.0, scale, size=(len(tokens), dim))
    return Vocabulary(tokens=tokens, embeddings=emb, start_token=tokens.index(START_TOKEN),
                      corpus_counts=dict(counts), seed=seed, scale=scale)


def load_vocabulary(path):
    spec = read_json(path, "vocabulary")
    return build_vocabulary(spec["tokens"], spec["counts"], spec["dim"], spec.get("seed", 0),
                            scale=spec.get("scale", 1.0))


def save_vocabulary_spec(vocab, path):
    spec = {"tokens": [t for t in vocab.tokens if t != START_TOKEN],
            "counts": vocab.corpus_counts, "dim": vocab.dim, "seed": vocab.seed,
            "scale": vocab.scale}
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)


def tokenize(vocab, caption):
    try:
        return [vocab.start_token, *map(vocab._index.__getitem__, caption.split())]
    except KeyError as exc:     # the first word missing from the vocabulary
        raise UnknownToken(exc.args[0]) from None


def select_rare_token(vocab, exclude=()):
    """Pick the first token with 5-10 corpus occurrences, purely alphabetic,
    and not a substring of any other vocabulary token. `exclude` skips tokens
    already claimed (each registered modifier keeps its own source)."""
    for i, tok in enumerate(vocab.tokens):
        if tok in exclude:
            continue
        count = vocab.corpus_counts.get(tok, 0)
        if not 5 <= count <= 10:
            continue
        if not tok.isalpha():
            continue
        if any(tok in other for other in vocab.tokens if other != tok):
            continue
        return i
    raise NoRareToken("no token with 5-10 occurrences, alphabetic, non-substring")


def register_modifier(vocab, name, source=None):
    """Add a trainable modifier token initialised from a rare token embedding.

    Sources already used by existing modifiers are skipped so distinct
    concepts start from distinct embeddings. Pass `source` explicitly when
    concepts are trained in separate runs and must not collide."""
    if source is not None:
        src = vocab.index(source)
    else:
        used = {m.source_token for m in vocab.modifiers.values()}
        src = select_rare_token(vocab, exclude=used)
    return register_modifier_with_embedding(vocab, name, vocab.embeddings[src],
                                            source_token=vocab.tokens[src])


def register_modifier_with_embedding(vocab, name, embedding, source_token=""):
    """Add a modifier token with the given embedding: the one way a token
    joins a vocabulary (`register_modifier`, delta application, merging). A
    modifier is a new token, so a name already in the vocabulary, modifier
    or ordinary word, is an input error."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if name in vocab._index:
        raise InvalidInput(f"token {name!r} already in vocabulary")
    if embedding.shape != (vocab.dim,):
        raise InvalidInput(f"embedding of {name!r} has shape {embedding.shape}, "
                           f"expected ({vocab.dim},)")
    idx = len(vocab.tokens)
    vocab.tokens.append(name)
    vocab.embeddings = np.vstack([vocab.embeddings, embedding[None, :]])
    vocab.corpus_counts[name] = 0
    vocab._index[name] = idx
    mod = ModifierToken(name=name, token_index=idx, source_token=source_token)
    vocab.modifiers[name] = mod
    return mod


def encode_caption(vocab, seq):
    seq = list(seq)
    if seq and not (0 <= min(seq) and max(seq) < len(vocab.tokens)):
        raise InvalidInput("token index out of range")
    return vocab.embeddings[seq]    # fancy indexing copies


def template_prompt(category):
    if not category:
        raise InvalidInput("category must be non-empty")
    return f"photo of a {category}"


def strip_modifiers(vocab, caption):
    """Remove registered modifier tokens from a prompt (evaluation convention)."""
    words = [w for w in caption.split() if w not in vocab.modifiers]
    return " ".join(words)
