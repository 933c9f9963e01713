"""Tokenizer, vocabulary, rare-token selection, and modifier lifecycle."""

import numpy as np
import pytest

from kvdiff import fixtures, textmod
from kvdiff.errors import InvalidInput, NoRareToken, UnknownToken


@pytest.fixture
def fx_vocab():
    return fixtures.fixture_vocab()


def test_tokenize_detokenize_round_trip(fx_vocab):
    caption = "photo of a blob"
    seq = textmod.tokenize(fx_vocab, caption)
    assert seq[0] == fx_vocab.start_token
    assert " ".join(fx_vocab.tokens[i] for i in seq[1:]) == caption
    with pytest.raises(UnknownToken) as err:
        textmod.tokenize(fx_vocab, "photo of a wombat on quokka")
    assert err.value.word == "wombat"


def test_vocabulary_rejects_duplicates():
    with pytest.raises(InvalidInput):
        textmod.build_vocabulary(["a", "a"], {}, dim=4)


def test_rare_token_selection(fx_vocab):
    idx = textmod.select_rare_token(fx_vocab)
    assert fx_vocab.tokens[idx] == "sks"
    # exclusion walks to the next qualifying candidate
    idx2 = textmod.select_rare_token(fx_vocab, exclude=("sks",))
    assert fx_vocab.tokens[idx2] == "pkz"
    # "cat" is in the frequency band but is a substring of "cats", so the
    # selection skips it; "cats" itself is a legitimate candidate
    idx3 = textmod.select_rare_token(fx_vocab, exclude=("sks", "pkz", "vxq"))
    assert fx_vocab.tokens[idx3] == "cats"


def test_no_rare_token_raises():
    vocab = textmod.build_vocabulary(["photo", "of", "a"],
                                     {"photo": 5000, "of": 9000, "a": 12000}, dim=4)
    with pytest.raises(NoRareToken):
        textmod.select_rare_token(vocab)


def test_register_modifier(fx_vocab):
    mod = textmod.register_modifier(fx_vocab, "<new1>")
    assert mod.source_token == "sks"
    src = fx_vocab.index("sks")
    np.testing.assert_array_equal(fx_vocab.embeddings[mod.token_index],
                                  fx_vocab.embeddings[src])
    # second concept claims a different source automatically
    mod2 = textmod.register_modifier(fx_vocab, "<new2>")
    assert mod2.source_token != mod.source_token
    with pytest.raises(InvalidInput):
        textmod.register_modifier(fx_vocab, "<new1>")


def test_register_modifier_explicit_source(fx_vocab):
    mod = textmod.register_modifier(fx_vocab, "<newx>", source="vxq")
    assert mod.source_token == "vxq"
    np.testing.assert_array_equal(fx_vocab.embeddings[mod.token_index],
                                  fx_vocab.embeddings[fx_vocab.index("vxq")])
    with pytest.raises(UnknownToken):
        textmod.register_modifier(fx_vocab, "<newy>", source="nope")


def test_register_modifier_with_embedding(fx_vocab):
    emb = np.arange(fx_vocab.dim, dtype=np.float64)
    mod = textmod.register_modifier_with_embedding(fx_vocab, "<newz>", emb)
    np.testing.assert_array_equal(fx_vocab.embeddings[mod.token_index], emb)
    # a modifier is a new token: a name already in the vocabulary, modifier
    # or ordinary word, is refused and its row left as it was
    n = len(fx_vocab.tokens)
    table = fx_vocab.embeddings.copy()
    for name in ("<newz>", "blob"):
        with pytest.raises(InvalidInput, match="already in vocabulary"):
            textmod.register_modifier_with_embedding(fx_vocab, name, emb + 1)
    assert "blob" not in fx_vocab.modifiers
    # a row of another width is an input error
    with pytest.raises(InvalidInput, match="shape"):
        textmod.register_modifier_with_embedding(fx_vocab, "<newy>", emb[:-1])
    assert len(fx_vocab.tokens) == n
    np.testing.assert_array_equal(fx_vocab.embeddings, table)


def test_vocab_spec_round_trip(tmp_path, fx_vocab):
    path = str(tmp_path / "vocab.json")
    textmod.save_vocabulary_spec(fx_vocab, path)
    loaded = textmod.load_vocabulary(path)
    assert loaded.tokens == fx_vocab.tokens
    assert loaded.scale == fx_vocab.scale
    np.testing.assert_array_equal(loaded.embeddings, fx_vocab.embeddings)


def test_encode_caption_bounds(fx_vocab):
    with pytest.raises(InvalidInput):
        textmod.encode_caption(fx_vocab, [len(fx_vocab.tokens)])


def test_template_prompt_and_strip(fx_vocab):
    textmod.register_modifier(fx_vocab, "<new1>")
    assert textmod.template_prompt("blob") == "photo of a blob"
    assert textmod.strip_modifiers(fx_vocab, "photo of a <new1> blob") == "photo of a blob"
    with pytest.raises(InvalidInput):
        textmod.template_prompt("")


def test_clone_is_independent(fx_vocab):
    clone = fx_vocab.clone()
    clone.embeddings[0, 0] += 5.0
    assert fx_vocab.embeddings[0, 0] != clone.embeddings[0, 0]
    tokens, index = list(fx_vocab.tokens), dict(fx_vocab._index)
    textmod.register_modifier(clone, "<new1>")
    assert "<new1>" not in fx_vocab.modifiers
    assert fx_vocab.tokens == tokens and fx_vocab._index == index
    assert clone.index("<new1>") == len(tokens)
    with pytest.raises(UnknownToken):
        fx_vocab.index("<new1>")
