"""Constrained merge: error paths and the small-scale solver behaviour.
The exhaustive optimality/oracle sweep lives in the acceptance suite."""

import numpy as np
import pytest

from kvdiff import analysis, data as datamod, diffusion, finetune, fixtures, merge, textmod
from kvdiff.denoiser import ROLE_CROSS_KEY, ROLE_CROSS_VALUE
from kvdiff.denoiser import DenoiserNet
from kvdiff.errors import (DegenerateRegularization, InvalidInput, KVDiffError,
                           SingularTargetSystem, UnknownToken)
from oracles import solve_kkt


def _problem(seed=0, o=3, d=5, s=2, s_reg=8):
    rng = np.random.default_rng(seed)
    return merge.MergeProblem(
        w0=rng.standard_normal((o, d)),
        concept_weights=[rng.standard_normal((o, d)) for _ in range(s)],
        target_features=rng.standard_normal((s, d)),
        owners=list(range(s)),
        reg_features=rng.standard_normal((s_reg, d)))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidInput):
        merge.as_matrix(np.ones(3), "w0")
    with pytest.raises(InvalidInput):
        merge.as_matrix(np.array([[1.0, np.nan]]), "w0")
    with pytest.raises(InvalidInput):
        merge.as_matrix(np.array([[np.inf, 0.0]]), "w0")


def test_problem_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidInput):       # too few regularization rows
        _problem(s_reg=4, d=5)
    with pytest.raises(InvalidInput):       # owner out of range
        merge.MergeProblem(w0=rng.standard_normal((2, 4)),
                           concept_weights=[rng.standard_normal((2, 4))],
                           target_features=rng.standard_normal((1, 4)),
                           owners=[1], reg_features=rng.standard_normal((5, 4)))
    with pytest.raises(InvalidInput):       # concept shape mismatch
        merge.MergeProblem(w0=rng.standard_normal((2, 4)),
                           concept_weights=[rng.standard_normal((3, 4))],
                           target_features=rng.standard_normal((1, 4)),
                           owners=[0], reg_features=rng.standard_normal((5, 4)))
    with pytest.raises(InvalidInput):       # owners/targets length mismatch
        merge.MergeProblem(w0=rng.standard_normal((2, 4)),
                           concept_weights=[rng.standard_normal((2, 4))],
                           target_features=rng.standard_normal((2, 4)),
                           owners=[0], reg_features=rng.standard_normal((5, 4)))


def test_closed_form_satisfies_constraints_and_matches_oracle():
    problem = _problem(seed=3)
    sol = merge.solve_closed_form(problem)
    v = merge.build_targets(problem)
    assert np.linalg.norm(sol.w_hat @ problem.target_features.T - v) < 1e-9
    oracle = solve_kkt(problem, sol.ridge_applied)
    np.testing.assert_allclose(sol.w_hat, oracle, atol=1e-8)


def test_duplicate_target_rows_are_singular():
    problem = _problem(seed=4, s=2)
    problem.target_features[1] = problem.target_features[0]
    with pytest.raises(SingularTargetSystem):
        merge.solve_closed_form(problem)


def test_degenerate_regularization():
    problem = _problem(seed=5)
    problem.reg_features[:] = 0.0
    with pytest.raises(DegenerateRegularization):
        merge.solve_closed_form(problem)


def test_rank_deficient_regularization_gets_ridged():
    problem = _problem(seed=6, s_reg=8, d=5)
    # collapse C_reg to rank 1; the solver should fall back to a small ridge
    problem.reg_features[:] = problem.reg_features[0]
    sol = merge.solve_closed_form(problem)
    assert sol.ridge_applied > 0
    assert np.all(np.isfinite(sol.w_hat))


def test_extract_target_words():
    assert merge.extract_target_words("photo of a <new1> blob") == ["<new1>", "blob"]
    assert merge.extract_target_words("photo of a ring") == ["ring"]


def _two_concept_vocabs():
    """The base vocabulary, and a copy holding both concepts' modifiers."""
    base = textmod.build_vocabulary(
        ["photo", "of", "a", "blob", "ring", "sks", "pkz"],
        {"blob": 300, "ring": 280, "sks": 7, "pkz": 6}, dim=4, seed=2)
    merged = base.clone()
    textmod.register_modifier(merged, "<new1>")
    textmod.register_modifier(merged, "<new2>", source="pkz")
    return base, merged


MODIFIERS = [{"<new1>"}, {"<new2>"}]


def test_target_rows_dedup_and_conflict():
    _, vocab = _two_concept_vocabs()
    rows, owners = merge._target_rows(
        vocab, [["photo of a <new1> blob", "photo of a <new1> blob"],
                ["photo of a <new2> ring"]], MODIFIERS)
    assert rows.shape == (4, 4)            # duplicate caption collapsed
    assert owners == [0, 0, 1, 1]
    # the same word claimed by both concepts is ambiguous
    with pytest.raises(InvalidInput):
        merge._target_rows(vocab, [["photo of a <new1> blob"],
                                   ["photo of a <new2> blob"]], MODIFIERS)
    with pytest.raises(InvalidInput):
        merge._target_rows(vocab, [["photo of a"]], [set()])    # template words only
    # a concept's captions may not name another concept's modifier
    with pytest.raises(UnknownToken):
        merge._target_rows(vocab, [["photo of a <new2> blob"],
                                   ["photo of a <new2> ring"]], MODIFIERS)


def test_reg_feature_rows():
    base, _ = _two_concept_vocabs()
    rows = merge.reg_feature_rows(base, ["photo of a blob", "photo of a ring"])
    # each caption contributes start token + 4 words
    assert rows.shape == (10, 4)
    np.testing.assert_array_equal(rows[0], base.embeddings[base.start_token])
    # the one gather gives the bytes of the captions' encodings, stacked
    vocab, captions = fixtures.fixture_vocab(), fixtures.reg_caption_pool()
    stacked = np.vstack([textmod.encode_caption(vocab, textmod.tokenize(vocab, caption))
                         for caption in captions])
    assert merge.reg_feature_rows(vocab, captions).tobytes() == stacked.tobytes()


def _real_delta(base, name, source, category, seed):
    """A kv_only fine-tune of `base` on random images captioned with a new
    modifier, returned as a delta against `base`."""
    model = base.clone()
    mod = textmod.register_modifier(model.vocab, name, source=source)
    rng = np.random.default_rng(seed)
    examples = [datamod.ConceptExample(image=rng.uniform(-1, 1, model.image_shape),
                                       caption=f"photo of a {name} {category}")
                for _ in range(3)]
    cfg = finetune.FineTuneConfig(steps=4, learning_rate=0.05, batch=2,
                                  use_reg="none", use_aug=False, seed=seed)
    report = finetune.finetune(model, [(examples, mod)], cfg,
                               sched=diffusion.NoiseSchedule.linear(T=25))
    return analysis.extract_delta(base, report.model)


def _assert_merge_meets_oracle(base, outcome, deltas, captions, reg_captions):
    """Every merged K/V matrix meets W C^T = V and the KKT oracle, with each
    concept's weights rebuilt from its (dense or low-rank) delta; every other
    matrix is the base's, bit for bit."""
    vocab = base.vocab.clone()
    for delta in deltas:
        for name, emb in delta.modifier_embeddings:
            textmod.register_modifier_with_embedding(vocab, name, emb)
    c_rows, owners = merge._target_rows(
        vocab, captions, [{name for name, _ in d.modifier_embeddings} for d in deltas])
    creg = merge.reg_feature_rows(base.vocab, reg_captions)
    # every K/V matrix shares C_reg, so the one solve's ridge is each one's
    (ridge,) = [sol.ridge_applied for sol in outcome.solutions.values()]
    for key in base.params.sorted_keys():
        w_hat = outcome.model.params[key]
        w0 = base.params[key]
        if key.role not in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE):
            assert w_hat.tobytes() == w0.tobytes(), key
            continue
        problem = merge.MergeProblem(
            w0=w0, concept_weights=[
                w0 + analysis.reconstruct_entry(d.entries[(key.layer, key.role)])
                for d in deltas],
            target_features=c_rows, owners=owners, reg_features=creg)
        v_mat = merge.build_targets(problem)
        assert np.linalg.norm(w_hat @ c_rows.T - v_mat) <= 1e-8 * np.linalg.norm(v_mat), key
        w_kkt = solve_kkt(problem, ridge)
        assert np.linalg.norm(w_hat - w_kkt) <= 1e-6 * max(np.linalg.norm(w_kkt), 1.0), key


# modifiers seeded from template words keep the four target rows apart
CAPTIONS = [["photo of a <new1> blob"], ["photo of a <new2> ring"]]
REG_CAPTIONS = ["photo of a blob", "photo of a ring"]


def _two_real_deltas(base):
    return [_real_delta(base, "<new1>", "photo", "blob", 1),
            _real_delta(base, "<new2>", "of", "ring", 2)]


def test_merge_model_on_two_fine_tuned_deltas(tiny_model):
    deltas = _two_real_deltas(tiny_model)
    outcome = merge.merge_model(tiny_model, deltas, CAPTIONS, REG_CAPTIONS)
    _assert_merge_meets_oracle(tiny_model, outcome, deltas, CAPTIONS, REG_CAPTIONS)
    # the deltas are real: each concept moved every K/V matrix
    for delta in deltas:
        assert all(np.any(e.dense != 0) for e in delta.entries.values())
    assert len(outcome.solutions) == 1
    assert sorted(outcome.model.vocab.modifiers) == ["<new1>", "<new2>"]


def test_merge_model_clones_only_the_merged_model(tiny_model, monkeypatch):
    deltas = _two_real_deltas(tiny_model)
    clone, calls = DenoiserNet.clone, []
    monkeypatch.setattr(DenoiserNet, "clone",
                        lambda self: calls.append(self) or clone(self))
    outcome = merge.merge_model(tiny_model, deltas, CAPTIONS, REG_CAPTIONS)
    assert len(calls) == 1 and calls[0] is tiny_model
    _assert_merge_meets_oracle(tiny_model, outcome, deltas, CAPTIONS, REG_CAPTIONS)


def test_merge_rejects_a_caption_naming_another_deltas_modifier(tiny_model, monkeypatch):
    """The merged vocabulary holds every delta's modifier, but a concept's
    captions may name only base words and its own delta's modifiers."""
    deltas = _two_real_deltas(tiny_model)
    monkeypatch.setattr(merge, "solve_closed_form", lambda p: pytest.fail("solved"))
    with pytest.raises(KVDiffError, match="<new2>"):
        merge.merge_model(tiny_model, deltas,
                          [["photo of a <new1> blob", "photo of a <new2> blob"],
                           ["photo of a <new2> ring"]], REG_CAPTIONS)


def test_merge_rejects_two_deltas_with_one_modifier_token(tiny_model, monkeypatch):
    blob = _real_delta(tiny_model, "<new1>", "photo", "blob", 1)
    ring = _real_delta(tiny_model, "<new1>", "of", "ring", 2)
    monkeypatch.setattr(merge, "solve_closed_form", lambda p: pytest.fail("solved"))
    with pytest.raises(InvalidInput, match="'<new1>' is carried by more than one delta"):
        merge.merge_model(tiny_model, [blob, ring],
                          [["photo of a <new1> blob"], ["photo of a <new1> ring"]],
                          REG_CAPTIONS)


def test_merge_low_rank_delta_equals_merge_of_its_reconstruction(tiny_model):
    dense1, dense2 = _two_real_deltas(tiny_model)
    low = analysis.compress_delta(dense1, 0.6)
    assert not any(e.is_dense for e in low.entries.values())
    rebuilt = analysis.DeltaCheckpoint(
        entries={k: analysis.DeltaEntry(dense=analysis.reconstruct_entry(e), shape=e.shape)
                 for k, e in low.entries.items()},
        modifier_embeddings=low.modifier_embeddings, config=low.config)
    got = merge.merge_model(tiny_model, [low, dense2], CAPTIONS, REG_CAPTIONS)
    want = merge.merge_model(tiny_model, [rebuilt, dense2], CAPTIONS, REG_CAPTIONS)
    for key in tiny_model.params.sorted_keys():
        assert got.model.params[key].tobytes() == want.model.params[key].tobytes(), key
    assert got.model.vocab.embeddings.tobytes() == want.model.vocab.embeddings.tobytes()
    _assert_merge_meets_oracle(tiny_model, got, [low, dense2], CAPTIONS, REG_CAPTIONS)
    # compression changed the concept, so the merge differs from the dense one
    dense = merge.merge_model(tiny_model, [dense1, dense2], CAPTIONS, REG_CAPTIONS)
    assert any(not np.array_equal(got.model.params[k], dense.model.params[k])
               for k in tiny_model.params if k.role == ROLE_CROSS_KEY)
