"""Weight-change rates, delta extraction/application, and compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvdiff import analysis, denoiser, textmod
from kvdiff.denoiser import ParamKey, ROLE_CROSS_KEY, ROLE_CROSS_VALUE, ROLE_OTHER
from kvdiff.errors import InvalidInput


def test_delta_rate_groups_and_zero_norm(tiny_model):
    tuned = tiny_model.clone()
    key_kv = next(k for k in tuned.params.sorted_keys() if k.role == ROLE_CROSS_KEY)
    tuned.params[key_kv] = tuned.params[key_kv] + 1.0
    # a key with zero base norm must not divide by zero
    zkey = ParamKey(0, ROLE_OTHER, "w_out")
    tiny_model.params[zkey] = np.zeros_like(tiny_model.params[zkey])
    tuned.params[zkey] = np.zeros_like(tuned.params[zkey])
    report = analysis.delta_rate(tiny_model.params, tuned.params)
    assert report.per_key[key_kv] > 0
    assert report.per_key[zkey] == 0.0
    assert zkey in report.zero_norm_keys
    assert report.group_means[analysis.GROUP_CROSS] > 0
    assert report.group_means[analysis.GROUP_SELF] == 0.0
    assert sum(report.group_fractions.values()) == pytest.approx(1.0)

    manual = np.linalg.norm(tuned.params[key_kv] - tiny_model.params[key_kv]) \
        / np.linalg.norm(tiny_model.params[key_kv])
    assert report.per_key[key_kv] == pytest.approx(manual)


def test_frobenius_norm():
    a = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert analysis.frobenius_norm(a) == pytest.approx(5.0)


def test_delta_rate_rejects_mismatched_registries(tiny_model):
    tuned = tiny_model.clone()
    del tuned.params[ParamKey(0, ROLE_OTHER, "w_pix")]
    with pytest.raises(InvalidInput):
        analysis.delta_rate(tiny_model.params, tuned.params)


def _tuned_pair(tiny_model, scale=0.1, seed=3):
    tuned = tiny_model.clone()
    rng = np.random.default_rng(seed)
    kv = [k for role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)
          for k in tuned.params.sorted_keys() if k.role == role]
    for k in kv:
        tuned.params[k] = tuned.params[k] + scale * rng.standard_normal(
            tuned.params[k].shape)
    textmod.register_modifier(tuned.vocab, "<new1>")
    return tuned


def test_extract_apply_round_trip(tiny_model):
    tuned = _tuned_pair(tiny_model)
    delta = analysis.extract_delta(tiny_model, tuned)
    assert all(role in (ROLE_CROSS_KEY, ROLE_CROSS_VALUE)
               for _, role in delta.entries)
    assert [n for n, _ in delta.modifier_embeddings] == ["<new1>"]
    rebuilt = analysis.apply_delta(tiny_model, delta)
    for k in tuned.params.sorted_keys():
        np.testing.assert_array_equal(rebuilt.params[k], tuned.params[k])
    assert "<new1>" in rebuilt.vocab.modifiers


def test_extract_delta_skips_a_modifier_training_left_untouched(tiny_model):
    start = tiny_model.clone()
    old = textmod.register_modifier(start.vocab, "<new0>")
    tuned = _tuned_pair(start)       # registers <new1>, which start lacks
    delta = analysis.extract_delta(start, tuned)
    assert [n for n, _ in delta.modifier_embeddings] == ["<new1>"]
    # merged back onto its start model, the delta adds only its own modifier
    rebuilt = analysis.apply_delta(start, delta)
    assert sorted(rebuilt.vocab.modifiers) == ["<new0>", "<new1>"]
    # a modifier whose row training changed is carried
    tuned.vocab.embeddings[old.token_index] += 0.5
    delta = analysis.extract_delta(start, tuned)
    assert [n for n, _ in delta.modifier_embeddings] == ["<new0>", "<new1>"]
    np.testing.assert_array_equal(delta.modifier_embeddings[0][1],
                                  tuned.vocab.embeddings[old.token_index])


def test_apply_delta_architecture_check(tiny_model):
    tuned = _tuned_pair(tiny_model)
    delta = analysis.extract_delta(tiny_model, tuned)
    other = denoiser.build_model(denoiser.ModelConfig(), seed=0,
                                 vocab=tiny_model.vocab.clone())
    with pytest.raises(InvalidInput):
        analysis.apply_delta(other, delta)


def test_compress_energy_bounds(tiny_model):
    delta = analysis.extract_delta(tiny_model, _tuned_pair(tiny_model))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidInput):
            analysis.compress_delta(delta, bad)


def test_compress_full_energy_is_bit_exact(tiny_model):
    delta = analysis.extract_delta(tiny_model, _tuned_pair(tiny_model))
    full = analysis.compress_delta(delta, 1.0)
    for key, entry in full.entries.items():
        assert entry.is_dense
        assert entry.residual == 0.0
        assert entry.dense.tobytes() == delta.entries[key].dense.tobytes()


def test_compress_residual_matches_dropped_singular_values(tiny_model):
    delta = analysis.extract_delta(tiny_model, _tuned_pair(tiny_model))
    compressed = analysis.compress_delta(delta, 0.5)
    for key, entry in compressed.entries.items():
        assert not entry.is_dense
        dense = delta.entries[key].dense
        sig = np.linalg.svd(dense, compute_uv=False)
        r = entry.sigma.size
        assert entry.residual == pytest.approx(np.sqrt(np.sum(sig[r:] ** 2)),
                                               abs=1e-12)
        rec = analysis.reconstruct_entry(entry)
        assert np.linalg.norm(rec - dense) == pytest.approx(entry.residual,
                                                            abs=1e-10)


def test_compress_factors_are_those_of_one_svd_per_entry(tiny_model):
    """compress_delta factors same-shape entries in one stacked SVD; every
    factor has the bytes of an SVD of its entry alone."""
    delta = analysis.extract_delta(tiny_model, _tuned_pair(tiny_model))
    compressed = analysis.compress_delta(delta, 0.8)
    assert list(compressed.entries) == list(delta.entries)
    for key, entry in compressed.entries.items():
        u, sigma, vt = np.linalg.svd(delta.entries[key].dense, full_matrices=False)
        r = entry.sigma.size
        for got, want in ((entry.u, u[:, :r]), (entry.sigma, sigma[:r]), (entry.vt, vt[:r])):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _one_entry_delta(a):
    return analysis.DeltaCheckpoint(
        entries={(0, ROLE_CROSS_KEY): analysis.DeltaEntry(dense=a, shape=a.shape)},
        modifier_embeddings=[], config=denoiser.ModelConfig())


@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_compress_at_full_rank_reconstructs(seed, m, n):
    # the largest energy below 1 keeps every singular value but still factorizes
    a = np.random.default_rng(seed).standard_normal((m, n))
    compressed = analysis.compress_delta(_one_entry_delta(a), np.nextafter(1.0, 0.0))
    entry = compressed.entries[(0, ROLE_CROSS_KEY)]
    assert not entry.is_dense
    assert entry.sigma.shape == (min(m, n),)
    assert np.all(np.diff(entry.sigma) <= 1e-12)
    assert np.all(entry.sigma >= 0)
    np.testing.assert_allclose(analysis.reconstruct_entry(entry), a, atol=1e-10)
    # orthonormal factors
    k = min(m, n)
    np.testing.assert_allclose(entry.u.T @ entry.u, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(entry.vt @ entry.vt.T, np.eye(k), atol=1e-12)


def test_spectrum_matches_eigendecomposition():
    # independent route: singular values are sqrt eigenvalues of A^T A
    a = np.random.default_rng(3).standard_normal((6, 4))
    sigma = analysis.spectrum(_one_entry_delta(a))[(0, ROLE_CROSS_KEY)]
    np.testing.assert_allclose(sigma ** 2, np.linalg.eigvalsh(a.T @ a)[::-1], atol=1e-10)


def test_compress_zero_delta(tiny_model):
    delta = analysis.extract_delta(tiny_model, tiny_model.clone())
    compressed = analysis.compress_delta(delta, 0.5)
    for entry in compressed.entries.values():
        assert entry.sigma.size == 0
        np.testing.assert_array_equal(analysis.reconstruct_entry(entry),
                                      np.zeros(entry.shape))


def test_spectrum_matches_svd(tiny_model):
    delta = analysis.extract_delta(tiny_model, _tuned_pair(tiny_model))
    spectra = analysis.spectrum(delta)
    for key, sigma in spectra.items():
        ref = np.linalg.svd(delta.entries[key].dense, compute_uv=False)
        np.testing.assert_allclose(sigma, ref, atol=1e-12)


def test_apply_delta_refuses_a_modifier_named_like_a_word(tiny_model):
    # a modifier is a new token: a delta whose modifier is the ordinary word
    # "blob" must not overwrite that word's embedding
    delta = analysis.extract_delta(tiny_model, _tuned_pair(tiny_model))
    delta.modifier_embeddings = [("blob", np.ones(tiny_model.vocab.dim))]
    row = tiny_model.vocab.embeddings[tiny_model.vocab.index("blob")].copy()
    with pytest.raises(InvalidInput, match="'blob' already in vocabulary"):
        analysis.apply_delta(tiny_model, delta)
    np.testing.assert_array_equal(tiny_model.vocab.embeddings[tiny_model.vocab.index("blob")],
                                  row)
    assert "blob" not in tiny_model.vocab.modifiers
