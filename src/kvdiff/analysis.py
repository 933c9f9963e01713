"""Per-layer weight-change rates and low-rank compression of K/V deltas."""

from dataclasses import dataclass

import numpy as np

from . import textmod
from .denoiser import CROSS_ROLES, KV_ROLES, ROLE_SELF
from .errors import InvalidInput

GROUP_CROSS = "cross_attention"
GROUP_SELF = "self_attention"
GROUP_OTHER = "other"


def _group_of(role):
    if role in CROSS_ROLES:
        return GROUP_CROSS
    if role == ROLE_SELF:
        return GROUP_SELF
    return GROUP_OTHER


def frobenius_norm(a):
    return float(np.sqrt(np.sum(a * a)))


@dataclass
class DeltaEntry:
    """Dense difference matrix or its truncated SVD factors."""
    dense: np.ndarray = None
    u: np.ndarray = None
    sigma: np.ndarray = None
    vt: np.ndarray = None
    shape: tuple = None
    residual: float = 0.0      # Frobenius error dropped at compression time

    @property
    def is_dense(self):
        return self.dense is not None


def reconstruct_entry(entry):
    if entry.is_dense:
        return entry.dense
    return (entry.u * entry.sigma) @ entry.vt


@dataclass
class DeltaCheckpoint:
    entries: dict                      # (layer, role) -> DeltaEntry, kv roles only
    modifier_embeddings: list          # [(name, vector)]
    config: object                     # ModelConfig of the producing model
    energy_kept: float = 1.0


@dataclass
class ChangeReport:
    per_key: dict                      # ParamKey -> relative change
    zero_norm_keys: list
    group_means: dict
    group_fractions: dict


def delta_rate(base, tuned):
    """Relative weight change |theta' - theta| / |theta| per registry key,
    plus group means and parameter-count fractions."""
    if set(base.keys()) != set(tuned.keys()):
        raise InvalidInput("registries have different key sets")
    per_key = {}
    zero_norm = []
    group_sums = {GROUP_CROSS: 0.0, GROUP_SELF: 0.0, GROUP_OTHER: 0.0}
    group_counts = {GROUP_CROSS: 0, GROUP_SELF: 0, GROUP_OTHER: 0}
    group_params = {GROUP_CROSS: 0, GROUP_SELF: 0, GROUP_OTHER: 0}
    for key in sorted(base.keys()):
        if base[key].shape != tuned[key].shape:
            raise InvalidInput(f"shape mismatch at {key}")
        denom = frobenius_norm(base[key])
        if denom == 0.0:
            rate = 0.0
            zero_norm.append(key)
        else:
            rate = frobenius_norm(tuned[key] - base[key]) / denom
        per_key[key] = rate
        grp = _group_of(key.role)
        group_sums[grp] += rate
        group_counts[grp] += 1
        group_params[grp] += base[key].size
    means = {g: (group_sums[g] / group_counts[g] if group_counts[g] else 0.0)
             for g in group_sums}
    total = sum(group_params.values())
    fractions = {g: group_params[g] / total for g in group_params}
    return ChangeReport(per_key=per_key, zero_norm_keys=zero_norm,
                        group_means=means, group_fractions=fractions)


def extract_delta(base, tuned):
    """Dense K/V delta plus the embedding of each modifier of the tuned vocab
    that the base lacks or whose row training changed, so a delta tuned from
    a model that already holds modifiers can be merged back onto it."""
    entries = {}
    for key in base.params.sorted_keys():
        if key.role in KV_ROLES:
            diff = tuned.params[key] - base.params[key]
            entries[(key.layer, key.role)] = DeltaEntry(dense=diff, shape=diff.shape)
    mods = []
    for name, mod in sorted(tuned.vocab.modifiers.items()):
        row = tuned.vocab.embeddings[mod.token_index]
        old = base.vocab.modifiers.get(name)
        if old is None or not np.array_equal(row, base.vocab.embeddings[old.token_index]):
            mods.append((name, row.copy()))
    return DeltaCheckpoint(entries=entries, modifier_embeddings=mods,
                           energy_kept=1.0, config=base.config)


def compress_delta(delta, energy):
    """Truncate each dense entry to the smallest rank whose cumulative singular
    value sum reaches the requested energy fraction. Modifier embeddings are
    never compressed. energy = 1.0 keeps the dense matrices untouched so a
    full-energy round trip is bit-exact."""
    if not 0.0 < energy <= 1.0:
        raise InvalidInput("energy must lie in (0, 1]")
    dense = {key: reconstruct_entry(entry) for key, entry in delta.entries.items()}
    if energy >= 1.0:
        out = {key: DeltaEntry(dense=d.copy(), shape=d.shape, residual=0.0)
               for key, d in dense.items()}
    else:
        # one stacked SVD per entry shape: LAPACK factors each matrix of the
        # stack alone, so the factors are those of one call per entry
        by_shape = {}
        for key, d in dense.items():
            by_shape.setdefault(d.shape, []).append(key)
        out = dict.fromkeys(dense)
        for shape, keys in by_shape.items():
            factors = np.linalg.svd(np.stack([dense[k] for k in keys]), full_matrices=False)
            for key, u, sigma, vt in zip(keys, *factors):
                # a zero delta keeps rank 0: no singular value is nonzero
                frac = np.cumsum(sigma) / max(float(sigma.sum()), 1e-300)
                r = int(np.searchsorted(frac, energy - 1e-12) + 1)
                r = min(r, int(np.count_nonzero(sigma)))
                residual = float(np.sqrt(np.sum(sigma[r:] ** 2)))
                out[key] = DeltaEntry(u=u[:, :r].copy(), sigma=sigma[:r].copy(),
                                      vt=vt[:r].copy(), shape=shape, residual=residual)
    return DeltaCheckpoint(entries=out,
                           modifier_embeddings=[(n, v.copy()) for n, v in
                                                delta.modifier_embeddings],
                           energy_kept=energy, config=delta.config)


def delta_weights(base, delta):
    """Registry key -> base weight + reconstructed entry for each entry of `delta`,
    checked against `base`: the architecture, a known (layer, role), the shape."""
    if delta.config != base.config:
        raise InvalidInput("delta architecture does not match base model")
    out = {}
    for (layer, role), entry in delta.entries.items():
        key = next((k for k in base.params if k.layer == layer and k.role == role), None)
        if key is None:
            raise InvalidInput(f"no registry entry for layer {layer} role {role}")
        rec = reconstruct_entry(entry)
        if rec.shape != base.params[key].shape:
            raise InvalidInput(f"delta shape mismatch at {key}")
        out[key] = base.params[key] + rec
    return out


def apply_delta(base, delta):
    """base + reconstructed delta on the K/V entries; modifier tokens registered."""
    model = base.clone()
    model.params.update(delta_weights(base, delta))
    for name, emb in delta.modifier_embeddings:
        textmod.register_modifier_with_embedding(model.vocab, name, emb)
    return model


def spectrum(delta):
    """Descending singular values per (layer, role)."""
    return {key: np.linalg.svd(reconstruct_entry(entry), full_matrices=False)[1]
            for key, entry in sorted(delta.entries.items())}
