"""Closed-form merging of fine-tuned concept weights.

For every cross-attention key/value projection we solve

    min_W || (W - W0) C_reg^T ||_F   s.t.   W C^T = V,

where rows of C are text features of the target words of each concept and
column j of V is W_owner(j) c_j^T. The closed form is

    W_hat = W0 + v^T d,   d = C (C_reg^T C_reg)^{-1},
    v^T = (V - W0 C^T) (d C^T)^{-1}.
"""

from dataclasses import dataclass

import numpy as np

from . import analysis, textmod
from .denoiser import KV_ROLES
from .errors import DegenerateRegularization, InvalidInput, SingularTargetSystem, UnknownToken


def as_matrix(a, name):
    """Coerce to a finite float64 2-D array or raise InvalidInput."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


@dataclass
class MergeProblem:
    w0: np.ndarray                # (o, d)
    concept_weights: list         # N matrices, each (o, d)
    target_features: np.ndarray   # C: (s, d)
    owners: list                  # length s, concept index per row of C
    reg_features: np.ndarray      # C_reg: (s_reg, d)

    def __post_init__(self):
        self.w0 = as_matrix(self.w0, "w0")
        self.target_features = as_matrix(self.target_features, "target_features")
        self.reg_features = as_matrix(self.reg_features, "reg_features")
        d = self.w0.shape[1]
        for i, w in enumerate(self.concept_weights):
            self.concept_weights[i] = as_matrix(w, f"concept_weights[{i}]")
            if self.concept_weights[i].shape != self.w0.shape:
                raise InvalidInput("concept weight shape mismatch with w0")
        if self.target_features.shape[1] != d or self.reg_features.shape[1] != d:
            raise InvalidInput("feature dimension mismatch")
        if self.target_features.shape[0] < 1:
            raise InvalidInput("need at least one target row")
        if self.reg_features.shape[0] < d:
            raise InvalidInput(
                f"regularization rows ({self.reg_features.shape[0]}) must be >= d ({d})")
        if len(self.owners) != self.target_features.shape[0]:
            raise InvalidInput("owner labels must match target rows")
        if any(not 0 <= n < len(self.concept_weights) for n in self.owners):
            raise InvalidInput("owner label out of range")


@dataclass
class MergeSolution:
    w_hat: np.ndarray
    constraint_residual: float
    objective_value: float
    conditioning: float
    ridge_applied: float


def build_targets(problem):
    """V (o, s): column j = W_owner(j) @ c_j."""
    c = problem.target_features
    cols = [problem.concept_weights[n] @ c[j] for j, n in enumerate(problem.owners)]
    return np.stack(cols, axis=1)


def _gram(problem):
    creg = problem.reg_features
    g = creg.T @ creg
    eig = np.linalg.eigvalsh(g)
    if eig[-1] <= 0:
        raise DegenerateRegularization("C_reg^T C_reg has no positive eigenvalue")
    ridge = 0.0
    if eig[0] < 1e-10 * eig[-1]:
        ridge = 1e-8 * np.trace(g) / g.shape[0]
        g = g + ridge * np.eye(g.shape[0])
    return g, ridge


def solve_closed_form(problem):
    c = problem.target_features
    w0 = problem.w0
    v_mat = build_targets(problem)
    g, ridge = _gram(problem)
    dmat = np.linalg.solve(g, c.T).T          # d = C G^{-1}, shape (s, d)
    m = dmat @ c.T                            # (s, s)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise SingularTargetSystem(
            "d C^T is singular; deduplicate or prune linearly dependent target rows")
    vt = np.linalg.solve(m.T, (v_mat - w0 @ c.T).T).T
    w_hat = w0 + vt @ dmat
    return MergeSolution(
        w_hat=w_hat,
        constraint_residual=analysis.frobenius_norm(w_hat @ c.T - v_mat),
        objective_value=analysis.frobenius_norm((w_hat - w0) @ problem.reg_features.T),
        conditioning=float(sv[-1]),
        ridge_applied=ridge)


def extract_target_words(caption):
    """Content words of a target caption: everything except template filler."""
    return [w for w in caption.split() if w not in textmod.TEMPLATE_WORDS]


def _target_rows(vocab, captions_per_concept, modifiers_per_concept):
    """Build (C rows, owners) from `vocab`, which holds every concept's
    modifiers. Concept n's captions may not name another concept's modifier
    (modifiers_per_concept[n] are its own). Exact duplicate rows within a
    concept are dropped; the same row owned by two concepts is a conflict."""
    everyone = set().union(*modifiers_per_concept)
    rows = []
    owners = []
    seen = {}
    for n, (captions, own) in enumerate(zip(captions_per_concept, modifiers_per_concept)):
        for caption in captions:
            for word in extract_target_words(caption):
                if word in everyone and word not in own:
                    raise UnknownToken(word)
                feat = vocab.embeddings[vocab.index(word)].copy()
                key = feat.tobytes()
                if key in seen:
                    if seen[key] != n:
                        raise InvalidInput(
                            f"target word {word!r} appears with identical features in "
                            f"concepts {seen[key]} and {n}; resolve the ambiguity by "
                            "renaming or dropping the shared word")
                    continue
                seen[key] = n
                rows.append(feat)
                owners.append(n)
    if not rows:
        raise InvalidInput("no target words extracted from captions")
    return np.stack(rows), owners


def reg_feature_rows(vocab, captions):
    """Token-embedding rows of a regularization caption pool: every caption's
    token ids, gathered from the embeddings at once."""
    return vocab.embeddings[[i for caption in captions for i in textmod.tokenize(vocab, caption)]]


@dataclass
class MergeOutcome:
    model: object
    solutions: dict        # ((layer, role), ...) -> MergeSolution


def merge_model(base, deltas, captions_per_concept, reg_captions):
    """Merge N fine-tuned K/V deltas into one model via the constrained solve.

    deltas: list of DeltaCheckpoint (dense or low-rank), each read as base +
    delta by `analysis.delta_weights`, which checks its architecture; only the
    merged model copies the base. No two deltas may share a modifier token.
    captions_per_concept: one caption list per delta, whose content words
    (modifier + category, base words or the delta's own modifiers) define the
    constraint rows. reg_captions: caption pool providing C_reg.

    The objective and the constraints separate by output row, and every K/V
    matrix shares C and C_reg, so the rows of all of them are stacked into
    one problem and solved at once.
    """
    if len(deltas) != len(captions_per_concept):
        raise InvalidInput("need one caption list per delta")
    if any(role not in KV_ROLES for delta in deltas for _, role in delta.entries):
        raise InvalidInput("only cross-attention K/V deltas can be merged")
    owned = [[name for name, _ in delta.modifier_embeddings] for delta in deltas]
    names = sum(owned, [])
    shared = [name for name in names if names.count(name) > 1]
    if shared:
        raise InvalidInput(f"modifier token {shared[0]!r} is carried by more than one delta")
    concepts = [analysis.delta_weights(base, delta) for delta in deltas]
    merged = base.clone()
    # register every concept's tuned modifier embedding in the merged vocab
    for delta in deltas:
        for name, emb in delta.modifier_embeddings:
            textmod.register_modifier_with_embedding(merged.vocab, name, emb)

    c_rows, owners = _target_rows(merged.vocab, captions_per_concept, owned)
    creg = reg_feature_rows(base.vocab, reg_captions)

    keys = [k for k in base.params.sorted_keys() if k.role in KV_ROLES]
    problem = MergeProblem(w0=np.vstack([base.params[k] for k in keys]),
                           concept_weights=[np.vstack([w.get(k, base.params[k]) for k in keys])
                                            for w in concepts],
                           target_features=c_rows, owners=owners, reg_features=creg)
    sol = solve_closed_form(problem)
    ends = np.cumsum([0] + [base.params[k].shape[0] for k in keys]).tolist()
    for key, lo, hi in zip(keys, ends, ends[1:]):
        merged.params[key] = sol.w_hat[lo:hi]
    return MergeOutcome(model=merged,
                        solutions={tuple((k.layer, k.role) for k in keys): sol})
