"""Dense linear algebra helpers: matrix validation, thin SVD, Frobenius norms.

Everything operates on float64 2-D numpy arrays. Inputs are validated for
finiteness once at the boundary; internals assume clean data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


def as_matrix(a, name="matrix"):
    """Coerce to a finite float64 2-D array or raise InvalidInput."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray        # (m, r)
    sigma: np.ndarray    # (r,) non-negative, descending
    vt: np.ndarray       # (r, n)


def thin_svd(a):
    """Thin SVD with r = min(m, n); sigma descending."""
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, sigma=s, vt=vt)


def frobenius_norm(a):
    a = as_matrix(a)
    return float(np.sqrt(np.sum(a * a)))
