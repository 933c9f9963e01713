"""Independent routes to quantities the library computes in closed form,
shared by more than one test module."""

import numpy as np


def solve_kkt(problem, ridge=0.0):
    """The merge optimum of a merge.MergeProblem by a generic dense solve:
    per output row w_i, the stationarity system

        [[G, C^T], [C, 0]] [w_i; lam] = [G w0_i; v_i]

    with G = C_reg^T C_reg + ridge I (pass the closed form's ridge_applied)
    and v_i row i of V, V[:, j] = W_owner(j) c_j. Builds V and G from the
    problem's arrays itself. Returns W (o, d)."""
    c, w0, creg = problem.target_features, problem.w0, problem.reg_features
    v_mat = np.stack([problem.concept_weights[n] @ c[j]
                      for j, n in enumerate(problem.owners)], axis=1)
    s, d = c.shape
    g = creg.T @ creg + ridge * np.eye(d)
    kkt = np.zeros((d + s, d + s))
    kkt[:d, :d] = g
    kkt[:d, d:] = c.T
    kkt[d:, :d] = c
    rhs = np.vstack([g @ w0.T, v_mat.T])
    return np.linalg.solve(kkt, rhs)[:d].T
