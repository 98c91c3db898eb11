"""Test helpers for eigenfields."""

import numpy as np


def cluster_align(solution, target, rtol: float = 1e-6) -> np.ndarray:
    """Combination of the leading (numerically degenerate) eigencluster that
    best matches a target edge cochain, M1-normalized.

    Any combination of eigenvectors sharing an eigenvalue is itself an
    eigenvector; this picks a well-conditioned representative (e.g. one with
    uniform magnitude) out of a cluster whose individual Ritz vectors are an
    arbitrary rotation of the eigenspace.
    """
    target = np.asarray(target, dtype=float)
    lam0 = solution.lambdas[0]
    members = [
        i
        for i, lam in enumerate(solution.lambdas)
        if abs(lam - lam0) <= rtol * max(abs(lam0), 1.0)
    ]
    B = solution.cochains[:, members]
    M1 = solution.pencil.fem.M1
    coeff = np.linalg.lstsq(B.T @ (M1 @ B), B.T @ (M1 @ target), rcond=None)[0]
    h = B @ coeff
    nrm = np.sqrt(h @ (M1 @ h))
    if nrm == 0:
        raise ValueError("target has no component in the leading cluster")
    return h / nrm
