"""Whitney-form finite element matrices and pointwise vector proxies.

Lowest-order Whitney forms on tets, assembled with exact closed-form
barycentric integration (int lam_i lam_j dV = V/20, doubled on the
diagonal), so no quadrature tolerance enters the element matrices.
Edge form: w_ab = lam_a grad(lam_b) - lam_b grad(lam_a), with the constant
curl 2 grad(lam_a) x grad(lam_b).  All local contributions are mapped to the
canonical (sorted) simplex orientations through parity signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SingularGeometry
from .mesh import EDGE_LOCAL, SimplicialComplex3, memo


def tet_geometry(cx: SimplicialComplex3):
    """Barycentric gradients (T,4,3) and volumes (T,).

    Cached on the complex; uses per-tet (minimal image) coordinates.
    """
    return memo(cx, "tet_geometry", lambda: _tet_geometry(cx.tet_coords))


def _tet_geometry(p: np.ndarray):
    E = p[:, 1:, :] - p[:, :1, :]
    det = np.linalg.det(E)
    if not np.all(det > 0):
        raise SingularGeometry("non-positive tet Jacobian")
    try:
        G = np.linalg.inv(E)
    except np.linalg.LinAlgError as exc:
        raise SingularGeometry(str(exc)) from None
    grads = np.empty_like(p)
    grads[:, 1:, :] = np.transpose(G, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, det / 6.0


@dataclass
class FemMatrices:
    """The pencil pair of one complex: mass M1 and curl pairing S."""

    M1: sp.csr_matrix   # edge (Whitney 1-form) mass
    S: sp.csr_matrix    # curl pairing, S_ij = int (curl w_i) . w_j dV


def _edge_forms(grads):
    """(T,6,3) barycenter values of the edge forms, (grad lam_b - grad lam_a)/4,
    which are also their means int w / V, and (T,6,3) constant curls."""
    a, b = EDGE_LOCAL[:, 0], EDGE_LOCAL[:, 1]
    return (grads[:, b] - grads[:, a]) / 4.0, 2.0 * np.cross(grads[:, a], grads[:, b])


def _assemble(cx: SimplicialComplex3, loc) -> sp.csr_matrix:
    """Sum (T,6,6) element matrices, given in the tets' local edge
    orientations, into the (E,E) matrix of the canonical orientations."""
    s = cx.tet_edge_sign
    loc = loc * s[:, :, None] * s[:, None, :]
    rows = np.broadcast_to(cx.tet_to_edge[:, :, None], loc.shape)
    cols = np.broadcast_to(cx.tet_to_edge[:, None, :], loc.shape)
    shape = (cx.num_edges, cx.num_edges)
    return sp.coo_matrix((loc.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def mass_matrix(cx: SimplicialComplex3) -> sp.csr_matrix:
    """Whitney 1-form (edge) mass matrix, symmetric positive definite."""
    grads, vols = tet_geometry(cx)
    g = np.einsum("tic,tjc->tij", grads, grads)  # (T,4,4) gradient Gram
    a, b = EDGE_LOCAL[:, 0], EDGE_LOCAL[:, 1]
    d = np.eye(4)
    # int w_ab . w_cd = V/20 [(1+d_ac)g_bd - (1+d_ad)g_bc
    #                         - (1+d_bc)g_ad + (1+d_bd)g_ac]
    loc = (
        (1 + d[a[:, None], a[None, :]]) * g[:, b[:, None], b[None, :]]
        - (1 + d[a[:, None], b[None, :]]) * g[:, b[:, None], a[None, :]]
        - (1 + d[b[:, None], a[None, :]]) * g[:, a[:, None], b[None, :]]
        + (1 + d[b[:, None], b[None, :]]) * g[:, a[:, None], a[None, :]]
    ) * (vols[:, None, None] / 20.0)
    return _assemble(cx, loc)


def curl_pairing(cx: SimplicialComplex3) -> sp.csr_matrix:
    """S_ij = int (curl w_i) . w_j dV.

    S - S^T equals the discrete boundary pairing, which vanishes on closed
    meshes; S^T annihilates gradients exactly (curl of a gradient is zero).
    """
    grads, vols = tet_geometry(cx)
    w_int, curls = _edge_forms(grads)
    return _assemble(cx, np.einsum("tec,tfc->tef", curls, w_int) * vols[:, None, None])


def build_fem(cx: SimplicialComplex3) -> FemMatrices:
    return FemMatrices(M1=mass_matrix(cx), S=curl_pairing(cx))


def helicity(fem: FemMatrices, h: np.ndarray):
    """Current helicity 0.5 int H . curl H dV = 0.5 h^T S h of a cochain h,
    or of each column of a 2-D h.

    Gauge invariant on closed meshes: adding a gradient changes nothing.
    """
    return 0.5 * np.einsum("e...,e...->...", h, fem.S @ h)


def energy(fem: FemMatrices, h: np.ndarray):
    """Field energy 0.5 int |H|^2 dV = 0.5 h^T M1 h, per column like ``helicity``."""
    return 0.5 * np.einsum("e...,e...->...", h, fem.M1 @ h)


def field_proxies(cx: SimplicialComplex3, h) -> tuple[np.ndarray, np.ndarray]:
    """Barycenter field vector and (constant) curl vector in every tet.

    Both are linear in the cochain coefficients: H = sum h_e w_e(bc),
    curl H = sum h_e 2 grad_a x grad_b.
    """
    h = np.asarray(h, dtype=float)
    coeff = h[cx.tet_to_edge] * cx.tet_edge_sign  # (T,6)
    w_bc, curls = _edge_forms(tet_geometry(cx)[0])
    H = np.einsum("te,tec->tc", coeff, w_bc)
    curlH = np.einsum("te,tec->tc", coeff, curls)
    return H, curlH
