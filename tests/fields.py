"""Test helpers: interpolants of vector fields, eigencluster alignment and
the mesh faces under a cut's boundary polygon edges."""

import numpy as np

from fieldtopo.mesh import EDGE_LOCAL, FACE_LOCAL, SimplicialComplex3


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


_GAUSS_5 = np.polynomial.legendre.leggauss(5)


def edge_interpolant(cx: SimplicialComplex3, func) -> np.ndarray:
    """Edge cochain of a vector field: line integral along each canonical edge.

    5-point Gauss quadrature per edge (exact for polynomial fields up to
    degree 9; near-exact for smooth benchmark fields at mesh scale).
    Periodic meshes integrate along the minimal-image segment of the first
    tet containing each edge.
    """
    xi, wi = _GAUSS_5
    p = cx.tet_coords
    vals = np.zeros(cx.num_edges)
    seen = np.zeros(cx.num_edges, dtype=bool)
    for k in range(6):
        a, b = EDGE_LOCAL[k]
        eids = cx.tet_to_edge[:, k]
        first = ~seen[eids]
        if not np.any(first):
            continue
        tsel = np.flatnonzero(first)
        # keep only the first occurrence of each edge id
        _, keep = np.unique(eids[tsel], return_index=True)
        tsel = tsel[keep]
        pa, pb = p[tsel, a], p[tsel, b]
        sgn = cx.tet_edge_sign[tsel, k]
        acc = np.zeros(len(tsel))
        for x, w in zip(xi, wi):
            pts = pa + (x + 1) / 2 * (pb - pa)
            acc += w * np.einsum("ic,ic->i", np.asarray(func(pts)), pb - pa) / 2
        vals[eids[tsel]] = sgn * acc
        seen[eids[tsel]] = True
    return vals


def face_flux_interpolant(cx: SimplicialComplex3, func) -> np.ndarray:
    """Face cochain of a vector field: flux through each canonical face.

    Centroid rule on each face (exact for affine fields), using the geometry
    of the first tet containing the face.
    """
    p = cx.tet_coords
    vals = np.zeros(cx.num_faces)
    seen = np.zeros(cx.num_faces, dtype=bool)
    for k in range(4):
        va, vb, vc = FACE_LOCAL[k]
        fids = cx.tet_to_face[:, k]
        first = ~seen[fids]
        if not np.any(first):
            continue
        tsel = np.flatnonzero(first)
        _, keep = np.unique(fids[tsel], return_index=True)
        tsel = tsel[keep]
        pa, pb, pc = p[tsel, va], p[tsel, vb], p[tsel, vc]
        # normal area vector of the local (ordered) triple, mapped to canonical
        normal = 0.5 * np.cross(pb - pa, pc - pa)
        centroid = (pa + pb + pc) / 3.0
        sgn = cx.tet_face_sign[tsel, k]
        flux = np.einsum("ic,ic->i", np.asarray(func(centroid)), normal)
        vals[fids[tsel]] = sgn * flux
        seen[fids[tsel]] = True
    return vals


def boundary_edge_faces(cx, cut) -> set[int]:
    """Mesh faces holding the cut's boundary polygon edges: for each, the one
    face whose boundary contains both mesh edges that its corners lie on."""
    D1 = cx.D1.tocsc()
    out = set()
    for (ea, _), (eb, _) in cut.boundary_edges:
        faces = np.intersect1d(D1[:, ea].indices, D1[:, eb].indices)
        assert len(faces) == 1, f"corner edges {ea}, {eb} share {len(faces)} faces"
        out.add(int(faces[0]))
    return out
