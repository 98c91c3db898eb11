"""Boundary surface of a tetrahedral complex, with induced orientation.

The surface keeps its own canonical edge enumeration plus incidence
operators, so the homology machinery can run on it directly (needed for
trace boundary conditions on meshes whose boundary has genus >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import OpenBoundary
from .mesh import SimplicialComplex3, memo


@dataclass
class SurfaceComplex:
    """Closed oriented triangulated surface extracted from a parent complex."""

    parent: SimplicialComplex3
    face_ids: np.ndarray        # (Fs,) parent face indices
    oriented_tris: np.ndarray   # (Fs,3) vertex triples with induced orientation
    edges: np.ndarray           # (Es,2) sorted vertex pairs (parent vertex ids)
    parent_edge_ids: np.ndarray  # (Es,) matching edge index in the parent
    D1s: sp.csr_matrix          # (Fs,Es) face-edge incidence of the surface
    face_component: np.ndarray  # (Fs,) component label per face
    vertex_component: dict[int, int]  # vertex -> label of the first face holding it
    genus: list[int]            # per component
    oriented: bool              # True when induced orientations are consistent

    @property
    def num_components(self) -> int:
        return len(self.genus)

    def restrict_edge_cochain(self, full: np.ndarray) -> np.ndarray:
        """Pull a parent edge cochain back to the surface edges."""
        return np.asarray(full)[self.parent_edge_ids]

    def cup_integral(self, a: np.ndarray, b: np.ndarray) -> int:
        """Evaluate the cup product of two closed integer 1-cochains on the
        fundamental cycle.

        The simplicial cup product is defined on vertex-ordered simplices:
        (a u b)([v0<v1<v2]) = a(v0,v1)*b(v1,v2); each face contributes with
        the sign of its induced orientation relative to the sorted order.
        For closed cochains this is the intersection pairing of the classes
        (antisymmetric, zero on the diagonal), independent of
        representatives.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        edge_lookup = {tuple(e): i for i, e in enumerate(self.edges)}

        total = 0
        for tri in self.oriented_tris:
            v0, v1, v2 = sorted(tri)
            sign = 1 if (tuple(tri) in ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1))) else -1
            total += sign * a[edge_lookup[(v0, v1)]] * b[edge_lookup[(v1, v2)]]
        return int(total)


def boundary_surface(complex: SimplicialComplex3) -> SurfaceComplex:
    """The boundary faces with their induced (outward) orientation.

    Extracted once per complex and shared by every caller, so the surface is
    read-only.  Raises OpenBoundary if the boundary faces do not close up
    (some edge of a boundary face not shared by exactly two boundary faces).
    """
    return memo(complex, "boundary_surface", lambda: _extract_surface(complex))


def _extract_surface(complex: SimplicialComplex3) -> SurfaceComplex:
    face_ids = complex.boundary_faces
    ntris = len(face_ids)
    D2 = complex.D2.tocsc()
    tris = complex.faces[face_ids]

    # induced orientation: the sorted triple enters the tet boundary with the
    # sign D2[t, f]; flip the triple when that sign is -1
    oriented = tris.copy()
    for k, f in enumerate(face_ids):
        sign = D2.data[D2.indptr[f]:D2.indptr[f + 1]]
        if len(sign) != 1:
            raise OpenBoundary(f"face {f} marked boundary but not in exactly one tet")
        if sign[0] < 0:
            oriented[k, 1], oriented[k, 2] = oriented[k, 2], oriented[k, 1]

    # surface edges, canonical sorted pairs
    pair_local = np.array([(0, 1), (0, 2), (1, 2)])
    raw = tris[:, pair_local].reshape(-1, 2)
    edges, inv = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    counts = np.bincount(inv, minlength=len(edges))
    if len(edges) and not np.all(counts == 2):
        raise OpenBoundary("boundary faces do not close up into a surface")

    # directed traversal check: each edge must be run once in each direction
    dir_pairs = {}
    consistent = True
    for v0, v1, v2 in oriented:
        for u, v in ((v0, v1), (v1, v2), (v2, v0)):
            key = (min(u, v), max(u, v))
            dir_pairs.setdefault(key, []).append(u < v)
    for runs in dir_pairs.values():
        if len(runs) != 2 or runs[0] == runs[1]:
            consistent = False
            break

    parent_edge_lookup = {tuple(e): i for i, e in enumerate(complex.edges)}
    parent_edge_ids = np.array(
        [parent_edge_lookup[tuple(e)] for e in edges], dtype=np.int64
    )

    # face-edge incidence with parity signs, per oriented triple:
    # boundary of [w0,w1,w2] = (w1,w2) - (w0,w2) + (w0,w1), keys sorted
    rows, cols, data = [], [], []
    edge_lookup = {tuple(e): i for i, e in enumerate(edges)}
    for k, (w0, w1, w2) in enumerate(oriented):
        for verts, coeff in (((w1, w2), 1), ((w0, w2), -1), ((w0, w1), 1)):
            key = (min(verts), max(verts))
            s = 1 if verts[0] < verts[1] else -1
            rows.append(k)
            cols.append(edge_lookup[key])
            data.append(coeff * s)
    D1s = sp.csr_matrix((data, (rows, cols)), shape=(ntris, len(edges)), dtype=np.int64)

    # components by face adjacency through shared edges
    face_of_edge = sp.csr_matrix(
        (np.ones(3 * ntris), (inv, np.repeat(np.arange(ntris), 3))),
        shape=(len(edges), ntris),
    )
    adj = face_of_edge.T @ face_of_edge
    ncomp, labels = sp.csgraph.connected_components(adj, directed=False)
    # vertices in order of first appearance (faces in order, then corners)
    corners = oriented.ravel()
    _, first = np.unique(corners, return_index=True)
    first.sort()
    vertex_component = dict(zip(corners[first].tolist(), np.repeat(labels, 3)[first].tolist()))

    genus = []
    for comp in range(ncomp):
        fmask = labels == comp
        verts = np.unique(tris[fmask])
        emask = np.isin(edges[:, 0], verts) & np.isin(edges[:, 1], verts)
        chi = len(verts) - int(emask.sum()) + int(fmask.sum())
        genus.append((2 - chi) // 2)

    return SurfaceComplex(
        parent=complex,
        face_ids=face_ids,
        oriented_tris=oriented,
        edges=edges,
        parent_edge_ids=parent_edge_ids,
        D1s=D1s,
        face_component=labels,
        vertex_component=vertex_component,
        genus=genus,
        oriented=consistent,
    )
