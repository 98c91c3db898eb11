"""Boundary surface of a tetrahedral complex, with induced orientation.

The surface is a signed slice of the parent incidence: its edges are the
parent edges of the boundary faces, and its face-edge operator is the
parent's D1 restricted to those faces and edges, each row multiplied by the
face's D2 sign.  The homology machinery runs on it directly (needed for
trace boundary conditions on meshes whose boundary has genus >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import OpenBoundary
from .mesh import SimplicialComplex3, SpanningForest, memo, spanning_forest


@dataclass
class SurfaceComplex:
    """Closed oriented triangulated surface extracted from a parent complex."""

    edges: np.ndarray           # (Es,2) sorted vertex pairs (parent vertex ids)
    parent_edge_ids: np.ndarray  # (Es,) matching edge index in the parent
    D1s: sp.csr_matrix          # (Fs,Es) face-edge incidence of the surface
    vertex_component: np.ndarray  # (V,) component label per parent vertex, -1 off the boundary
    forest: SpanningForest      # of the surface edges over the parent's V vertices
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
        # each row of D1s holds the edges (v0,v1), (v0,v2), (v1,v2) in this
        # order, and its (v0,v1) entry is the face's orientation sign
        edges = self.D1s.indices.reshape(-1, 3)
        sign = self.D1s.data[::3]
        return int(np.sum(sign * np.asarray(a)[edges[:, 0]] * np.asarray(b)[edges[:, 2]]))


def boundary_surface(complex: SimplicialComplex3) -> SurfaceComplex:
    """The boundary faces with their induced (outward) orientation.

    Extracted once per complex, with its spanning forest, and shared by
    every caller, so the surface is read-only.  Its components are those of
    the forest, numbered in order of lowest vertex, so the forest's roots
    ascend in label order.
    Raises OpenBoundary if the boundary faces do not close up (some edge of
    a boundary face not shared by exactly two boundary faces).
    """
    return memo(complex, "boundary_surface", lambda: _extract_surface(complex))


def _extract_surface(complex: SimplicialComplex3) -> SurfaceComplex:
    face_ids = complex.boundary_faces
    # induced orientation: the sorted triple enters the tet boundary with the
    # sign D2[t, f]
    D2 = complex.D2.tocsc()[:, face_ids]
    single = np.diff(D2.indptr) == 1
    if not single.all():
        f = face_ids[np.argmin(single)]
        raise OpenBoundary(f"face {f} marked boundary but not in exactly one tet")

    D1 = complex.D1[face_ids]
    parent_edge_ids = np.unique(D1.indices).astype(np.int64)
    Es = len(parent_edge_ids)
    edges = complex.edges[parent_edge_ids]
    D1s = D1[:, parent_edge_ids]
    D1s.data *= np.repeat(D2.data, 3)
    if not np.all(np.bincount(D1s.indices, minlength=Es) == 2):
        raise OpenBoundary("boundary faces do not close up into a surface")
    # each edge is run once in each direction by consistently oriented faces
    oriented = not np.any(np.bincount(D1s.indices, weights=D1s.data, minlength=Es))

    # the forest's components, renumbered over the boundary vertices
    V = complex.num_vertices
    forest = spanning_forest(edges, V)
    verts = np.unique(edges)
    labels, vertex_label = np.unique(forest.component[verts], return_inverse=True)
    vertex_component = np.full(V, -1, dtype=np.int64)
    vertex_component[verts] = vertex_label
    ncomp = len(labels)
    chi = (
        np.bincount(vertex_label, minlength=ncomp)
        - np.bincount(vertex_component[edges[:, 0]], minlength=ncomp)
        + np.bincount(vertex_component[complex.faces[face_ids, 0]], minlength=ncomp)
    )

    return SurfaceComplex(
        edges=edges,
        parent_edge_ids=parent_edge_ids,
        D1s=D1s,
        vertex_component=vertex_component,
        forest=forest,
        genus=((2 - chi) // 2).tolist(),
        oriented=oriented,
    )
